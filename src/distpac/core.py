"""Domain types, samplers, target functions, and error measurement.

Everything downstream (protocols, ledgers, the CLI) builds on the types in
this module.  Labels are +/-1 throughout; boolean concepts output +1 for
true.  All randomness flows through :func:`stream`, which derives an
independent generator from an integer seed plus a tuple of tags, so any
protocol trace can be replayed exactly.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent parameters (dimension mismatch, bad ranges, ...)."""


class RealizabilityError(RuntimeError):
    """Data contradicts the declared concept class."""


class ProtocolError(RuntimeError):
    """A protocol run went off the rails (broken learner, no progress)."""


@functools.lru_cache(maxsize=4096)
def _tag_to_int(tag_repr: str) -> int:
    # Keyed on repr(tag), not on the tag: 1, True and 1.0 hash equal but
    # must stay distinct streams.
    digest = hashlib.sha256(tag_repr.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *tags: object) -> np.random.Generator:
    """Derive a named random stream from (seed, tags).

    Distinct tag tuples give statistically independent generators; the same
    tuple always gives the same stream.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy += [_tag_to_int(repr(t)) for t in tags]
    return np.random.default_rng(entropy)


def sign_pm1(values: np.ndarray) -> np.ndarray:
    """sign with the convention sign(0) = +1, returned as int8 +/-1."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# Examples and samples
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """An ordered, weighted set of labeled examples.

    Stored columnar (features matrix, label vector, weight vector) so the
    protocols can vectorize.
    """

    features: np.ndarray  # shape (m, n)
    labels: np.ndarray  # shape (m,), values +/-1
    weights: np.ndarray | None = None  # shape (m,), nonnegative; default all 1

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if len(self) == 0:
            self.features = self.features.reshape(0, self.features.shape[-1])
        self.labels = np.asarray(self.labels, dtype=np.int8).reshape(-1)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("features/labels length mismatch")
        if len(self) and not np.all((self.labels == 1)
                                    | (self.labels == -1)):
            raise ConfigurationError("labels must be +/-1")
        if self.weights is None:
            self.weights = np.ones(len(self), dtype=np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
            if self.weights.shape[0] != len(self):
                raise ConfigurationError("weights length mismatch")
            if len(self) and self.weights.min() < 0:
                raise ConfigurationError("weights must be nonnegative")

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def is_boolean(self) -> bool:
        return bool(np.all((self.features == 0.0) | (self.features == 1.0)))


# ---------------------------------------------------------------------------
# Distribution specs
# ---------------------------------------------------------------------------


class DistributionSpec:
    """Declarative sampler for a player's distribution."""

    dim: int

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformBoolean(DistributionSpec):
    n: int

    @property
    def dim(self) -> int:
        return self.n

    def draw(self, rng, m):
        return rng.integers(0, 2, size=(m, self.n)).astype(np.float64)


@dataclass(frozen=True)
class ProductBernoulli(DistributionSpec):
    p: tuple

    @property
    def dim(self) -> int:
        return len(self.p)

    def draw(self, rng, m):
        probs = np.asarray(self.p, dtype=np.float64)
        return (rng.random((m, len(probs))) < probs).astype(np.float64)


@dataclass(frozen=True)
class UniformInterval(DistributionSpec):
    """Uniform on [lo, hi], as 1-D feature vectors."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigurationError("need lo < hi")

    @property
    def dim(self) -> int:
        return 1

    def draw(self, rng, m):
        return rng.uniform(self.lo, self.hi, size=(m, 1))


@dataclass(frozen=True)
class UniformSphere(DistributionSpec):
    d: int

    @property
    def dim(self) -> int:
        return self.d

    def draw(self, rng, m):
        g = rng.standard_normal((m, self.d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return g / norms


@dataclass(frozen=True)
class PointMassList(DistributionSpec):
    points: tuple  # tuple of coordinate tuples
    probabilities: tuple

    def __post_init__(self):
        if len(self.points) != len(self.probabilities):
            raise ConfigurationError("points/probabilities length mismatch")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ConfigurationError("probabilities must sum to 1")
        if any(p < 0 for p in self.probabilities):
            raise ConfigurationError("probabilities must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def draw(self, rng, m):
        pts = np.asarray(self.points, dtype=np.float64)
        idx = rng.choice(len(pts), size=m, p=np.asarray(self.probabilities))
        return pts[idx]


@dataclass(frozen=True)
class FixedOrderedList(DistributionSpec):
    """Deterministic point source: yields the listed points in order, cycling."""

    points: tuple

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def draw(self, rng, m):
        pts = np.asarray(self.points, dtype=np.float64)
        idx = np.arange(m) % len(pts)
        return pts[idx]


# ---------------------------------------------------------------------------
# Concepts: target functions and hypotheses share one evaluation interface
# ---------------------------------------------------------------------------

RULE_EXTRA_BITS = 2


def rule_bits(n: int) -> int:
    """Encoded size of one decision-list rule triplet over n variables."""
    return math.ceil(math.log2(n + 1)) + RULE_EXTRA_BITS


class Concept:
    """Anything that labels points.  Targets and hypotheses both qualify."""

    dim: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels (+/-1 int8) for a (m, dim) feature matrix."""
        raise NotImplementedError

    def predict_one(self, x: np.ndarray) -> int:
        return int(self.predict(np.atleast_2d(np.asarray(x, dtype=np.float64)))[0])

    def encoded_bits(self, precision_bits: int = 32) -> int:
        raise NotImplementedError

    @classmethod
    def family(cls, members: tuple) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator of ``members`` (instances of ``cls``) on a feature
        matrix: (len(members), m) int8 labels, row i = members[i].predict.

        The default stacks each member's ``predict``; a class overrides it
        with one broadcast over the whole family, and a subclass that
        changes ``predict`` must override it again.  The evaluator is a
        ``functools.partial`` of a module function so that concepts holding
        one (``MajorityOfSet``) still pickle.
        """
        return functools.partial(_stack_predictions, members)


def _stack_predictions(members: tuple, X: np.ndarray) -> np.ndarray:
    rows = [h.predict(X) for h in members]
    return np.stack(rows) if rows else np.empty((0, len(X)), np.int8)


def _family(hypotheses: Sequence[Concept]) -> Callable:
    members = tuple(hypotheses)
    kinds = {type(h) for h in members}
    cls = kinds.pop() if len(kinds) == 1 else Concept
    return cls.family(members)


def predict_matrix(hypotheses: Sequence[Concept], X: np.ndarray) -> np.ndarray:
    """Labels of every hypothesis on every row of X: a (len(hypotheses),
    len(X)) int8 +/-1 matrix whose row i equals hypotheses[i].predict(X)."""
    return _family(hypotheses)(X)


@dataclass(frozen=True)
class Threshold(Concept):
    """1-D threshold: ``sign`` if x >= t, else ``-sign``."""

    t: float
    sign: int

    @property
    def dim(self) -> int:
        return 1

    def predict(self, X):
        raw = np.where(X[:, 0] >= self.t, self.sign, -self.sign)
        return raw.astype(np.int8)

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return precision_bits + 1

    @classmethod
    def family(cls, members):
        t = np.array([h.t for h in members], dtype=np.float64)[:, None]
        sign = np.array([h.sign for h in members], dtype=np.int8)[:, None]
        return functools.partial(_threshold_matrix, t, sign)


def _threshold_matrix(t: np.ndarray, sign: np.ndarray,
                      X: np.ndarray) -> np.ndarray:
    return np.where(X[:, 0] >= t, sign, -sign)


@dataclass(frozen=True)
class Conjunction(Concept):
    """Monotone conjunction: +1 iff every listed variable equals 1."""

    n: int
    variables: frozenset

    def __post_init__(self):
        object.__setattr__(self, "variables", frozenset(self.variables))
        if any(not (0 <= j < self.n) for j in self.variables):
            raise ConfigurationError("conjunction variable out of range")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def mask(self) -> int:
        """Bitmask with bit j set iff variable j participates."""
        m = 0
        for j in self.variables:
            m |= 1 << j
        return m

    def predict(self, X):
        idx = sorted(self.variables)
        if not idx:
            return np.ones(X.shape[0], dtype=np.int8)
        ok = np.all(X[:, idx] == 1.0, axis=1)
        return np.where(ok, 1, -1).astype(np.int8)

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return self.n


@dataclass(frozen=True)
class Box(Concept):
    """Axis-parallel box with closed boundaries."""

    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.lo)

    def predict(self, X):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        ok = np.all((X >= lo) & (X <= hi), axis=1)
        return np.where(ok, 1, -1).astype(np.int8)

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return 2 * self.dim * precision_bits

    @classmethod
    def empty(cls, d: int) -> "Box":
        return cls(lo=(math.inf,) * d, hi=(-math.inf,) * d)


@dataclass(frozen=True)
class DecisionListFunc(Concept):
    """Ordered rules (j, b, out) over n boolean variables, then a default.

    ``j`` is a 1-based variable index; ``out`` and ``default`` are +/-1.
    """

    n: int
    rules: tuple  # tuple of (j, b, out)
    default: int

    def __post_init__(self):
        for (j, b, out) in self.rules:
            if not (1 <= j <= self.n) or b not in (0, 1) or out not in (-1, 1):
                raise ConfigurationError(f"bad rule {(j, b, out)}")
        if self.default not in (-1, 1):
            raise ConfigurationError("default must be +/-1")

    @property
    def dim(self) -> int:
        return self.n

    def predict(self, X):
        out = np.full(X.shape[0], self.default, dtype=np.int8)
        undecided = np.ones(X.shape[0], dtype=bool)
        for (j, b, c) in self.rules:
            fires = undecided & (X[:, j - 1] == float(b))
            out[fires] = c
            undecided &= ~fires
        return out

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return (len(self.rules) + 1) * rule_bits(self.n)

    def alternations(self) -> int:
        """Number of output sign changes along the list (else-rule included)."""
        outs = [c for (_, _, c) in self.rules] + [self.default]
        return sum(1 for a, b in zip(outs, outs[1:]) if a != b)


@dataclass(frozen=True)
class LinearSeparator(Concept):
    """Homogeneous linear separator sign(w . x), with sign(0) = +1."""

    w: tuple

    @property
    def dim(self) -> int:
        return len(self.w)

    def predict(self, X):
        return sign_pm1(X @ np.asarray(self.w, dtype=np.float64))

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return self.dim * precision_bits + 1

    @classmethod
    def unit(cls, w) -> "LinearSeparator":
        w = np.asarray(w, dtype=np.float64)
        nrm = np.linalg.norm(w)
        if abs(nrm - 1.0) > 1e-9:
            raise ConfigurationError("target separator must have unit norm")
        return cls(tuple(w))


@dataclass(frozen=True)
class ParityFunc(Concept):
    """Parity over a subset of boolean variables: +1 iff <v, x> = 1 mod 2."""

    n: int
    vector: tuple  # n bits

    def __post_init__(self):
        if len(self.vector) != self.n or any(v not in (0, 1) for v in self.vector):
            raise ConfigurationError("parity vector must be n bits")

    @property
    def dim(self) -> int:
        return self.n

    def predict(self, X):
        v = np.asarray(self.vector, dtype=np.int64)
        dots = (X.astype(np.int64) @ v) % 2
        return np.where(dots == 1, 1, -1).astype(np.int8)

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return self.n


@dataclass(frozen=True)
class WeightedMajority(Concept):
    """sign of a weighted vote over member concepts; sign(0) = +1."""

    members: tuple  # tuple of (Concept, weight)

    @property
    def dim(self) -> int:
        return self.members[0][0].dim

    def predict(self, X):
        total = np.zeros(X.shape[0], dtype=np.float64)
        for h, w in self.members:
            total += w * h.predict(X)
        return sign_pm1(total)

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return sum(h.encoded_bits(precision_bits) + precision_bits
                   for h, _ in self.members)


@dataclass(frozen=True)
class MajorityOfSet(Concept):
    """Unweighted majority vote; ties go to +1."""

    members: tuple
    # the members' family evaluator, built once per vote, not once per call
    _predict_all: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_predict_all", _family(self.members))

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def predict(self, X):
        return sign_pm1(self._predict_all(X).sum(axis=0, dtype=np.int64))

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return sum(h.encoded_bits(precision_bits) for h in self.members)


@dataclass(frozen=True)
class IntervalUnion(Concept):
    """Union of closed intervals on the line: +1 inside any of them."""

    intervals: tuple  # tuple of (lo, hi)

    @property
    def dim(self) -> int:
        return 1

    def predict(self, X):
        x = X[:, 0]
        ok = np.zeros(x.shape[0], dtype=bool)
        for lo, hi in self.intervals:
            ok |= (x >= lo) & (x <= hi)
        return np.where(ok, 1, -1).astype(np.int8)

    def encoded_bits(self, precision_bits: int = 32) -> int:
        return max(1, 2 * len(self.intervals) * precision_bits)


# ---------------------------------------------------------------------------
# Sampling and error measurement
# ---------------------------------------------------------------------------


def draw_sample(spec: DistributionSpec, f: Concept, m: int, seed: int,
                *, noise_rate: float = 0.0, tags: tuple = ()) -> Sample:
    """Draw m labeled examples from spec, labeled by f.

    Deterministic given (spec, f, m, seed, tags).  ``noise_rate`` flips each
    label independently (used by the agnostic protocols).
    """
    if m < 0:
        raise ConfigurationError("m must be >= 0")
    if spec.dim != f.dim:
        raise ConfigurationError(
            f"spec dimension {spec.dim} != target dimension {f.dim}")
    rng = stream(seed, "draw_sample", *tags)
    X = spec.draw(rng, m)
    y = f.predict(X) if m else np.zeros(0, dtype=np.int8)
    if noise_rate > 0.0 and m:
        flips = rng.random(m) < noise_rate
        y = np.where(flips, -y, y).astype(np.int8)
    return Sample(X.reshape(m, spec.dim), y)


def sample_error(h: Concept, sample: Sample) -> float:
    """Exact weighted disagreement of h with the sample's labels, in [0, 1]."""
    if len(sample) == 0:
        return 0.0
    total = float(sample.weights.sum())
    if total == 0.0:
        return 0.0
    wrong = sample.weights[h.predict(sample.features) != sample.labels].sum()
    return float(wrong) / total


def spec_error(h: Concept, spec: DistributionSpec, f: Concept, m_eval: int,
               seed: int, *, noise_rate: float = 0.0, tags: tuple = ()) -> float:
    """Monte-Carlo error of h against f under one distribution."""
    if m_eval < 1:
        raise ConfigurationError("m_eval must be >= 1")
    sample = draw_sample(spec, f, m_eval, seed, noise_rate=noise_rate,
                         tags=("spec_error",) + tags)
    return sample_error(h, sample)


def measure_errors(h: Concept, specs: Sequence[DistributionSpec], f: Concept,
                   m_eval: int, seed: int, *, noise_rate: float = 0.0) -> dict:
    """Per-player plus mixture error estimates for a final hypothesis."""
    errors = {}
    per_player = []
    for i, spec in enumerate(specs):
        e = spec_error(h, spec, f, max(1, m_eval // len(specs)), seed,
                       noise_rate=noise_rate, tags=("mixture", i))
        errors[f"p{i + 1}"] = e
        per_player.append(e)
    errors["mixture"] = float(np.mean(per_player))
    return errors


# ---------------------------------------------------------------------------
# Protocol results
# ---------------------------------------------------------------------------


@dataclass
class ProtocolResult:
    """Final hypotheses per receiver, the cost ledger, and measured errors."""

    hypotheses: dict  # receiver id -> Concept
    ledger: "object"  # channel.CostLedger; kept loose to avoid a cycle
    errors: dict = field(default_factory=dict)
    trace: list | None = None
    meta: dict = field(default_factory=dict)
