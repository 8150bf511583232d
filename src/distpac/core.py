"""Domain types, samplers, target functions, and error measurement.

Everything downstream (protocols, ledgers, the CLI) builds on the types in
this module.  Labels are +/-1 throughout; boolean concepts output +1 for
true.  All randomness flows through :func:`streams`, which derives one
independent generator per tag tuple from an integer seed (:func:`stream` is
its one-tuple case), so any protocol trace can be replayed exactly.  A set
of hypotheses is evaluated on many points one way (:func:`predict_matrix`,
which :class:`MajorityOfSet` votes through).  Most protocols estimate a final
hypothesis's error with :func:`measure_errors`; README's list of error
columns names the ones that measure it otherwise.
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


class ProtocolError(RuntimeError):
    """A protocol run went off the rails: data that contradicts the declared
    concept class, a broken learner, no progress, or a broken rule of the
    communication model."""


def _words(value: int) -> tuple:
    """The uint32 words numpy's ``SeedSequence`` makes of a non-negative
    int: least significant first, and 0 as one zero word."""
    words = []
    while True:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        if not value:
            return tuple(words)


@functools.lru_cache(maxsize=4096)
def _tag_words(tag_repr: str) -> tuple:
    # Keyed on repr(tag), not on the tag: 1, True and 1.0 hash equal but
    # must stay distinct streams.
    digest = hashlib.sha256(tag_repr.encode("utf-8")).digest()
    return _words(int.from_bytes(digest[:8], "little"))


def stream(seed: int, *tags: object) -> np.random.Generator:
    """Derive a named random stream from (seed, tags).

    Distinct tag tuples give statistically independent generators; the same
    tuple always gives the same stream.  The entropy is the low 64 bits of
    the seed, then a sha256-derived 64-bit int per tag, handed to
    ``SeedSequence`` as the uint32 words it would split that int list into.
    """
    return streams(seed, (tags,))[0]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which numpy
# keeps stable across releases: the pool size, the entropy hash (A), the
# state hash (B) and the pool mixer.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n values init * mult**i mod 2**32 that a SeedSequence
    hash walks through (they do not depend on the data)."""
    out, c = [], init
    for _ in range(n):
        out.append(c)
        c = c * mult & 0xFFFFFFFF
    return np.array(out, dtype=np.uint32)


@functools.lru_cache(maxsize=64)
def _entropy_consts(start: int, stop: int) -> tuple:
    """(xor, multiplier) of the entropy hash for words start..stop-1 of a
    seed past the pool, each (stop - start, 4, 1).  Filling the pool takes
    the hash's calls 0..3 and cross-mixing it 4..15, so word i >= 4 is
    hashed into pool word d as call 16 + 4 (i - 4) + d."""
    fill = _POOL * _POOL
    a = _hash_consts(_INIT_A, _MULT_A, fill + _POOL * (stop - _POOL) + 1)
    words = np.arange(start, stop)[:, None, None]
    k = fill + _POOL * (words - _POOL) + np.arange(_POOL)[:, None]
    return a[k], a[k + 1]


# the state hash's consts: output word i xors b[i] and multiplies b[i + 1]
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)


def _mix_tail(pool: np.ndarray, W: np.ndarray, start: int) -> np.ndarray:
    """Mix words start.. (start >= 4) of each row of W into its pool
    (column p of the (4, P) array, updated in place), as ``mix_entropy``
    does past the pool."""
    L = W.shape[1]
    if start < L:
        xor, mult = _entropy_consts(start, L)
        hashed = (W[:, None, start:].T ^ xor) * mult  # (L-start, 4, P)
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        for mixed in hashed:  # pool = mix(pool, hashed word), word by word
            pool *= _MIX_L
            pool -= mixed
            pool ^= pool >> 16
    return pool


def _state_words(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each column of a (4, P) pool
    array, as (P, 4)."""
    b = _STATE_CONSTS[:, None]
    out = (np.concatenate([pool, pool]) ^ b[:-1]) * b[1:]
    out ^= out >> 16
    return np.ascontiguousarray(out.T).astype("<u4", copy=False) \
        .view("<u8").astype(np.uint64, copy=False)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words :func:`streams` made for it."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise TypeError(f"streams made 4 uint64 state words, "
                            f"not {n_words} of {dtype}")
        return self.words


# below 4 rows the vectorised pass's fixed cost is more than seeding each
# row by itself costs
_BATCH_ROWS = 4


def streams(seed: int, tag_tuples: Sequence[tuple]) -> list:
    """``[stream(seed, *tags) for tags in tag_tuples]``, bit for bit.

    A batch of at least ``_BATCH_ROWS`` rows of one length whose entropy
    words share a head of at least the pool's 4 (a halving wave: seed,
    "draw_sample", the protocol's tags) has numpy's ``SeedSequence`` hash
    done in one vectorised uint32 pass: the head is mixed into the pool
    once, by ``SeedSequence`` itself, and since the hash constants do not
    depend on the data, the rest of each row and its state words are hashed
    over (4, P) arrays.  Each generator is still its own ``PCG64``, seeded
    from its state words, so its draws are those of the per-tag stream.
    Every other batch takes numpy's own ``default_rng`` path, row by row.
    """
    seed_words = _words(int(seed) & 0xFFFFFFFFFFFFFFFF)
    rows = [seed_words + sum(map(_tag_words, map(repr, tags)), ())
            for tags in tag_tuples]
    L = len(rows[0]) if rows else 0
    if len(rows) >= _BATCH_ROWS and all(len(r) == L for r in rows):
        W = np.array(rows, dtype=np.uint32)
        same = (W == W[0]).all(axis=0).tolist()
        head = same.index(False) if False in same else L
        if head >= _POOL:
            pool = np.random.SeedSequence(W[0, :head]).pool
            pools = np.repeat(pool[:, None], len(rows), axis=1)
            return [np.random.Generator(np.random.PCG64(_StateWords(s)))
                    for s in _state_words(_mix_tail(pools, W, head))]
    return [np.random.default_rng(np.array(r, dtype=np.uint32))
            for r in rows]


def pm1(mask: np.ndarray, sign: int = 1) -> np.ndarray:
    """int8 labels of a bool mask: ``sign`` (+/-1, or an int8 array of them)
    where it holds, ``-sign`` elsewhere, as 2 sign mask - sign in int8."""
    out = mask.view(np.int8) * np.int8(2 * sign)  # one temporary
    return np.subtract(out, np.int8(sign), out=out)


def sign_pm1(values: np.ndarray) -> np.ndarray:
    """sign with the convention sign(0) = +1, returned as int8 +/-1."""
    return pm1(np.asarray(values) >= 0)


# ---------------------------------------------------------------------------
# Examples and samples
# ---------------------------------------------------------------------------


def boolean_rows(X: np.ndarray) -> np.ndarray:
    """Per-row mask of a 2-D array: True where every entry is 0 or 1
    (-0.0 counts as 0, NaN as neither).  A bool block answers without a
    pass."""
    if X.dtype == bool:
        return np.ones(X.shape[0], dtype=bool)
    return ((X == 0.0) | (X == 1.0)).all(axis=1)


@dataclass
class Sample:
    """An ordered set of labeled examples.

    Stored columnar (features matrix, label vector) so the protocols can
    vectorize.  A bool features block (what the 0/1 specs draw) is kept as
    it is; any other block is stored as float64.
    """

    features: np.ndarray  # shape (m, n)
    labels: np.ndarray  # shape (m,), values +/-1

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8).reshape(-1)
        X = np.asarray(self.features)
        if X.dtype != bool:
            X = X.astype(np.float64, copy=False)
        if X.ndim != 2:
            X = np.atleast_2d(X)
            if len(self) == 0:
                X = X.reshape(0, X.shape[-1])
        self.features = X
        if X.shape[0] != len(self):
            raise ConfigurationError("features/labels length mismatch")
        if not (np.abs(self.labels) == 1).all():  # int8: |-128| is -128
            raise ConfigurationError("labels must be +/-1")

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def is_boolean(self) -> bool:
        return bool(boolean_rows(self.features).all())


# ---------------------------------------------------------------------------
# Distribution specs
# ---------------------------------------------------------------------------


class DistributionSpec:
    """Declarative sampler for a player's distribution."""

    dim: int
    dtype = np.float64  # of the (m, dim) blocks ``draw`` returns

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformBoolean(DistributionSpec):
    """Uniform on {0,1}^n, drawn as an (m, n) bool block.

    ``draw`` takes a fresh PCG64, as ``draw_parts`` passes it from
    ``streams``, and reads the top bits of the 32-bit halves of its next
    ceil(mn/2) raw words, low half first: ``rng.integers(0, 2, (m, n)) ==
    1`` bit for bit.  A later ``random_raw`` or ``random`` reads what it
    would after numpy's draw, as both skip the half numpy keeps buffered.
    """

    n: int
    dtype = bool

    @property
    def dim(self) -> int:
        return self.n

    def draw(self, rng, m):
        total = m * self.n
        halves = rng.bit_generator.random_raw((total + 1) // 2) \
            .astype("<u8", copy=False).view("<u4")
        return (halves[:total] >= 1 << 31).reshape(m, self.n)


@dataclass(frozen=True)
class ProductBernoulli(DistributionSpec):
    """Independent bits, x_j = 1 with probability p[j], drawn as an
    (m, len(p)) bool block."""

    p: tuple
    dtype = bool

    @property
    def dim(self) -> int:
        return len(self.p)

    def draw(self, rng, m):
        probs = np.asarray(self.p, dtype=np.float64)
        return rng.random((m, len(probs))) < probs


@dataclass(frozen=True)
class UniformInterval(DistributionSpec):
    """Uniform on [lo, hi], as 1-D feature vectors: m points are m uniform
    doubles u, ``rng.random((m, 1))``, mapped by ``from_unit`` to lo +
    (hi - lo) * u, numpy's ``uniform`` bit for bit.  The range hi - lo must
    be a finite float."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigurationError("need lo < hi")
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ConfigurationError("need a finite range hi - lo")

    @property
    def dim(self) -> int:
        return 1

    def from_unit(self, U: np.ndarray) -> np.ndarray:
        """The points of uniform doubles U in [0, 1), written over U: the
        one mapping, which ``draw_parts`` also applies to doubles it reads
        from raw generator words.  A factor of 1 and, as U >= 0, a term of
        0 leave U as it is, so [0, 1) maps without a pass."""
        lo, width = float(self.lo), float(self.hi) - float(self.lo)
        if width != 1.0:
            U *= width
        if lo:
            U += lo
        return U

    def draw(self, rng, m):
        return self.from_unit(rng.random((m, 1)))


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


# ---------------------------------------------------------------------------
# Concepts: target functions and hypotheses share one evaluation interface
# ---------------------------------------------------------------------------

RULE_EXTRA_BITS = 2
# bits per real number in a message or an encoded hypothesis
PRECISION_BITS = 32


def rule_bits(n: int) -> int:
    """Encoded size of one decision-list rule triplet over n variables."""
    return math.ceil(math.log2(n + 1)) + RULE_EXTRA_BITS


class Concept:
    """Anything that labels points.  Targets and hypotheses both qualify."""

    dim: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels (+/-1 int8) for a (m, dim) feature matrix."""
        raise NotImplementedError

    def encoded_bits(self) -> int:
        raise NotImplementedError


def _evaluator(members: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of ``members`` on a feature matrix: (len(members), m) int8
    labels, row i = members[i].predict.

    Members that are all exactly ``Threshold`` (a subclass may change
    ``predict``) are evaluated in one broadcast; any other tuple stacks
    each member's ``predict``.  The evaluator is a ``functools.partial`` of
    a module function so that concepts holding one (``MajorityOfSet``)
    still pickle.
    """
    if all(type(h) is Threshold for h in members):
        t = np.array([h.t for h in members], dtype=np.float64)[:, None]
        sign = np.array([h.sign for h in members], dtype=np.int8)[:, None]
        return functools.partial(_threshold_matrix, t, sign)
    return functools.partial(_stack_predictions, members)


def _stack_predictions(members: tuple, X: np.ndarray) -> np.ndarray:
    return np.stack([h.predict(X) for h in members])


def _threshold_matrix(t: np.ndarray, sign: np.ndarray,
                      X: np.ndarray) -> np.ndarray:
    return pm1(X[:, 0] >= t, sign)


def predict_matrix(hypotheses: Sequence[Concept], X: np.ndarray) -> np.ndarray:
    """Labels of every hypothesis on every row of X: a (len(hypotheses),
    len(X)) int8 +/-1 matrix whose row i equals hypotheses[i].predict(X)."""
    return _evaluator(tuple(hypotheses))(X)


@dataclass(frozen=True)
class Threshold(Concept):
    """1-D threshold: ``sign`` if x >= t, else ``-sign``."""

    t: float
    sign: int

    @property
    def dim(self) -> int:
        return 1

    def predict(self, X):
        return pm1(X[:, 0] >= self.t, self.sign)


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

    def predict(self, X):
        # with no variable, every row's empty selection is all 1: +1
        return pm1(np.all(X[:, sorted(self.variables)] == 1.0, axis=1))

    def encoded_bits(self) -> int:
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
        return pm1(np.all((X >= lo) & (X <= hi), axis=1))

    def encoded_bits(self) -> int:
        return 2 * self.dim * PRECISION_BITS


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
        # each row's first firing rule (x_j == b), the default as a last
        # rule that always fires
        js, bs, outs = zip(*self.rules) if self.rules else ((), (), ())
        fires = np.ones((len(X), len(js) + 1), dtype=bool)
        np.equal(X[:, [j - 1 for j in js]], np.array(bs, X.dtype),
                 out=fires[:, :-1])
        first = fires.argmax(axis=1)
        return np.array(outs + (self.default,), dtype=np.int8)[first]


@dataclass(frozen=True)
class LinearSeparator(Concept):
    """Homogeneous linear separator sign(w . x), with sign(0) = +1."""

    w: tuple

    @property
    def dim(self) -> int:
        return len(self.w)

    def predict(self, X):
        return sign_pm1(X @ np.asarray(self.w, dtype=np.float64))

    def encoded_bits(self) -> int:
        return self.dim * PRECISION_BITS + 1


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
        # the XOR of the support columns of the 0/1 block, as bools
        support = X[:, np.flatnonzero(self.vector)].astype(bool, copy=False)
        odd = np.bitwise_xor.reduce(support, axis=1)
        return pm1(odd)

    def encoded_bits(self) -> int:
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


@dataclass(frozen=True)
class MajorityOfSet(Concept):
    """Unweighted majority vote; ties go to +1."""

    members: tuple
    # the members' evaluator, built once per vote, not once per call
    _predict_all: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_predict_all", _evaluator(self.members))

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def predict(self, X):
        return sign_pm1(self._predict_all(X).sum(axis=0, dtype=np.int64))


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
        return pm1(ok)


# ---------------------------------------------------------------------------
# Sampling and error measurement
# ---------------------------------------------------------------------------

# points per Monte-Carlo error estimate of a protocol's final hypothesis
M_EVAL = 2000


def draw_sample(spec: DistributionSpec, f: Concept, m: int, seed: int,
                *, noise_rate: float = 0.0, tags: tuple = ()) -> Sample:
    """Draw m labeled examples from spec, labeled by f.

    Deterministic given (spec, f, m, seed, tags).  ``noise_rate`` flips each
    label independently (used by the agnostic protocols).
    """
    return draw_parts(spec, f, (m,), seed, noise_rate=noise_rate,
                      tags=(tags,))


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles numpy's ``random`` makes of PCG64 words w, (w >> 11) *
    2**-53, written over the words: a fresh block for a large draw costs
    page faults, and shifted words convert faster as int64 than as
    uint64."""
    np.right_shift(words, 11, out=words)
    U = words.view(np.float64)
    U[...] = words.view(np.int64)
    U *= 2.0 ** -53
    return U


def _flipped(words: np.ndarray, noise_rate: float) -> np.ndarray:
    """Which labels flip words w flip: those whose double (w >> 11) *
    2**-53 is below noise_rate, as numpy's ``random() < noise_rate``.  For
    the integer w >> 11 that is w >> 11 < ceil(noise_rate * 2**53), so w
    itself is compared with that bound times 2**11 (a rate of 1 or more
    flips every label)."""
    return words < math.ceil(min(noise_rate, 1.0) * 2.0 ** 53) << 11


def _joined(blocks: list, shape: tuple, dtype, axis: int = 0) -> np.ndarray:
    """The blocks concatenated along axis, a single block as it is; with no
    blocks, an empty array of the given shape and dtype."""
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate([np.empty(shape, dtype), *blocks], axis=axis)


def draw_parts(spec: DistributionSpec, f: Concept, sizes: Sequence[int],
               seed: int, *, noise_rate: float = 0.0,
               tags: Sequence[tuple]) -> Sample:
    """One Sample holding, in order, part p = ``draw_sample(spec, f,
    sizes[p], seed, noise_rate=noise_rate, tags=tags[p])`` for every p.

    Each part draws its points, then (if the labels are noisy) one flip
    word per point, from its own stream, so the parts are exactly the
    per-part draws; a label flips when its word's double is below
    ``noise_rate``.  A ``UniformInterval`` part is one ``random_raw`` call
    for its points' and flips' words, and the points of every part become
    doubles and are mapped by ``from_unit`` at once; any other spec draws
    part by part with ``spec.draw``.  The whole block is labelled by f in
    one ``predict``.
    """
    if len(sizes) != len(tags):
        raise ConfigurationError("need one tag tuple per part")
    if any(m < 0 for m in sizes):
        raise ConfigurationError("m must be >= 0")
    if spec.dim != f.dim:
        raise ConfigurationError(
            f"spec dimension {spec.dim} != target dimension {f.dim}")
    noisy = noise_rate > 0.0
    d = spec.dim
    rngs = streams(seed, [("draw_sample", *t) for t in tags])
    if isinstance(spec, UniformInterval):
        # part p's words: m_p points, then (if noisy) m_p flips; read as
        # rows and joined, so row 0 holds every point and row 1 every flip
        rows = 1 + noisy
        W = _joined([rng.bit_generator.random_raw((rows, m))
                     for m, rng in zip(sizes, rngs)],
                    (rows, 0), np.uint64, axis=1)
        X = spec.from_unit(_unit_doubles(W[0])[:, None])
        flips = W[-1]
    else:
        blocks, flips = [], []
        for m, rng in zip(sizes, rngs):
            blocks.append(spec.draw(rng, m).reshape(m, d))
            if noisy:
                flips.append(rng.bit_generator.random_raw(m))
        X = _joined(blocks, (0, d), spec.dtype)
        if noisy:
            flips = _joined(flips, (0,), np.uint64)
    if not len(X):
        return Sample(X, np.zeros(0, dtype=np.int8))
    y = f.predict(X)
    if noisy:
        y = np.negative(y, out=y.copy(), where=_flipped(flips, noise_rate))
    return Sample(X, y)


def sample_error(h: Concept, sample: Sample) -> float:
    """Exact fraction of the sample's examples that h mislabels."""
    if len(sample) == 0:
        return 0.0
    wrong = np.count_nonzero(h.predict(sample.features) != sample.labels)
    return wrong / len(sample)


def check_consistent(h: Concept, samples: Sequence[Sample],
                     message: str) -> None:
    """Raise ProtocolError(message) if h mislabels an example of samples."""
    if any(sample_error(h, s) > 0.0 for s in samples):
        raise ProtocolError(message)


def measure_errors(h: Concept | Sequence[Concept],
                   specs: Sequence[DistributionSpec], f: Concept,
                   seed: int) -> dict | list:
    """Monte-Carlo error of a final hypothesis against f: per player, on
    M_EVAL // k points of its own distribution, and their mean over the
    mixture.

    Each player's points are its own ``draw_sample``; h predicts on all of
    them at once, and part i's error is its mistake count over m, the float
    ``sample_error`` gives.  Given a sequence of hypotheses, every one is
    measured on the same one draw, and the result is the list of their
    error dicts.
    """
    m = max(1, M_EVAL // len(specs))
    parts = [draw_sample(spec, f, m, seed, tags=("spec_error", "mixture", i))
             for i, spec in enumerate(specs)]
    X = np.concatenate([s.features for s in parts])
    y = np.concatenate([s.labels for s in parts])
    out = []
    for g in ([h] if isinstance(h, Concept) else h):
        wrong = (g.predict(X) != y).reshape(len(parts), m)
        errors = {f"p{i + 1}": c / m for i, c in
                  enumerate(np.count_nonzero(wrong, axis=1).tolist())}
        errors["mixture"] = float(np.mean(list(errors.values())))
        out.append(errors)
    return out[0] if isinstance(h, Concept) else out


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
