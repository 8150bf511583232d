"""Distributed boosting with weight-proportional presampling.

Per round the center multinomially splits a fixed weak-learning budget
across players according to their (quantized) total weights, players ship
that many weight-proportional examples, the center fits and broadcasts a
weak hypothesis, and everyone reweights locally.  Only the examples,
counts, one weak hypothesis, and a pair of quantized scalars per player
cross the channel each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channel
from .closed import pac_sample_size
from .core import (Concept, ConfigurationError, DistributionSpec,
                   ProtocolError, ProtocolResult, Sample, WeightedMajority,
                   draw_sample, measure_errors, pm1, sign_pm1, stream)


def quantize(x: float | np.ndarray, q: int | None) -> float | np.ndarray:
    """Truncate x to q mantissa bits after the implicit leading bit.

    x is a scalar or an ndarray; a scalar gives a float, an ndarray an
    ndarray of the same shape, entry by entry bit-identical to the scalar
    call.  q = None means exact (x is returned unchanged).  Truncation keeps
    each value in [x(1 - 2^-q), x], so k quantized weights shift total
    variation by at most k * 2^-q; from q = 52 on, x is returned unchanged.
    """
    if q is None:
        return x if np.ndim(x) else float(x)
    a = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(a).all() and (a >= 0.0).all()):
        raise ConfigurationError("weights must be finite and nonnegative")
    if q >= 52:  # float64's mantissa bits: truncation keeps every one
        return a if a.ndim else float(a)
    m, e = np.frexp(a)
    scale = float(1 << (q + 1))
    out = np.ldexp(np.floor(m * scale) / scale, e)
    return out if a.ndim else float(out)


def boosting_rounds(eps: float, beta: float) -> int:
    """T = ceil(ln(1/eps) / (2 (1/2 - beta)^2))."""
    if not (0 < beta < 0.5):
        raise ConfigurationError("beta must lie in (0, 1/2)")
    return math.ceil(math.log(1.0 / eps) / (2.0 * (0.5 - beta) ** 2))


def weak_sample_size(d_class: int, beta: float) -> int:
    """Per-round example budget 4 * (d/beta) * ln(1/beta)."""
    return math.ceil(4.0 * (d_class / beta) * math.log(1.0 / beta))


def adaboost_reweight(weights: np.ndarray, correct: np.ndarray,
                      alpha: float) -> np.ndarray:
    """Multiply by e^-alpha where the weak hypothesis is right, e^alpha
    where it is wrong."""
    return weights * np.where(correct, math.exp(-alpha), math.exp(alpha))


# ---------------------------------------------------------------------------
# Weak learner: decision stumps over boolean features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionStump(Concept):
    """h(x) = out if x_j = 1 else -out; j = -1 is the constant stump."""

    n: int
    j: int
    out: int

    @property
    def dim(self) -> int:
        return self.n

    def predict(self, X):
        X = np.atleast_2d(X)
        if self.j < 0:
            return np.full(X.shape[0], self.out, dtype=np.int8)
        return pm1(X[:, self.j] == 1.0, self.out)

    def encoded_bits(self) -> int:
        return math.ceil(math.log2(self.n + 1)) + 1


def best_stump(sample: Sample) -> DecisionStump:
    """Minimum-error stump on an unweighted sample of 0/1 features; ties go
    to the constant stump first, then the lowest feature index, then
    out = +1."""
    X, y = sample.features, sample.labels.astype(np.float64)
    n = X.shape[1]
    # candidate errors in tie order: (-1, +1), (-1, -1), (0, +1), (0, -1),
    # ...; argmin takes the first minimum.  Stump (j, +1) errs on the
    # positives with x_j = 0 and the negatives with x_j = 1: #positives
    # - y . x_j of them, an exact count in float64
    errs = np.empty(2 * n + 2)
    errs[0] = np.mean(y == -1)
    errs[2::2] = (np.count_nonzero(y == 1) - y @ X) / len(y)
    errs[1::2] = 1.0 - errs[0::2]
    best = int(errs.argmin())
    return DecisionStump(n, best // 2 - 1, 1 - 2 * (best % 2))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _boost_loop(samples: Sequence[Sample], T: int, m_weak: int,
                q: int | None, seed: int, ledger: channel.CostLedger) -> dict:
    """Shared core of the distributed run and the single-machine reference.

    Charging touches neither the random streams nor the arithmetic, so a
    k = 1 exact-weight distributed run and the single-machine run produce
    bit-identical ensembles.
    """
    k = len(samples)
    # every player's examples in one block; player i owns rows [a_i, b_i)
    X = np.concatenate([s.features for s in samples])
    y = np.concatenate([s.labels for s in samples])
    ends = np.cumsum([len(s) for s in samples]).tolist()
    owned = list(zip([0] + ends[:-1], ends))
    weights = np.ones(len(y), dtype=np.float64)
    # running sum of alpha_t * h_t(x), added in WeightedMajority.predict's
    # member order, so its sign is the ensemble's prediction bit for bit
    margins = np.zeros(len(y), dtype=np.float64)
    split_rng = stream(seed, "boost", "split")
    draw_rngs = [stream(seed, "boost", "draw", i) for i in range(k)]
    hs: list = []
    alphas: list = []
    telemetry: list = []
    bound = 1.0
    cw = channel.count_width(m_weak)
    players = [f"p{i + 1}" for i in range(k)]
    for t in range(T):
        # slice sums: a zero-filled whole-block sum would round differently
        totals = quantize(np.array([weights[a:b].sum() for a, b in owned]), q)
        if not totals.sum() > 0.0:
            raise ProtocolError(f"boosting round {t + 1}: every weight "
                                "underflowed to 0")
        counts = split_rng.multinomial(m_weak,
                                       totals / totals.sum()).tolist()
        wq = quantize(weights, q)
        drawn = []
        for (a, b), rng, c in zip(owned, draw_rngs, counts):
            if c:  # Generator.choice(p=...)'s inverse-CDF draw
                cdf = (wq[a:b] / wq[a:b].sum()).cumsum()
                cdf /= cdf[-1]
                drawn.append(cdf.searchsorted(rng.random(c), side="right")
                             + a)
        idx = np.concatenate(drawn)
        shipped = Sample(X[idx], y[idx])
        # the round's block is priced in one pass, charged per example
        bits = channel.example_bits(shipped.features)
        start = 0
        for player, c in zip(players, counts):
            channel.send_count(ledger, channel.CENTER, player, c, cw)
            for nbits in bits[start:start + c]:
                channel.send_example(ledger, player, channel.CENTER, nbits)
            start += c
        h_t = best_stump(shipped)
        channel.send_hypothesis(ledger, channel.CENTER, channel.BROADCAST,
                                h_t)
        preds = h_t.predict(X)
        correct = preds == y
        mistakes = quantize(np.array([weights[a:b][~correct[a:b]].sum()
                                      for a, b in owned]), q).tolist()
        mistake_w, total_w = 0.0, 0.0
        for i in range(k):
            mistake_w += mistakes[i]
            total_w += float(totals[i])
            channel.send(ledger, players[i], channel.CENTER,
                         2 * (64 if q is None else q))
        eps_t = min(max(mistake_w / total_w, 1e-12), 1.0 - 1e-12)
        alpha_t = 0.5 * math.log((1.0 - eps_t) / eps_t)
        channel.send(ledger, channel.CENTER, channel.BROADCAST, 64)
        channel.advance_round(ledger, "round")
        weights = adaboost_reweight(weights, correct, alpha_t)
        margins += alpha_t * preds
        wrong = int((sign_pm1(margins) != y).sum())
        hs.append(h_t)
        alphas.append(alpha_t)
        bound *= 2.0 * math.sqrt(eps_t * (1.0 - eps_t))
        telemetry.append({"round": t + 1, "eps_t": eps_t, "alpha_t": alpha_t,
                          "examples": sum(counts),
                          "train_error": wrong / len(y),
                          "train_bound": bound})
    return {"hypothesis": WeightedMajority(tuple(zip(hs, alphas))),
            "telemetry": telemetry, "alphas": alphas, "weak": hs}


def adaboost_single(sample: Sample, T: int, m_weak: int, seed: int) -> dict:
    """Single-machine AdaBoost with the same presampled weak-learning step."""
    return _boost_loop([sample], T, m_weak, None, seed, channel.CostLedger())


def run_distributed_boosting(specs: Sequence[DistributionSpec], f: Concept,
                             eps: float, delta: float, seed: int, *,
                             beta: float = 0.25, q: int | None = 32
                             ) -> ProtocolResult:
    """Boost a beta-weak learner to error eps over the mixture.

    Communication per round is m_weak examples, k counts, one weak
    hypothesis, and 2k quantized weight scalars.
    """
    k = len(specs)
    T = boosting_rounds(eps, beta)
    m_weak = weak_sample_size(f.dim, beta)
    m_i = pac_sample_size(f.dim, eps, k, delta)
    samples = [draw_sample(spec, f, m_i, seed, tags=("boost", i))
               for i, spec in enumerate(specs)]
    ledger = channel.CostLedger()
    out = _boost_loop(samples, T, m_weak, q, seed, ledger)
    h = out["hypothesis"]
    errors = measure_errors(h, specs, f, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors,
                          meta={"telemetry": out["telemetry"],
                                "m_weak": m_weak, "m_per_player": m_i,
                                "weak": out["weak"], "alphas": out["alphas"]})
