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
from typing import Callable, Sequence

import numpy as np

from . import channel
from .closed import pac_sample_size
from .core import (M_EVAL, Concept, ConfigurationError, DistributionSpec,
                   ProtocolResult, Sample, WeightedMajority, draw_sample,
                   measure_errors, sign_pm1, stream)


def quantize(x: float | np.ndarray, q: int | None) -> float | np.ndarray:
    """Truncate x to q mantissa bits after the implicit leading bit.

    x is a scalar or an ndarray; a scalar gives a float, an ndarray an
    ndarray of the same shape, entry by entry bit-identical to the scalar
    call.  q = None means exact (x is returned unchanged).  Truncation keeps
    each value in [x(1 - 2^-q), x], so k quantized weights shift total
    variation by at most k * 2^-q.
    """
    if q is None:
        return x if np.ndim(x) else float(x)
    a = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(a).all() and (a >= 0.0).all()):
        raise ConfigurationError("weights must be finite and nonnegative")
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
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.j < 0:
            return np.full(X.shape[0], self.out, dtype=np.int8)
        raw = np.where(X[:, self.j] == 1.0, self.out, -self.out)
        return raw.astype(np.int8)

    def encoded_bits(self) -> int:
        return math.ceil(math.log2(self.n + 1)) + 1


def best_stump(sample: Sample) -> DecisionStump:
    """Minimum-error stump on an unweighted sample; ties go to the constant
    stump first, then the lowest feature index, then out = +1."""
    X, y = sample.features, sample.labels.astype(np.float64)
    m, n = X.shape
    err_const_pos = float(np.mean(y == -1))
    best = DecisionStump(n, -1, 1)
    best_err = err_const_pos
    if 1.0 - err_const_pos < best_err:
        best, best_err = DecisionStump(n, -1, -1), 1.0 - err_const_pos
    pred_pos = 2.0 * X - 1.0  # column j = stump (j, +1) predictions
    errs = np.mean(pred_pos != y[:, None], axis=0)
    for j in range(n):
        if errs[j] < best_err:
            best, best_err = DecisionStump(n, j, 1), float(errs[j])
        if 1.0 - errs[j] < best_err:
            best, best_err = DecisionStump(n, j, -1), float(1.0 - errs[j])
    return best


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _boost_loop(samples: Sequence[Sample], T: int, m_weak: int,
                q: int | None, seed: int,
                weak_learner: Callable[[Sample], Concept],
                ledger: channel.CostLedger) -> dict:
    """Shared core of the distributed run and the single-machine reference.

    Charging touches neither the random streams nor the arithmetic, so a
    k = 1 exact-weight distributed run and the single-machine run produce
    bit-identical ensembles.
    """
    k = len(samples)
    weights = [np.ones(len(s), dtype=np.float64) for s in samples]
    # running sum of alpha_t * h_t(x), added in WeightedMajority.predict's
    # member order, so its sign is the ensemble's prediction bit for bit
    margins = [np.zeros(len(s), dtype=np.float64) for s in samples]
    total = sum(len(s) for s in samples)
    split_rng = stream(seed, "boost", "split")
    draw_rngs = [stream(seed, "boost", "draw", i) for i in range(k)]
    hs: list = []
    alphas: list = []
    telemetry: list = []
    bound = 1.0
    cw = channel.count_width(m_weak)
    for t in range(T):
        totals = quantize(np.array([w.sum() for w in weights]), q)
        counts = split_rng.multinomial(m_weak, totals / totals.sum())
        feats, labels = [], []
        for i in range(k):
            channel.send_count(ledger, channel.CENTER, f"p{i + 1}",
                               int(counts[i]), cw)
            wq = quantize(weights[i], q)
            idx = draw_rngs[i].choice(len(wq), size=int(counts[i]),
                                      p=wq / wq.sum())
            feats.append(samples[i].features[idx])
            labels.append(samples[i].labels[idx])
            for row in feats[-1]:
                channel.send_example(ledger, f"p{i + 1}", channel.CENTER, row)
        h_t = weak_learner(Sample(np.vstack(feats), np.concatenate(labels)))
        channel.send_hypothesis(ledger, channel.CENTER, channel.BROADCAST,
                                h_t)
        mistake_w, total_w = 0.0, 0.0
        preds, corrects = [], []
        for i in range(k):
            preds.append(h_t.predict(samples[i].features))
            corrects.append(preds[i] == samples[i].labels)
            m_i = quantize(float(weights[i][~corrects[i]].sum()), q)
            mistake_w += m_i
            total_w += float(totals[i])
            channel.send(ledger, f"p{i + 1}", channel.CENTER,
                         2 * (64 if q is None else q))
        eps_t = min(max(mistake_w / total_w, 1e-12), 1.0 - 1e-12)
        alpha_t = 0.5 * math.log((1.0 - eps_t) / eps_t)
        channel.send(ledger, channel.CENTER, channel.BROADCAST, 64)
        channel.advance_round(ledger, "round")
        wrong = 0
        for i in range(k):
            weights[i] = adaboost_reweight(weights[i], corrects[i], alpha_t)
            margins[i] += alpha_t * preds[i]
            wrong += int((sign_pm1(margins[i]) != samples[i].labels).sum())
        hs.append(h_t)
        alphas.append(alpha_t)
        bound *= 2.0 * math.sqrt(eps_t * (1.0 - eps_t))
        telemetry.append({"round": t + 1, "eps_t": eps_t, "alpha_t": alpha_t,
                          "examples": int(counts.sum()),
                          "train_error": wrong / total,
                          "train_bound": bound})
    return {"hypothesis": WeightedMajority(tuple(zip(hs, alphas))),
            "telemetry": telemetry, "alphas": alphas, "weak": hs}


def adaboost_single(sample: Sample, T: int, m_weak: int, seed: int, *,
                    weak_learner: Callable[[Sample], Concept] = best_stump
                    ) -> dict:
    """Single-machine AdaBoost with the same presampled weak-learning step."""
    return _boost_loop([sample], T, m_weak, None, seed, weak_learner,
                       channel.CostLedger())


def run_distributed_boosting(specs: Sequence[DistributionSpec], f: Concept,
                             eps: float, delta: float, seed: int, *,
                             beta: float = 0.25, q: int | None = 32,
                             d_class: int | None = None,
                             T: int | None = None,
                             weak_learner: Callable[[Sample], Concept]
                             = best_stump) -> ProtocolResult:
    """Boost a beta-weak learner to error eps over the mixture.

    Communication per round is m_weak examples, k counts, one weak
    hypothesis, and 2k quantized weight scalars.
    """
    k = len(specs)
    if d_class is None:
        d_class = f.dim
    if T is None:
        T = boosting_rounds(eps, beta)
    m_weak = weak_sample_size(d_class, beta)
    m_i = pac_sample_size(d_class, eps, k, delta)
    samples = [draw_sample(spec, f, m_i, seed, tags=("boost", i))
               for i, spec in enumerate(specs)]
    ledger = channel.CostLedger()
    out = _boost_loop(samples, T, m_weak, q, seed, weak_learner, ledger)
    h = out["hypothesis"]
    errors = measure_errors(h, specs, f, M_EVAL, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors,
                          meta={"telemetry": out["telemetry"],
                                "m_weak": m_weak, "m_per_player": m_i,
                                "rounds_T": T, "weak": out["weak"],
                                "alphas": out["alphas"]})
