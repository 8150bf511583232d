"""Baseline protocols: one-round sample shipping and the EQ/mistake-bound
driver, plus the two stock online learners (halving, conjunction
elimination)."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import channel
from .core import (M_EVAL, Concept, ConfigurationError, Conjunction,
                   DistributionSpec, MajorityOfSet, ProtocolError,
                   ProtocolResult, Sample, draw_sample, measure_errors,
                   predict_matrix, sample_error)


# ---------------------------------------------------------------------------
# Online learners
# ---------------------------------------------------------------------------


class OnlineLearner:
    """predict/update contract for the EQ driver.  Implementations must have
    a finite mistake bound on realizable sequences."""

    def hypothesis(self) -> Concept:
        raise NotImplementedError

    def update(self, x: np.ndarray, label: int) -> None:
        raise NotImplementedError

    def mistake_bound(self) -> int:
        raise NotImplementedError


class HalvingLearner(OnlineLearner):
    """Majority vote over the surviving hypotheses of a finite class.

    Every counterexample kills at least half of the survivors, so the
    mistake bound is floor(log2 |H|).
    """

    def __init__(self, hypotheses: Sequence[Concept]):
        if not hypotheses:
            raise ConfigurationError("halving needs a nonempty class")
        self.survivors = list(hypotheses)
        self.initial_size = len(self.survivors)

    def hypothesis(self) -> Concept:
        return MajorityOfSet(tuple(self.survivors))

    def update(self, x, label):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        agree = predict_matrix(self.survivors, x)[:, 0] == label
        self.survivors = [h for h, ok in zip(self.survivors, agree) if ok]
        if not self.survivors:
            raise ProtocolError("halving emptied the class; data not "
                                "realizable by H")

    def mistake_bound(self) -> int:
        return int(math.floor(math.log2(self.initial_size)))


class ConjunctionElimination(OnlineLearner):
    """Classic elimination for monotone conjunctions: start from the
    all-variables conjunction and drop variables falsified by positive
    counterexamples.  At most n+1 mistakes."""

    def __init__(self, n: int):
        self.n = n
        self.variables = set(range(n))

    def hypothesis(self) -> Concept:
        return Conjunction(self.n, frozenset(self.variables))

    def update(self, x, label):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if label == 1:
            self.variables &= {j for j in self.variables if x[j] == 1.0}
        # a negative counterexample is impossible for this learner's
        # hypotheses on realizable data; nothing to eliminate
        elif all(x[j] == 1.0 for j in self.variables):
            raise ProtocolError("negative counterexample inside the "
                                "elimination hypothesis; data not realizable")

    def mistake_bound(self) -> int:
        return self.n + 1


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def shipping_sample_size(d_class: int, eps: float, k: int, *,
                         agnostic: bool = False) -> int:
    """Per-player share of the one-round shipping budget
    (8/k) * (d/eps) * ln(1/eps), with d/eps^2 when agnostic."""
    if not (0 < eps < 1):
        raise ConfigurationError("eps must lie in (0, 1)")
    scale = d_class / (eps * eps) if agnostic else d_class / eps
    return math.ceil((8.0 / k) * scale * math.log(1.0 / eps))


def sample_shipping(specs: Sequence[DistributionSpec], f: Concept, eps: float,
                    learner: Callable[[Sample], Concept], d_class: int,
                    seed: int, *, agnostic: bool = False,
                    noise_rate: float = 0.0) -> ProtocolResult:
    """Everyone ships a random sample to the center, which learns on the
    union.  One round; communication is all examples."""
    k = len(specs)
    m_i = shipping_sample_size(d_class, eps, k, agnostic=agnostic)
    ledger = channel.CostLedger()
    feats, labels = [], []
    for i, spec in enumerate(specs):
        s = draw_sample(spec, f, m_i, seed, noise_rate=noise_rate,
                        tags=("shipping", i))
        feats.append(s.features)
        labels.append(s.labels)
        for row in s.features:
            channel.send_example(ledger, f"p{i + 1}", channel.CENTER, row)
    channel.advance_round(ledger, "round")
    union = Sample(np.vstack(feats), np.concatenate(labels))
    h = learner(union)
    if not agnostic and sample_error(h, union) > 0.0:
        raise ProtocolError("center's learner returned an inconsistent "
                            "hypothesis in realizable mode")
    errors = measure_errors(h, specs, f, M_EVAL, seed, noise_rate=noise_rate)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors, meta={"m_per_player": m_i})


def eq_mistake_bound(samples: Sequence[Sample], learner: OnlineLearner,
                     *, mistake_cap: int | None = None) -> ProtocolResult:
    """EQ/online driver in the lock-synchronous model.

    Every party runs a shadow copy of the learner, so only counterexamples
    are charged.  Each time slot is one round; the final quiet slot counts.
    """
    if mistake_cap is None:
        mistake_cap = 10 * max(1, learner.mistake_bound())
    ledger = channel.CostLedger(sync_model=channel.SyncModel.LOCK_SYNCHRONOUS)
    while True:
        h = learner.hypothesis()
        sender = None
        for i, s in enumerate(samples):
            if len(s) == 0:
                continue
            wrong = np.flatnonzero(h.predict(s.features) != s.labels)
            if wrong.size:
                sender = (i, int(wrong[0]))
                break
        if sender is None:
            channel.advance_round(ledger, "round")  # silent slot
            break
        if ledger.examples >= mistake_cap:
            raise ProtocolError(
                f"mistake cap {mistake_cap} exceeded; learner is broken")
        i, idx = sender
        x, lab = samples[i].features[idx], int(samples[i].labels[idx])
        channel.send_example(ledger, f"p{i + 1}", channel.BROADCAST, x)
        channel.advance_round(ledger, "round")
        learner.update(x, lab)
    h = learner.hypothesis()
    for s in samples:
        if len(s) and sample_error(h, s) > 0.0:
            raise ProtocolError("final hypothesis inconsistent with a "
                                "player's sample")
    hypotheses = {channel.CENTER: h}
    hypotheses.update({f"p{i + 1}": h for i in range(len(samples))})
    return ProtocolResult(hypotheses=hypotheses, ledger=ledger)
