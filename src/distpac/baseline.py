"""Baseline protocols: one-round sample shipping and the EQ/mistake-bound
driver, plus the online learner the driver runs (conjunction
elimination)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import channel
from .closed import class_dimension, smallest_consistent
from .core import (Concept, ConfigurationError, Conjunction, DistributionSpec,
                   ProtocolError, ProtocolResult, Sample, check_consistent,
                   draw_sample, measure_errors)


# ---------------------------------------------------------------------------
# Online learner
# ---------------------------------------------------------------------------


class ConjunctionElimination:
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


def shipping_sample_size(d_class: int, eps: float, k: int) -> int:
    """Per-player share of the one-round shipping budget
    (8/k) * (d/eps) * ln(1/eps)."""
    if not (0 < eps < 1):
        raise ConfigurationError("eps must lie in (0, 1)")
    return math.ceil((8.0 / k) * (d_class / eps) * math.log(1.0 / eps))


def sample_shipping(specs: Sequence[DistributionSpec], f: Concept, eps: float,
                    seed: int) -> ProtocolResult:
    """Everyone ships a random sample to the center, which learns on the
    union.  One round; communication is all examples.

    The class is that of ``f``, a conjunction or a box: the budget is sized
    by its VC dimension (``closed.class_dimension``) and the center learns
    its smallest consistent hypothesis (``closed.smallest_consistent``)."""
    k = len(specs)
    m_i = shipping_sample_size(class_dimension(type(f), f.dim), eps, k)
    ledger = channel.CostLedger()
    samples = []
    for i, spec in enumerate(specs):
        s = draw_sample(spec, f, m_i, seed, tags=("shipping", i))
        samples.append(s)
        sender = f"p{i + 1}"
        for bits in channel.example_bits(s.features):
            channel.send_example(ledger, sender, channel.CENTER, bits)
    channel.advance_round(ledger, "round")
    h = smallest_consistent(samples, type(f))
    check_consistent(h, samples, "center's learner returned an "
                     "inconsistent hypothesis")
    errors = measure_errors(h, specs, f, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors, meta={"m_per_player": m_i})


def eq_mistake_bound(samples: Sequence[Sample], learner) -> ProtocolResult:
    """EQ/online driver in the lock-synchronous model.

    ``learner`` is an online learner with a finite mistake bound on
    realizable sequences: ``hypothesis()`` returns its current Concept,
    ``update(x, label)`` takes one counterexample, and ``mistake_bound()``
    gives the bound.  A learner still wrong after 10 * max(1, bound)
    counterexamples is broken, and the run raises ProtocolError.

    Every party runs a shadow copy of the learner, so only counterexamples
    are charged.  Each time slot is one round; the final quiet slot counts.
    """
    cap = 10 * max(1, learner.mistake_bound())
    ledger = channel.CostLedger(lock_synchronous=True)
    while True:
        h = learner.hypothesis()
        for i, s in enumerate(samples):
            wrong = np.flatnonzero(h.predict(s.features) != s.labels)
            if wrong.size:
                break
        else:
            channel.advance_round(ledger, "round")  # silent slot
            break
        if ledger.examples >= cap:
            raise ProtocolError(
                f"mistake cap {cap} exceeded; learner is broken")
        x, lab = s.features[wrong[0]], int(s.labels[wrong[0]])
        [bits] = channel.example_bits(x[None])
        channel.send_example(ledger, f"p{i + 1}", channel.BROADCAST, bits)
        channel.advance_round(ledger, "round")
        learner.update(x, lab)
    h = learner.hypothesis()
    check_consistent(h, samples, "final hypothesis inconsistent with a "
                     "player's sample")
    hypotheses = {channel.CENTER: h}
    hypotheses.update({f"p{i + 1}": h for i in range(len(samples))})
    return ProtocolResult(hypotheses=hypotheses, ledger=ledger)
