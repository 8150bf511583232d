"""Triplet-broadcast protocol for decision lists.

Rules are triplets (j, b, c): "if x_j = b then c", with j = 0 reserved for
the else-rule.  Players announce every triplet consistent with their still
alive examples; the center broadcasts the intersection; satisfied examples
die; repeat until an else-rule enters the intersection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import channel
from .closed import pac_sample_size
from .core import (ConfigurationError, DecisionListFunc, DistributionSpec,
                   ProtocolError, ProtocolResult, Sample, check_consistent,
                   draw_sample, measure_errors, rule_bits, stream)

# a triplet is (j, b, c): j in 0..n (0 = else, b then ignored and stored 0),
# b in {0,1}, c in {0,1} with bit 1 meaning label +1


def _boolean(sample: Sample) -> Sample:
    if len(sample) and not sample.is_boolean():
        raise ConfigurationError("decision lists need boolean features")
    return sample


def consistent_triplets(sample: Sample, alive: np.ndarray) -> set:
    """All triplets consistent with the alive part of a boolean sample.

    (j,b,c) is included iff every alive example with x_j = b has label c,
    vacuously when no alive example has x_j = b.  The else triplets (0,.,c)
    require every alive example to have label c.
    """
    pos, neg = alive & (sample.labels == 1), alive & (sample.labels == -1)
    # counts[b, c, j-1]: alive examples labelled not-c (row 0 positives,
    # row 1 negatives) with x_j = b, so (j, b, c) is consistent iff it is 0;
    # x_j = 1 by one product of 0/1 entries, x_j = 0 by subtraction.  The
    # counts are exact in float32 below 2**24 rows, and a bool block is cast
    # to float32 at half the traffic of float64
    totals = np.array([[pos.sum()], [neg.sum()]], dtype=np.float64)
    dtype = np.float32 if len(sample) < 2 ** 24 else np.float64
    ones = np.stack([pos, neg]).astype(dtype) @ \
        sample.features.astype(dtype, copy=False)
    counts = np.stack([totals - ones, ones])
    out = {(j + 1, b, c) for b, c, j in np.argwhere(counts == 0).tolist()}
    out.update((0, 0, c) for c in (0, 1) if totals[c, 0] == 0)
    return out


def _kill_satisfied(sample: Sample, alive: np.ndarray, rules) -> np.ndarray:
    """An example dies once any broadcast rule fires on it."""
    if any(j == 0 for (j, _b, _c) in rules):
        alive[:] = False
    else:
        cols = [j - 1 for (j, _b, _c) in rules]
        alive &= (sample.features[:, cols]
                  != [float(b) for (_j, b, _c) in rules]).all(axis=1)
    return alive


def _list_from_broadcast(n: int, order: list) -> DecisionListFunc:
    rules = tuple((j, b, 1 if c == 1 else -1) for (j, b, c) in order if j != 0)
    default_bits = [c for (j, _b, c) in order if j == 0]
    default = 1 if (default_bits and default_bits[0] == 1) else -1
    return DecisionListFunc(n, rules, default)


def run_decision_list(specs: Sequence[DistributionSpec], f: DecisionListFunc,
                      eps: float, delta: float, seed: int, *,
                      max_rounds: int | None = None) -> ProtocolResult:
    """Incremental triplet-broadcast protocol; rounds track the target's
    alternations."""
    k = len(specs)
    n = f.dim
    m = pac_sample_size(n, eps, k, delta)
    samples = [_boolean(draw_sample(spec, f, m, seed, tags=("declist", i)))
               for i, spec in enumerate(specs)]
    alive = [np.ones(len(s), dtype=bool) for s in samples]
    announced = [set() for _ in range(k)]  # T_i as known to the center
    broadcast_set: set = set()
    broadcast_order: list = []
    ledger = channel.CostLedger()
    if max_rounds is None:
        max_rounds = 4 * n + 2

    halted = False
    while not halted:
        if ledger.rounds >= max_rounds:
            raise ProtocolError("decision-list protocol exceeded the round "
                                "cap without an else-rule")
        for i in range(k):
            fresh = consistent_triplets(samples[i], alive[i]) - announced[i]
            if fresh:
                channel.send(ledger, f"p{i + 1}", channel.CENTER,
                             len(fresh) * rule_bits(n))
            announced[i] |= fresh
        intersection = set.intersection(*announced) if k else set()
        new_rules = intersection - broadcast_set
        channel.advance_round(ledger, "round")
        if not new_rules:
            raise ProtocolError("no progress before an else-rule; samples "
                                "not realizable by one list")
        ordered = sorted(r for r in new_rules if r[0] != 0)
        else_rules = sorted(r for r in new_rules if r[0] == 0)
        if else_rules:
            ordered = ordered + [else_rules[0]]
            halted = True
        if ordered:
            channel.send(ledger, channel.CENTER, channel.BROADCAST,
                         len(ordered) * rule_bits(n))
        broadcast_set |= set(ordered)
        broadcast_order.extend(ordered)
        for i in range(k):
            _kill_satisfied(samples[i], alive[i], ordered)

    h = _list_from_broadcast(n, broadcast_order)
    check_consistent(h, samples, "output list inconsistent with a player's "
                     "sample")
    errors = measure_errors(h, specs, f, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors, meta={"m_per_player": m})


def random_decision_list(n: int, n_rules: int, seed: int) -> DecisionListFunc:
    """A random planted list: distinct (j, b) conditions, random outputs."""
    rng = stream(seed, "planted_list")
    conditions = [(j, b) for j in range(1, n + 1) for b in (0, 1)]
    idx = rng.choice(len(conditions), size=n_rules, replace=False)
    rules = tuple((conditions[i][0], conditions[i][1],
                   1 if rng.random() < 0.5 else -1) for i in idx)
    default = 1 if rng.random() < 0.5 else -1
    return DecisionListFunc(n, rules, default)
