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
from .core import (M_EVAL, ConfigurationError, DecisionListFunc,
                   DistributionSpec, ProtocolResult, RealizabilityError,
                   Sample, draw_sample, measure_errors, rule_bits,
                   sample_error, stream)

# a triplet is (j, b, c): j in 0..n (0 = else, b then ignored and stored 0),
# b in {0,1}, c in {0,1} with bit 1 meaning label +1


def consistent_triplets(sample: Sample, alive: np.ndarray | None = None) -> set:
    """All triplets consistent with the (alive part of the) sample.

    (j,b,c) is included iff every alive example with x_j = b has label c,
    vacuously when no alive example has x_j = b.  The else triplets (0,.,c)
    require every alive example to have label c.
    """
    if len(sample) and not sample.is_boolean():
        raise ConfigurationError("decision lists need boolean features")
    if alive is None:
        alive = np.ones(len(sample), dtype=bool)
    feats = sample.features[alive]
    labels = sample.labels[alive]
    out = set()
    pos = feats[labels == 1]
    neg = feats[labels == -1]
    n_pos_at = {1: (pos == 1.0).sum(axis=0), 0: (pos == 0.0).sum(axis=0)}
    n_neg_at = {1: (neg == 1.0).sum(axis=0), 0: (neg == 0.0).sum(axis=0)}
    for b in (0, 1):
        for j in np.flatnonzero(n_neg_at[b] == 0):
            out.add((int(j) + 1, b, 1))
        for j in np.flatnonzero(n_pos_at[b] == 0):
            out.add((int(j) + 1, b, 0))
    if not np.any(labels == -1):
        out.add((0, 0, 1))
    if not np.any(labels == 1):
        out.add((0, 0, 0))
    return out


def _kill_satisfied(sample: Sample, alive: np.ndarray, rules) -> np.ndarray:
    """An example dies once any broadcast rule fires on it."""
    for (j, b, _c) in rules:
        if j == 0:
            alive[:] = False
        else:
            alive &= sample.features[:, j - 1] != float(b)
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
    samples = [draw_sample(spec, f, m, seed, tags=("declist", i))
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
            raise RealizabilityError("decision-list protocol exceeded the "
                                     "round cap without an else-rule")
        for i in range(k):
            fresh = consistent_triplets(samples[i], alive[i]) - announced[i]
            for _rule in fresh:
                channel.send(ledger, f"p{i + 1}", channel.CENTER, rule_bits(n))
            announced[i] |= fresh
        intersection = set.intersection(*announced) if k else set()
        new_rules = intersection - broadcast_set
        channel.advance_round(ledger, "round")
        if not new_rules:
            raise RealizabilityError("no progress before an else-rule; "
                                     "samples not realizable by one list")
        ordered = sorted(r for r in new_rules if r[0] != 0)
        else_rules = sorted(r for r in new_rules if r[0] == 0)
        if else_rules:
            ordered = ordered + [else_rules[0]]
            halted = True
        for _rule in ordered:
            channel.send(ledger, channel.CENTER, channel.BROADCAST,
                         rule_bits(n))
        broadcast_set |= set(ordered)
        broadcast_order.extend(ordered)
        for i in range(k):
            _kill_satisfied(samples[i], alive[i], ordered)

    h = _list_from_broadcast(n, broadcast_order)
    for s in samples:
        if sample_error(h, s) > 0.0:
            raise RealizabilityError("output list inconsistent with a "
                                     "player's sample")
    errors = measure_errors(h, specs, f, M_EVAL, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors,
                          meta={"m_per_player": m,
                                "broadcast_order": broadcast_order,
                                "alternations": f.alternations()})


def random_decision_list(n: int, n_rules: int, seed: int) -> DecisionListFunc:
    """A random planted list: distinct (j, b) conditions, random outputs."""
    rng = stream(seed, "planted_list")
    conditions = [(j, b) for j in range(1, n + 1) for b in (0, 1)]
    idx = rng.choice(len(conditions), size=n_rules, replace=False)
    rules = tuple((conditions[i][0], conditions[i][1],
                   1 if rng.random() < 0.5 else -1) for i in idx)
    default = 1 if rng.random() < 0.5 else -1
    return DecisionListFunc(n, rules, default)
