"""One-round protocols for intersection-closed classes.

Each player sends its smallest consistent hypothesis; the center outputs
the smallest hypothesis containing all of them.  Conjunctions and
axis-parallel boxes are the two shipped instantiations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import channel
from .core import (M_EVAL, Box, Concept, ConfigurationError, Conjunction,
                   DistributionSpec, ProtocolResult, RealizabilityError,
                   Sample, draw_sample, measure_errors, sample_error)

CONJUNCTION = "conjunction"
BOX = "box"


def pac_sample_size(d_class: int, eps: float, k: int, delta: float,
                    c: float = 1.0) -> int:
    """Per-player sample size c * (1/eps) * (d ln(1/eps) + ln(k/delta))."""
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise ConfigurationError("eps and delta must lie in (0, 1)")
    return math.ceil(c * (1.0 / eps) * (d_class * math.log(1.0 / eps)
                                        + math.log(k / delta)))


def smallest_consistent(sample: Sample, cls: str) -> Concept:
    """Smallest hypothesis of the class consistent with the sample.

    With no positive examples this returns the closure's smallest element
    (all-variables conjunction / empty box), which keeps h_i inside the
    target.  A negative example inside the result is a realizability
    violation.
    """
    pos = sample.features[sample.labels == 1] if len(sample) else \
        np.zeros((0, sample.dim))
    if cls == CONJUNCTION:
        n = sample.dim
        if pos.shape[0] == 0:
            h: Concept = Conjunction(n, frozenset(range(n)))
        else:
            anded = np.all(pos == 1.0, axis=0)
            h = Conjunction(n, frozenset(np.flatnonzero(anded).tolist()))
    elif cls == BOX:
        d = sample.dim
        if pos.shape[0] == 0:
            h = Box.empty(d)
        else:
            h = Box(tuple(pos.min(axis=0).tolist()),
                    tuple(pos.max(axis=0).tolist()))
    else:
        raise ConfigurationError(f"unknown intersection-closed class {cls!r}")
    if len(sample):
        neg = sample.labels == -1
        if np.any(h.predict(sample.features[neg]) == 1):
            raise RealizabilityError(
                f"negative example inside the smallest consistent {cls}")
    return h


def combine(hypotheses: Sequence[Concept], cls: str) -> Concept:
    """Smallest hypothesis containing every h_i (the closure join)."""
    if cls == CONJUNCTION:
        n = hypotheses[0].dim
        common = frozenset(range(n))
        for h in hypotheses:
            common &= h.variables
        return Conjunction(n, common)
    if cls == BOX:
        los = np.stack([np.asarray(h.lo) for h in hypotheses])
        his = np.stack([np.asarray(h.hi) for h in hypotheses])
        return Box(tuple(los.min(axis=0).tolist()),
                   tuple(his.max(axis=0).tolist()))
    raise ConfigurationError(f"unknown intersection-closed class {cls!r}")


def class_dimension(cls: str, dim: int) -> int:
    return dim if cls == CONJUNCTION else 2 * dim


def run_intersection_closed(specs: Sequence[DistributionSpec], f: Concept,
                            eps: float, delta: float, cls: str, seed: int,
                            *, c: float = 1.0) -> ProtocolResult:
    """One round, k hypotheses: closure protocol for conjunctions or boxes."""
    k = len(specs)
    d_class = class_dimension(cls, f.dim)
    m = pac_sample_size(d_class, eps, k, delta, c)
    ledger = channel.CostLedger()
    locals_ = []
    samples = []
    for i, spec in enumerate(specs):
        sample = draw_sample(spec, f, m, seed, tags=("closed", i))
        samples.append(sample)
        h_i = smallest_consistent(sample, cls)
        locals_.append(h_i)
        channel.send(ledger, f"p{i + 1}", channel.CENTER,
                     channel.HypothesisMsg(h_i))
    h = combine(locals_, cls)
    channel.advance_round(ledger, "round")
    for sample in samples:
        if sample_error(h, sample) > 0.0:
            raise RealizabilityError("combined hypothesis inconsistent with "
                                     "a player's sample")
    errors = measure_errors(h, specs, f, M_EVAL, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors,
                          meta={"m_per_player": m, "local_hypotheses": locals_})
