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


def pac_sample_size(d_class: int, eps: float, k: int, delta: float,
                    c: float = 1.0) -> int:
    """Per-player sample size c * (1/eps) * (d ln(1/eps) + ln(k/delta))."""
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise ConfigurationError("eps and delta must lie in (0, 1)")
    return math.ceil(c * (1.0 / eps) * (d_class * math.log(1.0 / eps)
                                        + math.log(k / delta)))


def _closed_class(cls: type) -> type:
    """``cls`` itself, if it is one of the two shipped closed classes."""
    if cls not in (Conjunction, Box):
        raise ConfigurationError(
            f"{cls.__name__} is not an intersection-closed class")
    return cls


def smallest_consistent(sample: Sample, cls: type) -> Concept:
    """Smallest hypothesis of ``cls`` (Conjunction or Box) consistent with
    the sample.

    With no positive examples this returns the closure's smallest element
    (all-variables conjunction / empty box), which keeps h_i inside the
    target.  A negative example inside the result is a realizability
    violation.
    """
    pos = sample.features[sample.labels == 1] if len(sample) else \
        np.zeros((0, sample.dim))
    if _closed_class(cls) is Conjunction:
        n = sample.dim
        if pos.shape[0] == 0:
            h: Concept = Conjunction(n, frozenset(range(n)))
        else:
            anded = np.all(pos == 1.0, axis=0)
            h = Conjunction(n, frozenset(np.flatnonzero(anded).tolist()))
    else:
        d = sample.dim
        if pos.shape[0] == 0:
            h = Box.empty(d)
        else:
            h = Box(tuple(pos.min(axis=0).tolist()),
                    tuple(pos.max(axis=0).tolist()))
    if len(sample):
        neg = sample.labels == -1
        if np.any(h.predict(sample.features[neg]) == 1):
            raise RealizabilityError("negative example inside the smallest "
                                     f"consistent {cls.__name__.lower()}")
    return h


def combine(hypotheses: Sequence[Concept]) -> Concept:
    """Smallest hypothesis containing every h_i (the closure join); the
    h_i share one class, Conjunction or Box."""
    if _closed_class(type(hypotheses[0])) is Conjunction:
        n = hypotheses[0].dim
        common = frozenset(range(n))
        for h in hypotheses:
            common &= h.variables
        return Conjunction(n, common)
    los = np.stack([np.asarray(h.lo) for h in hypotheses])
    his = np.stack([np.asarray(h.hi) for h in hypotheses])
    return Box(tuple(los.min(axis=0).tolist()),
               tuple(his.max(axis=0).tolist()))


def class_dimension(f: Concept) -> int:
    """VC dimension of the class of ``f``: n for a conjunction, 2d for a
    box."""
    return f.dim if _closed_class(type(f)) is Conjunction else 2 * f.dim


def run_intersection_closed(specs: Sequence[DistributionSpec], f: Concept,
                            eps: float, delta: float, seed: int, *,
                            c: float = 1.0) -> ProtocolResult:
    """One round, k hypotheses: closure protocol for the class of ``f``, a
    conjunction or a box."""
    k = len(specs)
    d_class = class_dimension(f)
    m = pac_sample_size(d_class, eps, k, delta, c)
    ledger = channel.CostLedger()
    locals_ = []
    samples = []
    for i, spec in enumerate(specs):
        sample = draw_sample(spec, f, m, seed, tags=("closed", i))
        samples.append(sample)
        h_i = smallest_consistent(sample, type(f))
        locals_.append(h_i)
        channel.send_hypothesis(ledger, f"p{i + 1}", channel.CENTER, h_i)
    h = combine(locals_)
    channel.advance_round(ledger, "round")
    for sample in samples:
        if sample_error(h, sample) > 0.0:
            raise RealizabilityError("combined hypothesis inconsistent with "
                                     "a player's sample")
    errors = measure_errors(h, specs, f, M_EVAL, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors,
                          meta={"m_per_player": m, "local_hypotheses": locals_})
