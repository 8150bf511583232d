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
from .core import (Box, Concept, ConfigurationError, Conjunction,
                   DistributionSpec, ProtocolError, ProtocolResult,
                   Sample, check_consistent, draw_sample, measure_errors)


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


def smallest_consistent(samples: Sequence[Sample], cls: type) -> Concept:
    """Smallest hypothesis of ``cls`` (Conjunction or Box) consistent with
    the union of ``samples``, learned without stacking them.

    With no positive examples this returns the closure's smallest element
    (all-variables conjunction / empty box), which keeps h inside the
    target.  A negative example inside the result is a realizability
    violation.
    """
    d = samples[0].dim
    pos = [s.labels == 1 for s in samples]
    if _closed_class(cls) is Conjunction:
        # a variable survives if it is 1 on every positive of every sample
        anded = np.ones(d, dtype=bool)
        for s, p in zip(samples, pos):
            anded &= np.all(s.features[p] == 1.0, axis=0)
        h: Concept = Conjunction(d, frozenset(np.flatnonzero(anded).tolist()))
    else:
        # the bounding box of every sample's positives; the empty box if
        # none.  No min/max initial=±inf: on a bool block it becomes True
        lo, hi = np.full(d, math.inf), np.full(d, -math.inf)
        for s, p in zip(samples, pos):
            x = s.features[p]
            if len(x):
                lo = np.minimum(lo, x.min(axis=0))
                hi = np.maximum(hi, x.max(axis=0))
        h = Box(tuple(lo.tolist()), tuple(hi.tolist()))
    for s, p in zip(samples, pos):
        if np.any((h.predict(s.features) == 1) & ~p):
            raise ProtocolError("negative example inside the smallest "
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


def class_dimension(cls: type, dim: int) -> int:
    """VC dimension of ``cls`` in dim coordinates: dim, 2 dim for a box."""
    return dim if _closed_class(cls) is Conjunction else 2 * dim


def sample_size(cls: type, dim: int, eps: float, k: int, delta: float,
                c: float = 1.0) -> int:
    """Per-player sample size of the closure protocol for ``cls``."""
    return pac_sample_size(class_dimension(cls, dim), eps, k, delta, c)


def run_intersection_closed(specs: Sequence[DistributionSpec], f: Concept,
                            eps: float, delta: float, seed: int, *,
                            c: float = 1.0) -> ProtocolResult:
    """One round, k hypotheses: closure protocol for the class of ``f``, a
    conjunction or a box."""
    m = sample_size(type(f), f.dim, eps, len(specs), delta, c)
    samples = [draw_sample(spec, f, m, seed, tags=("closed", i))
               for i, spec in enumerate(specs)]
    locals_ = [smallest_consistent([s], type(f)) for s in samples]
    ledger = channel.hypotheses_to_center(locals_)
    h = combine(locals_)
    check_consistent(h, samples, "combined hypothesis inconsistent with a "
                     "player's sample")
    errors = measure_errors(h, specs, f, seed)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          errors=errors, meta={"m_per_player": m})
