"""Exact cost accounting and round orchestration.

Every protocol charges its traffic through :func:`send`, so a run's ledger
is an exact replayable record of what crossed the wire.  Broadcast is
charged once, not k times.  :func:`example_bits` prices a block of
examples in one pass and :func:`send_example` charges each as its own
message; hypotheses and counts are priced by :func:`send_hypothesis` and
:func:`send_count`; every other payload passes its bit count to :func:`send`.
:func:`hypotheses_to_center` charges the round of one hypothesis per player.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (PRECISION_BITS, Concept, ConfigurationError, ProtocolError,
                   boolean_rows)

BROADCAST = "broadcast"
CENTER = "center"


@dataclass
class CostLedger:
    """Monotone counters of everything charged on the channel."""

    # the counters, in results.csv's column order
    COUNTERS = ("bits", "examples", "hypotheses", "rounds", "meta_rounds")

    bits: int = 0
    examples: int = 0
    hypotheses: int = 0
    rounds: int = 0
    meta_rounds: int = 0
    per_player: dict = field(default_factory=dict)
    # lock-synchronous model: at most one send per round slot
    lock_synchronous: bool = False
    _slot_used: bool = field(default=False, repr=False)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.COUNTERS}
        out["per_player"] = dict(sorted(self.per_player.items()))
        return out


def send(ledger: CostLedger, frm: str, to: str, bits: int, *,
         examples: int = 0, hypotheses: int = 0) -> CostLedger:
    """Charge one message of ``bits`` bits carrying ``examples`` examples
    and ``hypotheses`` hypotheses; broadcast is charged once."""
    if ledger.lock_synchronous:
        if ledger._slot_used:
            raise ProtocolError(
                "two sends in one lock-synchronous slot (advance_round first)")
        ledger._slot_used = True
    ledger.bits += bits
    ledger.per_player[frm] = ledger.per_player.get(frm, 0) + bits
    ledger.examples += examples
    ledger.hypotheses += hypotheses
    return ledger


def example_bits(X) -> list[int]:
    """Size of each labeled example in the 2-D block ``X``: d+1 bits for a
    row of d 0s and 1s, d * PRECISION_BITS + 1 for any other (NaN too)."""
    X = np.asarray(X)
    scale = np.where(boolean_rows(X), 1, PRECISION_BITS)
    return (scale * X.shape[1] + 1).tolist()


def send_example(ledger: CostLedger, frm: str, to: str,
                 bits: int) -> CostLedger:
    """Charge one labeled example of ``bits`` bits (see example_bits)."""
    return send(ledger, frm, to, bits, examples=1)


def send_hypothesis(ledger: CostLedger, frm: str, to: str,
                    h: Concept) -> CostLedger:
    return send(ledger, frm, to, h.encoded_bits(), hypotheses=1)


def hypotheses_to_center(hypotheses: Sequence[Concept]) -> CostLedger:
    """A fresh ledger of one round in which player i sends
    ``hypotheses[i]`` to the center."""
    ledger = CostLedger()
    for i, h in enumerate(hypotheses):
        send_hypothesis(ledger, f"p{i + 1}", CENTER, h)
    return advance_round(ledger, "round")


def send_count(ledger: CostLedger, frm: str, to: str,
               value: int | Sequence[int], width: int) -> CostLedger:
    """Charge an integer of explicit width, or a sequence of them as one
    message of ``len(value) * width`` bits; requires 0 <= v < 2**width
    for each value v (nothing is charged otherwise)."""
    values = (value,) if isinstance(value, (int, np.integer)) else value
    if len(values) and not (0 <= min(values) and max(values) < 2 ** width):
        bad = next(v for v in values if not 0 <= v < 2 ** width)
        raise ConfigurationError(f"count {bad} does not fit in {width} bits")
    return send(ledger, frm, to, len(values) * width)


def advance_round(ledger: CostLedger, kind: str = "round") -> CostLedger:
    """Advance the named counter; also opens a fresh lock-synchronous slot."""
    if kind == "round":
        ledger.rounds += 1
    elif kind == "meta_round":
        ledger.meta_rounds += 1
    else:
        raise ConfigurationError(f"unknown round kind {kind!r}")
    ledger._slot_used = False
    return ledger


def count_width(max_value: int) -> int:
    """Smallest width that can carry values 0..max_value."""
    return max(1, math.ceil(math.log2(max_value + 1)))
