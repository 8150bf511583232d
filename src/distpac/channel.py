"""Exact cost accounting and round orchestration.

Every protocol charges its traffic through :func:`send`, so a run's ledger
is an exact replayable record of what crossed the wire.  Broadcast is
charged once, not k times.  Examples, hypotheses and counts are priced by
:func:`send_example`, :func:`send_hypothesis` and :func:`send_count`;
every other payload passes its bit count to :func:`send` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import PRECISION_BITS, Concept, ConfigurationError

BROADCAST = "broadcast"
CENTER = "center"
_BOOLEAN = frozenset((0.0, 1.0))


class SyncModel(Enum):
    ASYNCHRONOUS = "asynchronous"
    LOCK_SYNCHRONOUS = "lock_synchronous"


class ProtocolViolation(RuntimeError):
    """A protocol broke the communication model's rules."""


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
    sync_model: SyncModel = SyncModel.ASYNCHRONOUS
    _slot_used: bool = field(default=False, repr=False)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.COUNTERS}
        out["per_player"] = dict(sorted(self.per_player.items()))
        return out

    def upstream_bits(self) -> int:
        return sum(v for k, v in self.per_player.items() if k != CENTER)


def send(ledger: CostLedger, frm: str, to: str, bits: int, *,
         examples: int = 0, hypotheses: int = 0) -> CostLedger:
    """Charge one message of ``bits`` bits carrying ``examples`` examples
    and ``hypotheses`` hypotheses; broadcast is charged once."""
    if ledger.sync_model is SyncModel.LOCK_SYNCHRONOUS:
        if ledger._slot_used:
            raise ProtocolViolation(
                "two sends in one lock-synchronous slot (advance_round first)")
        ledger._slot_used = True
    ledger.bits += bits
    ledger.per_player[frm] = ledger.per_player.get(frm, 0) + bits
    ledger.examples += examples
    ledger.hypotheses += hypotheses
    return ledger


def send_example(ledger: CostLedger, frm: str, to: str,
                 features) -> CostLedger:
    """Charge one labeled example: n+1 bits if its features are boolean,
    d * PRECISION_BITS + 1 if real."""
    row = np.asarray(features).tolist()
    d = len(row)
    bits = d + 1 if _BOOLEAN.issuperset(row) else d * PRECISION_BITS + 1
    return send(ledger, frm, to, bits, examples=1)


def send_hypothesis(ledger: CostLedger, frm: str, to: str,
                    h: Concept) -> CostLedger:
    return send(ledger, frm, to, h.encoded_bits(), hypotheses=1)


def send_count(ledger: CostLedger, frm: str, to: str, value: int,
               width: int) -> CostLedger:
    """Charge an integer of explicit width; requires 0 <= value < 2**width."""
    if not 0 <= value < 2 ** width:
        raise ConfigurationError(f"count {value} does not fit in {width} bits")
    return send(ledger, frm, to, width)


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
