"""Message types, exact cost accounting, and round orchestration.

Every protocol charges its traffic through :func:`send`, so a run's ledger
is an exact replayable record of what crossed the wire.  Broadcast is
charged once, not k times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import PRECISION_BITS, Concept, ConfigurationError, rule_bits

BROADCAST = "broadcast"
CENTER = "center"
_BOOLEAN = frozenset((0.0, 1.0))


class SyncModel(Enum):
    ASYNCHRONOUS = "asynchronous"
    LOCK_SYNCHRONOUS = "lock_synchronous"


class ProtocolViolation(RuntimeError):
    """A protocol broke the communication model's rules."""


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    def bit_size(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ExampleMsg(Message):
    """One labeled example.  Boolean features cost n+1 bits, real ones
    d * PRECISION_BITS + 1."""

    features: tuple
    label: int

    def is_boolean(self) -> bool:
        return _BOOLEAN.issuperset(self.features)

    def bit_size(self) -> int:
        d = len(self.features)
        if self.is_boolean():
            return d + 1
        return d * PRECISION_BITS + 1


@dataclass(frozen=True)
class HypothesisMsg(Message):
    hypothesis: Concept

    def bit_size(self) -> int:
        return self.hypothesis.encoded_bits()


@dataclass(frozen=True)
class BitsMsg(Message):
    """Opaque payload with an explicit bit length."""

    length: int

    def bit_size(self) -> int:
        return self.length


@dataclass(frozen=True)
class CountMsg(Message):
    """An integer of explicit width; requires 0 <= value < 2**width."""

    value: int
    width: int

    def __post_init__(self):
        if not (0 <= self.value < 2 ** self.width):
            raise ConfigurationError(
                f"count {self.value} does not fit in {self.width} bits")

    def bit_size(self) -> int:
        return self.width


@dataclass(frozen=True)
class RuleMsg(Message):
    """A decision-list rule triplet (j, b, c) over n variables."""

    j: int
    b: int
    c: int
    n: int

    def bit_size(self) -> int:
        return rule_bits(self.n)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


@dataclass
class CostLedger:
    """Monotone counters of everything charged on the channel."""

    bits: int = 0
    examples: int = 0
    hypotheses: int = 0
    rounds: int = 0
    meta_rounds: int = 0
    per_player: dict = field(default_factory=dict)
    sync_model: SyncModel = SyncModel.ASYNCHRONOUS
    _slot_used: bool = field(default=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "bits": self.bits,
            "examples": self.examples,
            "hypotheses": self.hypotheses,
            "rounds": self.rounds,
            "meta_rounds": self.meta_rounds,
            "per_player": dict(sorted(self.per_player.items())),
        }

    def upstream_bits(self) -> int:
        return sum(v for k, v in self.per_player.items() if k != CENTER)


def send(ledger: CostLedger, frm: str, to: str, msg: Message) -> CostLedger:
    """Charge one message; broadcast is charged once."""
    if ledger.sync_model is SyncModel.LOCK_SYNCHRONOUS:
        if ledger._slot_used:
            raise ProtocolViolation(
                "two sends in one lock-synchronous slot (advance_round first)")
        ledger._slot_used = True
    size = msg.bit_size()
    ledger.bits += size
    ledger.per_player[frm] = ledger.per_player.get(frm, 0) + size
    if isinstance(msg, ExampleMsg):
        ledger.examples += 1
    elif isinstance(msg, HypothesisMsg):
        ledger.hypotheses += 1
    return ledger


def send_example(ledger, frm, to, features, label) -> CostLedger:
    return send(ledger, frm, to, ExampleMsg(tuple(np.asarray(features).tolist()),
                                            int(label)))


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
