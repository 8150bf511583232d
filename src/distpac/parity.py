"""GF(2) linear algebra and the two-player non-proper parity protocol.

A labeled sample's row packs into uint64 words: feature bit j at bit
j % 64 of word j // 64, and the label bit (set for a +1 label) at bit n.
Elimination XORs whole rows, so reconstructing a query from basis rows
XORs out its predicted label as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .core import (Concept, ConfigurationError, ParityFunc, ProtocolError,
                   ProtocolResult, Sample, draw_sample, measure_errors, pm1)

INCONSISTENT = "sample is inconsistent over GF(2)"


def _pack(X: np.ndarray, label=False) -> np.ndarray:
    """The 0/1 rows of X, (m, n), and their label bits as (m, n // 64 + 1)
    uint64 words: bit j at bit j % 64 of word j // 64, the label at bit n.
    Each row is laid out in whole words, so one flat pack packs them all."""
    m, n = X.shape
    words = n // 64 + 1
    B = np.zeros((m, 64 * words), dtype=bool)
    B[:, :n] = X
    B[:, n] = label
    return np.packbits(B, bitorder="little").view("<u8").reshape(m, words)


def _bit(P: np.ndarray, j: int) -> np.ndarray:
    """Bit j of every packed row of P, as uint64 0/1."""
    return P[:, j // 64] >> np.uint64(j % 64) & np.uint64(1)


@dataclass(frozen=True)
class GF2Basis:
    """Row-reduced basis of a labeled sample's feature row space."""

    n: int
    rows: np.ndarray  # (r, n // 64 + 1) uint64: packed RREF rows and labels
    pivots: tuple  # strictly increasing pivot columns, one per row

    def proper(self) -> ParityFunc:
        """A parity consistent with the reduced sample: each pivot variable
        takes its row's label bit, every free variable is 0."""
        v = dict(zip(self.pivots, _bit(self.rows, self.n).tolist()))
        return ParityFunc(self.n, tuple(v.get(j, 0) for j in range(self.n)))

    def classify(self, X: np.ndarray) -> tuple:
        """(labels +/-1, known mask): answers only for queries in the span."""
        if X.shape[1] != self.n:
            raise ConfigurationError("query dimension mismatch")
        Q = _pack(X)
        for p, row in zip(self.pivots, self.rows):
            Q ^= _bit(Q, p)[:, None] * row
        # a query is known when no feature bit is left besides its label
        label = _bit(Q, self.n)
        Q[:, self.n // 64] ^= label << np.uint64(self.n % 64)
        return pm1(label != 0), ~Q.any(axis=1)


def gf2_reduce(sample: Sample) -> GF2Basis:
    """Row-reduce a boolean labeled sample into a reliable parity predictor,
    in one Gauss-Jordan pass over its packed rows."""
    if not sample.is_boolean():
        raise ConfigurationError("gf2_reduce needs boolean features")
    n = sample.dim
    P = _pack(sample.features, sample.labels == 1)
    available = np.ones(len(P), dtype=np.uint64)
    pivots, pivot_rows = [], []
    for col in range(n):
        bit = _bit(P, col)
        hits = bit & available
        if not hits.any():
            continue
        p = hits.argmax()
        bit[p] = available[p] = 0
        P ^= bit[:, None] * P[p]
        pivots.append(col)
        pivot_rows.append(p)
    # a non-pivot row has no feature bit left: a set label bit says 0 = 1
    if (_bit(P, n) & available).any():
        raise ProtocolError(INCONSISTENT)
    return GF2Basis(n, P[pivot_rows], tuple(pivots))


@dataclass(frozen=True)
class ParityNonProper(Concept):
    """Reliable-useful combination: answer from the local span if possible,
    otherwise defer to the other player's proper hypothesis."""

    basis: GF2Basis
    fallback: Concept

    @property
    def dim(self) -> int:
        return self.basis.n

    def predict(self, X):
        own, known = self.basis.classify(X)
        return np.where(known, own, self.fallback.predict(X))


def sample_size(n: int, eps: float, c: float = 8.0) -> int:
    """Examples per player: ceil(c n / eps)."""
    return math.ceil(c * n / eps)


def run_parity_two_player(specs, f: ParityFunc, eps: float, seed: int, *,
                          c: float = 8.0) -> ProtocolResult:
    """One round, 2 proper hypotheses exchanged, 2n bits total."""
    if len(specs) != 2:
        raise ConfigurationError("parity protocol requires exactly 2 players")
    m = sample_size(f.dim, eps, c)
    ledger = channel.CostLedger()
    samples = [draw_sample(spec, f, m, seed, tags=("parity", i))
               for i, spec in enumerate(specs)]
    bases = [gf2_reduce(s) for s in samples]
    propers = [b.proper() for b in bases]
    # each player sends only its proper vector (n bits); g_i stays local
    channel.send_hypothesis(ledger, "p1", "p2", propers[0])
    channel.send_hypothesis(ledger, "p2", "p1", propers[1])
    channel.advance_round(ledger, "round")
    combined = {"p1": ParityNonProper(bases[0], propers[1]),
                "p2": ParityNonProper(bases[1], propers[0])}
    # both players' hypotheses on one draw of the mixture
    e1, e2 = measure_errors([combined["p1"], combined["p2"]], specs, f, seed)
    errors = {"p1": e1["mixture"], "p2": e2["mixture"]}
    errors["mixture"] = max(errors["p1"], errors["p2"])
    return ProtocolResult(hypotheses=combined, ledger=ledger, errors=errors,
                          meta={"m_per_player": m})
