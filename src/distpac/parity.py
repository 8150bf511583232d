"""GF(2) linear algebra and the two-player non-proper parity protocol.

Rows are bit-packed into uint64 words (feature bits 0..n-1 plus the label
bit at position n) and eliminated with vectorized XORs, so samples of a few
thousand points over a few thousand variables stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .core import (Concept, ConfigurationError, ParityFunc, ProtocolResult,
                   RealizabilityError, Sample, draw_sample, measure_errors)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (m, width) 0/1 matrix into (m, ceil(width/64)) uint64 words."""
    m, width = bits.shape
    words = (width + 63) // 64
    out = np.zeros((m, words), dtype=np.uint64)
    b = bits.astype(np.uint64)
    for w in range(words):
        chunk = b[:, w * 64:(w + 1) * 64]
        shifts = np.arange(chunk.shape[1], dtype=np.uint64)
        out[:, w] = (chunk << shifts).sum(axis=1, dtype=np.uint64)
    return out


def _get_bit(rows: np.ndarray, col: int) -> np.ndarray:
    w, b = col >> 6, np.uint64(col & 63)
    return (rows[:, w] >> b) & np.uint64(1)


@dataclass(frozen=True)
class GF2Basis:
    """Row-reduced basis of a labeled sample's feature row space.

    Each stored row carries its label bit at position n, so reconstructing a
    query from basis rows XORs out the predicted label for free.
    """

    n: int
    rows: np.ndarray  # (r, words) uint64, RREF over feature columns
    pivots: tuple  # strictly increasing pivot columns, one per row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def proper(self) -> ParityFunc:
        """A parity consistent with the reduced sample: each pivot variable
        takes its row's label bit, every free variable is 0."""
        v = [0] * self.n
        for p, bit in zip(self.pivots, _get_bit(self.rows, self.n)):
            v[p] = int(bit)
        return ParityFunc(self.n, tuple(v))

    def _reduce_queries(self, X: np.ndarray) -> np.ndarray:
        packed = _pack_bits(np.column_stack(
            [X.astype(np.uint64), np.zeros(X.shape[0], dtype=np.uint64)]))
        for i, p in enumerate(self.pivots):
            hit = _get_bit(packed, p).astype(bool)
            packed[hit] ^= self.rows[i]
        return packed

    def classify(self, X: np.ndarray) -> tuple:
        """(labels +/-1, known mask): answers only for queries in the span."""
        if X.shape[1] != self.n:
            raise ConfigurationError("query dimension mismatch")
        residual = self._reduce_queries(X)
        label = _get_bit(residual, self.n).copy()
        words = residual.shape[1]
        wlast, blast = self.n >> 6, np.uint64(self.n & 63)
        residual[:, wlast] &= ~(np.uint64(1) << blast)
        known = ~residual.any(axis=1)
        labels = np.where(label == 1, 1, -1).astype(np.int8)
        return labels, known


def _labels_to_bits(labels: np.ndarray) -> np.ndarray:
    return (labels == 1).astype(np.uint64)


def _rref(packed: np.ndarray, n: int) -> tuple:
    """In-place RREF over feature columns 0..n-1.  Returns (rows, pivots)."""
    pivots = []
    pivot_rows = []
    available = np.ones(packed.shape[0], dtype=bool)
    for col in range(n):
        hit = _get_bit(packed, col).astype(bool)
        candidates = np.flatnonzero(hit & available)
        if candidates.size == 0:
            continue
        p = candidates[0]
        row = packed[p].copy()
        others = hit.copy()
        others[p] = False
        packed[others] ^= row
        packed[p] = row
        available[p] = False
        pivots.append(col)
        pivot_rows.append(p)
        if len(pivots) == n:
            break
    # any leftover row reduced to pure-label is a contradiction
    leftovers = packed[available]
    if leftovers.size:
        label_only = _get_bit(leftovers, n).astype(bool)
        feat = leftovers.copy()
        wlast, blast = n >> 6, np.uint64(n & 63)
        feat[:, wlast] &= ~(np.uint64(1) << blast)
        if np.any(label_only & ~feat.any(axis=1)):
            raise RealizabilityError("sample is inconsistent over GF(2)")
    rows = packed[pivot_rows] if pivot_rows else \
        np.zeros((0, packed.shape[1]), dtype=np.uint64)
    return rows, tuple(pivots)


def gf2_reduce(sample: Sample) -> GF2Basis:
    """Row-reduce a boolean labeled sample into a reliable parity predictor."""
    if len(sample) and not sample.is_boolean():
        raise ConfigurationError("gf2_reduce needs boolean features")
    n = sample.dim
    if len(sample) == 0:
        words = (n + 1 + 63) // 64
        return GF2Basis(n, np.zeros((0, words), dtype=np.uint64), ())
    packed = _pack_bits(np.column_stack(
        [sample.features.astype(np.uint64), _labels_to_bits(sample.labels)]))
    rows, pivots = _rref(packed, n)
    return GF2Basis(n, rows, pivots)


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
        other = self.fallback.predict(X)
        return np.where(known, own, other).astype(np.int8)

    def encoded_bits(self) -> int:
        # never transmitted; sized as its raw basis plus the fallback
        return max(1, self.basis.rank * self.basis.n) + \
            self.fallback.encoded_bits()


def run_parity_two_player(specs, f: ParityFunc, eps: float, seed: int, *,
                          m: int | None = None,
                          c: float = 8.0) -> ProtocolResult:
    """One round, 2 proper hypotheses exchanged, 2n bits total."""
    if len(specs) != 2:
        raise ConfigurationError("parity protocol requires exactly 2 players")
    n = f.dim
    if m is None:
        m = int(np.ceil(c * n / eps))
    ledger = channel.CostLedger()
    samples = [draw_sample(spec, f, m, seed, tags=("parity", i))
               for i, spec in enumerate(specs)]
    bases = [gf2_reduce(s) for s in samples]
    propers = [b.proper() for b in bases]
    # each player sends only its proper vector (n bits); g_i stays local
    channel.send_hypothesis(ledger, "p1", "p2", propers[0])
    channel.send_hypothesis(ledger, "p2", "p1", propers[1])
    channel.advance_round(ledger, "round")
    combined = {
        "p1": ParityNonProper(bases[0], propers[1]),
        "p2": ParityNonProper(bases[1], propers[0]),
    }
    errors = {}
    for pid, h in combined.items():
        errs = measure_errors(h, specs, f, seed)
        errors.update({f"{pid}:{key}": val for key, val in errs.items()})
        errors[pid] = errs["mixture"]
    errors["mixture"] = max(errors["p1"], errors["p2"])
    return ProtocolResult(hypotheses=combined, ledger=ledger, errors=errors,
                          meta={"m_per_player": m})
