"""GF(2) linear algebra and the two-player non-proper parity protocol.

A labeled sample is an (m, n+1) boolean matrix: feature bits in columns
0..n-1 and the label bit (True for a +1 label) in column n.  Elimination
XORs whole rows, so reconstructing a query from basis rows XORs out its
predicted label as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .core import (Concept, ConfigurationError, ParityFunc, ProtocolError,
                   ProtocolResult, Sample, draw_sample, measure_errors)

INCONSISTENT = "sample is inconsistent over GF(2)"


@dataclass(frozen=True)
class GF2Basis:
    """Row-reduced basis of a labeled sample's feature row space."""

    n: int
    rows: np.ndarray  # (r, n+1) bool: features in RREF, then the label
    pivots: tuple  # strictly increasing pivot columns, one per row

    def proper(self) -> ParityFunc:
        """A parity consistent with the reduced sample: each pivot variable
        takes its row's label bit, every free variable is 0."""
        v = [0] * self.n
        for p, bit in zip(self.pivots, self.rows[:, self.n]):
            v[p] = int(bit)
        return ParityFunc(self.n, tuple(v))

    def classify(self, X: np.ndarray) -> tuple:
        """(labels +/-1, known mask): answers only for queries in the span."""
        if X.shape[1] != self.n:
            raise ConfigurationError("query dimension mismatch")
        Q = np.zeros((X.shape[0], self.n + 1), dtype=bool)
        Q[:, :self.n] = X
        Q = _reduce(Q, self.rows, self.pivots)
        known = ~Q[:, :self.n].any(axis=1)
        labels = np.where(Q[:, self.n], 1, -1).astype(np.int8)
        return labels, known


# glibc's default mmap threshold: a block larger than this is mapped fresh,
# and faulted in page by page, on every allocation
_MMAP_THRESHOLD = 128 * 1024


def _block_rows(width: int) -> int:
    """Rows per block of ``_reduce``: the largest power of two whose
    float32 and int32 temporaries, 4 bytes per entry of a row of ``width``
    entries, stay under the mmap threshold."""
    return 1 << max(0, (_MMAP_THRESHOLD // (4 * width)).bit_length() - 1)


def _reduce(Q: np.ndarray, rows: np.ndarray, pivots: tuple) -> np.ndarray:
    """Each row of the bool matrix ``Q`` reduced against the RREF basis
    (rows, pivots): XORed with the basis rows whose pivot bit it has set,
    as one GF(2) product per block of rows, written into one bool output.
    The float32 counts are exact (at most the rank, far below 2**24) and
    fit int32."""
    out = np.empty_like(Q)
    basis = rows.astype(np.float32)
    cols = np.array(pivots, dtype=np.intp)
    step = _block_rows(Q.shape[1])
    for i in range(0, len(Q), step):
        q = Q[i:i + step]
        hits = q[:, cols].astype(np.float32) @ basis
        out[i:i + step] = q ^ (hits.astype(np.int32) & 1).astype(bool)
    return out


def _eliminate(A: np.ndarray, n: int) -> tuple:
    """In-place RREF of the bool matrix ``A`` over feature columns 0..n-1,
    pivot by pivot.  Returns (rows, pivots)."""
    pivots = []
    pivot_rows = []
    available = np.ones(A.shape[0], dtype=bool)
    for col in range(n):
        candidates = np.flatnonzero(A[:, col] & available)
        if candidates.size == 0:
            continue
        p = candidates[0]
        row = A[p].copy()
        A ^= np.outer(A[:, col], row)
        A[p] = row
        available[p] = False
        pivots.append(col)
        pivot_rows.append(p)
    # a row that never became a pivot has no feature bit left, so a set
    # label bit there says 0 = 1
    if A[available, n].any():
        raise ProtocolError(INCONSISTENT)
    return A[pivot_rows], tuple(pivots)


def _rref(A: np.ndarray, n: int) -> tuple:
    """RREF of the bool matrix ``A`` over feature columns 0..n-1.  Returns
    (rows, pivots).

    A consistent sample's RREF is unique, so a few rows build it: a prefix
    of at most 2(n+1) rows is eliminated pivot by pivot, every other row is
    reduced against that basis in one product, and the rows still outside
    its span grow the prefix until none is left.  A row that reduces to no
    feature bit and a set label bit says 0 = 1.
    """
    step = 2 * (n + 1)
    rows, pivots = _eliminate(A[:step], n)
    rest = A[step:]
    while len(rest):
        rest = _reduce(rest, rows, pivots)
        outside = rest[:, :n].any(axis=1)
        if rest[~outside, n].any():
            raise ProtocolError(INCONSISTENT)
        rest = rest[outside]
        if len(rest):
            rows, pivots = _eliminate(np.concatenate([rows, rest[:step]]), n)
            rest = rest[step:]
    return rows, pivots


def gf2_reduce(sample: Sample) -> GF2Basis:
    """Row-reduce a boolean labeled sample into a reliable parity predictor."""
    if not sample.is_boolean():
        raise ConfigurationError("gf2_reduce needs boolean features")
    A = np.column_stack([sample.features.astype(bool, copy=False),
                         sample.labels == 1])
    rows, pivots = _rref(A, sample.dim)
    return GF2Basis(sample.dim, rows, pivots)


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


def run_parity_two_player(specs, f: ParityFunc, eps: float, seed: int, *,
                          c: float = 8.0) -> ProtocolResult:
    """One round, 2 proper hypotheses exchanged, 2n bits total."""
    if len(specs) != 2:
        raise ConfigurationError("parity protocol requires exactly 2 players")
    m = int(np.ceil(c * f.dim / eps))
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
    # both players' hypotheses on one draw of the mixture
    e1, e2 = measure_errors([combined["p1"], combined["p2"]], specs, f, seed)
    errors = {"p1": e1["mixture"], "p2": e2["mixture"]}
    errors["mixture"] = max(errors["p1"], errors["p2"])
    return ProtocolResult(hypotheses=combined, ledger=ledger, errors=errors,
                          meta={"m_per_player": m})
