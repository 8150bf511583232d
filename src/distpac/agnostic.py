"""Noise-tolerant protocols: robust generalized halving over a finite class
and the one-round interval-summary protocol on [0, 1]."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import channel
from .core import (PRECISION_BITS, Concept, ConfigurationError,
                   DistributionSpec, IntervalUnion, MajorityOfSet,
                   ProtocolError, ProtocolResult, Sample, draw_parts,
                   draw_sample, predict_matrix, sample_error, stream)


class SearchFailureError(ProtocolError):
    pass


def halving_set_size(opt_guess: float, eps: float) -> int:
    return math.ceil(0.2 / (opt_guess + eps))


def halving_set_count(class_size: int) -> int:
    """N = 30 log2 log2 |H|; N >= 9 keeps the N/3 and N/9 thresholds
    meaningful at desk scale."""
    if class_size < 2:
        raise ConfigurationError("need at least 2 hypotheses")
    return max(9, math.ceil(30.0 * math.log2(math.log2(class_size))))


def run_robust_halving(specs: Sequence[DistributionSpec], f: Concept,
                       hypotheses: Sequence[Concept], eps: float,
                       opt_guess: float, seed: int, *,
                       noise_rate: float = 0.0,
                       shared_randomness: bool = False,
                       c_l: float = 10.0) -> ProtocolResult:
    """Halve a finite class under adversarial label noise.

    Each loop: N fresh sets of s mixture draws are split multinomially over
    players; players evaluate the survivors' majority vote locally and
    broadcast the first mistake of each mistaken set (lowest player id
    first).  The run halts once at most N/3 sets are mistaken; otherwise
    every hypothesis erring on more than N/9 of this loop's broadcast
    examples is removed.
    """
    k = len(specs)
    H = list(hypotheses)
    if len(H) > 10 ** 6:
        raise ConfigurationError("class too large to enumerate")
    s = halving_set_size(opt_guess, eps)
    N = halving_set_count(len(H))
    loop_cap = math.ceil(c_l * math.log2(len(H)))
    ledger = channel.CostLedger()
    survivors = np.ones(len(H), dtype=bool)
    history = [int(survivors.sum())]
    cw = channel.count_width(s)
    count_bits = 0
    loops = 0
    while True:
        if loops >= loop_cap:
            raise ProtocolError(f"halving exceeded the loop cap {loop_cap}")
        loops += 1
        maj = MajorityOfSet(tuple(h for h, a in zip(H, survivors) if a))
        counts = stream(seed, "halving", "split", loops).multinomial(
            s, [1.0 / k] * k, size=N).tolist()
        if not shared_randomness:
            # player 1 sends player i its column of the split in one message
            for i in range(1, k):
                channel.send_count(ledger, "p1", f"p{i + 1}",
                                   [row[i] for row in counts], cw)
                count_bits += N * cw
        # Judge the sets in per-player waves: player i draws its part of
        # every set no earlier player found a mistake in, as one block
        # under one vote; a set's first mistake is the first wrong row of
        # its earliest mistaken part.
        first: list = [None] * N
        pending = range(N)
        for i in range(k):
            sets = [j for j in pending if counts[j][i]]
            if not sets:
                continue
            sizes = [counts[j][i] for j in sets]
            block = draw_parts(specs[i], f, sizes, seed,
                               noise_rate=noise_rate,
                               tags=[("halving", loops, j, i) for j in sets])
            wrong = maj.predict(block.features) != block.labels
            m = len(wrong)
            starts = np.cumsum([0] + sizes[:-1])
            hits = np.minimum.reduceat(np.where(wrong, np.arange(m), m),
                                       starts).tolist()
            for j, r in zip(sets, hits):
                if r < m:
                    first[j] = (i, block.features[r], int(block.labels[r]))
            pending = [j for j in pending if first[j] is None]
        sent = list(filter(None, first))
        if sent:
            bx = np.stack([x for _, x, _ in sent])
            for (i, _, _), bits in zip(sent, channel.example_bits(bx)):
                channel.send_example(ledger, f"p{i + 1}", channel.BROADCAST,
                                     bits)
        channel.advance_round(ledger, "round")
        if len(sent) <= N / 3:
            break
        by = np.array([lab for _, _, lab in sent], dtype=np.int8)
        alive = np.flatnonzero(survivors)
        errs = (predict_matrix([H[i] for i in alive], bx) != by).sum(axis=1)
        survivors[alive[errs > N / 9]] = False
        history.append(int(survivors.sum()))
        if not survivors.any():
            raise ProtocolError(
                f"all hypotheses eliminated at opt_guess={opt_guess}")
    return ProtocolResult(
        hypotheses={channel.BROADCAST: maj}, ledger=ledger,
        meta={"loops": loops, "count_bits": count_bits,
              "survivor_history": history,
              "survivors": np.flatnonzero(survivors).tolist(),
              "N": N, "s": s, "opt_guess": opt_guess})


def validation_sample_size(eps: float) -> int:
    """Mixture examples that validate one opt guess: ceil(4 / eps^2)."""
    return math.ceil(4.0 / (eps * eps))


def opt_search(specs: Sequence[DistributionSpec], f: Concept,
               hypotheses: Sequence[Concept], eps: float, seed: int, *,
               noise_rate: float = 0.0,
               shared_randomness: bool = False) -> ProtocolResult:
    """Upward geometric scan over opt guesses eps * 2^j.

    A guess is accepted when halving completes and the output's validation
    error on a fresh mixture sample of size 4 / eps^2 stays below
    8 * (opt_guess + eps).  The returned ledger is the accepted run's
    ledger scaled by the number of guesses tried.
    """
    k = len(specs)
    m_val = validation_sample_size(eps)
    j = 0
    while eps * 2 ** j <= 0.5:
        opt_guess = eps * 2 ** j
        try:
            res = run_robust_halving(specs, f, hypotheses, eps, opt_guess,
                                     seed, noise_rate=noise_rate,
                                     shared_randomness=shared_randomness)
        except ProtocolError:
            j += 1
            continue
        h = res.hypotheses[channel.BROADCAST]
        per = max(1, m_val // k)
        val = float(np.mean([sample_error(
            h, draw_sample(specs[i], f, per, seed, noise_rate=noise_rate,
                           tags=("opt_val", j, i))) for i in range(k)]))
        if val <= 8.0 * (opt_guess + eps):
            for attr in channel.CostLedger.COUNTERS:
                setattr(res.ledger, attr, getattr(res.ledger, attr) * (j + 1))
            res.meta.update({"guesses": j + 1, "validation_error": val})
            return res
        j += 1
    raise SearchFailureError("no opt guess up to 1/2 was accepted")


# ---------------------------------------------------------------------------
# Interval summaries
# ---------------------------------------------------------------------------


def quantize_fraction(x: float | np.ndarray, bits: int) -> float | np.ndarray:
    """Round to the nearest multiple of 2^-bits; ties round down.  A scalar
    x gives a float, an ndarray the scalar call's value entry by entry."""
    scale = float(1 << bits)
    out = np.ceil(np.asarray(x, dtype=np.float64) * scale - 0.5) / scale
    return out if out.ndim else float(out)


def player_summary(sample: Sample, n_borders: int, frac_bits: int) -> list:
    """Equal-mass quantile borders with quantized positive fractions.

    Returns [(border, positive_fraction, mass_fraction)] per segment; the
    last border is pushed to 1.0 so segments cover all of [0, 1].
    """
    m = len(sample)
    if m == 0:
        return []
    order = np.argsort(sample.features[:, 0], kind="stable")
    xs = sample.features[order, 0]
    positives = np.concatenate([[0], np.cumsum(sample.labels[order] == 1)])
    cum = np.arange(1, m + 1, dtype=np.float64)
    total = cum[-1]
    # segment i ends at the first point whose mass reaches i+1 shares
    targets = total * np.arange(1, n_borders + 1) / n_borders
    hi = np.minimum(np.searchsorted(cum, targets - 1e-12) + 1, m)
    lo = np.concatenate([[0], hi[:-1]])
    mass = (hi - lo).astype(np.float64)
    frac = np.divide(positives[hi] - positives[lo], mass,
                     out=np.zeros(n_borders), where=mass > 0)
    borders = np.append(xs[hi[:-1] - 1], 1.0)
    return list(zip(borders.tolist(),
                    quantize_fraction(frac, frac_bits).tolist(),
                    (mass / total).tolist()))


def merge_summaries(summaries: Sequence[list]) -> tuple:
    """Merge per-player segmentations, spreading each player's segment mass
    uniformly over its width.  Returns (borders, pos_mass, neg_mass) where
    borders has one more entry than the mass arrays."""
    segs = [np.array(s, dtype=np.float64).reshape(-1, 3) for s in summaries]
    b, frac, mass = np.concatenate([np.empty((0, 3))] + segs).T
    lo = np.concatenate([[]] + [np.append(0.0, s[:, 0])[:-1] for s in segs])
    borders = sorted({0.0, 1.0}.union(b.tolist()))
    grid = np.array(borders)
    k = max(1, len([s for s in summaries if s]))
    # lo and b are merged borders too, so [lo, b] covers merged segments
    # first .. last - 1 whole; a zero-width segment (tied sample values)
    # credits its whole mass to the merged segment ending at b
    wide = b - lo > 0.0
    last = np.searchsorted(grid, b)
    first = np.where(wide, np.searchsorted(grid, lo), np.maximum(last - 1, 0))
    n_t = np.where(wide, last - first, 1)
    # (segment, merged segment t) pairs in the order a per-segment loop
    # visits them; np.add.at then adds repeated t in that order
    seg = np.repeat(np.arange(len(b)), n_t)
    t = first[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(n_t) - n_t,
                                                     n_t)
    # mass * 1.0 / 1.0 is mass itself, a zero-width segment's share
    share = mass[seg] * np.where(wide[seg], grid[t + 1] - grid[t], 1.0) \
        / np.where(wide, b - lo, 1.0)[seg]
    pos = np.zeros(len(borders) - 1)
    neg = np.zeros(len(borders) - 1)
    np.add.at(pos, t, share * frac[seg] / k)
    np.add.at(neg, t, share * (1.0 - frac[seg]) / k)
    return borders, pos, neg


def dp_best_intervals(borders: Sequence[float], pos: np.ndarray,
                      neg: np.ndarray, d: int) -> tuple:
    """Min-cost labeling of merged segments with at most d positive blocks.

    Returns (cost, IntervalUnion).  Labeling a segment positive costs its
    negative mass and vice versa.  Ties go to the source and final state
    met first in the order (0, 0), (1, 1), (1, 0), (2, 1), (2, 0), ...
    """
    S = len(pos)
    INF = float("inf")
    # cost[lab][nb]: cheapest labeling so far that ends in label lab with
    # nb positive blocks; parents[t][lab][nb] is the label of its source
    cost = [[0.0] + [INF] * d, [INF] * (d + 1)]
    parents = []
    for p, n in zip(pos.tolist(), neg.tolist()):
        c0, c1 = cost
        cost, src = [[], [INF]], [[], [1]]
        for nb in range(d + 1):
            # into (nb, 0): from (nb, 1), or from (nb, 0) if strictly less
            end, stay = c1[nb] + p, c0[nb] + p
            cost[0].append(stay if stay < end else end)
            src[0].append(0 if stay < end else 1)
        for nb in range(1, d + 1):
            # into (nb, 1): from (nb - 1, 0), or from (nb, 1) if strictly less
            opened, stay = c0[nb - 1] + n, c1[nb] + n
            cost[1].append(stay if stay < opened else opened)
            src[1].append(1 if stay < opened else 0)
        parents.append(src)
    lab, nb = 0, 0
    for blocks in range(1, d + 1):
        for new_lab in (1, 0):
            if cost[new_lab][blocks] < cost[lab][nb]:
                lab, nb = new_lab, blocks
    best = cost[lab][nb]
    labels = []
    for t in range(S - 1, -1, -1):
        labels.append(lab)
        src = parents[t][lab][nb]
        nb -= lab > src  # from (nb - 1, 0): this segment opened a block
        lab = src
    labels.reverse()
    intervals = []
    t = 0
    while t < S:
        if labels[t] == 1:
            start = borders[t]
            while t < S and labels[t] == 1:
                t += 1
            intervals.append((start, borders[t]))
        else:
            t += 1
    return best, IntervalUnion(tuple(intervals))


def border_count(d: int, eps: float) -> int:
    """Quantile borders per player summary: ceil(d / eps)."""
    return math.ceil(d / eps)


def run_interval_summary(samples: Sequence[Sample], d: int,
                         eps: float) -> ProtocolResult:
    """One-round interval protocol: quantile borders plus quantized positive
    fractions from every player, then a center-side DP."""
    if d < 1 or not (0 < eps < 1):
        raise ConfigurationError("need d >= 1 and eps in (0, 1)")
    B = border_count(d, eps)
    frac_bits = math.ceil(math.log2(d / eps))
    ledger = channel.CostLedger()
    summaries = []
    values = 0
    for i, sample in enumerate(samples):
        summary = player_summary(sample, B, frac_bits)
        summaries.append(summary)
        if summary:
            channel.send(ledger, f"p{i + 1}", channel.CENTER,
                         len(summary) * (PRECISION_BITS + frac_bits))
        values += len(summary)
    channel.advance_round(ledger, "round")
    borders, pos, neg = merge_summaries(summaries)
    _cost, h = dp_best_intervals(borders, pos, neg, d)
    return ProtocolResult(hypotheses={channel.CENTER: h}, ledger=ledger,
                          meta={"values": values})
