"""Noise-tolerant protocols: robust generalized halving over a finite class
and the one-round interval-summary protocol on [0, 1]."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import channel
from .core import (PRECISION_BITS, Concept, ConfigurationError,
                   DistributionSpec, IntervalUnion, MajorityOfSet,
                   ProtocolError, ProtocolResult, Sample, draw_sample,
                   predict_matrix, sample_error, stream)


class HalvingCollapseError(ProtocolError):
    """Every hypothesis was eliminated; the opt guess was too small."""


class SearchFailureError(ProtocolError):
    pass


def halving_set_size(opt_guess: float, eps: float, c_s: float = 0.2) -> int:
    return math.ceil(c_s / (opt_guess + eps))


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
            for i in range(1, k):
                for j in range(N):
                    channel.send_count(ledger, "p1", f"p{i + 1}",
                                       counts[j][i], cw)
                    count_bits += cw
        mistaken = 0
        broadcast: list = []
        for j in range(N):
            first = None
            for i in range(k):
                if counts[j][i] == 0:
                    continue
                part = draw_sample(specs[i], f, counts[j][i], seed,
                                   noise_rate=noise_rate,
                                   tags=("halving", loops, j, i))
                wrong = maj.predict(part.features) != part.labels
                if wrong.any():
                    w = wrong.argmax()
                    first = (i, part.features[w], int(part.labels[w]))
                    break
            if first is not None:
                mistaken += 1
                i, x, lab = first
                channel.send_example(ledger, f"p{i + 1}", channel.BROADCAST,
                                     x)
                broadcast.append((x, lab))
        channel.advance_round(ledger, "round")
        if mistaken <= N / 3:
            break
        bx = np.stack([x for x, _ in broadcast])
        by = np.array([lab for _, lab in broadcast], dtype=np.int8)
        alive = np.flatnonzero(survivors)
        errs = (predict_matrix([H[i] for i in alive], bx) != by).sum(axis=1)
        survivors[alive[errs > N / 9]] = False
        history.append(int(survivors.sum()))
        if not survivors.any():
            raise HalvingCollapseError(
                f"all hypotheses eliminated at opt_guess={opt_guess}")
    maj = MajorityOfSet(tuple(h for h, a in zip(H, survivors) if a))
    return ProtocolResult(
        hypotheses={channel.BROADCAST: maj}, ledger=ledger,
        meta={"loops": loops, "count_bits": count_bits,
              "survivor_history": history,
              "survivors": np.flatnonzero(survivors).tolist(),
              "N": N, "s": s, "opt_guess": opt_guess})


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
    m_val = math.ceil(4.0 / (eps * eps))
    guesses = 0
    j = 0
    while eps * 2 ** j <= 0.5:
        opt_guess = eps * 2 ** j
        guesses += 1
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
                setattr(res.ledger, attr, getattr(res.ledger, attr) * guesses)
            res.meta.update({"guesses": guesses, "validation_error": val})
            return res
        j += 1
    raise SearchFailureError("no opt guess up to 1/2 was accepted")


# ---------------------------------------------------------------------------
# Interval summaries
# ---------------------------------------------------------------------------


def quantize_fraction(frac: float, bits: int) -> float:
    """Round to the nearest multiple of 2^-bits; ties round down."""
    scale = float(1 << bits)
    return math.ceil(frac * scale - 0.5) / scale


def player_summary(sample: Sample, n_borders: int, frac_bits: int) -> list:
    """Equal-mass quantile borders with quantized positive fractions.

    Returns [(border, positive_fraction, mass_fraction)] per segment; the
    last border is pushed to 1.0 so segments cover all of [0, 1].
    """
    if len(sample) == 0:
        return []
    order = np.argsort(sample.features[:, 0], kind="stable")
    xs = sample.features[order, 0]
    ys = sample.labels[order]
    cum = np.arange(1, len(xs) + 1, dtype=np.float64)
    total = cum[-1]
    out = []
    lo_idx = 0
    for i in range(n_borders):
        target = total * (i + 1) / n_borders
        hi_idx = int(np.searchsorted(cum, target - 1e-12)) + 1
        hi_idx = min(hi_idx, len(xs))
        mass = float(hi_idx - lo_idx)
        frac = np.count_nonzero(ys[lo_idx:hi_idx] == 1) / mass \
            if mass > 0 else 0.0
        border = 1.0 if i == n_borders - 1 else float(xs[hi_idx - 1])
        out.append((border, quantize_fraction(frac, frac_bits),
                    mass / total))
        lo_idx = hi_idx
    return out


def merge_summaries(summaries: Sequence[list]) -> tuple:
    """Merge per-player segmentations, spreading each player's segment mass
    uniformly over its width.  Returns (borders, pos_mass, neg_mass) where
    borders has one more entry than the mass arrays."""
    points = {0.0, 1.0}
    for summary in summaries:
        points.update(b for (b, _f, _m) in summary)
    borders = sorted(points)
    index = {b: t for t, b in enumerate(borders)}
    pos = np.zeros(len(borders) - 1)
    neg = np.zeros(len(borders) - 1)
    k = max(1, len([s for s in summaries if s]))
    for summary in summaries:
        lo = 0.0
        for (b, frac, mass) in summary:
            width = b - lo
            if width <= 0.0:
                # zero-width segment (tied sample values): its whole mass
                # sits at the point b; credit the merged segment ending there
                t = max(0, index[b] - 1)
                pos[t] += mass * frac / k
                neg[t] += mass * (1.0 - frac) / k
            else:
                # lo and b are merged borders too, so [lo, b] covers merged
                # segments index[lo] .. index[b] - 1 whole
                for t in range(index[lo], index[b]):
                    share = mass * (borders[t + 1] - borders[t]) / width
                    pos[t] += share * frac / k
                    neg[t] += share * (1.0 - frac) / k
            lo = b
    return borders, pos, neg


def dp_best_intervals(borders: Sequence[float], pos: np.ndarray,
                      neg: np.ndarray, d: int) -> tuple:
    """Min-cost labeling of merged segments with at most d positive blocks.

    Returns (cost, IntervalUnion).  Labeling a segment positive costs its
    negative mass and vice versa.
    """
    S = len(pos)
    INF = float("inf")
    # cost[b][lab] at each segment; parent pointers for reconstruction
    cost = {(0, 0): 0.0}
    parent: dict = {}
    for t in range(S):
        nxt: dict = {}
        for (blocks, lab), c in cost.items():
            for new_lab in (0, 1):
                nb = blocks + (1 if (new_lab == 1 and lab == 0) else 0)
                if nb > d:
                    continue
                step = neg[t] if new_lab == 1 else pos[t]
                key = (nb, new_lab)
                val = c + step
                if val < nxt.get(key, INF):
                    nxt[key] = val
                    parent[(t, nb, new_lab)] = (blocks, lab)
        cost = nxt
    best_key = min(cost, key=lambda key: cost[key])
    best = cost[best_key]
    labels = []
    blocks, lab = best_key
    for t in range(S - 1, -1, -1):
        labels.append(lab)
        blocks, lab = parent[(t, blocks, lab)]
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


def run_interval_summary(samples: Sequence[Sample], d: int,
                         eps: float) -> ProtocolResult:
    """One-round interval protocol: quantile borders plus quantized positive
    fractions from every player, then a center-side DP."""
    if d < 1 or not (0 < eps < 1):
        raise ConfigurationError("need d >= 1 and eps in (0, 1)")
    B = math.ceil(d / eps)
    frac_bits = math.ceil(math.log2(d / eps))
    ledger = channel.CostLedger()
    summaries = []
    values = 0
    for i, sample in enumerate(samples):
        summary = player_summary(sample, B, frac_bits)
        summaries.append(summary)
        for _ in summary:
            channel.send(ledger, f"p{i + 1}", channel.CENTER,
                         PRECISION_BITS + frac_bits)
        values += len(summary)
    channel.advance_round(ledger, "round")
    borders, pos, neg = merge_summaries(summaries)
    cost, h = dp_best_intervals(borders, pos, neg, d)
    return ProtocolResult(
        hypotheses={channel.CENTER: h}, ledger=ledger,
        meta={"borders": borders, "pos_mass": pos.tolist(),
              "neg_mass": neg.tolist(), "dp_cost": cost,
              "values": values, "n_borders": B, "frac_bits": frac_bits})
