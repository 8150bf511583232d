import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import channel
from distpac.agnostic import (dp_best_intervals, halving_set_count,
                              halving_set_size, merge_summaries, opt_search,
                              player_summary, quantize_fraction,
                              run_interval_summary, run_robust_halving)
from distpac.core import (PRECISION_BITS, IntervalUnion, MajorityOfSet,
                          ProtocolError, Sample, Threshold, UniformInterval,
                          draw_sample, predict_matrix, sample_error, stream)

from conftest import threshold_grid


def threshold_setup(points=201):
    grid = threshold_grid(points)
    target = grid[100]  # t = 0.25, sign +1
    specs = [UniformInterval(0.0, 1.0), UniformInterval(0.0, 1.0)]
    return grid, target, specs


class TestSetSizes:
    def test_set_size(self):
        assert halving_set_size(0.05, 0.05) == 2
        assert halving_set_size(0.015, 0.005) == 10

    def test_set_count_floor(self):
        assert halving_set_count(2) == 9  # log2 log2 2 = 0 -> floor applies
        assert halving_set_count(402) == math.ceil(
            30.0 * math.log2(math.log2(402)))


class TestRobustHalving:
    def test_noise_free_keeps_best_hypothesis(self):
        grid, target, specs = threshold_setup()
        t_idx = grid.index(target)
        res = run_robust_halving(specs, target, grid, 0.05, 0.05, 0)
        assert t_idx in res.meta["survivors"]
        h = res.hypotheses[channel.BROADCAST]
        s = draw_sample(specs[0], target, 2000, 99, tags=("check",))
        assert sample_error(h, s) <= 0.05

    def test_survivors_monotone_nonincreasing(self):
        grid, target, specs = threshold_setup()
        res = run_robust_halving(specs, target, grid, 0.05, 0.05, 1,
                                 noise_rate=0.05)
        hist = res.meta["survivor_history"]
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_collapse_raises(self):
        # a class with no decent hypothesis under heavy noise collapses
        grid = threshold_grid(5)
        _g, target, specs = threshold_setup()
        bad = [h for h in grid if h.sign == -1]
        # either every bad hypothesis is eliminated (collapse) or the run
        # never reaches the halt condition (loop cap); both are ProtocolError
        with pytest.raises(ProtocolError):
            run_robust_halving(specs, target, bad + bad[:1], 0.05, 0.0125,
                               2, noise_rate=0.3, c_l=3.0)

    def test_shared_randomness_zeroes_count_bits(self):
        grid, target, specs = threshold_setup()
        a = run_robust_halving(specs, target, grid, 0.05, 0.05, 3)
        b = run_robust_halving(specs, target, grid, 0.05, 0.05, 3,
                               shared_randomness=True)
        assert a.meta["count_bits"] > 0
        assert b.meta["count_bits"] == 0
        assert a.ledger.bits - a.meta["count_bits"] == b.ledger.bits


def per_part_halving(specs, f, hypotheses, eps, opt_guess, seed, *,
                     noise_rate=0.0, shared_randomness=False, c_l=10.0):
    """The loop run_robust_halving replaced, kept as its oracle: each
    (set, player) part is drawn and judged on its own, players in order,
    until a part holds a mistake."""
    k = len(specs)
    H = list(hypotheses)
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
        broadcast = []
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
                                     row_bits(x))
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
            raise ProtocolError(
                f"all hypotheses eliminated at opt_guess={opt_guess}")
    return ledger, {"loops": loops, "count_bits": count_bits,
                    "survivor_history": history,
                    "survivors": np.flatnonzero(survivors).tolist(),
                    "N": N, "s": s}


def row_bits(x) -> int:
    """The oracle's own price of one example, independent of
    channel.example_bits: d+1 bits for a 0/1 row, d*PRECISION_BITS+1
    otherwise."""
    row = np.asarray(x).tolist()
    if frozenset((0.0, 1.0)).issuperset(row):
        return len(row) + 1
    return len(row) * PRECISION_BITS + 1


def halving_outcome(run, *args, **kwargs):
    """(ledger dict, meta) of a halving run, or its exception's type and
    text."""
    try:
        out = run(*args, **kwargs)
    except ProtocolError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):
        ledger, meta = out
    else:
        ledger, meta = out.ledger, {key: out.meta[key] for key in (
            "loops", "count_bits", "survivor_history", "survivors", "N",
            "s")}
    return ledger.to_dict(), meta


@pytest.mark.parametrize("k", [1, 2, 3])
def test_waves_match_per_part_loop(k):
    # players on overlapping ranges, so whose part holds a set's mistake
    # matters; the target lies between the grid's thresholds, so some runs
    # collapse
    specs = [UniformInterval(0.0, 1.0), UniformInterval(0.1, 0.8),
             UniformInterval(0.25, 1.0)][:k]
    grid = threshold_grid(5)
    target = Threshold(0.3, 1)
    eps = 0.05
    ends = collections.Counter()
    for noise, shared, guess, seed in itertools.product(
            (0.0, 0.1), (False, True), (eps, 0.4), range(30)):
        args = (specs, target, grid, eps, guess, seed)
        kwargs = {"noise_rate": noise, "shared_randomness": shared}
        want = halving_outcome(per_part_halving, *args, **kwargs)
        assert halving_outcome(run_robust_halving, *args, **kwargs) == want
        ends["ok" if isinstance(want[0], dict) else
             want[1].split(" at ")[0]] += 1
    assert ends["ok"] > 0 and ends["all hypotheses eliminated"] > 0


class TestOptSearch:
    def test_trivial_noise_free_accepts_first_guess(self):
        grid, target, specs = threshold_setup()
        res = opt_search(specs, target, grid, 0.05, 0)
        assert res.meta["guesses"] == 1
        assert res.meta["validation_error"] <= 8 * (0.05 + 0.05)

    def test_noisy_error_tracks_opt(self):
        grid, target, specs = threshold_setup()
        noise = 0.1
        res = opt_search(specs, target, grid, 0.05, 4,
                         noise_rate=noise)
        # validation is measured against noisy labels, so opt ~ noise rate
        assert res.meta["validation_error"] <= 8 * (noise + 0.05) + 0.05

    def test_guess_count_bounded_by_geometric_scan(self):
        grid, target, specs = threshold_setup()
        res = opt_search(specs, target, grid, 0.05, 5, noise_rate=0.05)
        assert res.meta["guesses"] <= math.ceil(math.log2(1 / 0.05)) + 1

    def test_ledger_scaled_by_guesses(self):
        grid, target, specs = threshold_setup()
        res = opt_search(specs, target, grid, 0.05, 6)
        g = res.meta["guesses"]
        single = run_robust_halving(specs, target, grid, 0.05,
                                    res.meta["opt_guess"], 6)
        assert res.ledger.bits == g * single.ledger.bits


class TestQuantizeFraction:
    def test_ties_round_down(self):
        assert quantize_fraction(0.5 + 2 ** -5, 4) == 0.5
        assert quantize_fraction(0.5, 4) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 20))
    def test_property_within_half_step(self, frac, bits):
        q = quantize_fraction(frac, bits)
        assert abs(q - frac) <= 2.0 ** -(bits + 1)
        assert q * (1 << bits) == int(q * (1 << bits))


class TestSummaries:
    def test_player_summary_masses_are_equal(self):
        rng = stream(0, "sum")
        X = rng.random((1000, 1))
        s = Sample(X, np.where(X[:, 0] > 0.5, 1, -1))
        summary = player_summary(s, 10, 8)
        assert len(summary) == 10
        assert summary[-1][0] == 1.0
        for (_b, _f, mass) in summary:
            assert mass == pytest.approx(0.1, abs=0.01)

    def test_merge_conserves_mass(self):
        rng = stream(1, "sum2")
        summaries = []
        for i in range(3):
            X = rng.random((500, 1))
            s = Sample(X, np.where(X[:, 0] > 0.3, 1, -1))
            summaries.append(player_summary(s, 8, 8))
        _borders, pos, neg = merge_summaries(summaries)
        assert pos.sum() + neg.sum() == pytest.approx(1.0, abs=0.02)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_merge_matches_overlap_scan(self, seed):
        rng = stream(seed, "merge_prop")
        summaries = []
        for _ in range(int(rng.integers(1, 9))):
            # coarse-grid borders tie within a player (zero-width segments)
            # and across players; uniform ones fall anywhere
            inner = np.sort(np.concatenate([
                rng.integers(0, 9, size=int(rng.integers(0, 6))) / 8,
                rng.random(int(rng.integers(0, 6)))])).tolist()
            borders = inner + [1.0] if inner or rng.random() < 0.5 else []
            masses = rng.random(len(borders))
            masses = (masses / masses.sum()).tolist() if borders else []
            summaries.append([(b, quantize_fraction(rng.random(), 4), m)
                              for b, m in zip(borders, masses)])
        got = merge_summaries(summaries)
        want = overlap_merge(summaries)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 60), st.integers(1, 80),
           st.sampled_from(["positive", "negative", "mixed"]),
           st.integers(1, 10))
    def test_property_summary_is_the_per_border_loop(self, seed, m, n_borders,
                                                     labels, frac_bits):
        rng = stream(seed, "summary_prop")
        # a coarse grid ties x values; n_borders > m leaves zero-mass
        # segments
        X = rng.integers(0, 9, size=(m, 1)) / 8
        y = {"positive": np.ones(m, dtype=np.int8),
             "negative": -np.ones(m, dtype=np.int8),
             "mixed": rng.choice(np.array([-1, 1], dtype=np.int8), m)}[labels]
        sample = Sample(X, y)
        assert player_summary(sample, n_borders, frac_bits) == \
            per_border_summary(sample, n_borders, frac_bits)


def per_border_summary(sample, n_borders, frac_bits):
    """Reference: player_summary with one searchsorted and one count per
    border."""
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
        scale = float(1 << frac_bits)
        out.append((border, math.ceil(frac * scale - 0.5) / scale,
                    mass / total))
        lo_idx = hi_idx
    return out


def overlap_merge(summaries):
    """Reference merge: intersect every player segment with every merged
    segment, spreading its mass by overlap; zero-width segments credit the
    merged segment ending at their point."""
    borders = sorted({0.0, 1.0}.union(
        b for summary in summaries for (b, _f, _m) in summary))
    S = len(borders) - 1
    pos, neg = np.zeros(S), np.zeros(S)
    k = max(1, sum(1 for summary in summaries if summary))
    for summary in summaries:
        lo = 0.0
        for (b, frac, mass) in summary:
            width = b - lo
            if width <= 0.0:
                t = max(0, int(np.searchsorted(borders, b)) - 1)
                pos[t] += mass * frac / k
                neg[t] += mass * (1.0 - frac) / k
            else:
                for t in range(S):
                    overlap = max(0.0, min(borders[t + 1], b)
                                  - max(borders[t], lo))
                    if overlap > 0.0:
                        share = mass * overlap / width
                        pos[t] += share * frac / k
                        neg[t] += share * (1.0 - frac) / k
            lo = b
    return borders, pos, neg


def exhaustive_best(borders, pos, neg, d):
    """Try every way to pick <= d positive blocks of consecutive segments."""
    S = len(pos)
    best = float("inf")
    seg_ranges = [(a, b) for a in range(S) for b in range(a + 1, S + 1)]
    for r in range(d + 1):
        for blocks in itertools.combinations(seg_ranges, r):
            spans = sorted(blocks)
            if any(s2[0] < s1[1] for s1, s2 in zip(spans, spans[1:])):
                continue  # overlapping or touching handled below
            label = np.zeros(S, dtype=bool)
            for a, b in spans:
                label[a:b] = True
            cost = float(neg[label].sum() + pos[~label].sum())
            best = min(best, cost)
    return best


def dict_dp(borders, pos, neg, d):
    """Reference: the interval DP over a dict of (blocks, label) states,
    whose insertion order decides ties."""
    S = len(pos)
    INF = float("inf")
    cost = {(0, 0): 0.0}
    parent = {}
    for t in range(S):
        nxt = {}
        for (blocks, lab), c in cost.items():
            for new_lab in (0, 1):
                nb = blocks + (1 if (new_lab == 1 and lab == 0) else 0)
                if nb > d:
                    continue
                step = neg[t] if new_lab == 1 else pos[t]
                val = c + step
                if val < nxt.get((nb, new_lab), INF):
                    nxt[(nb, new_lab)] = val
                    parent[(t, nb, new_lab)] = (blocks, lab)
        cost = nxt
    best_key = min(cost, key=lambda key: cost[key])
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
    return cost[best_key], tuple(intervals)


class TestDP:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 10), st.integers(1, 3))
    def test_property_dp_matches_exhaustive(self, seed, S, d):
        rng = stream(seed, "dp")
        pos = rng.random(S)
        neg = rng.random(S)
        borders = np.linspace(0.0, 1.0, S + 1).tolist()
        cost, h = dp_best_intervals(borders, pos, neg, d)
        assert cost == pytest.approx(exhaustive_best(borders, pos, neg, d))
        assert isinstance(h, IntervalUnion)
        assert len(h.intervals) <= d

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(1, 3),
           st.booleans())
    def test_property_dp_is_the_dict_dp(self, seed, S, d, ties):
        rng = stream(seed, "dp_ties")
        # masses from {0, 1/4, 1/2} make many labelings cost the same
        pos, neg = (rng.integers(0, 3, size=(2, S)) / 4 if ties
                    else rng.random((2, S)))
        borders = np.linspace(0.0, 1.0, S + 1).tolist()
        cost, h = dp_best_intervals(borders, pos, neg, d)
        assert (cost, h.intervals) == dict_dp(borders, pos, neg, d)

    def test_hand_case(self):
        pos = np.array([0.4, 0.0, 0.4])
        neg = np.array([0.0, 0.2, 0.0])
        cost, h = dp_best_intervals([0, 0.25, 0.5, 1.0], pos, neg, 2)
        assert cost == 0.0
        assert h.intervals == ((0.0, 0.25), (0.5, 1.0))
        cost1, h1 = dp_best_intervals([0, 0.25, 0.5, 1.0], pos, neg, 1)
        assert cost1 == pytest.approx(0.2)
        assert h1.intervals == ((0.0, 1.0),)


class TestIntervalProtocol:
    def make_samples(self, target, k, m, seed):
        samples = []
        for i in range(k):
            s = draw_sample(UniformInterval(0.0, 1.0), target, m, seed,
                            tags=("iv", i))
            samples.append(s)
        return samples

    def test_ledger_one_round_fixed_budget(self):
        d, k, eps = 3, 2, 0.05
        target = IntervalUnion(((0.1, 0.3), (0.6, 0.9)))
        samples = self.make_samples(target, k, 2000, 0)
        res = run_interval_summary(samples, d, eps)
        B = math.ceil(d / eps)
        frac_bits = math.ceil(math.log2(d / eps))
        assert res.ledger.rounds == 1
        assert res.meta["values"] == k * B
        assert res.ledger.bits == k * B * (32 + frac_bits)
        assert res.ledger.bits == 4560

    def test_accuracy_near_opt(self):
        target = IntervalUnion(((0.2, 0.5), (0.7, 0.8)))
        samples = self.make_samples(target, 2, 4000, 1)
        res = run_interval_summary(samples, 3, 0.05)
        h = res.hypotheses[channel.CENTER]
        s = draw_sample(UniformInterval(0.0, 1.0), target, 5000, 42,
                        tags=("iv_eval",))
        assert sample_error(h, s) <= 0.1  # opt = 0 here
