import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import channel
from distpac.boosting import (DecisionStump, _boost_loop, adaboost_reweight,
                              adaboost_single, best_stump, boosting_rounds,
                              quantize, run_distributed_boosting,
                              weak_sample_size)
from distpac.closed import pac_sample_size
from distpac.core import (ConfigurationError, Conjunction, ProtocolError,
                          Sample, UniformBoolean, WeightedMajority,
                          draw_sample, sign_pm1, stream)


class TestQuantize:
    def test_exact_when_q_none(self):
        assert quantize(0.12345, None) == 0.12345
        arr = np.array([0.1, 3.0])
        assert quantize(arr, None) is arr

    def test_zero(self):
        assert quantize(0.0, 8) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            quantize(-1.0, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=1e300), st.integers(1, 52))
    def test_property_truncation_window(self, x, q):
        v = quantize(x, q)
        assert v <= x
        assert v >= x * (1.0 - 2.0 ** -q)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-10, max_value=1e10), st.integers(1, 40))
    def test_property_idempotent(self, x, q):
        assert quantize(quantize(x, q), q) == quantize(x, q)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=2.2e-308),
                              st.floats(min_value=0.0, max_value=1e300)),
                    min_size=1, max_size=30),
           st.integers(1, 52))
    def test_property_array_matches_scalar_bitwise(self, xs, q):
        arr = np.array(xs)
        out = quantize(arr, q)
        assert isinstance(out, np.ndarray) and out.shape == arr.shape
        scalar = np.array([quantize(float(v), q) for v in arr])
        assert isinstance(quantize(float(arr[0]), q), float)
        assert (out.view(np.int64) == scalar.view(np.int64)).all()

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_array_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ConfigurationError):
            quantize(np.array([0.5, bad, 2.0]), 8)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 2.2e-308,
                                               sys.float_info.max]),
                              st.floats(min_value=0.0, max_value=2.2e-308),
                              st.floats(min_value=0.0, allow_infinity=False)),
                    min_size=1, max_size=30),
           st.one_of(st.integers(52, 60), st.integers(61, 5000)))
    def test_property_exact_from_52_bits(self, xs, q):
        # float64 keeps 52 mantissa bits after the leading one; 2^(q + 1)
        # overflowed a float from q = 1023
        arr = np.array(xs)
        assert (quantize(arr, q).view(np.int64) == arr.view(np.int64)).all()
        assert [quantize(x, q) for x in xs] == xs


class TestFormulas:
    def test_rounds(self):
        # ceil(ln 20 / (2 * 0.0625))
        assert boosting_rounds(0.05, 0.25) == 24
        with pytest.raises(ConfigurationError):
            boosting_rounds(0.05, 0.5)

    def test_weak_sample_size(self):
        # ceil(4 * (20/0.25) * ln 4)
        assert weak_sample_size(20, 0.25) == 444

    def test_reweight_oracle(self):
        w = np.array([1.0, 1.0, 2.0])
        correct = np.array([True, False, True])
        out = adaboost_reweight(w, correct, math.log(2.0))
        assert out == pytest.approx([0.5, 2.0, 1.0])


class TestStump:
    def test_predict_semantics(self):
        h = DecisionStump(3, 1, 1)
        X = np.array([[0, 1, 0], [0, 0, 0]], float)
        assert list(h.predict(X)) == [1, -1]
        assert list(DecisionStump(3, -1, -1).predict(X)) == [-1, -1]

    def test_best_stump_picks_perfect_feature(self):
        rng = stream(0, "stump")
        X = rng.integers(0, 2, size=(100, 5)).astype(float)
        y = np.where(X[:, 3] == 1.0, 1, -1)
        h = best_stump(Sample(X, y))
        assert (h.j, h.out) == (3, 1)

    def test_tie_prefers_constant(self):
        X = np.array([[1.0], [0.0]])
        h = best_stump(Sample(X, np.array([1, 1])))
        assert h.j == -1 and h.out == 1

    def test_encoded_bits(self):
        assert DecisionStump(20, 3, 1).encoded_bits() == 6


class TestDistributed:
    def run(self, seed, k=3, **kw):
        n = 20
        f = Conjunction(n, frozenset({0, 4, 9}))
        return f, run_distributed_boosting([UniformBoolean(n)] * k, f,
                                           0.05, 0.05, seed, **kw)

    def test_q_from_52_changes_only_the_weight_width(self):
        k, T = 3, boosting_rounds(0.05, 0.25)
        (_f, a), (_f, b) = self.run(5, q=52), self.run(5, q=2000)
        assert repr(a.hypotheses) == repr(b.hypotheses)
        assert a.errors == b.errors
        # each round, each player sends its total and mistake weights
        assert b.ledger.bits - a.ledger.bits == 2 * (2000 - 52) * k * T
        assert (a.ledger.examples, a.ledger.rounds) == \
            (b.ledger.examples, b.ledger.rounds)

    def test_constant_examples_per_round(self):
        _f, res = self.run(0)
        tel = res.meta["telemetry"]
        assert len(tel) == 24
        assert all(row["examples"] == res.meta["m_weak"] for row in tel)
        assert res.meta["m_weak"] == 444

    def test_training_error_below_bound_every_round(self):
        for seed in (1, 2):
            _f, res = self.run(seed)
            for row in res.meta["telemetry"]:
                assert row["train_error"] <= row["train_bound"] + 1e-12

    def test_train_error_is_rebuilt_ensemble_error(self):
        _f, res = self.run(6, k=3)
        n, k = 20, 3
        f = Conjunction(n, frozenset({0, 4, 9}))
        samples = [draw_sample(UniformBoolean(n), f, res.meta["m_per_player"],
                               6, tags=("boost", i)) for i in range(k)]
        weak, alphas = res.meta["weak"], res.meta["alphas"]
        for t, row in enumerate(res.meta["telemetry"]):
            ens = WeightedMajority(tuple(zip(weak[:t + 1], alphas[:t + 1])))
            wrong = sum(int((ens.predict(s.features) != s.labels).sum())
                        for s in samples)
            assert row["train_error"] == wrong / sum(len(s) for s in samples)

    def test_reaches_target_error(self):
        _f, res = self.run(3)
        assert res.meta["telemetry"][-1]["train_error"] <= 0.05
        assert res.errors["mixture"] <= 0.05

    def test_ledger_per_round(self):
        n, k = 20, 3
        _f, res = self.run(4, k=k)
        T, m_weak = 24, 444
        assert res.ledger.rounds == T
        assert res.ledger.examples == T * m_weak
        assert res.ledger.hypotheses == T
        cw = channel.count_width(m_weak)
        stump_bits = math.ceil(math.log2(n + 1)) + 1
        expected = T * (k * cw + m_weak * (n + 1) + stump_bits
                        + k * 2 * 32 + 64)
        assert res.ledger.bits == expected

    def test_k1_exact_weights_matches_single_machine(self):
        n = 20
        f = Conjunction(n, frozenset({0, 4, 9}))
        seed = 7
        m = pac_sample_size(n, 0.05, 1, 0.05)
        sample = draw_sample(UniformBoolean(n), f, m, seed, tags=("boost", 0))
        single = adaboost_single(sample, 24, 444, seed)
        _f, res = self.run(seed, k=1, q=None)
        assert res.meta["weak"] == single["weak"]
        assert res.meta["alphas"] == single["alphas"]

    def test_quantization_changes_little(self):
        _f, exact = self.run(5, q=None)
        _f, coarse = self.run(5, q=16)
        last = coarse.meta["telemetry"][-1]
        assert last["train_error"] <= 0.05
        assert exact.meta["telemetry"][-1]["train_error"] <= 0.05


def per_player_boost_loop(samples, T, m_weak, q, seed, ledger):
    """Reference: the boosting loop with one weight array per player, every
    elementwise pass run player by player."""
    k = len(samples)
    weights = [np.ones(len(s), dtype=np.float64) for s in samples]
    margins = [np.zeros(len(s), dtype=np.float64) for s in samples]
    total = sum(len(s) for s in samples)
    split_rng = stream(seed, "boost", "split")
    draw_rngs = [stream(seed, "boost", "draw", i) for i in range(k)]
    hs, alphas, telemetry = [], [], []
    bound = 1.0
    cw = channel.count_width(m_weak)
    players = [f"p{i + 1}" for i in range(k)]
    for t in range(T):
        totals = quantize(np.array([w.sum() for w in weights]), q)
        counts = split_rng.multinomial(m_weak, totals / totals.sum())
        feats, labels = [], []
        for i in range(k):
            channel.send_count(ledger, channel.CENTER, players[i],
                               int(counts[i]), cw)
            wq = quantize(weights[i], q)
            idx = draw_rngs[i].choice(len(wq), size=int(counts[i]),
                                      p=wq / wq.sum())
            feats.append(samples[i].features[idx])
            labels.append(samples[i].labels[idx])
            for bits in channel.example_bits(feats[-1]):
                channel.send_example(ledger, players[i], channel.CENTER, bits)
        h_t = best_stump(Sample(np.vstack(feats), np.concatenate(labels)))
        channel.send_hypothesis(ledger, channel.CENTER, channel.BROADCAST,
                                h_t)
        mistake_w, total_w = 0.0, 0.0
        preds, corrects = [], []
        for i in range(k):
            preds.append(h_t.predict(samples[i].features))
            corrects.append(preds[i] == samples[i].labels)
            m_i = quantize(float(weights[i][~corrects[i]].sum()), q)
            mistake_w += m_i
            total_w += float(totals[i])
            channel.send(ledger, players[i], channel.CENTER,
                         2 * (64 if q is None else q))
        eps_t = min(max(mistake_w / total_w, 1e-12), 1.0 - 1e-12)
        alpha_t = 0.5 * math.log((1.0 - eps_t) / eps_t)
        channel.send(ledger, channel.CENTER, channel.BROADCAST, 64)
        channel.advance_round(ledger, "round")
        wrong = 0
        for i in range(k):
            weights[i] = adaboost_reweight(weights[i], corrects[i], alpha_t)
            margins[i] += alpha_t * preds[i]
            wrong += int((sign_pm1(margins[i]) != samples[i].labels).sum())
        hs.append(h_t)
        alphas.append(alpha_t)
        bound *= 2.0 * math.sqrt(eps_t * (1.0 - eps_t))
        telemetry.append({"round": t + 1, "eps_t": eps_t, "alpha_t": alpha_t,
                          "examples": int(counts.sum()),
                          "train_error": wrong / total,
                          "train_bound": bound})
    return {"telemetry": telemetry, "alphas": alphas, "weak": hs}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.integers(1, 40), min_size=1,
                                         max_size=5),
       st.sampled_from([None, 1, 8, 32]), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 60))
def test_property_flat_block_loop_is_the_per_player_loop(seed, sizes, q, T, n,
                                                         m_weak):
    # unequal sizes and noisy labels, so players' weights drift apart
    f = Conjunction(n, frozenset(range(0, n, 2)))
    samples = [draw_sample(UniformBoolean(n), f, m, seed, noise_rate=0.2,
                           tags=("flat", i)) for i, m in enumerate(sizes)]
    got_ledger, want_ledger = channel.CostLedger(), channel.CostLedger()
    got = _boost_loop(samples, T, m_weak, q, seed, got_ledger)
    want = per_player_boost_loop(samples, T, m_weak, q, seed, want_ledger)
    assert got["weak"] == want["weak"]
    assert got["alphas"] == want["alphas"]
    assert got["telemetry"] == want["telemetry"]
    assert got_ledger.to_dict() == want_ledger.to_dict()


def loop_best_stump(sample):
    """Reference: the per-feature strict-< scan that best_stump's argmin
    replaced."""
    X, y = sample.features, sample.labels.astype(np.float64)
    n = X.shape[1]
    err_const_pos = float(np.mean(y == -1))
    best = DecisionStump(n, -1, 1)
    best_err = err_const_pos
    if 1.0 - err_const_pos < best_err:
        best, best_err = DecisionStump(n, -1, -1), 1.0 - err_const_pos
    errs = np.mean((2.0 * X - 1.0) != y[:, None], axis=0)
    for j in range(n):
        if errs[j] < best_err:
            best, best_err = DecisionStump(n, j, 1), float(errs[j])
        if 1.0 - errs[j] < best_err:
            best, best_err = DecisionStump(n, j, -1), float(1.0 - errs[j])
    return best


@st.composite
def stump_samples(draw):
    """Boolean samples drawn from a few columns, so that columns repeat,
    are constant, or tie with the constant stump; labels may be all one."""
    m = draw(st.integers(1, 30))
    bits = st.lists(st.booleans(), min_size=m, max_size=m)
    pool = draw(st.lists(bits, min_size=1, max_size=3))
    pool += [[False] * m, [True] * m]
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    labels = draw(bits | st.just([True] * m) | st.just([False] * m))
    return Sample(np.array(cols, dtype=float).T, np.where(labels, 1, -1))


@settings(max_examples=150, deadline=None)
@given(stump_samples())
def test_property_best_stump_is_the_per_feature_scan(sample):
    assert best_stump(sample) == loop_best_stump(sample)


@pytest.mark.parametrize("cols, labels, want", [
    # duplicate perfect columns: the lowest index wins
    ([[1, 0, 1, 0], [1, 0, 1, 0]], [1, -1, 1, -1], (0, 1)),
    # a constant column ties with the constant stump, which wins
    ([[1, 1, 1, 1]], [1, 1, 1, 1], (-1, 1)),
    ([[0, 0, 0, 0]], [-1, -1, -1, -1], (-1, -1)),
    # an inverted column: out = -1 on the first feature that fits
    ([[0, 0, 0, 0], [0, 1, 0, 1]], [1, -1, 1, -1], (1, -1)),
])
def test_best_stump_ties(cols, labels, want):
    sample = Sample(np.array(cols, dtype=float).T, np.array(labels))
    h = best_stump(sample)
    assert (h.j, h.out) == want
    assert h == loop_best_stump(sample)


def test_all_weights_underflowing_is_a_protocol_error():
    # a perfect stump shrinks every weight by e^-alpha each round
    n = 4
    f = Conjunction(n, frozenset({0}))
    with pytest.raises(ProtocolError, match=r"boosting round \d+: every "
                       "weight underflowed to 0"):
        run_distributed_boosting([UniformBoolean(n)] * 2, f, 0.001, 0.05, 0)
