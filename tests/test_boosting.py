import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import channel
from distpac.boosting import (DecisionStump, adaboost_reweight,
                              adaboost_single, best_stump, boosting_rounds,
                              quantize, run_distributed_boosting,
                              weak_sample_size)
from distpac.closed import pac_sample_size
from distpac.core import (ConfigurationError, Conjunction, Sample,
                          UniformBoolean, WeightedMajority, draw_sample,
                          stream)


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
