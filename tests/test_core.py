import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac.core import (Box, ConfigurationError, Conjunction,
                          DecisionListFunc, FixedOrderedList, IntervalUnion,
                          LinearSeparator, MajorityOfSet, ParityFunc,
                          PointMassList, ProductBernoulli, Sample,
                          Threshold, UniformBoolean, UniformInterval,
                          WeightedMajority, draw_sample, measure_errors,
                          predict_matrix, rule_bits, sample_error, sign_pm1,
                          stream)


class TestStream:
    def test_same_tags_same_stream(self):
        a = stream(7, "x", 1).random(5)
        b = stream(7, "x", 1).random(5)
        assert np.array_equal(a, b)

    def test_different_tags_differ(self):
        a = stream(7, "x", 1).random(5)
        b = stream(7, "x", 2).random(5)
        assert not np.array_equal(a, b)

    def test_seed_matters(self):
        assert not np.array_equal(stream(1, "t").random(3),
                                  stream(2, "t").random(3))

    def test_equal_hashing_tags_stay_distinct(self):
        # 1, True and 1.0 are one dict key but three different tags
        for _ in range(2):
            draws = [tuple(stream(7, tag).random(3)) for tag in (1, True, 1.0)]
            assert len(set(draws)) == 3


def test_sign_zero_is_positive():
    assert list(sign_pm1(np.array([-1.0, 0.0, 2.0]))) == [-1, 1, 1]


class TestSample:
    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigurationError):
            Sample(np.zeros((2, 3)), np.array([1, 0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            Sample(np.zeros((2, 3)), np.array([1, -1, 1]))

    def test_default_weights(self):
        s = Sample(np.zeros((3, 2)), np.array([1, -1, 1]))
        assert np.array_equal(s.weights, np.ones(3))

    def test_is_boolean(self):
        assert Sample(np.array([[0.0, 1.0]]), np.array([1])).is_boolean()
        assert not Sample(np.array([[0.5, 1.0]]), np.array([1])).is_boolean()


class TestConcepts:
    def test_conjunction_hand_values(self):
        f = Conjunction(3, frozenset({0, 2}))
        X = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]], float)
        assert list(f.predict(X)) == [1, -1, -1, 1]

    def test_empty_conjunction_is_true(self):
        f = Conjunction(3, frozenset())
        assert list(f.predict(np.zeros((2, 3)))) == [1, 1]

    def test_conjunction_mask(self):
        assert Conjunction(5, frozenset({0, 3})).mask == 0b01001

    def test_box_closed_boundaries(self):
        f = Box((0.0, 0.0), (1.0, 1.0))
        X = np.array([[0.0, 1.0], [1.5, 0.5], [0.5, 0.5]])
        assert list(f.predict(X)) == [1, -1, 1]

    def test_empty_box_rejects_everything(self):
        f = Box.empty(2)
        assert list(f.predict(np.zeros((3, 2)))) == [-1, -1, -1]

    def test_parity_hand_values(self):
        # +1 iff x0 xor x2 = 1
        f = ParityFunc(3, (1, 0, 1))
        X = np.array([[1, 0, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1]], float)
        assert list(f.predict(X)) == [1, -1, -1, -1]

    def test_decision_list_order_matters(self):
        f = DecisionListFunc(2, ((1, 1, 1), (2, 1, -1)), 1)
        X = np.array([[1, 1], [0, 1], [0, 0]], float)
        assert list(f.predict(X)) == [1, -1, 1]

    def test_alternations(self):
        f = DecisionListFunc(3, ((1, 1, 1), (2, 0, 1), (3, 1, -1)), 1)
        assert f.alternations() == 2

    def test_linear_separator(self):
        f = LinearSeparator((1.0, -1.0))
        X = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]])
        assert list(f.predict(X)) == [1, -1, 1]

    def test_unit_validation(self):
        with pytest.raises(ConfigurationError):
            LinearSeparator.unit((2.0, 0.0))

    def test_weighted_majority(self):
        members = ((LinearSeparator((1.0,)), 1.0),
                   (LinearSeparator((-1.0,)), 3.0))
        f = WeightedMajority(members)
        assert f.predict_one(np.array([2.0])) == -1

    def test_majority_tie_positive(self):
        f = MajorityOfSet((LinearSeparator((1.0,)),
                           LinearSeparator((-1.0,))))
        assert f.predict_one(np.array([1.0])) == 1

    @pytest.mark.parametrize("members", [
        (Threshold(0.5, 1), Threshold(0.5, -1)),
        (Threshold(0.0, -1), LinearSeparator((1.0,))),
    ], ids=["threshold-family", "mixed"])
    def test_majority_tie_positive_batched(self, members):
        f = MajorityOfSet(members)
        assert list(f.predict(np.array([[0.0], [0.5], [1.0]]))) == [1, 1, 1]

    def test_majority_pickles(self):
        f = MajorityOfSet((Threshold(0.3, 1), Threshold(0.6, -1),
                           Threshold(0.1, 1)))
        g = pickle.loads(pickle.dumps(f))
        X = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
        assert g == f and np.array_equal(g.predict(X), f.predict(X))

    def test_interval_union(self):
        f = IntervalUnion(((0.1, 0.2), (0.5, 0.6)))
        X = np.array([[0.15], [0.3], [0.55], [0.2]])
        assert list(f.predict(X)) == [1, -1, 1, 1]


class TestEncodedBits:
    def test_sizes(self):
        assert Conjunction(12, frozenset()).encoded_bits() == 12
        assert ParityFunc(9, (1,) * 9).encoded_bits() == 9
        assert Box((0.0,) * 3, (1.0,) * 3).encoded_bits(16) == 96
        assert LinearSeparator((1.0, 0.0)).encoded_bits(32) == 65
        # (rules + else) * rule size
        f = DecisionListFunc(50, ((1, 0, 1),), -1)
        assert f.encoded_bits() == 2 * rule_bits(50)

    def test_rule_bits(self):
        assert rule_bits(50) == math.ceil(math.log2(51)) + 2 == 8
        assert rule_bits(1) == 3


class TestDistributions:
    def test_point_mass_validation(self):
        with pytest.raises(ConfigurationError):
            PointMassList(((0.0,), (1.0,)), (0.7, 0.7))

    def test_fixed_ordered_cycles(self):
        spec = FixedOrderedList(((1.0,), (2.0,)))
        X = spec.draw(stream(0), 5)
        assert list(X[:, 0]) == [1.0, 2.0, 1.0, 2.0, 1.0]

    def test_uniform_interval_range(self):
        X = UniformInterval(0.2, 0.4).draw(stream(1), 100)
        assert X.shape == (100, 1)
        assert X.min() >= 0.2 and X.max() <= 0.4

    def test_product_bernoulli_bias(self):
        spec = ProductBernoulli((0.9, 0.1))
        X = spec.draw(stream(3), 2000)
        assert 0.85 < X[:, 0].mean() < 0.95
        assert 0.05 < X[:, 1].mean() < 0.15


class TestDrawSample:
    def test_reproducible(self):
        f = Conjunction(6, frozenset({0}))
        a = draw_sample(UniformBoolean(6), f, 50, 3, tags=("t",))
        b = draw_sample(UniformBoolean(6), f, 50, 3, tags=("t",))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_match_target(self):
        f = Conjunction(6, frozenset({1, 2}))
        s = draw_sample(UniformBoolean(6), f, 200, 5)
        assert np.array_equal(s.labels, f.predict(s.features))

    def test_noise_rate_flips_roughly_that_fraction(self):
        f = Conjunction(4, frozenset({0}))
        clean = draw_sample(UniformBoolean(4), f, 5000, 9)
        noisy = draw_sample(UniformBoolean(4), f, 5000, 9, noise_rate=0.2)
        flipped = np.mean(clean.labels != noisy.labels)
        assert 0.15 < flipped < 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            draw_sample(UniformBoolean(3), Conjunction(4, frozenset()), 5, 0)


def test_sample_error_weighted():
    s = Sample(np.array([[1.0], [0.0], [1.0]]), np.array([1, 1, -1]),
               np.array([1.0, 2.0, 1.0]))
    h = LinearSeparator((1.0,))  # predicts +1, +1, +1
    assert sample_error(h, s) == pytest.approx(1.0 / 4.0)


def test_mixture_error_averages_players():
    f = Conjunction(4, frozenset({0}))
    specs = [UniformBoolean(4), UniformBoolean(4)]
    assert measure_errors(f, specs, f, 400, 0)["mixture"] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_property_target_predictions_pm1(seed, n):
    rng = stream(seed, "prop")
    vars_ = frozenset(int(v) for v in
                      rng.choice(n, size=rng.integers(0, n + 1),
                                 replace=False))
    f = Conjunction(n, vars_)
    X = rng.integers(0, 2, size=(64, n)).astype(float)
    preds = f.predict(X)
    assert set(np.unique(preds)).issubset({-1, 1})
    # conjunction semantics, row by row
    for row, p in zip(X, preds):
        expected = 1 if all(row[j] == 1.0 for j in vars_) else -1
        assert p == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_parity_linear_over_gf2(seed):
    rng = stream(seed, "parity_prop")
    n = 10
    v = tuple(int(b) for b in rng.integers(0, 2, size=n))
    f = ParityFunc(n, v)
    a = rng.integers(0, 2, size=n).astype(float)
    b = rng.integers(0, 2, size=n).astype(float)
    ab = np.abs(a - b)  # xor
    pa, pb, pab = (f.predict_one(x) for x in (a, b, ab))
    # parity bit of a xor b is the xor of the parity bits
    ba, bb, bab = ((1 if p == 1 else 0) for p in (pa, pb, pab))
    assert bab == ba ^ bb


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.sampled_from((1, -1))),
                max_size=12),
       st.lists(st.integers(0, 8), max_size=20), st.booleans())
def test_property_predict_matrix_stacks_predict(grid, xs, mixed):
    # points on the thresholds' own grid, so x == t is exercised
    H = [Threshold(t / 8, sign) for t, sign in grid]
    if mixed:
        H += [LinearSeparator((-1.0,)), IntervalUnion(((0.25, 0.5),))]
    X = np.array(xs, dtype=np.float64).reshape(-1, 1) / 8
    M = predict_matrix(H, X)
    assert M.dtype == np.int8 and M.shape == (len(H), len(X))
    if H:
        assert np.array_equal(M, np.stack([h.predict(X) for h in H]))
        vote = sign_pm1(sum(h.predict(X).astype(np.int64) for h in H))
        assert np.array_equal(MajorityOfSet(tuple(H)).predict(X), vote)
