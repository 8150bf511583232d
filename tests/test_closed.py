import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import channel
from distpac.closed import (class_dimension, combine, pac_sample_size,
                            run_intersection_closed, smallest_consistent)
from distpac.core import (Box, ConfigurationError, Conjunction,
                          ProductBernoulli, ProtocolError, Sample,
                          Threshold, UniformBoolean, draw_sample,
                          sample_error, stream)


class TestPacSampleSize:
    def test_formula_value(self):
        # (1/0.1) * (5 ln 10 + ln(4/0.05)) = 10 * (11.5129 + 4.3820)
        assert pac_sample_size(5, 0.1, 4, 0.05) == 159

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pac_sample_size(5, 0.0, 1, 0.05)


class TestSmallestConsistent:
    def test_conjunction_hand_case(self):
        X = np.array([[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1]], float)
        y = np.array([1, 1, -1])
        h = smallest_consistent(Sample(X, y), Conjunction)
        assert h.variables == frozenset({0, 1})

    def test_no_positives_gives_all_variables(self):
        X = np.array([[1, 0], [0, 1]], float)
        h = smallest_consistent(Sample(X, np.array([-1, -1])), Conjunction)
        assert h.variables == frozenset({0, 1})

    def test_box_bounding(self):
        X = np.array([[0.2, 0.5], [0.6, 0.1], [0.9, 0.9]])
        y = np.array([1, 1, -1])
        h = smallest_consistent(Sample(X, y), Box)
        assert h.lo == (0.2, 0.1) and h.hi == (0.6, 0.5)

    def test_negative_inside_raises(self):
        X = np.array([[1, 1], [1, 1]], float)
        y = np.array([1, -1])
        with pytest.raises(ProtocolError, match="negative example inside "
                           "the smallest consistent conjunction"):
            smallest_consistent(Sample(X, y), Conjunction)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_smallest_is_contained_in_target(self, seed):
        rng = stream(seed, "closed_prop")
        n = 8
        target = Conjunction(n, frozenset(
            int(v) for v in rng.choice(n, size=3, replace=False)))
        s = draw_sample(UniformBoolean(n), target, 40, seed)
        h = smallest_consistent(s, Conjunction)
        # closure element: h's variable set contains the target's
        assert target.variables <= h.variables
        assert sample_error(h, s) == 0.0


class TestCombine:
    def test_conjunction_join_is_intersection_of_variable_sets(self):
        hs = [Conjunction(4, frozenset({0, 1, 2})),
              Conjunction(4, frozenset({1, 2, 3}))]
        assert combine(hs).variables == frozenset({1, 2})

    def test_box_join_is_bounding_box(self):
        hs = [Box((0.0, 0.2), (0.5, 0.4)), Box((0.3, 0.0), (0.9, 0.3))]
        h = combine(hs)
        assert h.lo == (0.0, 0.0) and h.hi == (0.9, 0.4)

    def test_class_dimension(self):
        assert class_dimension(Conjunction(30, frozenset())) == 30
        assert class_dimension(Box((0.0,) * 4, (1.0,) * 4)) == 8

    def test_other_class_rejected(self):
        s = Sample(np.array([[0.5]]), np.array([1]))
        with pytest.raises(ConfigurationError):
            smallest_consistent(s, Threshold)
        with pytest.raises(ConfigurationError):
            combine([Threshold(0.5, 1)])
        with pytest.raises(ConfigurationError):
            class_dimension(Threshold(0.5, 1))


class TestProtocol:
    def test_exact_ledger_conjunction(self):
        n, k = 30, 5
        f = Conjunction(n, frozenset({2, 7, 11}))
        specs = [UniformBoolean(n)] * k
        res = run_intersection_closed(specs, f, 0.05, 0.05, 0)
        assert res.ledger.rounds == 1
        assert res.ledger.hypotheses == k
        assert res.ledger.bits == k * n

    def test_box_ledger(self):
        d, k = 3, 2
        f = Box((0.2,) * d, (0.8,) * d)
        from distpac.core import UniformSphere

        class Unit01(UniformSphere):
            def draw(self, rng, m):
                return rng.random((m, self.d))

        specs = [Unit01(d)] * k
        res = run_intersection_closed(specs, f, 0.1, 0.05, 1)
        assert res.ledger.bits == k * 2 * d * 32
        assert res.ledger.rounds == 1

    def test_output_consistent_and_accurate(self):
        n = 20
        f = Conjunction(n, frozenset({1, 3}))
        specs = [UniformBoolean(n), ProductBernoulli(tuple([0.7] * n))]
        res = run_intersection_closed(specs, f, 0.05, 0.05, 3)
        assert res.errors["mixture"] <= 0.05

    def test_center_holds_hypothesis(self):
        f = Conjunction(5, frozenset({0}))
        res = run_intersection_closed([UniformBoolean(5)], f, 0.1, 0.1, 0)
        assert channel.CENTER in res.hypotheses
        assert set(res.hypotheses) == {channel.CENTER}
