import re

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
        h = smallest_consistent([Sample(X, y)], Conjunction)
        assert h.variables == frozenset({0, 1})

    def test_no_positives_gives_all_variables(self):
        X = np.array([[1, 0], [0, 1]], float)
        h = smallest_consistent([Sample(X, np.array([-1, -1]))], Conjunction)
        assert h.variables == frozenset({0, 1})

    def test_box_bounding(self):
        X = np.array([[0.2, 0.5], [0.6, 0.1], [0.9, 0.9]])
        y = np.array([1, 1, -1])
        h = smallest_consistent([Sample(X, y)], Box)
        assert h.lo == (0.2, 0.1) and h.hi == (0.6, 0.5)

    def test_negative_inside_raises(self):
        X = np.array([[1, 1], [1, 1]], float)
        y = np.array([1, -1])
        with pytest.raises(ProtocolError, match="negative example inside "
                           "the smallest consistent conjunction"):
            smallest_consistent([Sample(X, y)], Conjunction)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_smallest_is_contained_in_target(self, seed):
        rng = stream(seed, "closed_prop")
        n = 8
        target = Conjunction(n, frozenset(
            int(v) for v in rng.choice(n, size=3, replace=False)))
        s = draw_sample(UniformBoolean(n), target, 40, seed)
        h = smallest_consistent([s], Conjunction)
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
        assert class_dimension(Conjunction, 30) == 30
        assert class_dimension(Box, 4) == 8

    def test_other_class_rejected(self):
        s = Sample(np.array([[0.5]]), np.array([1]))
        with pytest.raises(ConfigurationError):
            smallest_consistent([s], Threshold)
        with pytest.raises(ConfigurationError):
            combine([Threshold(0.5, 1)])
        with pytest.raises(ConfigurationError):
            class_dimension(Threshold, 1)


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


def union_smallest_consistent(samples, cls):
    """Reference: the learner on the stacked union of the samples, as it
    was before it learned sample by sample."""
    sample = Sample(np.vstack([s.features for s in samples]),
                    np.concatenate([s.labels for s in samples]))
    pos = sample.features[sample.labels == 1] if len(sample) else \
        np.zeros((0, sample.dim))
    if cls is Conjunction:
        n = sample.dim
        if pos.shape[0] == 0:
            h = Conjunction(n, frozenset(range(n)))
        else:
            anded = np.all(pos == 1.0, axis=0)
            h = Conjunction(n, frozenset(np.flatnonzero(anded).tolist()))
    else:
        if pos.shape[0] == 0:
            h = Box((np.inf,) * sample.dim, (-np.inf,) * sample.dim)
        else:
            h = Box(tuple(pos.min(axis=0).tolist()),
                    tuple(pos.max(axis=0).tolist()))
    if len(sample):
        neg = sample.labels == -1
        if np.any(h.predict(sample.features[neg]) == 1):
            raise ProtocolError("negative example inside the smallest "
                                f"consistent {cls.__name__.lower()}")
    return h


@st.composite
def closed_samples(draw):
    """(class, samples): 1-4 samples of 0-6 rows; features are 0/1 for a
    conjunction and a small grid for a box, labels are free, so a player
    may have no positive and a negative may land inside h."""
    cls = draw(st.sampled_from([Conjunction, Box]))
    d = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 1.0] if cls is Conjunction
                             else [0.0, 0.25, 0.5, 0.75, 1.0])
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(0, 6))
        X = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                   min_size=m, max_size=m)),
                     dtype=float).reshape(m, d)
        y = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
        samples.append(Sample(X, np.array(y, dtype=np.int8)))
    return cls, samples


@settings(max_examples=200, deadline=None)
@given(closed_samples())
def test_property_smallest_consistent_is_the_union_learner(case):
    cls, samples = case
    try:
        want = union_smallest_consistent(samples, cls)
    except ProtocolError as exc:
        with pytest.raises(ProtocolError, match=f"^{re.escape(str(exc))}$"):
            smallest_consistent(samples, cls)
        return
    assert smallest_consistent(samples, cls) == want


def test_union_with_an_empty_and_a_negative_only_player():
    X = np.array([[0.2, 0.6], [0.4, 0.3]])
    samples = [Sample(np.zeros((0, 2)), np.zeros(0, dtype=np.int8)),
               Sample(np.array([[0.9, 0.9]]), np.array([-1])),
               Sample(X, np.array([1, 1]))]
    h = smallest_consistent(samples, Box)
    assert h == Box((0.2, 0.3), (0.4, 0.6))
    assert h == union_smallest_consistent(samples, Box)
    with pytest.raises(ProtocolError, match="negative example inside the "
                       "smallest consistent box"):
        smallest_consistent(samples + [Sample(np.array([[0.3, 0.5]]),
                                              np.array([-1]))], Box)
