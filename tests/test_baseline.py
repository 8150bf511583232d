import numpy as np
import pytest

from distpac import channel
from distpac.baseline import (ConjunctionElimination, eq_mistake_bound,
                              sample_shipping, shipping_sample_size)
from distpac.core import (PRECISION_BITS, Box, Conjunction, ProtocolError,
                          UniformBoolean, UniformInterval, draw_sample,
                          sample_error)


def boolean_sample(n, f, m, seed):
    return draw_sample(UniformBoolean(n), f, m, seed, tags=("bl", n))


class TestConjunctionElimination:
    def test_positive_drops_zero_variables(self):
        learner = ConjunctionElimination(4)
        learner.update(np.array([1.0, 0.0, 1.0, 0.0]), 1)
        assert learner.hypothesis().variables == frozenset({0, 2})

    def test_mistake_bound(self):
        assert ConjunctionElimination(9).mistake_bound() == 10

    def test_unrealizable_negative_raises(self):
        learner = ConjunctionElimination(2)
        learner.update(np.array([1.0, 1.0]), 1)  # hypothesis now empty-ish
        with pytest.raises(ProtocolError):
            learner.update(np.array([1.0, 1.0]), -1)


class TestSampleShipping:
    def test_budget_formula(self):
        # ceil((8/4) * (10/0.1) * ln 10) = ceil(460.517)
        assert shipping_sample_size(10, 0.1, 4) == 461

    def test_one_round_and_all_examples_charged(self):
        n, k = 8, 3
        f = Conjunction(n, frozenset({0, 5}))
        res = sample_shipping([UniformBoolean(n)] * k, f, 0.1, 0)
        m_i = res.meta["m_per_player"]
        assert m_i == shipping_sample_size(n, 0.1, k)  # VC dimension n
        assert res.ledger.rounds == 1
        assert res.ledger.examples == k * m_i
        assert res.ledger.bits == k * m_i * (n + 1)
        assert res.errors["mixture"] <= 0.1

    def test_box_target_budget_from_vc_dimension_2d(self):
        k, d = 3, 1
        f = Box((0.25,), (0.75,))
        res = sample_shipping([UniformInterval()] * k, f, 0.1, 0)
        m_i = shipping_sample_size(2 * d, 0.1, k)
        assert res.meta["m_per_player"] == m_i
        assert res.ledger.rounds == 1
        assert res.ledger.examples == k * m_i
        assert res.ledger.bits == k * m_i * (d * PRECISION_BITS + 1)
        assert isinstance(res.hypotheses[channel.CENTER], Box)
        assert res.errors["mixture"] <= 0.1


class TestEqDriver:
    def test_conjunction_elimination_under_mistake_bound(self):
        n = 12
        f = Conjunction(n, frozenset({1, 4, 7}))
        samples = [boolean_sample(n, f, 150, s) for s in (0, 1, 2)]
        res = eq_mistake_bound(samples, ConjunctionElimination(n))
        assert res.ledger.examples <= n + 1
        # one slot per counterexample plus the final quiet slot
        assert res.ledger.rounds == res.ledger.examples + 1
        h = res.hypotheses[channel.CENTER]
        assert all(sample_error(h, s) == 0.0 for s in samples)

    def test_empty_sample_has_no_mistake(self):
        n = 6
        f = Conjunction(n, frozenset({2}))
        samples = [boolean_sample(n, f, 80, 9)]
        empty = boolean_sample(n, f, 0, 9)
        alone = eq_mistake_bound(samples, ConjunctionElimination(n))
        res = eq_mistake_bound([empty] + samples, ConjunctionElimination(n))
        assert res.ledger.examples == alone.ledger.examples > 0
        assert res.ledger.rounds == alone.ledger.rounds
        assert set(res.ledger.per_player) == {"p2"}

    def test_counterexamples_broadcast_only(self):
        n = 6
        f = Conjunction(n, frozenset({2}))
        samples = [boolean_sample(n, f, 80, 9)]
        res = eq_mistake_bound(samples, ConjunctionElimination(n))
        assert res.ledger.bits == res.ledger.examples * (n + 1)
        assert set(res.ledger.per_player) <= {"p1"}

    def test_mistake_cap_trips_on_broken_learner(self):
        class Stubborn(ConjunctionElimination):
            def update(self, x, label):
                pass

        n = 5
        f = Conjunction(n, frozenset({0}))
        samples = [boolean_sample(n, f, 60, 3)]
        # the cap is 10x the learner's mistake bound of n + 1
        with pytest.raises(ProtocolError, match="mistake cap 60 "):
            eq_mistake_bound(samples, Stubborn(n))
