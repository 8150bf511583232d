import math

import numpy as np
import pytest
import sympy

from distpac import channel
from distpac.closed import run_intersection_closed
from distpac.core import (ConfigurationError, Conjunction, Sample,
                          UniformBoolean, draw_sample, stream)
from distpac.privacy import (COND_POSITIVES, MODE_DIFFERENTIAL,
                             MODE_DISTRIBUTIONAL, MODE_NONE, BudgetError,
                             DegenerateConditioningError, PrivacyBudget,
                             SQQuery, distributional_beta, laplace_noise,
                             learn_private_conjunction, noise_scale,
                             private_conjunction_protocol,
                             private_sample_size, sq_answer,
                             sq_rule_consistency)


class TestBudget:
    def test_charge_exhausts(self):
        b = PrivacyBudget(MODE_DIFFERENTIAL, 1.0, 0.05, M=2)
        b.charge()
        b.charge()
        with pytest.raises(BudgetError):
            b.charge()

    def test_per_query_split(self):
        b = PrivacyBudget(MODE_DIFFERENTIAL, 1.0, 0.04, M=10)
        assert b.alpha_prime == 0.1
        assert b.delta_prime == 0.002  # delta / (2M)
        d = PrivacyBudget(MODE_DISTRIBUTIONAL, 1.0, 0.04, M=10)
        assert d.delta_prime == 0.004  # delta / M

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PrivacyBudget("bogus", 1.0, 0.05, M=1)
        with pytest.raises(ConfigurationError):
            PrivacyBudget(MODE_DIFFERENTIAL, 0.0, 0.05, M=1)


class TestLaplace:
    def test_mean_absolute_matches_scale(self):
        rng = stream(0, "lap")
        scale = 0.01
        draws = np.array([laplace_noise(rng, scale) for _ in range(100000)])
        assert abs(draws).mean() == pytest.approx(scale, rel=0.05)
        assert draws.mean() == pytest.approx(0.0, abs=scale * 0.05)

    def test_tail_decays_exponentially(self):
        rng = stream(1, "lap_tail")
        scale = 1.0
        draws = np.array([laplace_noise(rng, scale) for _ in range(100000)])
        for t in (1.0, 2.0, 3.0):
            assert np.mean(np.abs(draws) > t) == pytest.approx(
                math.exp(-t), rel=0.15)

    def test_symbolic_density_ratio_bounds_privacy_loss(self):
        # Laplace mechanism on a mean query: neighboring samples of size n
        # shift the true answer by at most 1/n; at scale 1/(alpha' n) the
        # density ratio is then at most e^alpha' everywhere
        x, a = sympy.symbols("x a", real=True)
        alpha_p, n = sympy.Rational(1, 10), 50
        scale = 1 / (alpha_p * n)
        dens = sympy.exp(-sympy.Abs(x - a) / scale) / (2 * scale)
        log_ratio = sympy.log(dens / dens.subs(a, a + sympy.Rational(1, n)))
        bound = sympy.Abs(sympy.Rational(1, n)) / scale
        # triangle inequality: |x-a| - |x-a-1/n| <= 1/n, so log ratio <= alpha'
        assert sympy.simplify(bound - alpha_p) == 0
        for xv in (-3, 0, 0.013, 1, 7):
            for av in (-1, 0, 2):
                val = float(log_ratio.subs({x: xv, a: av}))
                assert val <= float(alpha_p) + 1e-12


class TestDistributionalBeta:
    def test_formula(self):
        assert distributional_beta(0.01, 400) == pytest.approx(
            math.sqrt(2 * math.log(400.0) / 400))

    def test_covers_sampling_deviation(self):
        # beta should dominate |empirical - true| for >= 1 - delta' of draws
        delta_p, n = 0.05, 500
        beta = distributional_beta(delta_p, n)
        rng = stream(2, "beta_cover")
        p = 0.3
        devs = np.abs(rng.binomial(n, p, size=1000) / n - p)
        assert np.mean(devs > beta) <= delta_p


class TestNoiseScale:
    def test_modes(self):
        diff = PrivacyBudget(MODE_DIFFERENTIAL, 1.0, 0.05, M=5)
        dist = PrivacyBudget(MODE_DISTRIBUTIONAL, 1.0, 0.05, M=5)
        none = PrivacyBudget(MODE_NONE, 1.0, 0.05, M=5)
        assert noise_scale(diff, 100) == pytest.approx(1 / (0.2 * 100))
        assert noise_scale(dist, 100) == pytest.approx(
            distributional_beta(0.01, 100) / 0.2)
        assert noise_scale(none, 100) == 0.0


class TestSqAnswer:
    def test_exact_without_privacy(self):
        X = np.array([[1.0], [0.0], [1.0], [1.0]])
        s = Sample(X, np.array([1, -1, 1, -1]))
        q = SQQuery("ones", lambda X, y: (X[:, 0] == 1.0).astype(float), 0.1)
        b = PrivacyBudget(MODE_NONE, 1.0, 0.05, M=3)
        assert sq_answer(s, q, b, 0) == 0.75
        assert b.spent == 1

    def test_positives_conditioning(self):
        X = np.array([[1.0], [0.0], [1.0]])
        s = Sample(X, np.array([1, 1, -1]))
        q = SQQuery("ones", lambda X, y: (X[:, 0] == 1.0).astype(float), 0.1,
                    conditioning=COND_POSITIVES)
        b = PrivacyBudget(MODE_NONE, 1.0, 0.05, M=3)
        assert sq_answer(s, q, b, 0) == 0.5

    def test_degenerate_conditioning_raises(self):
        s = Sample(np.ones((2, 1)), np.array([-1, -1]))
        q = SQQuery("ones", lambda X, y: np.ones(len(y)), 0.1,
                    conditioning=COND_POSITIVES)
        b = PrivacyBudget(MODE_NONE, 1.0, 0.05, M=3)
        with pytest.raises(DegenerateConditioningError):
            sq_answer(s, q, b, 0)

    def test_noise_is_seeded(self):
        s = Sample(np.ones((50, 1)), np.ones(50, dtype=int))
        q = SQQuery("c", lambda X, y: np.ones(len(y)), 0.1)
        a = sq_answer(s, q, PrivacyBudget(MODE_DIFFERENTIAL, 1, 0.05, M=2), 7)
        b = sq_answer(s, q, PrivacyBudget(MODE_DIFFERENTIAL, 1, 0.05, M=2), 7)
        assert a == b != 1.0


class TestPrivateSampleSize:
    def test_differential_value(self):
        # ceil(max(10/0.1, 10/0.01) * ln 100) = ceil(1000 * 4.6052)
        assert private_sample_size(10, 1.0, 0.1, 0.1,
                                   MODE_DIFFERENTIAL) == 4606

    def test_monotone_in_tolerance(self):
        sizes = [private_sample_size(10, 1.0, tau, 0.1, MODE_DIFFERENTIAL)
                 for tau in (0.2, 0.1, 0.05)]
        assert sizes == sorted(sizes)

    def test_distributional_dominates_differential(self):
        for M in (5, 20, 100):
            for tau in (0.05, 0.1):
                assert (private_sample_size(M, 1.0, tau, 0.1,
                                            MODE_DISTRIBUTIONAL)
                        >= private_sample_size(M, 1.0, tau, 0.1,
                                               MODE_DIFFERENTIAL))


class TestConjunctionProtocol:
    def test_error_within_eps(self):
        n = 10
        f = Conjunction(n, frozenset({1, 4}))
        specs = [UniformBoolean(n)] * 2
        for seed in range(5):
            res = private_conjunction_protocol(specs, f, 0.05, seed)
            assert res.errors["mixture"] <= 0.05

    def test_ledger_identical_to_nonprivate_closure(self):
        n, k = 12, 3
        f = Conjunction(n, frozenset({0, 3}))
        specs = [UniformBoolean(n)] * k
        priv = private_conjunction_protocol(specs, f, 0.05, 0)
        base = run_intersection_closed(specs, f, 0.05, 0.05, "conjunction", 0)
        assert priv.ledger.to_dict() == base.ledger.to_dict()

    def test_budget_fully_spent(self):
        n = 8
        f = Conjunction(n, frozenset({2}))
        res = private_conjunction_protocol([UniformBoolean(n)], f, 0.05, 1)
        assert res.meta["budgets_spent"] == [n]

    def test_zero_positives_falls_back_to_identity(self):
        n = 6
        f = Conjunction(n, frozenset(range(n)))
        budget = PrivacyBudget(MODE_DIFFERENTIAL, 1.0, 0.05, M=n)
        h = learn_private_conjunction(UniformBoolean(n), f, 0.05, budget,
                                      m=1, seed=12345)
        # with m = 1 a positive draw is rare; either way h must contain f
        assert f.variables <= h.variables


class TestSqRuleConsistency:
    def test_separates_consistent_from_inconsistent(self):
        n = 4
        f = Conjunction(n, frozenset({0}))
        s = draw_sample(UniformBoolean(n), f, 400, 3, tags=("sq",))
        b = PrivacyBudget(MODE_NONE, 1.0, 0.05, M=4)
        # x0=0 -> label -1 always holds; x0=1 -> label -1 usually fails
        assert sq_rule_consistency(s, (1, 0, 0), b, 0.05, 0)
        assert not sq_rule_consistency(s, (1, 1, 0), b, 0.05, 0)

    def test_else_rule_uses_all_examples(self):
        s = Sample(np.zeros((10, 2)), np.ones(10, dtype=int))
        b = PrivacyBudget(MODE_NONE, 1.0, 0.05, M=2)
        assert sq_rule_consistency(s, (0, 0, 1), b, 0.05, 0)
        assert not sq_rule_consistency(s, (0, 0, 0), b, 0.05, 0)
