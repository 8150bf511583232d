import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distpac.core import (ConfigurationError, LinearSeparator, ProtocolError,
                          Sample, UniformSphere, stream)
from distpac.linear import (adversarial_two_player_data,
                            adversarial_lower_bound, averaging_protocol,
                            certify_well_spread, default_update_cap,
                            margin_perceptron_pass, round_robin_perceptron,
                            well_spread_dataset)

G = 0.1
# (player, example, resulting hypothesis), golden update table
GOLDEN = [
    ("p1", (1, G, G), (1, G, G)),
    ("p2", (1, -G, -3 * G), (0, 2 * G, 4 * G)),
    ("p2", (1, -G, G), (-1, 3 * G, 3 * G)),
    ("p1", (1, G, 3 * G), (0, 4 * G, 6 * G)),
    ("p1", (1, G, -G), (1, 5 * G, 5 * G)),
    ("p2", (1, -G, -3 * G), (0, 6 * G, 8 * G)),
    ("p2", (1, -G, G), (-1, 7 * G, 7 * G)),
    ("p1", (1, G, 3 * G), (0, 8 * G, 10 * G)),
    ("p1", (1, G, -G), (1, 9 * G, 9 * G)),
]


class TestPerceptronPass:
    def test_first_update_from_zero(self):
        samples = adversarial_two_player_data(G)
        trace = []
        margin_perceptron_pass(np.zeros(3), samples[0], 0, trace=trace,
                               trace_info=("p1",))
        assert trace[0][0] == "p1"
        assert trace[0][1] == pytest.approx((1, G, G))

    def test_consistent_means_margin_one(self):
        rng = stream(3, "sep")
        X = rng.normal(size=(40, 4))
        w = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.where(X @ w >= 0, 1, -1)
        X[:, 0] += y * 1.0  # push points away from the boundary
        s = Sample(X, y)
        w = np.zeros(4)
        updates = margin_perceptron_pass(w, s, 0, update_cap=100000)
        assert updates > 0
        assert (s.labels * (s.features @ w) >= 1.0).all()

    def test_update_cap_raises_on_nonseparable(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        s = Sample(X, np.array([1, -1]))
        with pytest.raises(ProtocolError,
                           match="perceptron exceeded the update cap 50"):
            margin_perceptron_pass(np.zeros(2), s, 0, update_cap=50)
        # the cap counts the run's earlier updates too
        with pytest.raises(ProtocolError,
                           match="perceptron exceeded the update cap 50"):
            margin_perceptron_pass(np.zeros(2), s, 50, update_cap=50)

    def test_empty_sample_rejected(self):
        s = Sample(np.ones((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ConfigurationError):
            margin_perceptron_pass(np.zeros(2), s, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_norm_growth_per_update(self, seed):
        # ||w'||^2 <= ||w||^2 + 3 whenever the update example violates the
        # margin and has unit norm or less
        rng = stream(seed, "growth")
        X = rng.normal(size=(60, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        keep = np.abs(X[:, 0]) >= 0.3  # real margin so the pass terminates
        X = X[keep]
        assume(len(X) > 0)
        w = np.array([2.0, 0.0, 0.0])
        y = np.where(X @ w >= 0, 1, -1)
        s = Sample(X, y)
        trace = []
        margin_perceptron_pass(w.copy(), s, 0, update_cap=2000, trace=trace)
        prev = w
        for _x, w_after in trace:
            w_after = np.asarray(w_after)
            assert (np.dot(w_after, w_after)
                    <= np.dot(prev, prev) + 3.0 + 1e-9)
            prev = w_after


class TestGoldenTrace:
    def test_first_nine_rows_match_golden_table(self):
        rounds, trace = adversarial_lower_bound(G)
        assert len(trace) >= 9
        for row, (player, ex, hyp) in zip(trace[:9], GOLDEN):
            _round, got_player, got_ex, got_hyp = row
            assert got_player == player
            assert got_ex == pytest.approx(ex)
            assert got_hyp == pytest.approx(hyp)

    def test_rounds_ratio_is_inverse_gamma_squared(self):
        r_01, _ = adversarial_lower_bound(0.1)
        r_005, _ = adversarial_lower_bound(0.05)
        assert 3.2 <= r_005 / r_01 <= 4.8

    def test_gamma_validation(self):
        with pytest.raises(ConfigurationError):
            adversarial_lower_bound(0.5)


class TestRoundRobin:
    def test_well_spread_meta_round_bound(self):
        gamma, alpha = 0.3, 0.2
        samples, target = well_spread_dataset(4, 10, gamma, alpha, 0)
        certify_well_spread(samples, alpha)
        X = np.vstack([s.features for s in samples])
        y = np.concatenate([s.labels for s in samples])
        assert min(y * (X @ np.asarray(target.w))) == pytest.approx(gamma)
        res = round_robin_perceptron(samples, alpha,
                                     update_cap=default_update_cap(gamma))
        assert res.ledger.meta_rounds <= 1 + 3 * alpha / (gamma * gamma)
        h = res.hypotheses["p1"]
        for s in samples:
            assert (s.labels == h.predict(s.features)).all()

    def test_ledger_per_pass_charges(self):
        samples, _ = well_spread_dataset(2, 5, 0.3, 0.2, 1)
        res = round_robin_perceptron(samples, 0.2, update_cap=10000)
        d = samples[0].dim
        passes = res.ledger.rounds
        assert res.ledger.hypotheses == passes
        assert res.ledger.bits == passes * ((d * 32 + 1) + 32)
        assert passes == res.ledger.meta_rounds * len(samples)

    def test_meta_round_cap_raises(self):
        # the adversarial fight keeps every meta-round above 1/alpha = 2
        # updates, so the cap is the only way out
        samples = adversarial_two_player_data(0.05)
        with pytest.raises(ProtocolError,
                           match="no convergence within 2 meta-rounds"):
            round_robin_perceptron(samples, 0.5, update_cap=10 ** 6,
                                   max_meta_rounds=2)


class TestSupport:
    def test_default_update_cap(self):
        assert default_update_cap(0.1) == 3000

    def test_well_spread_requires_gamma_sq_below_alpha(self):
        with pytest.raises(ConfigurationError):
            well_spread_dataset(2, 5, 0.5, 0.2, 0)

    def test_certificate_rejects_clustered_data(self):
        X = np.array([[1.0, 0.0], [1.0, 0.01]])
        with pytest.raises(ConfigurationError):
            certify_well_spread([Sample(X, np.array([1, 1]))], 0.5)


class TestAveraging:
    def test_accurate_on_spherical_data(self):
        d = 10
        w = np.zeros(d)
        w[0] = 1.0
        f = LinearSeparator(tuple(w))
        specs = [UniformSphere(d), UniformSphere(d)]
        res = averaging_protocol(specs, f, 0.05, 0)
        assert res.errors["mixture"] <= 0.05
        assert res.ledger.rounds == 1
        assert res.ledger.hypotheses == 2
        assert res.ledger.bits == 2 * (d * 32 + 1)
