import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import channel
from distpac.core import (ConfigurationError, PointMassList,
                          ProtocolError, Sample, UniformBoolean,
                          UniformSphere, draw_sample, rule_bits, sample_error,
                          stream)
from distpac.declist import (_kill_satisfied, consistent_triplets,
                             random_decision_list, run_decision_list)


def alternations(f):
    """Output sign changes along the list f, its default included."""
    outs = [c for (_j, _b, c) in f.rules] + [f.default]
    return sum(a != b for a, b in zip(outs, outs[1:]))


def brute_force_triplets(sample, alive=None):
    """Reference oracle: test every triplet definitionally."""
    n = sample.dim
    if alive is None:
        alive = np.ones(len(sample), dtype=bool)
    feats, labels = sample.features[alive], sample.labels[alive]
    out = set()
    for c in (0, 1):
        want = 1 if c == 1 else -1
        if all(lab == want for lab in labels):
            out.add((0, 0, c))
        for j in range(1, n + 1):
            for b in (0, 1):
                fires = feats[:, j - 1] == float(b)
                if all(labels[fires] == want):
                    out.add((j, b, c))
    return out


class TestConsistentTriplets:
    def test_hand_case(self):
        X = np.array([[1, 0], [1, 1], [0, 1]], float)
        y = np.array([1, 1, -1])
        trips = consistent_triplets(Sample(X, y), np.ones(3, dtype=bool))
        # x0=1 always positive; x0=0 always negative
        assert (1, 1, 1) in trips and (1, 0, 0) in trips
        assert (0, 0, 1) not in trips and (0, 0, 0) not in trips
        assert (2, 1, 1) not in trips  # x1=1 has both labels

    def test_vacuous_condition_included(self):
        X = np.array([[1.0, 1.0]])
        trips = consistent_triplets(Sample(X, np.array([1])),
                                    np.ones(1, dtype=bool))
        assert (1, 0, 0) in trips and (1, 0, 1) in trips

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(1, 20))
    def test_property_matches_brute_force(self, seed, n, m):
        rng = stream(seed, "dl_prop")
        X = rng.integers(0, 2, size=(m, n)).astype(float)
        X[(X == 0.0) & (rng.random((m, n)) < 0.5)] = -0.0  # also boolean
        y = np.where(rng.random(m) < 0.5, 1, -1)
        s = Sample(X, y)
        alive = rng.random(m) < 0.7
        assert consistent_triplets(s, alive) == brute_force_triplets(s, alive)


class TestProtocol:
    def run(self, n, n_rules, k, seed):
        f = random_decision_list(n, n_rules, seed)
        return f, run_decision_list([UniformBoolean(n)] * k, f, 0.05, 0.05,
                                    seed)

    def test_rounds_at_most_alternations_plus_one(self):
        for seed in range(6):
            f, res = self.run(12, 6, 3, seed)
            assert res.ledger.rounds <= alternations(f) + 1

    def test_upstream_bits_cap(self):
        n, k = 10, 4
        f, res = self.run(n, 5, k, 1)
        # each player announces at most all 4n+2 triplets, once
        led = res.ledger
        upstream = led.bits - led.per_player.get(channel.CENTER, 0)
        assert upstream <= k * (4 * n + 2) * rule_bits(n)

    def test_output_consistent_with_all_players(self):
        n, k = 15, 3
        f, res = self.run(n, 7, k, 2)
        h = res.hypotheses[channel.CENTER]
        for i in range(k):
            s = draw_sample(UniformBoolean(n), f, res.meta["m_per_player"],
                            2, tags=("declist", i))
            assert sample_error(h, s) == 0.0
        assert res.errors["mixture"] <= 0.05

    def test_xor_admits_no_triplet(self):
        # xor labels are not expressible by any rule, so nothing is
        # consistent and the protocol could make no progress on such data
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        y = np.array([1, 1, -1, -1])
        assert consistent_triplets(Sample(X, y),
                                   np.ones(4, dtype=bool)) == set()

    def test_round_cap_raises(self):
        f = random_decision_list(8, 4, 3)
        with pytest.raises(ProtocolError, match="decision-list protocol "
                           "exceeded the round cap without an else-rule"):
            run_decision_list([UniformBoolean(8)] * 2, f, 0.05, 0.05, 3,
                              max_rounds=0)

    def test_non_boolean_player_raises(self, monkeypatch):
        n = 4
        f = random_decision_list(n, 3, 0)
        calls = []
        is_boolean = Sample.is_boolean
        monkeypatch.setattr(Sample, "is_boolean",
                            lambda s: calls.append(s) or is_boolean(s))
        run_decision_list([UniformBoolean(n)] * 3, f, 0.2, 0.1, 0)
        assert len(calls) == 3  # once per player, not once per round
        half = PointMassList(((0.0, 1.0, 0.5, 1.0), (1.0,) * n), (0.5, 0.5))
        for bad in ([UniformBoolean(n), UniformSphere(n)],
                    [UniformBoolean(n)] * 2 + [half]):
            with pytest.raises(ConfigurationError,
                               match="^decision lists need boolean features$"):
                run_decision_list(bad, f, 0.2, 0.1, 0)


# 0/1 entries (with a negative zero) and two that no rule matches
ENTRIES = (0.0, -0.0, 1.0, 0.5, np.nan)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 10))
def test_property_kill_satisfied_is_the_per_rule_loop(data, n, m):
    X = np.array(data.draw(st.lists(st.lists(
        st.sampled_from(ENTRIES), min_size=n, max_size=n),
        min_size=m, max_size=m)), dtype=np.float64).reshape(m, n)
    alive = np.array(data.draw(st.lists(st.booleans(), min_size=m,
                                        max_size=m)), dtype=bool)
    # (0, 0, c) is the else-rule, which fires on every example
    rules = data.draw(st.lists(st.one_of(
        st.tuples(st.integers(1, n), st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.just(0), st.just(0), st.integers(0, 1))), max_size=6))
    want = alive.copy()
    for (j, b, _c) in rules:
        if j == 0:
            want[:] = False
        else:
            want &= X[:, j - 1] != float(b)
    got = _kill_satisfied(Sample(X, np.ones(m)), alive, rules)
    assert got is alive and np.array_equal(alive, want)
