import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac.core import (ConfigurationError, ParityFunc,
                          ProtocolError, Sample, UniformBoolean,
                          draw_sample, sample_error, stream)
from distpac.parity import (_MMAP_THRESHOLD, ParityNonProper, _block_rows,
                            _eliminate, _reduce, _rref, gf2_reduce,
                            run_parity_two_player)

INCONSISTENT = r"sample is inconsistent over GF\(2\)"


def planted_sample(n, n_target_bits, m, seed, noise=False):
    rng = stream(seed, "planted_parity")
    v = [0] * n
    for j in rng.choice(n, size=n_target_bits, replace=False):
        v[int(j)] = 1
    f = ParityFunc(n, tuple(v))
    s = draw_sample(UniformBoolean(n), f, m, seed, tags=("plant",))
    return f, s


class TestGF2Reduce:
    def test_classify_agrees_with_target_on_span(self):
        f, s = planted_sample(20, 7, 200, 0)
        basis = gf2_reduce(s)
        X = stream(1, "queries").integers(0, 2, size=(500, 20)).astype(float)
        labels, known = basis.classify(X)
        assert known.any()
        assert np.array_equal(labels[known], f.predict(X)[known])

    def test_training_rows_always_known(self):
        f, s = planted_sample(12, 4, 100, 3)
        basis = gf2_reduce(s)
        labels, known = basis.classify(s.features)
        assert known.all()
        assert np.array_equal(labels, s.labels)

    def test_rank_at_most_n(self):
        _f, s = planted_sample(10, 3, 500, 5)
        assert len(gf2_reduce(s).pivots) <= 10

    def test_inconsistent_sample_raises(self):
        X = np.array([[1, 0], [1, 0]], float)
        y = np.array([1, -1])
        with pytest.raises(ProtocolError, match=INCONSISTENT):
            gf2_reduce(Sample(X, y))

    def test_rejects_non_boolean(self):
        with pytest.raises(ConfigurationError):
            gf2_reduce(Sample(np.array([[0.5, 1.0]]), np.array([1])))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_property_reduction_idempotent_and_reliable(self, seed):
        f, s = planted_sample(16, 5, 60, seed)
        basis = gf2_reduce(s)
        X = stream(seed, "q2").integers(0, 2, size=(200, 16)).astype(float)
        labels, known = basis.classify(X)
        # never wrong when it answers
        assert np.array_equal(labels[known], f.predict(X)[known])
        # pivots strictly increase
        assert list(basis.pivots) == sorted(set(basis.pivots))


def to_matrix(ints, n):
    """0/1 feature matrix of int bitsets, bit j in column j."""
    return np.array([[(r >> j) & 1 for j in range(n)] for r in ints],
                    dtype=float).reshape(len(ints), n)


def oracle_reduce(basis, r):
    """Reduce the int bitset ``r`` by an echelon basis {pivot: row}."""
    for p in sorted(basis):
        if r >> p & 1:
            r ^= basis[p]
    return r


def oracle_basis(rows, n):
    """Echelon basis {lowest feature bit: row} of labeled int bitsets
    (feature j at bit j, label at bit n), or None if some combination of
    rows keeps the label bit and no feature bit."""
    basis = {}
    for r in rows:
        r = oracle_reduce(basis, r)
        feats = r & ((1 << n) - 1)
        if feats:
            basis[(feats & -feats).bit_length() - 1] = r
        elif r:
            return None
    return basis


@st.composite
def gf2_problems(draw):
    """(n, feature ints, label bools, query ints) across the 64-bit word
    boundary; samples may be low rank, noisy or contain a flipped repeat."""
    n = draw(st.integers(1, 130))
    m = draw(st.integers(0, 3 * n))
    word = st.integers(0, 2 ** n - 1)
    mask = draw(st.just(2 ** n - 1) | word)
    rows = [r & mask for r in draw(st.lists(word, min_size=m, max_size=m))]
    planted = draw(st.none() | word)
    if planted is None:
        labels = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    else:
        labels = [bin(r & planted).count("1") % 2 == 1 for r in rows]
    if m and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        rows.append(rows[i])
        labels.append(not labels[i])
    queries = draw(st.lists(word, max_size=6))
    if rows:  # sums of sample rows lie in the span; one bit off may not
        for subset in draw(st.lists(st.lists(st.sampled_from(rows)),
                                    max_size=6)):
            q = 0
            for r in subset:
                q ^= r
            queries += [q, q ^ 1 << draw(st.integers(0, n - 1))]
    return n, rows, labels, queries


@settings(max_examples=60, deadline=None)
@given(gf2_problems())
def test_property_gf2_matches_int_bitset_oracle(problem):
    n, rows, labels, queries = problem
    sample = Sample(to_matrix(rows, n), np.where(labels, 1, -1))
    oracle = oracle_basis([r | (y << n) for r, y in zip(rows, labels)], n)
    if oracle is None:
        with pytest.raises(ProtocolError, match=INCONSISTENT):
            gf2_reduce(sample)
        return
    basis = gf2_reduce(sample)
    assert basis.pivots == tuple(sorted(oracle))
    assert len(basis.pivots) == len(oracle)
    v = sum(bit << j for j, bit in enumerate(basis.proper().vector))
    assert [bin(r & v).count("1") % 2 == 1 for r in rows] == labels
    got_labels, got_known = basis.classify(to_matrix(queries, n))
    reduced = [oracle_reduce(oracle, q) for q in queries]
    known = [r & ((1 << n) - 1) == 0 for r in reduced]
    assert got_known.tolist() == known
    assert [int(y) for y, k in zip(got_labels, known) if k] == \
        [1 if r >> n else -1 for r, k in zip(reduced, known) if k]


class TestProperLearn:
    def test_consistent_with_sample(self):
        f, s = planted_sample(24, 6, 300, 7)
        h = gf2_reduce(s).proper()
        assert sample_error(h, s) == 0.0

    def test_recovers_target_at_full_rank(self):
        f, s = planted_sample(10, 4, 400, 9)
        if len(gf2_reduce(s).pivots) == 10:
            assert gf2_reduce(s).proper().vector == f.vector

    def test_free_variables_zero(self):
        # one example pins only the parity of the 1-coordinates
        s = Sample(np.array([[1.0, 0.0, 0.0]]), np.array([1]))
        h = gf2_reduce(s).proper()
        assert h.vector == (1, 0, 0)


class TestProtocol:
    def test_requires_two_players(self):
        f = ParityFunc(4, (1, 0, 0, 0))
        with pytest.raises(ConfigurationError):
            run_parity_two_player([UniformBoolean(4)], f, 0.1, 0)

    def test_ledger_two_hypotheses_2n_bits(self):
        n = 40
        f = ParityFunc(n, tuple([1] + [0] * (n - 1)))
        specs = [UniformBoolean(n), UniformBoolean(n)]
        res = run_parity_two_player(specs, f, 0.05, 0, c=0.25)
        assert res.ledger.bits == 2 * n
        assert res.ledger.hypotheses == 2
        assert res.ledger.rounds == 1

    def test_combined_hypotheses_accurate(self):
        n = 30
        rng = stream(11, "t")
        f = ParityFunc(n, tuple(int(b) for b in rng.integers(0, 2, size=n)))
        specs = [UniformBoolean(n), UniformBoolean(n)]
        res = run_parity_two_player(specs, f, 0.05, 11)
        assert res.errors["mixture"] <= 0.05

    def test_nonproper_prefers_own_span(self):
        f, s = planted_sample(8, 3, 300, 2)
        basis = gf2_reduce(s)
        wrong_fallback = ParityFunc(8, tuple([1] * 8))
        h = ParityNonProper(basis, wrong_fallback)
        X = s.features
        assert np.array_equal(h.predict(X), s.labels)


def layered_problem(n, m, seed, labels):
    """Bool (m, n+1) labeled rows whose span grows block by block: rows
    [0, 2(n+1)) use the first n - late variables and each later block of
    2(n+1) rows one more, so ``_rref`` grows its prefix more than once.
    ``labels``: "planted" (a parity's), "late-flip" (planted, then the
    last row repeats row 0 with its label flipped) or "random"."""
    step = 2 * (n + 1)
    late = min(n - 1, m // step - 1)
    rng = stream(seed, "layered")
    X = rng.integers(0, 2, size=(m, n)).astype(bool)
    for b in range(m // step + 1):
        X[b * step:(b + 1) * step, n - late + b:] = False
    v = rng.integers(0, 2, size=n)
    y = (X.astype(np.int64) @ v) % 2 == 1
    if labels == "random":
        y = rng.integers(0, 2, size=m).astype(bool)
    elif labels == "late-flip":
        X[-1], y[-1] = X[0], not y[0]
    return np.column_stack([X, y])


@pytest.mark.parametrize("n, m", [(5, 60), (12, 200), (40, 400),
                                  (300, 1300)])
@pytest.mark.parametrize("labels", ["planted", "late-flip", "random"])
def test_rref_is_the_whole_sample_elimination(n, m, labels):
    # the reference eliminates every row pivot by pivot, as _rref did
    # before it reduced rows in products; n = 300 reduces against 299
    # pivots, so a row's count can pass 255
    A = layered_problem(n, m, n + m, labels)
    try:
        want = _eliminate(A.copy(), n)
    except ProtocolError:
        with pytest.raises(ProtocolError, match=INCONSISTENT):
            _rref(A.copy(), n)
        return
    rows, pivots = _rref(A.copy(), n)
    assert pivots == want[1]
    assert rows.dtype == bool and np.array_equal(rows, want[0])


def one_product_reduce(Q, rows, pivots):
    """Reference: every row of Q reduced in one GF(2) product, as
    ``_reduce`` did before it worked in row blocks."""
    hits = Q[:, list(pivots)].astype(np.float32) @ rows.astype(np.float32)
    return Q ^ (hits.astype(np.int32) & 1).astype(bool)


@pytest.mark.parametrize("n", [5, 40, 300])
@pytest.mark.parametrize("rank", ["full", "low", "zero"])
@pytest.mark.parametrize("blocks", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1),
                                    (3, 7)],
                         ids=["0", "1", "block-1", "block", "block+1",
                              "3blocks+7"])
def test_blocked_reduce_is_the_one_product(n, rank, blocks):
    step = _block_rows(n + 1)
    assert 4 * (n + 1) * step <= _MMAP_THRESHOLD < 8 * (n + 1) * step \
        or step == 1
    m_rows = {"full": 2 * n, "low": n // 2, "zero": 0}[rank]
    _, s = planted_sample(n, max(1, n // 3), m_rows, n)
    basis = gf2_reduce(s)
    whole, extra = blocks
    Q = stream(n, "queries", rank).integers(
        0, 2, size=(whole * step + extra, n + 1)).astype(bool)
    got = _reduce(Q, basis.rows, basis.pivots)
    assert got.dtype == bool
    assert np.array_equal(got, one_product_reduce(Q, basis.rows,
                                                  basis.pivots))


def test_parity_run_traced_peak_under_2_mib():
    # desk-mix's parity config: n = 40, k = 2, eps = 0.05, so 6400 rows per
    # player; one float64 copy of a player's block alone is 2 MiB
    f = ParityFunc(40, tuple(stream(0, "peak").integers(0, 2, 40).tolist()))
    specs = [UniformBoolean(40)] * 2
    run_parity_two_player(specs, f, 0.05, 0)  # caches filled
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_parity_two_player(specs, f, 0.05, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 2 * 2 ** 20
