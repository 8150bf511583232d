import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac.core import (M_EVAL, Box, ConfigurationError, Conjunction,
                          DecisionListFunc, IntervalUnion,
                          LinearSeparator, MajorityOfSet, ParityFunc,
                          PointMassList, ProductBernoulli, Sample,
                          Threshold, UniformBoolean, UniformInterval,
                          UniformSphere, WeightedMajority, draw_parts,
                          draw_sample, measure_errors,
                          predict_matrix, rule_bits, sample_error, sign_pm1,
                          stream, streams)
from distpac import core
from distpac.core import _flipped, _StateWords
from distpac.core import _words as words


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


def old_stream(seed, *tags):
    """The derivation stream() replaced, kept as the oracle: a list of
    Python ints handed to default_rng."""
    return np.random.default_rng(
        [int(seed) & (2 ** 64 - 1)]
        + [int.from_bytes(hashlib.sha256(repr(t).encode()).digest()[:8],
                          "little") for t in tags])


TAGS = st.one_of(st.text(max_size=8), st.integers(-2 ** 70, 2 ** 70),
                 st.booleans(), st.floats(allow_nan=False),
                 st.tuples(st.text(max_size=3), st.integers()))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                  2 ** 64, -1, -2 ** 40, 2 ** 100 + 7]),
                 st.integers(-2 ** 80, 2 ** 80)),
       st.lists(TAGS, max_size=5))
def test_property_stream_matches_int_list_derivation(seed, tags):
    assert np.array_equal(stream(seed, *tags).integers(0, 2 ** 63, 8),
                          old_stream(seed, *tags).integers(0, 2 ** 63, 8))


def entropy(seed, tags):
    """The int list old_stream hands numpy for (seed, tags)."""
    return [int(seed) & (2 ** 64 - 1)] + [
        int.from_bytes(hashlib.sha256(repr(t).encode()).digest()[:8], "little")
        for t in tags]


def assert_streams_match(seed, tag_tuples):
    gens = streams(seed, tag_tuples)
    assert len(gens) == len(tag_tuples)
    for g, tags in zip(gens, tag_tuples):
        want = np.random.SeedSequence(entropy(seed, tags))
        assert np.array_equal(g.bit_generator.seed_seq.generate_state(
            4, np.uint64), want.generate_state(4, np.uint64))
        ref = stream(seed, *tags)
        assert np.array_equal(g.integers(0, 2 ** 63, 8),
                              ref.integers(0, 2 ** 63, 8))
        assert np.array_equal(g.random(3), ref.random(3))


SEEDS = st.one_of(st.sampled_from([0, 2 ** 32, 2 ** 64 - 1, -1, -2 ** 40,
                                   2 ** 100 + 7]),
                  st.integers(-2 ** 80, 2 ** 80))


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.lists(TAGS, max_size=3),
       # few distinct tags, so rows repeat and tails share leading tags
       st.lists(st.lists(st.sampled_from([0, 1, True, "a", -0.0, 2 ** 40]),
                         max_size=3), max_size=8))
def test_property_streams_match_per_tag_streams(seed, prefix, tails):
    assert_streams_match(seed, [tuple(prefix + tail) for tail in tails])


MIXED_ARITY = [(), ("x",), ("x", "y", 2), ("x",), ("z", 1)]
SHORT_ROWS = [(j,) for j in range(5)]  # rows share only the seed's words
HALVING_WAVE = [("draw_sample", "halving", 3, j, 1) for j in range(40)]


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 - 1, -3])
@pytest.mark.parametrize("tag_tuples", [
    [],
    [("draw_sample", "halving", 3, 7, 1)],
    [("x", 1)] * 3,
    MIXED_ARITY,
    [("a", 1), ("b", 1), ("c", 1)],
    SHORT_ROWS,
    [(t, "b", j) for t in "ac" for j in range(3)],
    HALVING_WAVE,
    *(HALVING_WAVE[:rows] for rows in range(2, 6)),
], ids=["empty", "one-tag", "identical", "mixed-arity", "first-tag-differs",
        "short-rows-differ", "heads-repeat", "halving-wave",
        *(f"wave-of-{rows}" for rows in range(2, 6))])
def test_streams_match_per_tag_streams(seed, tag_tuples):
    assert_streams_match(seed, tag_tuples)
    fast = [isinstance(g.bit_generator.seed_seq, _StateWords)
            for g in streams(seed, tag_tuples)]
    if tag_tuples == HALVING_WAVE[:len(tag_tuples)] != []:  # one head
        # the vectorised path from 4 rows, the per-tag path below
        assert fast == [len(tag_tuples) >= 4] * len(tag_tuples)
    elif tag_tuples in (MIXED_ARITY, SHORT_ROWS):  # the per-tag path
        assert not any(fast)


@pytest.mark.parametrize("v", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_words_are_seed_sequence_words(v):
    ours = np.random.SeedSequence(np.array(words(v), np.uint32))
    assert np.array_equal(ours.pool, np.random.SeedSequence(v).pool)


def test_sign_zero_is_positive():
    signs = sign_pm1(np.array([-1.0, 0.0, 2.0]))
    assert list(signs) == [-1, 1, 1] and signs.dtype == np.int8


class TestSample:
    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigurationError):
            Sample(np.zeros((2, 3)), np.array([1, 0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            Sample(np.zeros((2, 3)), np.array([1, -1, 1]))

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

    def test_box_closed_boundaries(self):
        f = Box((0.0, 0.0), (1.0, 1.0))
        X = np.array([[0.0, 1.0], [1.5, 0.5], [0.5, 0.5]])
        assert list(f.predict(X)) == [1, -1, 1]

    def test_empty_box_rejects_everything(self):
        f = Box((math.inf,) * 2, (-math.inf,) * 2)
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

    def test_linear_separator(self):
        f = LinearSeparator((1.0, -1.0))
        X = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]])
        assert list(f.predict(X)) == [1, -1, 1]

    def test_weighted_majority(self):
        members = ((LinearSeparator((1.0,)), 1.0),
                   (LinearSeparator((-1.0,)), 3.0))
        f = WeightedMajority(members)
        assert f.predict(np.array([2.0])[None])[0] == -1

    def test_majority_tie_positive(self):
        f = MajorityOfSet((LinearSeparator((1.0,)),
                           LinearSeparator((-1.0,))))
        assert f.predict(np.array([1.0])[None])[0] == 1

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
        assert LinearSeparator((1.0, 0.0)).encoded_bits() == 65

    def test_rule_bits(self):
        assert rule_bits(50) == math.ceil(math.log2(51)) + 2 == 8
        assert rule_bits(1) == 3


class TestDistributions:
    def test_point_mass_validation(self):
        with pytest.raises(ConfigurationError):
            PointMassList(((0.0,), (1.0,)), (0.7, 0.7))

    def test_uniform_interval_range(self):
        X = UniformInterval(0.2, 0.4).draw(stream(1), 100)
        assert X.shape == (100, 1)
        assert X.min() >= 0.2 and X.max() <= 0.4

    @pytest.mark.parametrize("lo, hi", [(-1.0e308, 1.0e308),
                                        (-math.inf, 0.0), (0.0, math.inf),
                                        (math.nan, 1.0)])
    def test_uniform_interval_needs_a_finite_range(self, lo, hi):
        # numpy's uniform raised OverflowError here; from raw words the
        # points would be inf or nan
        with pytest.raises(ConfigurationError):
            UniformInterval(lo, hi)

    # [0, 1) and -0.0 map without a pass, a width of 1 without the product
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.0, 1.0), (2.5, 3.5),
                                        (-3.5, 2.25), (-1.0e308, 7.0e307)])
    def test_uniform_interval_draw_is_numpys(self, lo, hi):
        a, b = stream(4, "u"), stream(4, "u")
        for m in (0, 1, 7):
            X, Y = UniformInterval(lo, hi).draw(a, m), b.uniform(lo, hi,
                                                                 (m, 1))
            assert X.dtype == Y.dtype and X.tobytes() == Y.tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=8),
           st.integers(0, 2 ** 53), st.integers(-2, 2),
           st.sampled_from((0.0, 1.0, 2.0, math.inf)) | st.floats(0.0, 1.0))
    def test_flipped_is_the_double_below_the_rate(self, words, k, dk, rate):
        # words on both sides of the rate's own double k * 2**-53
        words += [max(0, min(2 ** 64 - 1, (k << 11) + dk))]
        rate = rate or k * 2.0 ** -53
        got = _flipped(np.array(words, dtype=np.uint64), rate)
        assert got.tolist() == [(w >> 11) * 2.0 ** -53 < rate for w in words]

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

    def test_parts_need_one_tag_tuple_each(self):
        f = Conjunction(3, frozenset())
        with pytest.raises(ConfigurationError):
            draw_parts(UniformBoolean(3), f, [2, 2], 0, tags=[("a",)])


# one (spec, target) per DistributionSpec kind
DRAW_KINDS = {
    "uniform_boolean": (UniformBoolean(5), Conjunction(5, frozenset({0, 3}))),
    "product_bernoulli": (ProductBernoulli((0.9, 0.2, 0.5)),
                          ParityFunc(3, (1, 0, 1))),
    "uniform_interval": (UniformInterval(-1.0, 2.0), Threshold(0.4, -1)),
    "uniform_sphere": (UniformSphere(3), LinearSeparator((0.6, -0.8, 0.0))),
    "point_mass": (PointMassList(((0.0, 1.0), (0.5, 0.5), (1.0, 1.0)),
                                 (0.2, 0.5, 0.3)),
                   Box((0.25, 0.0), (1.0, 0.75))),
}


def old_draw_sample(spec, f, m, seed, noise_rate, tags):
    """draw_sample's body before it became draw_parts' one-part case, kept
    as the oracle of the seed derivation: (features, labels).  Intervals
    and Bernoulli bits are drawn with numpy's own calls here, not with the
    specs' code."""
    rng = stream(seed, "draw_sample", *tags)
    if isinstance(spec, UniformInterval):
        X = rng.uniform(spec.lo, spec.hi, (m, 1))
    elif isinstance(spec, ProductBernoulli):
        X = rng.random((m, spec.dim)) < np.array(spec.p)
    else:
        X = spec.draw(rng, m)
    y = f.predict(X) if m else np.zeros(0, dtype=np.int8)
    if noise_rate > 0.0 and m:
        y = np.where(rng.random(m) < noise_rate, -y, y)
    return X.reshape(m, spec.dim), y


def interval_cases():
    """(UniformInterval, Threshold target) over random finite ranges:
    negative, tiny and nearly as wide as a float allows, and the ones whose
    mapping skips a pass (lo = +-0.0, a width of 1)."""
    bound = st.floats(-1.0e308, 1.0e308)
    random = st.tuples(bound, bound).filter(
        lambda b: b[0] < b[1] and math.isfinite(b[1] - b[0]))
    skipping = st.sampled_from(((0.0, 1.0), (-0.0, 1.0), (0.0, 4.0),
                                (2.5, 3.5), (-1.0, 0.0)))
    return (random | skipping).map(
        lambda b: (UniformInterval(*b), Threshold(b[0] / 2 + b[1] / 2, 1)))


def bernoulli_cases():
    """(ProductBernoulli, ParityFunc target); p holds 0.0 and 1.0 often."""
    p = st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
                 min_size=1, max_size=5)
    return p.map(lambda p: (ProductBernoulli(tuple(p)), ParityFunc(
        len(p), tuple((i + 1) % 2 for i in range(len(p))))))


# a (spec, target) of each kind, or an interval or Bernoulli spec with
# random parameters
DRAW_CASES = (st.sampled_from(sorted(DRAW_KINDS)).map(DRAW_KINDS.get)
              | interval_cases() | bernoulli_cases())


@settings(max_examples=300, deadline=None)
@given(DRAW_CASES, st.integers(0, 2 ** 64 - 1),
       # zero-size parts and few distinct tags, so parts repeat a stream
       st.lists(st.tuples(st.integers(0, 6),
                          st.tuples(st.sampled_from("ab"), st.integers(0, 2))),
                max_size=6),
       st.sampled_from((0.0, 0.05, 0.3, 1.0, 2.0)) | st.floats(0.0, 1.0))
def test_property_draw_parts_concatenates_draw_sample(case, seed, parts,
                                                      noise):
    spec, f = case
    got = draw_parts(spec, f, [m for m, _ in parts], seed, noise_rate=noise,
                     tags=[t for _, t in parts])
    each = [draw_sample(spec, f, m, seed, noise_rate=noise, tags=t)
            for m, t in parts]
    for part, (m, t) in zip(each, parts):
        X, y = old_draw_sample(spec, f, m, seed, noise, t)
        assert part.features.dtype == X.dtype
        assert part.features.tobytes() == X.tobytes()
        assert np.array_equal(part.labels, y)
    # the 0/1 specs draw bool blocks; every other spec draws float64
    dtype = bool if isinstance(spec, (UniformBoolean, ProductBernoulli)) \
        else np.float64
    X = np.concatenate([np.empty((0, spec.dim), dtype)]
                       + [p.features for p in each])
    y = np.concatenate([np.empty(0, np.int8)] + [p.labels for p in each])
    assert got.features.dtype == X.dtype and got.features.shape == X.shape
    assert got.features.tobytes() == X.tobytes()
    assert got.labels.dtype == np.int8 and np.array_equal(got.labels, y)


def test_sample_error_weighted():
    # every example weighs the same: 1 of 3 wrong is exactly 1/3
    s = Sample(np.array([[1.0], [0.0], [1.0]]), np.array([1, 1, -1]))
    h = LinearSeparator((1.0,))  # predicts +1, +1, +1
    assert sample_error(h, s) == 1.0 / 3.0


def test_mixture_error_averages_players():
    f = Conjunction(4, frozenset({0}))
    specs = [UniformBoolean(4), UniformBoolean(4)]
    assert measure_errors(f, specs, f, 0)["mixture"] == 0.0


def per_part_errors(h, specs, f, seed):
    """Reference: measure_errors as one ``sample_error`` per player."""
    m = max(1, M_EVAL // len(specs))
    errors = {f"p{i + 1}": sample_error(h, draw_sample(
        spec, f, m, seed, tags=("spec_error", "mixture", i)))
        for i, spec in enumerate(specs)}
    errors["mixture"] = float(np.mean(list(errors.values())))
    return errors


# (specs for k players, target, hypothesis); players' distributions differ
ERROR_CASES = {
    "conjunction": (
        lambda k: [UniformBoolean(6) if i % 2 else
                   ProductBernoulli((0.8,) * 6) for i in range(k)],
        Conjunction(6, frozenset({0, 2})), Conjunction(6, frozenset({0}))),
    "linear": (lambda k: [UniformSphere(5)] * k,
               LinearSeparator((1.0, -0.5, 0.2, 0.0, 0.3)),
               LinearSeparator((0.9, -0.4, 0.3, 0.1, 0.2))),
    "vote": (lambda k: [UniformInterval(0.0, 1.0 + i) for i in range(k)],
             Threshold(0.7, 1),
             WeightedMajority(((Threshold(0.5, 1), 0.6),
                               (Threshold(0.9, 1), 0.5)))),
    "parity": (lambda k: [UniformBoolean(7)] * k,
               ParityFunc(7, (1, 0, 1, 0, 0, 1, 0)),
               ParityFunc(7, (1, 0, 1, 0, 0, 0, 0))),
}


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_measure_errors_is_the_per_part_loop(k, case, seed):
    make_specs, f, h = ERROR_CASES[case]
    specs = make_specs(k)
    got = measure_errors(h, specs, f, seed)
    assert got == per_part_errors(h, specs, f, seed)
    assert 0.0 < got["mixture"] < 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_measure_errors_of_a_list_draws_once(k, case, monkeypatch):
    make_specs, f, h = ERROR_CASES[case]
    specs = make_specs(k)
    hs = [h, f, h]
    want = [measure_errors(g, specs, f, 3) for g in hs]
    draws = []

    def counting(*args, **kwargs):
        draws.append(kwargs["tags"])
        return draw_sample(*args, **kwargs)

    monkeypatch.setattr(core, "draw_sample", counting)
    assert measure_errors(hs, specs, f, 3) == want
    assert len(draws) == k


def test_parity_predict_is_the_integer_product():
    X = stream(3, "parity_rows").integers(0, 2, size=(500, 9)).astype(float)
    v = (1, 1, 0, 1, 0, 0, 1, 1, 1)
    want = np.where((X.astype(np.int64) @ np.array(v)) % 2 == 1, 1, -1)
    got = ParityFunc(9, v).predict(X)
    assert got.dtype == np.int8 and np.array_equal(got, want)


def float64_product_parity(v, X):
    """Reference: ParityFunc.predict as one float64 product of the rows."""
    dots = X @ np.asarray(v, dtype=np.float64)
    return np.where(dots.astype(np.int64) & 1, 1, -1).astype(np.int8)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 70), st.integers(0, 300),
       st.booleans(), st.sampled_from([bool, np.float64]))
def test_property_parity_predict_is_the_float64_product(seed, n, m, zero,
                                                        dtype):
    rng = stream(seed, "parity_xor")
    v = (0,) * n if zero else tuple(rng.integers(0, 2, n).tolist())
    X = rng.integers(0, 2, size=(m, n)).astype(dtype)
    got = ParityFunc(n, v).predict(X)
    assert got.dtype == np.int8
    assert np.array_equal(got, float64_product_parity(v, X))


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
    pa, pb, pab = (f.predict(x[None])[0] for x in (a, b, ab))
    # parity bit of a xor b is the xor of the parity bits
    ba, bb, bab = ((1 if p == 1 else 0) for p in (pa, pb, pab))
    assert bab == ba ^ bb


class FlippedThreshold(Threshold):
    """A subclass with its own rule, which a Threshold broadcast would miss."""

    def predict(self, X):
        return -super().predict(X)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.sampled_from((1, -1))),
                max_size=12),
       st.lists(st.integers(0, 8), max_size=20),
       st.sampled_from(["thresholds", "mixed", "subclass"]))
def test_property_predict_matrix_stacks_predict(grid, xs, kind):
    # points on the thresholds' own grid, so x == t is exercised
    cls = FlippedThreshold if kind == "subclass" else Threshold
    H = [cls(t / 8, sign) for t, sign in grid]
    if kind == "mixed":
        H += [LinearSeparator((-1.0,)), IntervalUnion(((0.25, 0.5),))]
    X = np.array(xs, dtype=np.float64).reshape(-1, 1) / 8
    M = predict_matrix(H, X)
    assert M.dtype == np.int8 and M.shape == (len(H), len(X))
    if H:
        assert np.array_equal(M, np.stack([h.predict(X) for h in H]))
        vote = sign_pm1(sum(h.predict(X).astype(np.int64) for h in H))
        assert np.array_equal(MajorityOfSet(tuple(H)).predict(X), vote)


def first_firing_rule(f, X):
    """Per-row oracle of DecisionListFunc.predict: the output of the row's
    first rule with x_j == b, else the default."""
    return np.array([next((c for (j, b, c) in f.rules if x[j - 1] == b),
                          f.default) for x in X], dtype=np.int8)


# 0/1 entries (with a negative zero) and two that no rule matches
ENTRIES = (0.0, -0.0, 1.0, 0.5, math.nan)


@st.composite
def lists_and_rows(draw):
    n = draw(st.integers(1, 8))
    rules = draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, 1),
                                    st.sampled_from((-1, 1))),
                          max_size=2 * n))  # (j, b) may repeat
    m = draw(st.integers(0, 12))
    X = np.array(draw(st.lists(st.lists(st.sampled_from(ENTRIES),
                                        min_size=n, max_size=n),
                               min_size=m, max_size=m)),
                 dtype=np.float64).reshape(m, n)
    return DecisionListFunc(n, tuple(rules), draw(st.sampled_from((-1, 1)))), X


@settings(max_examples=300, deadline=None)
@given(lists_and_rows())
def test_property_decision_list_predict_is_first_firing_rule(case):
    f, X = case
    got = f.predict(X)
    assert got.dtype == np.int8 and got.shape == (len(X),)
    assert np.array_equal(got, first_firing_rule(f, X))


@pytest.mark.parametrize("shape", [(0, 7), (1, 1), (3084, 50), (6400, 40),
                                   (3, 5), (7, 1)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 63), buffered=st.booleans())
def test_property_uniform_boolean_draw_is_the_int64_draw(shape, seed,
                                                         buffered):
    m, n = shape
    rng, ref = stream(seed, "ub"), stream(seed, "ub")
    if buffered:  # one 32-bit draw leaves the word's high half buffered
        assert rng.integers(0, 2, 1, np.int32) == ref.integers(0, 2, 1,
                                                               np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
    X = UniformBoolean(n).draw(rng, m)
    want = ref.integers(0, 2, size=(m, n)) == 1
    assert X.dtype == bool and X.shape == (m, n)
    assert X.tobytes() == want.tobytes()
    # the same words consumed and the same half buffered, or not
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()  # and leaves the stream in step


def test_uniform_boolean_draw_on_native_32_bit_words():
    # MT19937 draws 32-bit words natively, so there are no halves to read
    rng = np.random.Generator(np.random.MT19937(5))
    ref = np.random.Generator(np.random.MT19937(5))
    X = UniformBoolean(3).draw(rng, 7)
    assert X.dtype == bool
    assert np.array_equal(X, ref.integers(0, 2, size=(7, 3)) == 1)
    got, want = (g.bit_generator.state["state"] for g in (rng, ref))
    assert got["pos"] == want["pos"]
    assert np.array_equal(got["key"], want["key"])
