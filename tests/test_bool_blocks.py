"""A bool block of 0/1 features (what UniformBoolean and ProductBernoulli
draw) and its float64 copy give the same answer everywhere a boolean
sample goes: every concept's ``predict``, the learners, the GF(2)
reduction, the example pricing and the consistency check."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac.boosting import DecisionStump, best_stump
from distpac.channel import example_bits
from distpac.closed import smallest_consistent
from distpac.core import (Box, ConfigurationError, Conjunction,
                          DecisionListFunc, ParityFunc, ProtocolError,
                          Sample, WeightedMajority, boolean_rows,
                          check_consistent)
from distpac.declist import consistent_triplets
from distpac.parity import GF2Basis, ParityNonProper, gf2_reduce

# box corners on both sides of 0 and 1, and on them
CORNERS = st.sampled_from((-0.5, 0.0, 0.5, 1.0, 1.5))


@st.composite
def cases(draw):
    """(bool block X, labels, concepts over X's columns, alive mask, a
    row to cut X at)."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.booleans(), min_size=m * n,
                               max_size=m * n)), dtype=bool).reshape(m, n)
    bit = st.integers(0, 1)
    sign = st.sampled_from((-1, 1))
    conj = Conjunction(n, frozenset(draw(st.sets(st.integers(0, n - 1)))))
    box = Box(tuple(draw(st.lists(CORNERS, min_size=n, max_size=n))),
              tuple(draw(st.lists(CORNERS, min_size=n, max_size=n))))
    rules = draw(st.lists(st.tuples(st.integers(1, n), bit, sign),
                          max_size=4))
    declist = DecisionListFunc(n, tuple(rules), draw(sign))
    parity = ParityFunc(n, tuple(draw(st.lists(bit, min_size=n,
                                               max_size=n))))
    stump = DecisionStump(n, draw(st.integers(-1, n - 1)), draw(sign))
    weights = st.floats(0.25, 2.0)
    vote = WeightedMajority(((conj, draw(weights)), (stump, draw(weights)),
                             (declist, draw(weights))))
    concepts = [conj, box, declist, parity, stump, vote]
    # labelled by a concept of the closed classes or the parities, or at
    # random (mostly unrealizable)
    source = draw(st.sampled_from(("conj", "box", "parity", "random")))
    if source == "random":
        y = np.array(draw(st.lists(sign, min_size=m, max_size=m)),
                     dtype=np.int8)
    else:
        y = {"conj": conj, "box": box, "parity": parity}[source].predict(X)
    alive = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)),
                     dtype=bool)
    return X, y, concepts, alive, draw(st.integers(0, m))


def canon(x):
    """A value with its types: an array's dtype, shape and bytes; a
    basis's fields; anything else its repr (a Box corner that became a
    numpy bool shows there)."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, GF2Basis):
        return x.n, canon(x.rows), x.pivots
    return repr(x)


def outcome(fn, *args):
    try:
        return "ok", canon(fn(*args))
    except (ProtocolError, ConfigurationError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_property_bool_block_answers_as_its_float64_copy(case):
    X, y, concepts, alive, cut = case
    F = X.astype(np.float64)
    assert X.dtype == bool and Sample(X, y).features.dtype == bool
    for h in concepts:
        assert canon(h.predict(X)) == canon(h.predict(F)), h
    # one sample, and the same rows as two samples (one may be empty)
    for blocks in ([X], [X[:cut], X[cut:]]):
        cuts = np.cumsum([len(b) for b in blocks])[:-1]
        bools = [Sample(b, l) for b, l in zip(blocks, np.split(y, cuts))]
        floats = [Sample(s.features.astype(np.float64), s.labels)
                  for s in bools]
        for cls in (Conjunction, Box):
            assert outcome(smallest_consistent, bools, cls) == \
                outcome(smallest_consistent, floats, cls)
        for h in concepts:
            assert outcome(check_consistent, h, bools, "inconsistent") == \
                outcome(check_consistent, h, floats, "inconsistent")
    sb, sf = Sample(X, y), Sample(F, y)
    assert consistent_triplets(sb, alive) == consistent_triplets(sf, alive)
    if len(y):
        assert canon(best_stump(sb)) == canon(best_stump(sf))
    assert outcome(gf2_reduce, sb) == outcome(gf2_reduce, sf)
    if outcome(gf2_reduce, sb)[0] == "ok":
        nonproper = [ParityNonProper(gf2_reduce(s), concepts[3])
                     for s in (sb, sf)]
        assert canon(nonproper[0].predict(X)) == \
            canon(nonproper[1].predict(F)) == canon(nonproper[0].predict(F))
    assert example_bits(X) == example_bits(F)
    assert canon(boolean_rows(X)) == canon(boolean_rows(F))
