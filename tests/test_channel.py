from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac.channel import (BROADCAST, CENTER, CostLedger, advance_round,
                             count_width, example_bits, send, send_count,
                             send_example, send_hypothesis)
from distpac.core import (PRECISION_BITS, Box, ConfigurationError,
                          Conjunction, LinearSeparator, ProtocolError,
                          rule_bits)


TWO_SENDS = "two sends in one lock-synchronous slot"


def charged(charge, *args) -> CostLedger:
    """A fresh ledger after one charge of ``charge(ledger, "p1", CENTER,
    *args)``."""
    led = CostLedger()
    charge(led, "p1", CENTER, *args)
    return led


class TestMessageSizes:
    def test_boolean_example(self):
        led = charged(send_example, *example_bits([(1.0, 0.0, 1.0)]))
        assert (led.bits, led.examples, led.hypotheses) == (4, 1, 0)

    def test_real_example(self):
        led = charged(send_example, *example_bits([(0.5, 0.25)]))
        assert (led.bits, led.examples) == (65, 1)

    def test_hypothesis_sizes(self):
        for h, bits in [(Conjunction(30, frozenset()), 30),
                        (Box((0.0,), (1.0,)), 64),
                        (LinearSeparator((1.0, 0.0)), 65)]:
            led = charged(send_hypothesis, h)
            assert (led.bits, led.examples, led.hypotheses) == (bits, 0, 1)

    def test_rule_msg(self):
        assert charged(send, rule_bits(50)).bits == 8

    def test_count_fits_width(self):
        led = charged(send_count, 7, 3)
        assert (led.bits, led.examples, led.hypotheses) == (3, 0, 0)
        with pytest.raises(ConfigurationError):
            send_count(led, "p1", CENTER, 8, 3)
        assert led.bits == 3  # a count that does not fit is not charged

    def test_count_column_is_one_message(self):
        led = charged(send_count, [0, 7, 3], 3)
        assert (led.bits, led.per_player) == (9, {"p1": 9})
        with pytest.raises(ConfigurationError, match="count 8 does not fit"):
            send_count(led, "p1", CENTER, [1, 8, -1], 3)
        with pytest.raises(ConfigurationError, match="count -1 does not fit"):
            send_count(led, "p1", CENTER, np.array([1, -1]), 3)
        assert led.bits == 9

    def test_bits_msg(self):
        led = charged(send, 17)
        assert (led.bits, led.examples, led.hypotheses) == (17, 0, 0)


class TestLedger:
    def test_counters_are_the_leading_fields(self):
        names = tuple(f.name for f in fields(CostLedger))
        assert names[:len(CostLedger.COUNTERS)] == CostLedger.COUNTERS
        assert list(CostLedger().to_dict()) == \
            [*CostLedger.COUNTERS, "per_player"]

    def test_send_accumulates(self):
        led = CostLedger()
        send_example(led, "p1", CENTER, *example_bits([(1.0, 0.0)]))
        send_hypothesis(led, "p2", CENTER, Conjunction(5, frozenset()))
        send(led, "p2", CENTER, 7, examples=2, hypotheses=3)
        assert led.bits == 3 + 5 + 7
        assert led.examples == 1 + 2
        assert led.hypotheses == 1 + 3
        assert led.per_player == {"p1": 3, "p2": 5 + 7}

    def test_broadcast_charged_once(self):
        led = CostLedger()
        send_example(led, "p1", BROADCAST, *example_bits([(1.0,)]))
        assert led.bits == 2  # not multiplied by any receiver count

    def test_rounds_and_meta_rounds(self):
        led = CostLedger()
        advance_round(led, "round")
        advance_round(led, "meta_round")
        assert (led.rounds, led.meta_rounds) == (1, 1)
        with pytest.raises(ConfigurationError):
            advance_round(led, "bogus")

    def test_lock_synchronous_one_send_per_slot(self):
        led = CostLedger(lock_synchronous=True)
        send(led, "p1", BROADCAST, 1)
        with pytest.raises(ProtocolError, match=TWO_SENDS):
            send(led, "p2", BROADCAST, 1)
        with pytest.raises(ProtocolError, match=TWO_SENDS):
            send_example(led, "p2", BROADCAST, 2)
        advance_round(led, "round")
        send(led, "p2", BROADCAST, 1)  # fresh slot is fine

    def test_send_example_helper(self):
        led = CostLedger()
        block = np.array([[1.0, 1.0, 0.0], [0.5, 1.0, 0.0]])
        for bits in example_bits(block):
            send_example(led, "p1", CENTER, bits)
        assert led.examples == 2 and led.bits == 4 + 97
        assert led.per_player == {"p1": 4 + 97}


class TestCountWidth:
    def test_exact_values(self):
        assert count_width(1) == 1
        assert count_width(7) == 3
        assert count_width(8) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10 ** 9))
    def test_property_width_carries_value(self, v):
        w = count_width(v)
        assert 0 <= v < 2 ** w
        assert 2 ** (w - 1) <= v or w == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["p1", "p2", "p3"]),
                          st.integers(1, 64)), min_size=1, max_size=30))
def test_property_ledger_is_sum_of_message_sizes(msgs):
    led = CostLedger()
    for frm, length in msgs:
        send(led, frm, CENTER, length)
    assert led.bits == sum(length for _, length in msgs)
    assert led.bits == sum(led.per_player.values())


_ZERO_ONE = st.sampled_from([0.0, 1.0, -0.0])
_ANY_FLOAT = st.one_of(_ZERO_ONE, st.just(float("nan")), st.floats())
_INT = st.integers(-1, 2)


@st.composite
def example_blocks(draw):
    """A 2-D block (possibly with no rows) mixing 0/1 rows and real rows,
    with -0.0 and NaN entries, or an integer block."""
    d = draw(st.integers(0, 5))
    dtype = draw(st.sampled_from([np.float64, np.int8, np.int64]))
    real = _ANY_FLOAT if dtype is np.float64 else _INT
    row = st.one_of(*(st.lists(v, min_size=d, max_size=d)
                      for v in (_ZERO_ONE, real)))
    rows = draw(st.lists(row, max_size=8))
    return np.array(rows, dtype=dtype).reshape(len(rows), d)


@settings(max_examples=200, deadline=None)
@given(example_blocks())
def test_property_example_bits_is_the_per_row_rule(X):
    d = X.shape[1]
    want = [d + 1 if frozenset((0.0, 1.0)).issuperset(row.tolist())
            else d * PRECISION_BITS + 1 for row in X]
    got = example_bits(X)
    assert got == want and all(type(b) is int for b in got)
    # each priced example is still one message: one per lock-synchronous slot
    led = CostLedger(lock_synchronous=True)
    for bits in got:
        send_example(led, "p1", BROADCAST, bits)
        with pytest.raises(ProtocolError, match=TWO_SENDS):
            send_example(led, "p1", BROADCAST, bits)
        advance_round(led, "round")
    assert (led.bits, led.examples, led.rounds) == (sum(want), len(X), len(X))
