from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac.channel import (BROADCAST, CENTER, CostLedger, ProtocolViolation,
                             SyncModel, advance_round, count_width, send,
                             send_count, send_example, send_hypothesis)
from distpac.core import (Box, ConfigurationError, Conjunction,
                          LinearSeparator, rule_bits)


def charged(charge, *args) -> CostLedger:
    """A fresh ledger after one charge of ``charge(ledger, "p1", CENTER,
    *args)``."""
    led = CostLedger()
    charge(led, "p1", CENTER, *args)
    return led


class TestMessageSizes:
    def test_boolean_example(self):
        led = charged(send_example, (1.0, 0.0, 1.0))
        assert (led.bits, led.examples, led.hypotheses) == (4, 1, 0)

    def test_real_example(self):
        led = charged(send_example, (0.5, 0.25))
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
        send_example(led, "p1", CENTER, (1.0, 0.0))
        send_hypothesis(led, "p2", CENTER, Conjunction(5, frozenset()))
        send(led, "p2", CENTER, 7, examples=2, hypotheses=3)
        assert led.bits == 3 + 5 + 7
        assert led.examples == 1 + 2
        assert led.hypotheses == 1 + 3
        assert led.per_player == {"p1": 3, "p2": 5 + 7}

    def test_broadcast_charged_once(self):
        led = CostLedger()
        send_example(led, "p1", BROADCAST, (1.0,))
        assert led.bits == 2  # not multiplied by any receiver count

    def test_upstream_bits_excludes_center(self):
        led = CostLedger()
        send(led, "p1", CENTER, 10)
        send(led, CENTER, BROADCAST, 100)
        assert led.upstream_bits() == 10

    def test_rounds_and_meta_rounds(self):
        led = CostLedger()
        advance_round(led, "round")
        advance_round(led, "meta_round")
        assert (led.rounds, led.meta_rounds) == (1, 1)
        with pytest.raises(ConfigurationError):
            advance_round(led, "bogus")

    def test_lock_synchronous_one_send_per_slot(self):
        led = CostLedger(sync_model=SyncModel.LOCK_SYNCHRONOUS)
        send(led, "p1", BROADCAST, 1)
        with pytest.raises(ProtocolViolation):
            send(led, "p2", BROADCAST, 1)
        with pytest.raises(ProtocolViolation):
            send_example(led, "p2", BROADCAST, (1.0,))
        advance_round(led, "round")
        send(led, "p2", BROADCAST, 1)  # fresh slot is fine

    def test_send_example_helper(self):
        led = CostLedger()
        send_example(led, "p1", CENTER, [1.0, 1.0, 0.0])
        assert led.examples == 1 and led.bits == 4


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
