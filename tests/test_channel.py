import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import channel
from distpac.channel import (BROADCAST, CENTER, BitsMsg, CostLedger,
                             CountMsg, ExampleMsg, HypothesisMsg,
                             ProtocolViolation, RuleMsg, SyncModel,
                             advance_round, count_width, send, send_example)
from distpac.core import Box, ConfigurationError, Conjunction, LinearSeparator


class TestMessageSizes:
    def test_boolean_example(self):
        assert ExampleMsg((1.0, 0.0, 1.0), 1).bit_size() == 4

    def test_real_example(self):
        assert ExampleMsg((0.5, 0.25), -1).bit_size() == 65

    def test_hypothesis_sizes(self):
        assert HypothesisMsg(Conjunction(30, frozenset())).bit_size() == 30
        assert HypothesisMsg(Box((0.0,), (1.0,))).bit_size() == 64
        assert HypothesisMsg(LinearSeparator((1.0, 0.0))).bit_size() == 65

    def test_rule_msg(self):
        assert RuleMsg(3, 1, 0, 50).bit_size() == 8

    def test_count_fits_width(self):
        assert CountMsg(7, 3).bit_size() == 3
        with pytest.raises(ConfigurationError):
            CountMsg(8, 3)

    def test_bits_msg(self):
        assert BitsMsg(17).bit_size() == 17


class TestLedger:
    def test_send_accumulates(self):
        led = CostLedger()
        send(led, "p1", CENTER, ExampleMsg((1.0, 0.0), 1))
        send(led, "p2", CENTER, HypothesisMsg(Conjunction(5, frozenset())))
        assert led.bits == 3 + 5
        assert led.examples == 1
        assert led.hypotheses == 1
        assert led.per_player["p1"] == 3
        assert led.per_player["p2"] == 5

    def test_broadcast_charged_once(self):
        led = CostLedger()
        send(led, "p1", BROADCAST, ExampleMsg((1.0,), 1))
        assert led.bits == 2  # not multiplied by any receiver count

    def test_upstream_bits_excludes_center(self):
        led = CostLedger()
        send(led, "p1", CENTER, BitsMsg(10))
        send(led, CENTER, BROADCAST, BitsMsg(100))
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
        send(led, "p1", BROADCAST, BitsMsg(1))
        with pytest.raises(ProtocolViolation):
            send(led, "p2", BROADCAST, BitsMsg(1))
        advance_round(led, "round")
        send(led, "p2", BROADCAST, BitsMsg(1))  # fresh slot is fine

    def test_send_example_helper(self):
        led = CostLedger()
        send_example(led, "p1", CENTER, [1.0, 1.0, 0.0], -1)
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
        send(led, frm, CENTER, BitsMsg(length))
    assert led.bits == sum(length for _, length in msgs)
    assert led.bits == sum(led.per_player.values())
