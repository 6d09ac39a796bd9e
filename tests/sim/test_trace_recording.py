"""CostMeter trace recording / CallTrace replay and the charge_words fix."""

from __future__ import annotations

import pytest

from repro.hw.machine import make_paper_machine
from repro.sim import costs
from repro.sim.clock import VirtualClock
from repro.sim.costs import CallTrace, CostMeter, PENTIUM_III_599
from repro.telemetry import Telemetry


def fresh_meter():
    clock = VirtualClock()
    return CostMeter(PENTIUM_III_599, clock), clock


class TestAdvanceMany:
    def test_advances_cycles_and_events(self):
        clock = VirtualClock()
        clock.advance_many(500, 7)
        assert clock.cycles == 500 and clock.events == 7

    def test_rejects_negative(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance_many(-1, 0)
        with pytest.raises(ValueError):
            clock.advance_many(0, -1)

    def test_respects_freeze(self):
        clock = VirtualClock()
        clock.freeze()
        clock.advance_many(500, 7)
        assert clock.cycles == 0 and clock.events == 0


class TestChargeWords:
    def test_positive_words_charge(self):
        meter, clock = fresh_meter()
        meter.charge_words(costs.COPY_WORD, 8)
        assert meter.count(costs.COPY_WORD) == 8

    def test_zero_words_free(self):
        meter, clock = fresh_meter()
        assert meter.charge_words(costs.COPY_WORD, 0) == 0
        assert clock.cycles == 0 and clock.events == 0

    def test_negative_words_raise(self):
        """Silently clamping a negative size hid caller bugs; both charge
        entry points now reject negatives identically."""
        meter, _ = fresh_meter()
        with pytest.raises(ValueError):
            meter.charge_words(costs.COPY_WORD, -1)
        with pytest.raises(ValueError):
            meter.charge(costs.COPY_WORD, -1)


class TestTraceRecording:
    def test_recorder_captures_sequence(self):
        meter, _ = fresh_meter()
        recorder = meter.record_trace()
        assert recorder.start()
        meter.charge(costs.TRAP_ENTRY)
        meter.charge(costs.COPY_WORD, 4)
        meter.charge(costs.TRAP_ENTRY)
        raw = recorder.stop()
        assert raw == ((costs.TRAP_ENTRY, 1), (costs.COPY_WORD, 4),
                       (costs.TRAP_ENTRY, 1))

    def test_recording_does_not_nest(self):
        meter, _ = fresh_meter()
        outer = meter.record_trace()
        inner = meter.record_trace()
        assert outer.start()
        assert not inner.start()
        meter.charge(costs.TRAP_ENTRY)
        assert inner.stop() == ()        # inner never armed
        assert outer.stop() == ((costs.TRAP_ENTRY, 1),)

    def test_zero_count_charges_not_recorded(self):
        meter, _ = fresh_meter()
        recorder = meter.record_trace()
        recorder.start()
        meter.charge_words(costs.COPY_WORD, 0)
        assert recorder.stop() == ()

    def test_abort_discards(self):
        meter, _ = fresh_meter()
        recorder = meter.record_trace()
        recorder.start()
        meter.charge(costs.TRAP_ENTRY)
        recorder.abort()
        assert meter._trace_log is None
        # the meter is usable for a fresh recording afterwards
        again = meter.record_trace()
        assert again.start()
        again.stop()


class TestChargeTrace:
    def run_both(self, raw):
        """Execute a sequence op by op and as a replay; return both meters."""
        slow, slow_clock = fresh_meter()
        for operation, count in raw:
            slow.charge(operation, count)
        fast, fast_clock = fresh_meter()
        fast.charge_trace(CallTrace(raw, PENTIUM_III_599))
        return (slow, slow_clock), (fast, fast_clock)

    def test_replay_matches_op_by_op(self):
        raw = ((costs.TRAP_ENTRY, 1), (costs.COPY_WORD, 4),
               (costs.CONTEXT_SWITCH, 2), (costs.COPY_WORD, 3))
        (slow, slow_clock), (fast, fast_clock) = self.run_both(raw)
        assert slow_clock.cycles == fast_clock.cycles
        assert slow_clock.events == fast_clock.events
        assert dict(slow.op_counts) == dict(fast.op_counts)

    def test_replay_mirrors_telemetry(self):
        raw = ((costs.TRAP_ENTRY, 1), (costs.COPY_WORD, 4),
               (costs.TRAP_ENTRY, 1))
        slow, fast = make_paper_machine(), make_paper_machine()
        slow_tel = slow.attach_telemetry(Telemetry())
        fast_tel = fast.attach_telemetry(Telemetry())
        slow_before = slow.meter.snapshot()
        fast_before = fast.meter.snapshot()
        for operation, count in raw:
            slow.charge(operation, count)
        fast.meter.charge_trace(CallTrace(raw, PENTIUM_III_599))
        assert slow_tel.op_counts == fast_tel.op_counts
        assert slow_tel.op_cycles == fast_tel.op_cycles
        assert slow_tel.op_counts == {costs.TRAP_ENTRY: 2, costs.COPY_WORD: 4}
        assert slow_tel.op_counts == slow.meter.diff(slow_before)
        assert fast_tel.op_counts == fast.meter.diff(fast_before)
        assert sum(fast_tel.op_cycles.values()) == fast.clock.cycles

    def test_replay_respects_frozen_clock(self):
        meter, clock = fresh_meter()
        trace = CallTrace(((costs.TRAP_ENTRY, 1),), PENTIUM_III_599)
        clock.freeze()
        meter.charge_trace(trace)
        assert clock.cycles == 0
        # op histogram still accumulates, exactly like charge() on a frozen
        # clock
        assert meter.count(costs.TRAP_ENTRY) == 1

    def test_calltrace_precomputes_totals(self):
        raw = ((costs.TRAP_ENTRY, 2), (costs.TRAP_ENTRY, 1),
               (costs.COPY_WORD, 5))
        trace = CallTrace(raw, PENTIUM_III_599)
        assert trace.events == 3
        assert dict(trace.ops) == {costs.TRAP_ENTRY: 3, costs.COPY_WORD: 5}
        expected = (3 * PENTIUM_III_599.cost(costs.TRAP_ENTRY)
                    + 5 * PENTIUM_III_599.cost(costs.COPY_WORD))
        assert trace.total_cycles == expected


class TestMachineIntegration:
    def test_machine_meter_records_and_replays(self):
        machine = make_paper_machine()
        recorder = machine.meter.record_trace()
        recorder.start()
        machine.charge(costs.TRAP_ENTRY)
        machine.charge_words(costs.COPY_WORD, 2)
        raw = recorder.stop()
        cycles_once = machine.clock.cycles
        machine.meter.charge_trace(machine.meter.build_trace(raw))
        assert machine.clock.cycles == 2 * cycles_once
        assert machine.meter.count(costs.TRAP_ENTRY) == 2
