"""A run's virtual books, and the audit that checks each call's outcome.

:class:`Books` is everything the tiers, the repetitions and the traced run
must agree on byte for byte.  :class:`Audit` hooks the engine's dispatch
entry points for one un-timed pass and records, per call, whether its
outcome is the one the traffic policy dictates: ``test_null`` denied with
EACCES, ``test_incr(x)`` returning ``x + 1``, ``getpid`` returning the
client's pid.  It also measures what the engine does not record:

* the idle cycles charged through the meter, so the virtual ledger can be
  checked against the clock instead of being derived from it;
* the closed-loop queueing delay: a call due at ``at`` that starts late
  because another client's call still holds the simulated CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from layers import Patches

DENIED_FUNCTION = "test_null"


@dataclass(frozen=True)
class Books:
    cycles: int
    events: int
    ops: Tuple[Tuple[str, int], ...]
    total_calls: int
    denied: int
    latencies: bytes
    queue_delays: bytes

    @classmethod
    def of(cls, engine, result) -> "Books":
        clock = engine.machine.clock
        return cls(cycles=clock.cycles, events=clock.events,
                   ops=tuple(sorted(engine.machine.meter.op_counts.items())),
                   total_calls=result.total_calls,
                   denied=result.denied_calls,
                   latencies=result.latencies_us.tobytes(),
                   queue_delays=result.queue_delays_us.tobytes())

    def differences(self, other: "Books") -> List[str]:
        return [name for name in self.__dataclass_fields__
                if getattr(self, name) != getattr(other, name)]


class Audit:
    """Outcome, idle and closed-loop-delay hooks for one audited pass."""

    def __init__(self) -> None:
        #: recording is off during build; only the run is audited
        self.armed = False
        self.idle_cycles = 0
        self.run_idle_cycles = 0
        self.calls = 0
        self.denied = 0
        #: calls whose outcome differs from what the policy dictates
        self.unexpected = 0
        #: client index -> closed-loop queueing delay per call, in order
        self.closed_delays: Dict[int, List[float]] = {}
        self._due: Optional[Tuple[float, float]] = None
        self._names: Dict[Tuple[int, int], str] = {}

    # ---------------------------------------------------------- recording
    def _tally(self, calls: int, denied: int, wrong: int) -> None:
        self.calls += calls
        self.denied += denied
        self.unexpected += wrong

    def _note_outcome(self, session, name: str, args, outcome) -> None:
        from repro.kernel.errno import Errno
        if name == DENIED_FUNCTION:
            right = outcome.errno == Errno.EACCES
        elif name == "test_incr":
            right = outcome.ok and outcome.value == args[0] + 1
        elif name == "getpid":
            right = outcome.ok and outcome.value == session.client.pid
        else:
            right = outcome.ok
        self._tally(1, not outcome.ok, not right)

    def _denials_expected(self, session, pairs) -> int:
        """How many of the ``(m_id, func_id)`` calls the policy denies."""
        expected = 0
        for pair in pairs:
            name = self._names.get(pair)
            if name is None:
                m_id, func_id = pair
                definition = session.modules[m_id].definition
                name = self._names[pair] = \
                    definition.function_by_id(func_id).name
            expected += name == DENIED_FUNCTION
        return expected

    # -------------------------------------------------------------- hooks
    def install(self, patches: Patches) -> None:
        from repro.secmodule.dispatch import SmodDispatcher
        from repro.sim.costs import CostMeter
        from repro.workloads.traffic import TrafficEngine
        audit = self
        idle, idle_many = CostMeter.idle, CostMeter.idle_many
        call, call_batch = SmodDispatcher.call, SmodDispatcher.call_batch
        probe = SmodDispatcher.fast_forward_probe
        advance = TrafficEngine._advance_clock_to
        one_flush = TrafficEngine._one_flush
        one_service_call = TrafficEngine._one_service_call

        def idle_hook(meter, cycles):
            audit._idle(cycles)
            return idle(meter, cycles)

        def idle_many_hook(meter, cycles, events):
            audit._idle(cycles)
            return idle_many(meter, cycles, events)

        def call_hook(dispatcher, session, function_name, *args, **kwargs):
            outcome = call(dispatcher, session, function_name, *args, **kwargs)
            if audit.armed:
                audit._note_outcome(session, function_name, args, outcome)
            return outcome

        def call_batch_hook(dispatcher, session, queue, *args, **kwargs):
            batch = call_batch(dispatcher, session, queue, *args, **kwargs)
            if audit.armed:
                for (name, call_args), outcome in zip(queue, batch.outcomes):
                    audit._note_outcome(session, name, call_args, outcome)
            return batch

        def probe_hook(dispatcher, session, key):
            # an admitted span is charged without running: its recorded
            # denial count must be the policy's for the span's calls
            entry = probe(dispatcher, session, key)
            if entry is not None and audit.armed:
                shape = key[1]
                pairs = [shape] if isinstance(shape[0], int) else shape
                expected = audit._denials_expected(session, pairs)
                audit._tally(len(pairs), entry.denied,
                             len(pairs) if entry.denied != expected else 0)
            return entry

        def advance_hook(engine, target_us):
            audit._due = (target_us, engine._now_us())
            return advance(engine, target_us)

        def one_flush_hook(engine, state, count, *, scheduled_at=None):
            audit._closed_loop_call(state, count, scheduled_at)
            return one_flush(engine, state, count, scheduled_at=scheduled_at)

        def one_service_call_hook(engine, state, *, scheduled_at=None):
            audit._closed_loop_call(state, 1, scheduled_at)
            return one_service_call(engine, state, scheduled_at=scheduled_at)

        patches.replace(CostMeter, "idle", idle_hook)
        patches.replace(CostMeter, "idle_many", idle_many_hook)
        patches.replace(SmodDispatcher, "call", call_hook)
        patches.replace(SmodDispatcher, "call_batch", call_batch_hook)
        patches.replace(SmodDispatcher, "fast_forward_probe", probe_hook)
        patches.replace(TrafficEngine, "_advance_clock_to", advance_hook)
        patches.replace(TrafficEngine, "_one_flush", one_flush_hook)
        patches.replace(TrafficEngine, "_one_service_call",
                        one_service_call_hook)

    def _idle(self, cycles: int) -> None:
        self.idle_cycles += cycles
        if self.armed:
            self.run_idle_cycles += cycles

    def _closed_loop_call(self, state, count: int,
                          scheduled_at: Optional[float]) -> None:
        due, self._due = self._due, None
        if scheduled_at is None and due is not None and self.armed:
            at, now = due
            self.closed_delays.setdefault(state.index, []).extend(
                [max(0.0, now - at)] * count)
