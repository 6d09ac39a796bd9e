"""The analytic fast-forward tier: closed-form charges over hot traces.

Three layers of proof, mirroring docs/performance.md:

* ``CallTrace.scaled(n)`` is *exactly* the aggregate of ``n`` back-to-back
  charges — integer arithmetic, no rounding to diverge;
* ``fast_forward_probe`` x n + ``fast_forward_commit(n)`` applies the
  identical machine/session/cache state a loop of n per-call replays
  applies (only the trace cache's own mechanism counters may differ);
* admission fails closed: poisoned entries, stale decision-cache touches
  and mid-window epoch bumps all force the slow path, and a span that
  falls back is never also settled in a window (no double-charging).
"""

from __future__ import annotations

import pytest

from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import (
    DispatchConfig,
    TRACE_HOT,
    TRACE_POISONED,
)
from repro.workloads.traffic import TrafficEngine, TrafficSpec
from test_trace_replay import accounting, normalized_metrics  # noqa: F401


def make_system(**kwargs):
    return SecModuleSystem.create(include_libc=False, **kwargs)


def warm_key(system, config):
    """Record + confirm ``test_incr`` and return its hot trace key."""
    for i in range(2):
        assert system.call("test_incr", i, config=config) == i + 1
    session = system.session
    key = system.extension.dispatcher.trace_key(session, ("test_incr",),
                                                config)
    entry = system.extension.dispatcher.trace_cache.lookup(key)
    assert entry is not None and entry.state == TRACE_HOT
    return key, entry


def machine_state(system):
    """Everything a fast-forward settle must leave identical to n replays
    (the trace cache's own mechanism counters are accounting *of* the
    mechanism and excluded by design)."""
    dispatcher = system.extension.dispatcher
    cache = dispatcher.decision_cache
    return {
        "cycles": system.machine.clock.cycles,
        "events": system.machine.clock.events,
        "ops": dict(system.machine.meter.op_counts),
        "dispatched": dispatcher.calls_dispatched,
        "denied": dispatcher.calls_denied,
        "served": system.session.handle.calls_served,
        "session_calls": (system.session.calls_made,
                          dict(system.session.calls_per_module)),
        "cache": (cache.hits, cache.misses, cache.batch_epoch_checks,
                  cache.batch_served),
    }


class TestScaledTrace:
    def test_scaled_is_exact_integer_aggregation(self):
        system = make_system(seed=3)
        _, entry = warm_key(system, DispatchConfig())
        trace = entry.trace
        for n in (2, 5, 1000):
            scaled = trace.scaled(n)
            assert scaled.total_cycles == trace.total_cycles * n
            assert scaled.events == trace.events * n
            assert scaled.ops == tuple((op, count * n)
                                       for op, count in trace.ops)
            profile = system.kernel.machine.meter.profile
            assert scaled.total_cycles == sum(
                profile.cost(op) * count for op, count in scaled.ops)

    def test_scaled_one_is_self_and_negative_raises(self):
        system = make_system(seed=3)
        _, entry = warm_key(system, DispatchConfig())
        assert entry.trace.scaled(1) is entry.trace
        with pytest.raises(ValueError):
            entry.trace.scaled(-1)


class TestProbeCommitEquivalence:
    def test_probe_n_commit_equals_n_replays(self):
        """One scaled commit must equal the per-call replay loop, state
        field for state field."""
        config = DispatchConfig()
        n = 7

        replay = make_system(seed=11)
        warm_key(replay, config)
        for i in range(n):
            replay.call("test_incr", 50 + i, config=config)
        assert replay.extension.dispatcher.trace_cache.replays == n

        forwarded = make_system(seed=11)
        key, entry = warm_key(forwarded, config)
        dispatcher = forwarded.extension.dispatcher
        for _ in range(n):
            assert dispatcher.fast_forward_probe(forwarded.session,
                                                 key) is entry
        dispatcher.fast_forward_commit(entry, forwarded.session, n)
        stats = dispatcher.trace_cache.snapshot()
        assert stats["fast_forwards"] == 1
        assert stats["fast_forward_calls"] == n

        assert machine_state(replay) == machine_state(forwarded)

    def test_commit_of_zero_spans_is_a_noop(self):
        system = make_system(seed=11)
        key, entry = warm_key(system, DispatchConfig())
        before = machine_state(system)
        system.extension.dispatcher.fast_forward_commit(
            entry, system.session, 0)
        assert machine_state(system) == before
        assert system.extension.dispatcher.trace_cache.fast_forwards == 0


class TestAdmission:
    def test_poisoned_entry_refuses_probe(self):
        system = make_system(seed=17)
        key, entry = warm_key(system, DispatchConfig())
        entry.state = TRACE_POISONED
        dispatcher = system.extension.dispatcher
        assert dispatcher.fast_forward_probe(system.session, key) is None
        # the call itself still works — op by op, never through the entry
        replays_before = dispatcher.trace_cache.replays
        assert system.call("test_incr", 9) == 10
        assert dispatcher.trace_cache.replays == replays_before

    def test_stale_decision_touch_fails_probe_and_counts_fallback(self):
        """A hot entry whose recorded decision-cache touches can no longer
        be replayed (evicted/invalidated decision) must fail the probe with
        the same ``fallbacks`` bump a failed replay takes."""
        system = make_system(seed=17)
        key, entry = warm_key(system, DispatchConfig())
        entry.cache_touch_keys = (("no-such-module", -1, -1),)
        dispatcher = system.extension.dispatcher
        fallbacks = dispatcher.trace_cache.fallbacks
        assert dispatcher.fast_forward_probe(system.session, key) is None
        assert dispatcher.trace_cache.fallbacks == fallbacks + 1

    def test_epoch_bump_forces_probe_failure(self):
        system = make_system(seed=17)
        key, _ = warm_key(system, DispatchConfig())
        session = system.session
        m_id = next(iter(session.credentials))
        session.replace_credential(m_id, session.credentials[m_id])
        assert system.extension.dispatcher.fast_forward_probe(
            session, key) is None

    def test_unknown_key_probe_returns_none_quietly(self):
        system = make_system(seed=17)
        dispatcher = system.extension.dispatcher
        fallbacks = dispatcher.trace_cache.fallbacks
        assert dispatcher.fast_forward_probe(
            system.session, ("bogus",)) is None
        assert dispatcher.trace_cache.fallbacks == fallbacks

    def test_armed_event_trace_refuses_probe(self):
        """A live TraceBuffer needs per-op emits fast-forward skips."""
        system = make_system(seed=17)
        key, _ = warm_key(system, DispatchConfig())
        system.machine.trace.enabled = True
        try:
            assert system.extension.dispatcher.fast_forward_probe(
                system.session, key) is None
        finally:
            system.machine.trace.enabled = False


class TestNoDoubleCharge:
    def test_epoch_bump_mid_window_settles_partial_then_falls_back(self):
        """The window-close contract: spans admitted before an epoch bump
        settle once via the scaled commit, the bumped call runs the slow
        path once — totals identical to never fast-forwarding at all."""
        config = DispatchConfig()

        def drive(fast_forward: bool):
            system = make_system(seed=23)
            dispatcher = system.extension.dispatcher
            session = system.session
            key, entry = warm_key(system, config)
            if fast_forward:
                for _ in range(3):
                    assert dispatcher.fast_forward_probe(session,
                                                         key) is entry
            else:
                for i in range(3):
                    system.call("test_incr", 10 + i, config=config)
            # the invalidating event lands mid-window
            m_id = next(iter(session.credentials))
            session.replace_credential(m_id, session.credentials[m_id])
            if fast_forward:
                # probe now refuses; settle the partial window exactly once
                assert dispatcher.fast_forward_probe(session, key) is None
                dispatcher.fast_forward_commit(entry, session, 3)
            # the refused span takes the slow path (re-records under the
            # new epoch), exactly as a failed replay would
            system.call("test_incr", 100, config=config)
            return machine_state(system)

        assert drive(fast_forward=True) == drive(fast_forward=False)


class TestEngineDifferential:
    def accounting_pair(self, spec: TrafficSpec):
        def run(fast_forward: bool):
            engine = TrafficEngine(spec, dispatch_config=DispatchConfig(
                use_fast_forward=fast_forward))
            result = engine.run()
            return engine, result
        off_engine, off_result = run(False)
        on_engine, on_result = run(True)
        assert accounting(off_engine, off_result) == \
            accounting(on_engine, on_result)
        return (off_engine.extension.dispatcher.trace_cache.snapshot(),
                on_engine.extension.dispatcher.trace_cache.snapshot())

    def test_open_loop_ff_off_vs_on(self):
        off, on = self.accounting_pair(
            TrafficSpec(clients=4, modules=2, calls_per_client=60,
                        arrival="open"))
        assert off["fast_forward_calls"] == 0 and off["replays"] > 0
        assert on["fast_forward_calls"] > 0

    def test_open_loop_with_telemetry(self):
        # the metrics snapshot (bulk vs per-call recording) is part of the
        # compared accounting, means normalized to 12 significant digits
        self.accounting_pair(
            TrafficSpec(clients=3, modules=2, calls_per_client=40,
                        arrival="open", telemetry=True))

    def test_mmpp_ff_off_vs_on(self):
        self.accounting_pair(
            TrafficSpec(clients=3, modules=2, calls_per_client=48,
                        arrival="mmpp"))
