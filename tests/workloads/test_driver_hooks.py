"""The driver entry points an outside audit may hook.

The repository benchmark (``perfbench/books.py``) replaces three class
attributes of :class:`TrafficEngine` for one audited pass and calls
``engine._now_us()``:

* ``_advance_clock_to(target_us)``;
* ``_one_flush(state, count, *, scheduled_at=None)``;
* ``_one_service_call(state, *, scheduled_at=None)``.

From those alone it measures the closed-loop queueing delay: the time
between a call's due time (the argument of the ``_advance_clock_to`` call
just before it) and the clock when it starts.  That only works if every
closed-loop arrival calls ``_advance_clock_to`` and then, with no sink call
in between, ``_one_flush``/``_one_service_call`` with ``scheduled_at=None``,
while open-loop arrivals pass their ``scheduled_at``.  These tests hook the
same attributes the same way and pin that contract.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.workloads.traffic import TrafficEngine, TrafficSpec

SHAPES = {
    "closed-static": dict(arrival="closed", batch_size=3),
    "closed-service": dict(arrival="closed", via_service=True,
                           handle_policy="pooled", pool_max_sessions=2),
    "open-static": dict(arrival="open", mean_interval_us=8.0),
    "open-service": dict(arrival="open", via_service=True,
                         mean_interval_us=150.0),
    "mmpp-adaptive": dict(arrival="mmpp", adaptive_batch=True,
                          mean_interval_us=30.0, burst_interval_us=0.5),
}


def hooked_run(monkeypatch, shape) -> Tuple[TrafficEngine, object, List]:
    """Run one spec with the three attributes replaced; the call log."""
    log: List[Tuple] = []
    advance = TrafficEngine._advance_clock_to
    one_flush = TrafficEngine._one_flush
    one_service_call = TrafficEngine._one_service_call

    def advance_hook(engine, target_us):
        log.append(("advance", None, target_us, engine._now_us()))
        return advance(engine, target_us)

    def one_flush_hook(engine, state, count, *, scheduled_at=None):
        log.append(("flush", state, count, scheduled_at))
        return one_flush(engine, state, count, scheduled_at=scheduled_at)

    def one_service_call_hook(engine, state, *, scheduled_at=None):
        log.append(("service", state, 1, scheduled_at))
        return one_service_call(engine, state, scheduled_at=scheduled_at)

    monkeypatch.setattr(TrafficEngine, "_advance_clock_to", advance_hook)
    monkeypatch.setattr(TrafficEngine, "_one_flush", one_flush_hook)
    monkeypatch.setattr(TrafficEngine, "_one_service_call",
                        one_service_call_hook)
    spec = TrafficSpec(clients=3, modules=2, calls_per_client=12, seed=99,
                       **shape)
    engine = TrafficEngine(spec)
    result = engine.run()
    return engine, result, log


def sink_calls(log):
    return [(i, entry) for i, entry in enumerate(log)
            if entry[0] in ("flush", "service")]


@pytest.mark.parametrize("name", ["closed-static", "closed-service"])
def test_closed_arrivals_advance_then_call_the_sink(monkeypatch, name):
    engine, result, log = hooked_run(monkeypatch, SHAPES[name])
    calls = sink_calls(log)
    assert calls
    delays = {state.index: [] for state in engine.clients}
    for i, (_, state, count, scheduled_at) in calls:
        assert scheduled_at is None
        assert i > 0 and log[i - 1][0] == "advance"
        _, _, due, now = log[i - 1]
        delays[state.index].extend([max(0.0, now - due)] * count)
    # the audit's measured delays pair one-to-one with the service times
    for state in engine.clients:
        assert len(delays[state.index]) == len(state.latencies_us)
    assert sum(len(d) for d in delays.values()) == len(result.latencies_us)


@pytest.mark.parametrize("name", ["open-static", "open-service"])
def test_open_arrivals_pass_their_schedule(monkeypatch, name):
    engine, result, log = hooked_run(monkeypatch, SHAPES[name])
    calls = sink_calls(log)
    assert len(calls) == engine.spec.clients * engine.spec.calls_per_client
    assert all(entry[3] is not None for _, entry in calls)
    # scheduled times arrive in firing order
    times = [entry[3] for _, entry in calls]
    assert times == sorted(times)
    assert len(result.queue_delays_us) == len(result.latencies_us)


def test_adaptive_flushes_record_a_delay_per_held_call(monkeypatch):
    engine, result, log = hooked_run(monkeypatch, SHAPES["mmpp-adaptive"])
    flushes = [entry for _, entry in sink_calls(log)]
    spec = engine.spec
    # the AIMD sink flushes its held queue through the static flush sink
    assert sum(count for _, _, count, _ in flushes) == \
        spec.clients * spec.calls_per_client
    assert max(count for _, _, count, _ in flushes) > 1
    for state in engine.clients:
        assert len(state.queue_delays_us) == len(state.latencies_us)
        assert not state.held_us
