"""Tracing is compiled out of the numbers: traced == untraced, byte for byte.

Mirror of ``tests/secmodule/test_trace_replay.py``'s differential-identity
harness, with the toggle being ``TrafficSpec.tracing`` instead of the
replay tier: every accounting observable — cycles, events, per-op counts,
latencies, queue delays, cache state — must be identical with the span
tracer attached or not, across every driver the engine has.  The span
trees themselves are one per flush and the same on every tier.
"""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.telemetry.trace_export import critical_path_report
from repro.workloads.traffic import TrafficEngine, TrafficSpec

from test_driver_books import OP_BY_OP, SPECS, make_spec


def run_engine(spec: TrafficSpec):
    engine = TrafficEngine(spec)
    result = engine.run()
    return engine, result


def accounting(engine, result):
    """Everything that must be identical with tracing on and off."""
    return {
        "cycles": engine.machine.clock.cycles,
        "events": engine.machine.clock.events,
        "ops": dict(engine.machine.meter.op_counts),
        "cache": result.cache_stats,
        "total_calls": result.total_calls,
        "denied": result.denied_calls,
        "latencies": result.latencies_us,
        "queue_delays": result.queue_delays_us,
        "dispatched": engine.extension.dispatcher.calls_dispatched,
        "broker": result.broker_stats,
        "sessions": result.session_count,
    }


def assert_traced_identical(**spec_kwargs):
    """Run the spec untraced and traced; the books must match exactly."""
    off_engine, off_result = run_engine(TrafficSpec(**spec_kwargs))
    on_engine, on_result = run_engine(
        TrafficSpec(tracing=True, **spec_kwargs))
    assert accounting(off_engine, off_result) == \
        accounting(on_engine, on_result)
    assert off_result.trace_spans == [] and off_result.trace_stats == {}
    assert on_result.trace_stats["started"] > 0
    assert on_result.trace_stats["open"] == 0     # everything drained
    return on_result


class TestDirectDispatch:
    def test_closed_loop(self):
        result = assert_traced_identical(
            clients=4, modules=2, calls_per_client=40)
        kinds = {span.kind for span in result.trace_spans}
        assert "dispatch.call" in kinds

    def test_open_loop(self):
        assert_traced_identical(
            clients=4, modules=2, calls_per_client=40, arrival="open")

    def test_mmpp(self):
        assert_traced_identical(
            clients=4, modules=2, calls_per_client=40, arrival="mmpp")

    def test_traced_runs_take_the_per_call_tiers(self):
        # depth-1 open-loop single-module: untraced, it fast-forwards
        spec = dict(clients=4, modules=1, calls_per_client=64,
                    arrival="open")
        untraced, _ = run_engine(TrafficSpec(**spec))
        assert untraced.extension.dispatcher.trace_cache.fast_forwards
        result = assert_traced_identical(**spec)
        dispatches = [span for span in result.trace_spans
                      if span.kind == "dispatch.call"]
        assert len(dispatches) == 4 * 64
        assert {span.tier for span in dispatches} == {"op-by-op", "replay"}

    def test_batched(self):
        result = assert_traced_identical(
            clients=3, modules=2, calls_per_client=32, batch_size=4)
        assert any(span.kind == "dispatch.batch"
                   for span in result.trace_spans)

    def test_pooled_handles(self):
        assert_traced_identical(
            clients=4, modules=2, calls_per_client=24,
            handle_policy="pooled", pool_max_sessions=4)

    def test_adaptive_batching(self):
        assert_traced_identical(
            clients=3, modules=2, calls_per_client=32, arrival="open",
            adaptive_batch=True, adaptive_max_depth=8)


class TestViaService:
    def test_mmpp(self):
        result = assert_traced_identical(
            clients=4, modules=2, calls_per_client=16, arrival="mmpp",
            via_service=True)
        kinds = {span.kind for span in result.trace_spans}
        assert {"rpc.attach", "rpc.serve_call", "serve.call",
                "serve.resolve", "dispatch.call"} <= kinds

    def test_closed_loop_multi_tenant(self):
        assert_traced_identical(
            clients=4, modules=2, calls_per_client=12, via_service=True,
            service_tenants=2)

    def test_spans_form_trees(self):
        result = assert_traced_identical(
            clients=2, modules=1, calls_per_client=8, arrival="mmpp",
            via_service=True)
        by_id = {span.span_id: span for span in result.trace_spans}
        children = [span for span in result.trace_spans
                    if span.parent_id is not None]
        assert children
        for span in children:
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue              # evicted from the ring
            assert parent.start_us <= span.start_us
            assert span.end_us <= parent.end_us + 1e-9


class TestObservationCoexistence:
    def test_tracing_with_telemetry(self):
        # both observation planes at once must still not move the clock
        assert_traced_identical(
            clients=3, modules=2, calls_per_client=24, arrival="open",
            telemetry=True)

    def test_sampled_tracing_is_also_free(self):
        result = assert_traced_identical(
            clients=6, modules=2, calls_per_client=16,
            trace_sample_every=3)
        assert result.trace_stats["sampled_out"] > 0

    def test_bounded_recorder_is_also_free(self):
        result = assert_traced_identical(
            clients=4, modules=2, calls_per_client=32, trace_capacity=16)
        assert result.trace_stats["recorded"] == 16
        assert result.trace_stats["dropped"] > 0


class TestSpecValidation:
    def test_tracing_rejects_sharded_runs(self):
        with pytest.raises(SimulationError):
            TrafficSpec(clients=4, tracing=True, shards=2)

    def test_sampling_knobs_validate(self):
        with pytest.raises(SimulationError):
            TrafficSpec(tracing=True, trace_sample_every=0)
        with pytest.raises(SimulationError):
            TrafficSpec(tracing=True, trace_capacity=-1)


def span_tree(result):
    """Each span as (kind, parent kind, start, end, client)."""
    kinds = {span.span_id: span.kind for span in result.trace_spans}
    return [(span.kind, kinds.get(span.parent_id), span.start_us,
             span.end_us, span.client_id) for span in result.trace_spans]


class TestOneTreePerRequest:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_waits_have_a_request_and_trees_match_across_tiers(self, name):
        spec = replace(make_spec(SPECS[name]), tracing=True)
        trees = []
        for config in (None, OP_BY_OP):
            result = TrafficEngine(spec, dispatch_config=config).run()
            by_id = {span.span_id: span for span in result.trace_spans}
            for span in result.trace_spans:
                parent = by_id.get(span.parent_id)
                if parent is None:
                    assert span.kind in ("traffic.request", "rpc.attach")
                else:
                    assert parent.start_us <= span.start_us
                    assert span.end_us <= parent.end_us + 1e-9
            trees.append(span_tree(result))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("spec_kwargs", [
        dict(arrival="mmpp", via_service=True, clients=4, modules=2,
             calls_per_client=16),
        dict(arrival="open", clients=4, modules=2, calls_per_client=16),
        dict(arrival="open", clients=3, modules=2, calls_per_client=16,
             batch_size=4),
        dict(arrival="open", clients=3, calls_per_client=16, batch_size=2,
             shed_deadline_us=25.0, mean_interval_us=5.0),
    ], ids=["service-mmpp", "direct-open", "direct-open-d4",
            "direct-open-shed"])
    def test_requests_are_flushes_and_segments_fit_the_request(
            self, spec_kwargs):
        result = TrafficEngine(TrafficSpec(tracing=True,
                                           **spec_kwargs)).run()
        kinds = {span.span_id: span.kind for span in result.trace_spans}
        waits = [(span.kind, kinds.get(span.parent_id))
                 for span in result.trace_spans
                 if span.kind.startswith("broker.")]
        spec = result.spec
        flushes = spec.clients * -(-spec.calls_per_client // spec.batch_size)
        # every flush either waited or was shed, once, under its request
        assert len(waits) == flushes
        assert set(waits) == {("broker.queue_wait", "traffic.request")} | (
            {("broker.shed", "traffic.request")}
            if spec.shed_deadline_us else set())
        report = critical_path_report(result.trace_spans)
        attaches = sum(span.kind == "rpc.attach"
                       for span in result.trace_spans)
        assert attaches == (spec.clients * spec.modules
                            if spec.via_service else 0)
        assert report["requests"] == report["roots"] == flushes + attaches
        total_mean = report["total_us"]["mean"]
        for summary in report["segments"].values():
            assert summary["mean"] <= total_mean
