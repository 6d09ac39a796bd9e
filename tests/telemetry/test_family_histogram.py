"""The live family histogram and the adaptive controller's p95 feed.

``MetricsRegistry.family`` keeps one exact aggregate per requested
histogram family, fed at record time.  These tests pin its contract: it
equals ``LogHistogram.merged`` of the family's members on everything a
quantile reads, it never shows up in the registry's own views, and the
adaptive p95 feed reads it instead of walking the registry.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import adaptive
from repro.telemetry import LogHistogram, MetricsRegistry
from repro.workloads import traffic
from repro.workloads.traffic import TrafficEngine, TrafficSpec

FAMILY = "flush_service_us"
PERCENTILES = (0, 50, 95, 99, 100)

samples = st.one_of(
    st.sampled_from([0.0, -0.0, -3.5, 1.0, 6.4]),
    st.floats(min_value=-1e6, max_value=1e9,
              allow_nan=False, allow_infinity=False))

#: one step of a record stream: record ``n`` copies of a sample into a
#: member of the family (or of an unrelated family), merge a histogram of
#: samples into a member, or read the family
steps = st.one_of(
    st.tuples(st.just("record"), st.sampled_from([FAMILY, "other"]),
              st.integers(min_value=0, max_value=5), samples,
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("merge"), st.sampled_from([FAMILY, "other"]),
              st.integers(min_value=0, max_value=5),
              st.lists(samples, max_size=5)),
    st.tuples(st.just("read")))

record_streams = st.lists(steps, min_size=1, max_size=60)


def apply(registry, step):
    """Apply one record or merge step to ``registry``."""
    kind, name, session, *args = step
    member = registry.histogram(name, session=session)
    if kind == "record":
        value, n = args
        member.record(value, n=n)
    else:
        incoming = LogHistogram()
        for value in args[0]:
            incoming.record(value)
        member.merge(incoming)


def replay(registry, stream, *, read_family):
    """Apply ``stream`` to ``registry``; return the family at every read."""
    reads = []
    for step in stream:
        if step[0] == "read":
            if read_family:
                reads.append(registry.family(FAMILY))
        else:
            apply(registry, step)
    return reads


def assert_matches_members(registry, family):
    reference = LogHistogram.merged(
        histogram for _, histogram in registry.histograms_named(FAMILY))
    assert family._buckets == reference._buckets
    assert family.count == reference.count
    assert family.zeros == reference.zeros
    assert family.minimum == reference.minimum
    assert family.maximum == reference.maximum
    for p in PERCENTILES:
        assert family.quantile(p) == reference.quantile(p)
    # only the float total may differ, by summation order
    scale = sum(abs(h.total) for _, h in registry.histograms_named(FAMILY))
    assert math.isclose(family.total, reference.total,
                        rel_tol=1e-9, abs_tol=1e-9 * max(1.0, scale))


class TestLiveFamilyIsExact:
    @settings(max_examples=200, deadline=None)
    @given(record_streams)
    def test_family_equals_merged_members_at_every_read(self, stream):
        registry = MetricsRegistry()
        for step in stream:
            if step[0] == "read":
                assert_matches_members(registry, registry.family(FAMILY))
            else:
                apply(registry, step)
        assert_matches_members(registry, registry.family(FAMILY))

    @settings(max_examples=100, deadline=None)
    @given(record_streams)
    def test_family_is_one_live_object(self, stream):
        registry = MetricsRegistry()
        reads = replay(registry, stream, read_family=True)
        family = registry.family(FAMILY)
        assert all(read is family for read in reads)

    @settings(max_examples=100, deadline=None)
    @given(record_streams)
    def test_reading_the_family_leaves_snapshots_byte_identical(self, stream):
        read, unread = MetricsRegistry(), MetricsRegistry()
        replay(read, stream, read_family=True)
        read.family(FAMILY)
        replay(unread, stream, read_family=False)
        assert len(read) == len(unread)
        assert repr(read.snapshot()) == repr(unread.snapshot())
        assert repr(read.export_state()) == repr(unread.export_state())

    def test_members_created_after_the_first_read_feed_the_family(self):
        registry = MetricsRegistry()
        registry.histogram(FAMILY, session=1).record(4.0)
        family = registry.family(FAMILY)
        registry.histogram(FAMILY, session=2).record(40.0, n=3)
        registry.histogram("other", session=2).record(4000.0)
        assert family.count == 4
        assert family.maximum == 40.0
        assert_matches_members(registry, family)

    def test_unrequested_family_is_empty_and_costs_nothing(self):
        registry = MetricsRegistry()
        assert registry.family("never_recorded").count == 0
        assert len(registry) == 0
        assert registry.snapshot()["histograms"] == {}


#: tight target from the overload suite's p95-feed test: p95_shrinks > 0
TIGHT_TARGET = dict(clients=2, modules=1, calls_per_client=48,
                    arrival="open", mean_interval_us=2.0,
                    adaptive_batch=True, telemetry=True,
                    service_p95_target_us=0.5, seed=0xF33D)

#: bursty arrivals that grow the depth, with a target the bursts overrun
MMPP = dict(clients=2, modules=1, calls_per_client=300, arrival="mmpp",
            mean_interval_us=48.0, burst_interval_us=1.5,
            burst_on_us=400.0, burst_off_us=1200.0,
            adaptive_batch=True, adaptive_max_depth=32, telemetry=True,
            service_p95_target_us=30.0, seed=11)


def run_with_checked_feed(monkeypatch, spec_kwargs):
    """Run ``spec_kwargs`` with every p95 read checked against a full merge.

    Returns the run's result and the p95 values the controllers read.
    """
    engine = TrafficEngine(TrafficSpec(**spec_kwargs))
    engine.build()
    registry = engine.telemetry.registry
    seen = []

    class CheckedController(adaptive.AdaptiveBatchController):
        @property
        def service_p95_supplier(self):
            return self._checked_supplier

        @service_p95_supplier.setter
        def service_p95_supplier(self, supplier):
            def checked():
                live = supplier()
                assert live == registry.merged_histogram(FAMILY).quantile(95)
                seen.append(live)
                return live
            self._checked_supplier = None if supplier is None else checked

    monkeypatch.setattr(traffic, "AdaptiveBatchController", CheckedController)
    return engine.run(), seen


class TestP95FeedReadsTheLiveFamily:
    def test_tight_target_feed_equals_the_merged_registry(self, monkeypatch):
        result, seen = run_with_checked_feed(monkeypatch, TIGHT_TARGET)
        assert seen
        assert sum(c["p95_shrinks"]
                   for c in result.adaptive["per_client"]) > 0

    def test_mmpp_feed_equals_the_merged_registry(self, monkeypatch):
        result, seen = run_with_checked_feed(monkeypatch, MMPP)
        assert len(seen) > 10
        assert len(set(seen)) > 1
        assert max(c["max_depth_reached"]
                   for c in result.adaptive["per_client"]) > 1

    @pytest.mark.parametrize("spec_kwargs", [TIGHT_TARGET, MMPP],
                             ids=["tight-target", "mmpp"])
    def test_flush_loop_never_walks_the_registry(self, monkeypatch,
                                                 spec_kwargs):
        def walk(self, name, **match):
            raise AssertionError(f"registry walk for {name!r} in a run")

        monkeypatch.setattr(MetricsRegistry, "histograms_named", walk)
        engine = TrafficEngine(TrafficSpec(**spec_kwargs))
        engine.build()
        # the end-of-run seat-fairness report walks the registry once,
        # after the flush loop; it is not what this guard is about
        monkeypatch.setattr(engine.extension.broker, "seat_delay_report",
                            lambda: {})
        result = engine.run()
        assert result.metrics["histograms"]
        assert sum(c["flushes"] for c in result.adaptive["per_client"]) > 0

