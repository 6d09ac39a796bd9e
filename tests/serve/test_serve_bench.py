"""The abl-serve sweep: flat costs, deterministic export, harness wiring."""

from __future__ import annotations

import json

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.serve import FAST_SESSIONS, run_serve_sweep


@pytest.fixture(scope="module")
def report():
    return run_serve_sweep(sessions=FAST_SESSIONS)


class TestServeSweep:
    def test_lookup_costs_flat_across_the_sweep(self, report):
        assert report.lookup_ops_flat()
        assert report.lookup_cost_flat()
        # tenant walk + shard lock, exactly, at every point
        assert all(p.lookup_ops_per_probe == 2.0 for p in report.points)

    def test_attach_and_detach_flat_across_the_sweep(self, report):
        # the attach MEAN carries a fixed per-point setup constant (first
        # handle fork) amortized over N; the marginal cost is exactly flat
        # (pinned in test_scaling.py), so the means converge within 0.1%
        attach = [p.attach_cycles_per_session for p in report.points]
        assert max(attach) / min(attach) < 1.001
        detach = {p.detach_cycles_per_op for p in report.points}
        assert len(detach) == 1

    def test_pool_leg_accumulates_deterministic_waits(self, report):
        for point in report.points:
            stats = point.pool_stats
            assert stats["checkouts"] == 128
            assert stats["waits"] > 0
            assert stats["refusals"] == 0
            assert stats["mean_wait_us"] > 0

    def test_report_export_is_deterministic_and_virtual_only(self, report):
        payload = report.as_dict()
        json.dumps(payload)
        # no host-side metric may leak into the byte-gated data section
        flat = json.dumps(payload)
        for banned in ("wall", "rss", "perf_counter"):
            assert banned not in flat
        again = run_serve_sweep(sessions=FAST_SESSIONS).as_dict()
        assert payload == again

    def test_render_reports_the_flatness_verdict(self, report):
        rendered = report.render()
        assert "lookup op count flat across table sizes: yes" in rendered
        assert "pool leg" in rendered

    def test_registered_in_the_harness(self):
        spec = EXPERIMENTS["abl-serve"]
        assert spec.kind == "ablation"
        assert spec.runner is run_serve_sweep

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            run_serve_sweep(sessions=())
        with pytest.raises(ValueError):
            run_serve_sweep(sessions=(10,), tenants=0)
