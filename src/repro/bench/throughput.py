"""Aggregate-throughput benchmark: the ``abl-throughput`` experiment.

Drives the multi-client traffic engine (``repro.workloads.traffic``) at a
configurable client count and reports the numbers a capacity planner would
ask for — aggregate calls/sec of virtual time, per-client latency
percentiles — plus the decision-cache ablation: the same workload with the
static-chain policy evaluated on every call (the paper's design point) vs
memoized in the decision cache, so the cycles/call reduction is visible in
the same cycle accounting the Figure 8 rows use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..secmodule.dispatch import DispatchConfig
from ..workloads.traffic import TrafficResult, TrafficSpec, run_traffic
from .report import render_table

#: Default scale of the headline run (the acceptance bar is >= 32 clients).
DEFAULT_CLIENTS = 32
DEFAULT_MODULES = 2
DEFAULT_CALLS_PER_CLIENT = 24


@dataclass
class ThroughputReport:
    """Cached vs uncached traffic runs plus the derived ablation numbers."""

    spec: TrafficSpec
    cached: TrafficResult
    uncached: TrafficResult
    open_loop: Optional[TrafficResult] = None

    @property
    def cycles_saved_per_call(self) -> float:
        return self.uncached.cycles_per_call - self.cached.cycles_per_call

    @property
    def speedup(self) -> float:
        if self.cached.cycles_per_call == 0:
            return 0.0
        return self.uncached.cycles_per_call / self.cached.cycles_per_call

    def _row(self, label: str, result: TrafficResult) -> List[object]:
        return [
            label,
            f"{result.calls_per_second:,.0f}",
            f"{result.cycles_per_call:,.0f}",
            f"{result.latency_percentile(50):.3f}",
            f"{result.latency_percentile(95):.3f}",
            f"{result.latency_percentile(99):.3f}",
            result.denied_calls,
            result.cache_stats["hits"],
        ]

    def render(self) -> str:
        spec = self.spec
        rows = [
            self._row("per-call policy check (paper)", self.uncached),
            self._row("decision cache", self.cached),
        ]
        if self.open_loop is not None:
            rows.append(self._row("decision cache, open-loop arrivals",
                                  self.open_loop))
        table = render_table(
            ["configuration", "calls/sec", "cycles/call", "p50 us",
             "p95 us", "p99 us", "denied", "cache hits"],
            rows,
            title=(f"Aggregate throughput: {spec.clients} clients x "
                   f"{spec.modules} modules, {spec.calls_per_client} "
                   f"calls/client, {spec.policy_kind!r} policy chain"))
        summary = (
            f"\ndecision cache saves {self.cycles_saved_per_call:,.0f} "
            f"cycles/call ({self.speedup:.2f}x) vs per-call policy "
            f"evaluation; cache hit rate "
            f"{self.cached.cache_stats['hits']}/"
            f"{self.cached.cache_stats['hits'] + self.cached.cache_stats['misses']}"
            f"; session table shards: {self.cached.shard_sizes}")
        if self.open_loop is not None and self.open_loop.queue_delays_us:
            summary += (
                f"\nopen-loop queueing delay: "
                f"p50={self.open_loop.queue_delay_percentile(50):.3f}us "
                f"p99={self.open_loop.queue_delay_percentile(99):.3f}us")
        # the full counter sets (previously measured but never shown)
        summary += (
            "\ncache_stats (cached run): "
            + " ".join(f"{k}={v}" for k, v in
                       sorted(self.cached.cache_stats.items()))
            + f"\nbroker_stats (cached run): "
            + " ".join(f"{k}={v}" for k, v in
                       sorted(self.cached.broker_stats.items()))
            + f" handle_count={self.cached.handle_count}")
        return table + summary

    def as_dict(self) -> Dict[str, object]:
        def result_dict(result: TrafficResult) -> Dict[str, object]:
            return {
                "total_calls": result.total_calls,
                "denied_calls": result.denied_calls,
                "elapsed_us": result.elapsed_us,
                "total_cycles": result.total_cycles,
                "cycles_per_call": result.cycles_per_call,
                "calls_per_second": result.calls_per_second,
                "latency_us": {
                    "p50": result.latency_percentile(50),
                    "p95": result.latency_percentile(95),
                    "p99": result.latency_percentile(99),
                },
                "queue_delay_p99_us": result.queue_delay_percentile(99),
                "cache_stats": dict(result.cache_stats),
                "broker_stats": dict(result.broker_stats),
                "handle_count": result.handle_count,
                "session_count": result.session_count,
            }

        payload: Dict[str, object] = {
            "clients": self.spec.clients,
            "modules": self.spec.modules,
            "calls_per_client": self.spec.calls_per_client,
            "policy_kind": self.spec.policy_kind,
            "cached": result_dict(self.cached),
            "uncached": result_dict(self.uncached),
            "cycles_saved_per_call": self.cycles_saved_per_call,
            "speedup": self.speedup,
        }
        if self.open_loop is not None:
            payload["open_loop"] = result_dict(self.open_loop)
        return payload


def run_throughput(*, clients: int = DEFAULT_CLIENTS,
                   modules: int = DEFAULT_MODULES,
                   calls_per_client: int = DEFAULT_CALLS_PER_CLIENT,
                   policy_kind: str = "static",
                   seed: int = 0xB07_7E57,
                   include_open_loop: bool = True) -> ThroughputReport:
    """Run the cached/uncached pair (and optionally an open-loop run)."""
    spec = TrafficSpec(clients=clients, modules=modules,
                       calls_per_client=calls_per_client,
                       policy_kind=policy_kind, seed=seed)
    cached = run_traffic(spec, dispatch_config=DispatchConfig(
        use_decision_cache=True))
    uncached = run_traffic(spec, dispatch_config=DispatchConfig(
        use_decision_cache=False))
    open_loop = None
    if include_open_loop:
        open_spec = TrafficSpec(clients=clients, modules=modules,
                                calls_per_client=calls_per_client,
                                policy_kind=policy_kind, seed=seed,
                                arrival="open")
        open_loop = run_traffic(open_spec, dispatch_config=DispatchConfig(
            use_decision_cache=True))
    return ThroughputReport(spec=spec, cached=cached, uncached=uncached,
                            open_loop=open_loop)
