"""The benchmark's four traffic workloads.

Each workload is a :class:`~repro.workloads.traffic.TrafficSpec` shape plus
two lengths: the full length every timed repetition runs, and a reduced
length for the per-run tier-identity check (op-by-op against the default
tiers).  The benchmark's ``--seed`` becomes the spec's seed; the program
under test receives only the generated spec.

Why each workload was chosen, and what it bypasses, is in ``README.md``
and, one line each, in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping


@dataclass(frozen=True)
class Workload:
    name: str
    #: TrafficSpec keyword arguments, minus the seed and the length
    shape: Mapping[str, Any]
    #: calls per client of one timed repetition
    calls_per_client: int
    #: calls per client of the reduced tier-identity check
    check_calls_per_client: int

    @property
    def open_loop(self) -> bool:
        return self.shape.get("arrival", "closed") in ("open", "mmpp")

    def spec_kwargs(self, seed: int, *, reduced: bool = False) -> Dict[str, Any]:
        """The TrafficSpec arguments for one run (JSON-serialisable)."""
        kwargs = dict(self.shape)
        kwargs["seed"] = seed
        kwargs["calls_per_client"] = (self.check_calls_per_client if reduced
                                      else self.calls_per_client)
        return kwargs

    def spec(self, seed: int, *, reduced: bool = False):
        from repro.workloads.traffic import TrafficSpec
        return TrafficSpec(**self.spec_kwargs(seed, reduced=reduced))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ff-steady",
        shape=dict(clients=4, modules=1, arrival="open",
                   mean_interval_us=40.0, batch_size=1,
                   policy_kind="static", telemetry=False),
        calls_per_client=50_000,
        check_calls_per_client=2_000),
    Workload(
        name="opbyop-quota",
        shape=dict(clients=8, modules=2, arrival="closed", think="pareto",
                   policy_kind="quota"),
        calls_per_client=1_000,
        check_calls_per_client=250),
    Workload(
        name="served-mmpp",
        shape=dict(clients=8, modules=2, arrival="mmpp",
                   mean_interval_us=1600.0, burst_interval_us=200.0,
                   via_service=True, handle_policy="pooled",
                   pool_max_sessions=4, service_tenants=2,
                   shed_deadline_us=500.0, telemetry=True, tracing=True,
                   trace_sample_every=4),
        calls_per_client=500,
        check_calls_per_client=125),
    Workload(
        name="adaptive-p95",
        shape=dict(clients=8, modules=2, arrival="mmpp",
                   mean_interval_us=600.0, burst_interval_us=75.0,
                   adaptive_batch=True, telemetry=True,
                   service_p95_target_us=20.0),
        calls_per_client=2_000,
        check_calls_per_client=400),
)}
