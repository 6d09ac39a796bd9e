"""Simulator-speed benchmark: the ``abl-simspeed`` experiment.

Every other experiment in this repo measures *virtual* time — cycles the
simulated kernel charges for the protection mechanisms under study.  This
one measures the simulator itself: wall-clock protected calls per second
across the three execution tiers over the same deterministic steady-state
traffic workload:

* **op-by-op** — every protected call executes its full charge sequence
  (``use_trace_replay=False``);
* **replay** — hot calls replay their recorded trace as one aggregated
  clock charge (``use_trace_replay=True, use_fast_forward=False``);
* **fast-forward** — hot calls accumulate into open windows settled by a
  single closed-form ``CallTrace.scaled(n)`` charge
  (``use_trace_replay=True, use_fast_forward=True``), plus sharded
  parallel legs (``run_traffic_sharded``) at 1 and N workers.

The point is the ROADMAP's "runs as fast as the hardware allows" leg
applied to our own hot path: the interception-layer literature (arXiv:
1803.07495) argues a measurement path must be cheap or it bounds what you
can measure, and here the op-by-op execution of the fixed per-call charge
sequence is exactly such a bound — it caps how many calls
``abl-throughput`` and ``abl-adaptive`` can push through a run.

**Identity first, speed second.**  The slow tiers cannot run 10^7 calls
in tolerable wall time, so the report separates the two questions: every
tier (and both sharded worker counts) runs the *identity size* and must
agree byte-for-byte on machine cycles, clock events and the full op
histogram; only then do the rate legs — each tier at its own size cap,
fast-forward at the full requested count — earn a reported speedup.  A
fast path that changes the measured numbers is not a fast path, it is a
bug, and the report refuses to claim a speedup for it.

Wall-clock legs run with the cyclic GC paused (standard benchmarking
hygiene; at 10^7 calls collector sweeps over the result vectors would
otherwise dominate) — virtual accounting is unaffected.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..secmodule.dispatch import DispatchConfig
from ..workloads.shard import ShardedTrafficResult, run_traffic_sharded
from ..workloads.traffic import TrafficEngine, TrafficSpec
from .report import render_table

#: Fast-forward-tier protected calls (10^5 default; the CLI scales to 10^7).
DEFAULT_CALLS = 100_000
#: CI smoke size.
FAST_CALLS = 4_000
DEFAULT_CLIENTS = 4
DEFAULT_SEED = 0x51A_57
#: All tiers and worker counts run this size for the byte-identity check;
#: it doubles as the op-by-op tier's rate cap (~6 s of wall time).
IDENTITY_CALLS = 20_000
#: Replay-tier rate cap — enough for a steady rate without minutes of wall.
REPLAY_RATE_CALLS = 200_000
#: Sharded-leg size cap (both worker counts run it; identity-compared).
SHARDED_RATE_CALLS = 100_000
DEFAULT_SHARDS = 2
DEFAULT_WORKERS = 2

OP_BY_OP = "op-by-op"
REPLAY = "replay"
FAST_FORWARD = "fast-forward"

#: tier label -> dispatch configuration
TIER_CONFIGS: Dict[str, DispatchConfig] = {
    OP_BY_OP: DispatchConfig(use_trace_replay=False, use_fast_forward=False),
    REPLAY: DispatchConfig(use_trace_replay=True, use_fast_forward=False),
    FAST_FORWARD: DispatchConfig(use_trace_replay=True,
                                 use_fast_forward=True),
}


@dataclass
class SimspeedLeg:
    """One measured run: a tier at a size, serial or sharded."""

    label: str
    tier: str
    total_calls: int
    wall_seconds: float
    total_cycles: int
    clock_events: int
    op_counts: Dict[str, int] = field(default_factory=dict)
    shards: int = 1
    workers: int = 1
    #: True for the runs whose accounting feeds the identity cross-check
    identity_leg: bool = False

    @property
    def calls_per_wall_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_calls / self.wall_seconds

    @property
    def wall_us_per_call(self) -> float:
        if self.total_calls == 0:
            return 0.0
        return self.wall_seconds * 1e6 / self.total_calls


@dataclass
class SimspeedReport:
    """All measured legs plus the byte-identity cross-checks."""

    calls: int
    clients: int
    modules: int
    seed: int
    identity_calls: int = IDENTITY_CALLS
    legs: List[SimspeedLeg] = field(default_factory=list)
    #: the fast-forward rate leg's trace-cache statistics
    trace_stats: Dict[str, int] = field(default_factory=dict)
    #: sharded runs at 1 vs N workers produced byte-identical merged
    #: accounting (set by ``run_simspeed``; None when sharding was skipped)
    workers_identical: Optional[bool] = None

    def leg(self, tier: str, *, identity: Optional[bool] = None,
            workers: Optional[int] = None) -> SimspeedLeg:
        for leg in self.legs:
            if leg.tier != tier:
                continue
            if identity is not None and leg.identity_leg != identity:
                continue
            if workers is not None and leg.workers != workers:
                continue
            return leg
        raise KeyError((tier, identity, workers))

    def _identity_legs(self) -> List[SimspeedLeg]:
        return [leg for leg in self.legs if leg.identity_leg]

    # -- the acceptance-bar checks ------------------------------------------
    @property
    def cycles_identical(self) -> bool:
        legs = self._identity_legs()
        return all(leg.total_cycles == legs[0].total_cycles
                   and leg.clock_events == legs[0].clock_events
                   for leg in legs)

    @property
    def ops_identical(self) -> bool:
        legs = self._identity_legs()
        return all(leg.op_counts == legs[0].op_counts for leg in legs)

    @property
    def identical(self) -> bool:
        return (self.cycles_identical and self.ops_identical
                and self.workers_identical is not False)

    @property
    def speedup(self) -> float:
        """Wall calls/sec of the fast-forward tier over op-by-op.

        Reported as 0 when any identity check failed: a fast path that
        changes the measured numbers is not a fast path, it is a bug.
        """
        if not self.identical:
            return 0.0
        slow = self.leg(OP_BY_OP).calls_per_wall_second
        fast = self.leg(FAST_FORWARD, identity=False).calls_per_wall_second
        if slow <= 0:
            return 0.0
        return fast / slow

    @property
    def replay_speedup(self) -> float:
        if not self.identical:
            return 0.0
        slow = self.leg(OP_BY_OP).calls_per_wall_second
        fast = self.leg(REPLAY, identity=False).calls_per_wall_second
        if slow <= 0:
            return 0.0
        return fast / slow

    #: total simulated calls across every executed leg (for the export's
    #: calls_per_wall_second field)
    @property
    def bench_total_calls(self) -> int:
        return sum(leg.total_calls for leg in self.legs)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        rows = []
        for leg in self.legs:
            rows.append([
                leg.label,
                f"{leg.shards}x{leg.workers}" if leg.shards > 1 else "-",
                f"{leg.total_calls:,}",
                f"{leg.wall_seconds:.3f}",
                f"{leg.calls_per_wall_second:,.0f}",
                f"{leg.wall_us_per_call:.2f}",
                f"{leg.total_cycles:,}",
            ])
        table = render_table(
            ["tier", "shards", "calls", "wall sec", "calls/sec (wall)",
             "wall us/call", "virtual cycles"],
            rows,
            title=(f"Simulator speed: {self.clients} clients x "
                   f"{self.modules} module(s), open-loop steady traffic, "
                   f"depth 1"))
        identity = ("byte-identical (cycles, events, op histogram)"
                    if self.cycles_identical and self.ops_identical
                    else "MISMATCH — the fast tiers are buggy")
        if self.workers_identical is None:
            workers = "skipped"
        elif self.workers_identical:
            workers = "byte-identical across worker counts"
        else:
            workers = "MISMATCH — shard merge is buggy"
        stats = self.trace_stats
        summary = (
            f"\ntier accounting at {self.identity_calls:,} calls: {identity}"
            f"\nsharded merge: {workers}"
            f"\nwall-clock speedup, fast-forward vs op-by-op: "
            f"{self.speedup:.1f}x (replay tier: {self.replay_speedup:.1f}x;"
            f" target >= 100x)"
            f"\ntrace cache: {stats.get('records', 0)} records, "
            f"{stats.get('confirms', 0)} confirms, "
            f"{stats.get('replays', 0)} replays, "
            f"{stats.get('fast_forward_calls', 0)} fast-forwarded calls, "
            f"{stats.get('hot', 0)} hot entries")
        return table + summary


def _spec(calls: int, clients: int, modules: int, seed: int,
          shards: int = 1) -> TrafficSpec:
    return TrafficSpec(clients=clients, modules=modules,
                       calls_per_client=calls // clients,
                       arrival="open", seed=seed, shards=shards)


def _run_serial_leg(spec: TrafficSpec, tier: str, *,
                    identity_leg: bool) -> Tuple[SimspeedLeg, Dict[str, int]]:
    """Build the system (untimed), then time the traffic run itself."""
    engine = TrafficEngine(spec, dispatch_config=TIER_CONFIGS[tier])
    engine.build()
    start = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - start
    leg = SimspeedLeg(
        label=tier,
        tier=tier,
        total_calls=result.total_calls,
        wall_seconds=wall,
        total_cycles=engine.machine.clock.cycles,
        clock_events=engine.machine.clock.events,
        op_counts=dict(engine.machine.meter.op_counts),
        identity_leg=identity_leg,
    )
    return leg, engine.extension.dispatcher.trace_cache.snapshot()


def _sharded_accounting(sharded: ShardedTrafficResult) -> Dict[str, object]:
    """Everything the worker-count identity check compares, in one dict."""
    result = sharded.result
    return {
        "total_calls": result.total_calls,
        "denied_calls": result.denied_calls,
        "elapsed_us": result.elapsed_us,
        "total_cycles": result.total_cycles,
        "per_client_mean_us": result.per_client_mean_us,
        "latencies_us": result.latencies_us,
        "queue_delays_us": result.queue_delays_us,
        "cache_stats": result.cache_stats,
        "shard_sizes": result.shard_sizes,
        "session_count": result.session_count,
        "handle_count": result.handle_count,
        "broker_stats": result.broker_stats,
        "metrics": repr(result.metrics),
        "seat_fairness": repr(result.seat_fairness),
        "machine_cycles": sharded.machine_cycles,
        "clock_events": sharded.clock_events,
        "op_counts": sharded.op_counts,
        "trace_stats": sharded.trace_stats,
    }


def _run_sharded_leg(spec: TrafficSpec, *, workers: int
                     ) -> Tuple[SimspeedLeg, Dict[str, object]]:
    start = time.perf_counter()
    sharded = run_traffic_sharded(spec,
                                  dispatch_config=TIER_CONFIGS[FAST_FORWARD],
                                  workers=workers)
    wall = time.perf_counter() - start
    leg = SimspeedLeg(
        label=f"fast-forward sharded w{workers}",
        tier=FAST_FORWARD,
        total_calls=sharded.result.total_calls,
        wall_seconds=wall,
        total_cycles=sharded.machine_cycles,
        clock_events=sharded.clock_events,
        op_counts=sharded.op_counts,
        shards=spec.shards,
        workers=workers,
    )
    return leg, _sharded_accounting(sharded)


def run_simspeed(*, calls: int = DEFAULT_CALLS,
                 clients: int = DEFAULT_CLIENTS, modules: int = 1,
                 seed: int = DEFAULT_SEED, shards: int = DEFAULT_SHARDS,
                 workers: int = DEFAULT_WORKERS) -> SimspeedReport:
    """Measure wall-clock calls/sec across the three execution tiers.

    ``calls`` sizes the fast-forward rate leg (split across the clients);
    the slower tiers are capped (op-by-op at the identity size, replay at
    ``REPLAY_RATE_CALLS``) so the benchmark stays tolerable at 10^7.
    Every tier runs the identity size, where the virtual accounting must
    match to the byte — only wall time may move between tiers.  Sharded
    fast-forward legs run at 1 and ``workers`` workers over ``shards``
    client groups; their merged accounting must match each other exactly.
    """
    if clients < 1:
        raise ValueError("simspeed needs at least one client")
    if calls < clients:
        raise ValueError("simspeed needs at least one call per client")
    identity_calls = min(calls, IDENTITY_CALLS)
    shards = max(1, min(shards, clients))
    report = SimspeedReport(calls=calls, clients=clients, modules=modules,
                            seed=seed, identity_calls=identity_calls)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # identity block: all three tiers at one size, byte-compared
        for tier in (OP_BY_OP, REPLAY, FAST_FORWARD):
            leg, _ = _run_serial_leg(
                _spec(identity_calls, clients, modules, seed), tier,
                identity_leg=True)
            report.legs.append(leg)

        # rate legs: replay and fast-forward at their own sizes (the
        # op-by-op identity leg doubles as its rate leg)
        replay_calls = min(calls, REPLAY_RATE_CALLS)
        leg, _ = _run_serial_leg(
            _spec(replay_calls, clients, modules, seed), REPLAY,
            identity_leg=False)
        report.legs.append(leg)
        leg, trace_stats = _run_serial_leg(
            _spec(calls, clients, modules, seed), FAST_FORWARD,
            identity_leg=False)
        report.legs.append(leg)
        report.trace_stats = trace_stats

        # sharded legs: same workload split over independent client
        # groups, serial in process vs on worker processes
        if shards > 1:
            sharded_calls = min(calls, SHARDED_RATE_CALLS)
            sharded_spec = _spec(sharded_calls, clients, modules, seed,
                                 shards=shards)
            leg_one, acct_one = _run_sharded_leg(sharded_spec, workers=1)
            report.legs.append(leg_one)
            if workers > 1:
                leg_n, acct_n = _run_sharded_leg(sharded_spec,
                                                 workers=workers)
                report.legs.append(leg_n)
                report.workers_identical = acct_one == acct_n
            else:
                report.workers_identical = True
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    return report
