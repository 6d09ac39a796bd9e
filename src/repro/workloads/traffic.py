"""Multi-client traffic workloads: N clients × M modules under load.

The paper measures one client hammering one session; this workload layer
builds the multi-principal traffic the LSM-overhead literature argues is
the only setting where access-control cost is meaningful.  It drives many
concurrent clients — each holding one SecModule session *per module* via
the multi-session table — through a deterministic, seeded mix of protected
calls:

* ``test_incr`` — the paper's x+1 payload (the bulk of the traffic);
* ``getpid``    — the session-state fast path (SMOD-getpid);
* ``test_null`` — *denied* by the modules' function-denylist clause, so a
  configurable slice of the traffic exercises the EACCES unwind path.

Arrival is **closed-loop** (each client issues its next call after an
exponential think time following the previous completion), **open-loop**
(each client's arrivals are a pre-drawn Poisson process, independent of
completions), or **mmpp** (open-loop with bursty two-state Markov-modulated
interarrivals: short-interval ON bursts separated by long OFF lulls).  All
randomness comes from per-client child streams of one
:class:`~repro.sim.rng.DeterministicRNG`, so a given seed replays the exact
same interleaving, call mix and cycle totals.

Clients may also *batch*: with ``batch_size > 1`` each arrival event
flushes a queue of protected calls against one session through the batched
dispatch path, paying the trap and the two context switches once per queue.

Closed-loop think times are exponential by default but may be heavy-tailed
(``think="lognormal"``/``"pareto"``, same mean, fatter tail), and the
``handle_policy`` knob registers a broker pool policy for every traffic
module — ``"per_module"`` runs all of a module's sessions through one
shared handle co-process instead of forking one per session.

Two observation/control knobs ride on top: ``telemetry=True`` attaches the
telemetry plane (per-session latency histograms, batch-flush depths,
cache and per-seat queueing-delay counters — pure observation, cycle
totals unchanged) and ``adaptive_batch=True`` hands the flush depth to the
per-client AIMD controller in :mod:`repro.control.adaptive`, which grows
and shrinks the queue from the observed interarrival EWMA.

One driver runs every shape: an arrival source feeds a sink.
:meth:`TrafficEngine.run` holds the two sources, one loop each — the
closed loop (a think-time heap: each arrival idles the machine to its due
time with ``_advance_clock_to`` and calls the sink without a schedule) and
the open loop (one pass over the pre-drawn ``(times, indices)`` of
``_open_schedule_sorted``; each arrival calls the sink with its
``scheduled_at``).  The three sinks:

* ``_one_flush(state, count, *, scheduled_at=None)`` — a static flush of
  ``count`` calls at any depth, on any tier, with or without shedding.
  Fast-forward lives here: a flush whose trace key is HOT is only
  accumulated into an open window (``_ff_flush`` settles the windows);
* the AIMD sink (``_aimd_sink``) — holds each client's arrivals until its
  controller flushes them through ``_one_flush``, plus a final drain;
* ``_one_service_call(state, *, scheduled_at=None)`` — one call across the
  service plane's RPC surface.

``_one_flush`` and ``_one_service_call`` share one arrival prologue
(``_arrive``: module pick, open-loop clock advance, queueing delay, shed
gate and queue-delay taps).  The repository benchmark's audit hooks
``_advance_clock_to``, ``_one_flush`` and ``_one_service_call`` and reads
``_now_us``, so their names and signatures, and the closed loop's
advance-then-sink order, are a contract (``tests/workloads/
test_driver_hooks.py``).
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..control.adaptive import AdaptiveBatchController, AdaptiveConfig
from ..errors import SimulationError
from ..hw.machine import Machine, make_paper_machine
from ..kernel.kernel import Kernel
from ..obj.image import make_function_image
from ..secmodule.dispatch import DispatchConfig
from ..secmodule.handle_pool import HandlePolicy
from ..secmodule.module import CallEnvironment, SecModuleDefinition
from ..secmodule.policy import (
    CallQuotaPolicy,
    CompositePolicy,
    CredentialExpiryPolicy,
    FunctionDenyPolicy,
    Policy,
    PrincipalAllowPolicy,
    UidAllowPolicy,
)
from ..secmodule.protection import ProtectionMode
from ..secmodule.session import SessionDescriptor, build_requirements
from ..secmodule.smod_syscalls import SmodExtension, install_secmodule
from ..sim import costs
from ..sim.rng import DeterministicRNG, TwoStateMMPP
from ..sim.stats import mean, percentile
from ..telemetry import (
    NULL_TELEMETRY,
    NULL_TRACER,
    Telemetry,
    Tracer,
    make_telemetry,
)
from ..userland.process import Program

#: call-mix weights: (function name, relative weight)
DEFAULT_CALL_MIX: Tuple[Tuple[str, float], ...] = (
    ("test_incr", 0.70),
    ("getpid", 0.20),
    ("test_null", 0.10),          # denied by the function-denylist clause
)


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one multi-client traffic run."""

    clients: int = 8
    modules: int = 2
    calls_per_client: int = 32
    #: "closed" (think-time loop), "open" (Poisson arrivals) or "mmpp"
    #: (open-loop with bursty two-state on/off interarrivals)
    arrival: str = "closed"
    #: mean think / inter-arrival time, virtual microseconds (the OFF-state
    #: interarrival mean under "mmpp")
    mean_interval_us: float = 25.0
    #: "mmpp" only: ON-state (burst) interarrival mean and the mean sojourn
    #: in each state, all in virtual microseconds
    burst_interval_us: float = 4.0
    burst_on_us: float = 120.0
    burst_off_us: float = 480.0
    #: closed-loop think-time distribution: "exponential" (the classic
    #: M/M/1-style loop), "lognormal" or "pareto" (heavy-tailed think times;
    #: same mean, fatter tail).  Open-loop/mmpp schedules ignore this.
    think: str = "exponential"
    #: lognormal think: sigma of the underlying normal (tail weight)
    think_sigma: float = 1.0
    #: pareto think: tail index (must exceed 1 for a finite mean)
    think_alpha: float = 2.5
    #: calls queued per flush: 1 issues every call through the paper's
    #: single-call path; >1 flushes queues through sys_smod_call_batch
    batch_size: int = 1
    #: let the AIMD controller grow/shrink the flush depth per client from
    #: the observed interarrival EWMA (open-loop/mmpp arrivals only; the
    #: static batch_size knob must stay at 1)
    adaptive_batch: bool = False
    #: controller depth ceiling when adaptive_batch is on; a ceiling of 1
    #: pins every flush to the paper's single-call path (the AIMD floor)
    adaptive_max_depth: int = 64
    #: collect telemetry (per-session latency histograms, batch-flush
    #: depths, cache and per-seat queueing-delay counters) into the run's
    #: ``metrics`` snapshot; recording never charges the virtual clock, so
    #: cycle totals are identical with this on or off
    telemetry: bool = False
    #: handle attachment policy registered for every traffic module:
    #: "per_session" (the paper's 1:1 fork), "per_module" (one shared
    #: handle per module) or "pooled" (shared up to pool_max_sessions)
    handle_policy: str = "per_session"
    #: per-handle session cap when handle_policy="pooled"
    pool_max_sessions: int = 8
    #: one session per module per client (the multi-session engine); when
    #: False each client opens a single session naming every module
    multi_session: bool = True
    #: charge the per-shard lock-acquisition micro-op on session-table
    #: touches (the SMP build of the kernel; the paper's uniprocessor
    #: figures compile it out)
    smp_shard_locks: bool = True
    #: policy chain attached to every traffic module: "static" (cacheable),
    #: "quota", "expiry", or "deny-only"
    policy_kind: str = "static"
    #: quota for policy_kind="quota"
    quota_calls: int = 1 << 30
    #: partition the clients into this many independent groups for the
    #: sharded parallel runner (:mod:`repro.workloads.shard`).  Clients are
    #: assigned round-robin (client ``i`` → shard ``i % shards``); each
    #: shard runs its group on its own virtual machine/clock and the
    #: results merge deterministically, independent of worker count.  The
    #: in-process :class:`TrafficEngine` ignores this knob (it always runs
    #: the clients it was given).
    shards: int = 1
    #: attach the span tracer (causal span trees with virtual-microsecond
    #: timestamps: dispatch/broker/service-plane/RPC tap points, ring-buffer
    #: flight recorder, per-request critical-path segments).  Pure
    #: observation like telemetry: span timestamps read the clock and never
    #: charge it, so traced cycle totals are byte-identical to untraced
    #: ones (asserted differentially by the non-perturbation tests)
    tracing: bool = False
    #: deterministic head sampling: keep spans for 1 in every K clients,
    #: decided per client id from a seeded child stream (1 = trace all)
    trace_sample_every: int = 1
    #: flight-recorder capacity (spans retained); 0 takes the tracer default
    trace_capacity: int = 0
    #: route the run through the service plane: clients attach through a
    #: :class:`~repro.serve.frontend.ServiceFrontend` binding and every
    #: call crosses the smodserve RPC surface before dispatching.  Off by
    #: default — the paper's figures never construct a front-end and their
    #: charge sequence is untouched (asserted differentially).
    via_service: bool = False
    #: service-plane runs: spread clients round-robin over this many
    #: tenants (>1 switches the session table hierarchical)
    service_tenants: int = 1
    #: broker seat-queue deadline shedding (overload protection): an
    #: open-loop arrival whose queueing delay already exceeds this is shed
    #: at admission — one charged SERVE_SHED instead of a full dispatch
    #: nobody is waiting for.  0 = off (the default; byte-identical paths)
    shed_deadline_us: float = 0.0
    #: closed-loop AIMD feed: when set (>0, adaptive_batch+telemetry runs
    #: only) the controller also consumes the observed flush service-time
    #: p95 from telemetry and shrinks while it exceeds this target
    service_p95_target_us: float = 0.0
    call_mix: Tuple[Tuple[str, float], ...] = DEFAULT_CALL_MIX
    uid: int = 1000
    principal: str = "alice"
    seed: int = 0xB07_7E57

    def __post_init__(self) -> None:
        if self.clients < 1 or self.modules < 1 or self.calls_per_client < 1:
            raise SimulationError("traffic spec must be positive in all dims")
        if self.shards < 1 or self.shards > self.clients:
            raise SimulationError(
                "shards must be between 1 and the client count")
        if self.arrival not in ("closed", "open", "mmpp"):
            raise SimulationError(f"unknown arrival mode {self.arrival!r}")
        if self.think not in ("exponential", "lognormal", "pareto"):
            raise SimulationError(f"unknown think-time model {self.think!r}")
        if self.think == "pareto" and self.think_alpha <= 1.0:
            raise SimulationError("pareto think times need think_alpha > 1")
        if self.batch_size < 1:
            raise SimulationError("batch_size must be at least 1")
        if self.adaptive_batch:
            if self.arrival not in ("open", "mmpp"):
                raise SimulationError(
                    "adaptive batching needs open-loop arrivals "
                    "(arrival='open' or 'mmpp'): the controller tracks the "
                    "offered interarrival rate")
            if self.batch_size != 1:
                raise SimulationError(
                    "adaptive_batch replaces the static batch_size knob; "
                    "leave batch_size at 1")
            if self.adaptive_max_depth < 1:
                raise SimulationError("adaptive_max_depth must be >= 1")
        if self.trace_sample_every < 1:
            raise SimulationError("trace_sample_every must be >= 1")
        if self.trace_capacity < 0:
            raise SimulationError("trace_capacity must be >= 0")
        if self.tracing and self.shards > 1:
            raise SimulationError(
                "tracing is in-process (one flight recorder per engine); "
                "run it unsharded (shards=1)")
        if self.via_service:
            if self.batch_size != 1:
                raise SimulationError(
                    "via_service dispatch is per-call; leave batch_size at 1")
            if self.adaptive_batch:
                raise SimulationError(
                    "via_service and adaptive_batch are mutually exclusive")
            if self.service_tenants < 1:
                raise SimulationError("service_tenants must be >= 1")
        if self.shed_deadline_us < 0.0:
            raise SimulationError("shed_deadline_us must be >= 0")
        if self.shed_deadline_us > 0.0:
            if self.arrival not in ("open", "mmpp"):
                raise SimulationError(
                    "seat-queue shedding acts on the recorded queueing "
                    "delay; it needs open-loop arrivals "
                    "(arrival='open' or 'mmpp')")
            if self.adaptive_batch:
                raise SimulationError(
                    "shed_deadline_us and adaptive_batch are mutually "
                    "exclusive (the controller owns the queue)")
        if self.service_p95_target_us < 0.0:
            raise SimulationError("service_p95_target_us must be >= 0")
        if self.service_p95_target_us > 0.0 and not (
                self.adaptive_batch and self.telemetry):
            raise SimulationError(
                "service_p95_target_us closes the loop from the telemetry "
                "plane: it needs adaptive_batch=True and telemetry=True")
        intervals = {"mean_interval_us": self.mean_interval_us,
                     "burst_interval_us": self.burst_interval_us,
                     "burst_on_us": self.burst_on_us,
                     "burst_off_us": self.burst_off_us}
        for name, value in intervals.items():
            if not math.isfinite(value) or value < 0.0:
                raise SimulationError(f"{name} must be finite and >= 0")
            if self.arrival == "mmpp" and value == 0.0:
                raise SimulationError(
                    f"mmpp arrivals need every state mean > 0 ({name})")
        self._check_call_mix()
        # both raise on an unknown policy spec
        traffic_policy(self)
        self.broker_policy()

    def _check_call_mix(self) -> None:
        if not self.call_mix:
            raise SimulationError("call_mix must name at least one function")
        known = traffic_functions()
        for name, weight in self.call_mix:
            if name not in known:
                raise SimulationError(
                    f"call_mix names {name!r}, which the traffic modules "
                    f"do not export (they export {sorted(known)})")
            if not math.isfinite(weight) or weight < 0.0:
                raise SimulationError(
                    f"call_mix weight of {name!r} must be finite and >= 0")
        if not sum(weight for _, weight in self.call_mix) > 0.0:
            raise SimulationError("call_mix weights must not all be zero")

    def broker_policy(self) -> HandlePolicy:
        """The :class:`HandlePolicy` traffic modules register with the broker."""
        return HandlePolicy.parse(self.handle_policy,
                                  max_sessions=self.pool_max_sessions)


def traffic_policy(spec: TrafficSpec) -> Policy:
    """The per-module policy chain for a traffic run.

    The "static" chain is three cacheable clauses — uid allow-list,
    principal allow-list, function denylist — the shape of a typical
    production ACL.  "quota" and "expiry" append a dynamic clause, which
    disqualifies the whole chain from the decision cache.
    """
    static_clauses: List[Policy] = [
        UidAllowPolicy([spec.uid]),
        PrincipalAllowPolicy([spec.principal]),
        FunctionDenyPolicy(["test_null"]),
    ]
    if spec.policy_kind == "static":
        return CompositePolicy(static_clauses)
    if spec.policy_kind == "quota":
        return CompositePolicy(static_clauses +
                               [CallQuotaPolicy(spec.quota_calls)])
    if spec.policy_kind == "expiry":
        return CompositePolicy(static_clauses + [CredentialExpiryPolicy()])
    if spec.policy_kind == "deny-only":
        return FunctionDenyPolicy(["test_null"])
    raise SimulationError(f"unknown policy kind {spec.policy_kind!r}")


@functools.lru_cache(maxsize=None)
def traffic_functions() -> FrozenSet[str]:
    """The function names every traffic module exports."""
    module = build_traffic_module(0, policy=FunctionDenyPolicy([]))
    return frozenset(function.name for function in module.functions())


def _impl_incr(env: CallEnvironment, x: int) -> int:
    return x + 1


def _impl_null(env: CallEnvironment) -> int:
    return 0


def _impl_getpid(env: CallEnvironment) -> int:
    return env.client_pid


def build_traffic_module(index: int, *, policy: Policy,
                         version: int = 1) -> SecModuleDefinition:
    """One of the M protected modules the traffic fans out over."""
    module = SecModuleDefinition(f"libtraffic{index}", version, policy=policy)
    module.add_function("test_incr", _impl_incr,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=1,
                        doc="the paper's x+1 payload")
    module.add_function("getpid", _impl_getpid,
                        cost_op=costs.FUNC_BODY_SMOD_GETPID, arg_words=0,
                        doc="client pid from session state")
    module.add_function("test_null", _impl_null,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=0,
                        doc="always denied by the traffic policy")
    module.library_image = make_function_image(
        f"libtraffic{index}.so",
        {"test_incr": 48, "getpid": 32, "test_null": 32}, kind="shared")
    return module


@dataclass
class ClientState:
    """One traffic client: its program, sessions and latency record."""

    index: int
    program: Program
    #: m_id -> session (multi-session) or the single shared session
    sessions: Dict[int, object] = field(default_factory=dict)
    rng: Optional[DeterministicRNG] = None
    calls_issued: int = 0
    calls_denied: int = 0
    #: per-call service latency, microseconds of virtual time.  Stored as
    #: ``array('d')`` — raw doubles, the exact same bits a list of floats
    #: would hold, but without one heap object per call: at 10^7 calls the
    #: object churn of plain lists dominates the whole run (allocator and
    #: cache pressure measured as a ~40% throughput loss)
    latencies_us: "array" = field(default_factory=lambda: array("d"))
    #: per-call queueing delay (open loop: start - scheduled arrival)
    queue_delays_us: "array" = field(default_factory=lambda: array("d"))
    #: AIMD runs: scheduled times of the arrivals held in this client's
    #: queue; the flush that dispatches them records their delays
    held_us: List[float] = field(default_factory=list)


@dataclass
class TrafficResult:
    """Outcome of one traffic run (all times in virtual microseconds)."""

    spec: TrafficSpec
    total_calls: int
    denied_calls: int
    elapsed_us: float
    total_cycles: int
    cycles_per_call: float
    per_client_mean_us: List[float]
    #: chronological per-call service latencies, concatenated per client;
    #: an ``array('d')`` (bit-identical doubles, no per-call heap objects)
    latencies_us: "array"
    #: open-loop only: per-call (start - scheduled arrival); empty otherwise
    queue_delays_us: "array"
    cache_stats: Dict[str, int]
    shard_sizes: List[int]
    session_count: int
    #: live handle co-processes at the end of the run (per_session: one per
    #: session; pooled/per_module: ceil(sessions / seats) per module set)
    handle_count: int = 0
    broker_stats: Dict[str, int] = field(default_factory=dict)
    #: telemetry snapshot (``TrafficSpec(telemetry=True)`` runs only)
    metrics: Dict[str, object] = field(default_factory=dict)
    #: adaptive-controller snapshots, one per client (adaptive runs only)
    adaptive: Dict[str, object] = field(default_factory=dict)
    #: the broker's per-handle queueing-delay fairness report (telemetry
    #: runs with open-loop arrivals; empty otherwise)
    seat_fairness: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: flight-recorder spans in chronological order (``tracing=True`` runs
    #: only; :class:`~repro.telemetry.tracing.Span` objects)
    trace_spans: List = field(default_factory=list)
    #: tracer counters: started/finished/recorded/dropped/... (tracing runs)
    trace_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def mean_service_us(self) -> float:
        """Mean per-call service latency (dispatch only, no idle time)."""
        return mean(self.latencies_us)

    def tail_mean_service_us(self, fraction: float = 0.5) -> float:
        """Mean service latency over the last ``fraction`` of each run.

        ``latencies_us`` is chronological per client, so for a one-client
        run this is the converged-state cost after a controller's ramp-up;
        multi-client runs get the per-client tails concatenated.
        """
        if not 0.0 < fraction <= 1.0:
            raise SimulationError("tail fraction must be in (0, 1]")
        per_client = self.spec.calls_per_client
        tail: List[float] = []
        for start in range(0, len(self.latencies_us), per_client):
            chunk = self.latencies_us[start:start + per_client]
            keep = max(1, int(len(chunk) * fraction))
            tail.extend(chunk[len(chunk) - keep:])
        return mean(tail)

    @property
    def calls_per_second(self) -> float:
        """Aggregate throughput in (virtual) calls per second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.total_calls / (self.elapsed_us / 1e6)

    def latency_percentile(self, p: float) -> float:
        return percentile(self.latencies_us, p)

    def queue_delay_percentile(self, p: float) -> float:
        return percentile(self.queue_delays_us, p)

    def describe(self) -> str:
        text = (f"{self.spec.clients} clients x {self.spec.modules} modules, "
                f"{self.total_calls} calls ({self.denied_calls} denied), "
                f"{self.calls_per_second:,.0f} calls/s, "
                f"p50={self.latency_percentile(50):.2f}us "
                f"p95={self.latency_percentile(95):.2f}us "
                f"p99={self.latency_percentile(99):.2f}us")
        if self.queue_delays_us:
            text += f" queue-p99={self.queue_delay_percentile(99):.2f}us"
        return text


class TrafficEngine:
    """Builds the system and drives one deterministic traffic run."""

    def __init__(self, spec: TrafficSpec, *,
                 machine: Optional[Machine] = None,
                 dispatch_config: Optional[DispatchConfig] = None,
                 client_ids: Optional[List[int]] = None) -> None:
        self.spec = spec
        self.config = dispatch_config or DispatchConfig()
        if spec.batch_size != 1:
            # the workload knob wins: clients flush queues of this depth
            self.config = replace(self.config, batch_size=spec.batch_size)
        self.machine = machine or make_paper_machine(seed=spec.seed)
        self.kernel = Kernel(machine=self.machine).boot()
        self.extension: SmodExtension = install_secmodule(self.kernel)
        self.extension.sessions.charge_shard_locks = spec.smp_shard_locks
        self.telemetry: Telemetry = NULL_TELEMETRY
        if spec.telemetry:
            self.telemetry = self.extension.enable_telemetry(make_telemetry(True))
        self.tracer: Tracer = NULL_TRACER
        if spec.tracing:
            kwargs = {"sample_every": spec.trace_sample_every}
            if spec.trace_capacity:
                kwargs["capacity"] = spec.trace_capacity
            # wires the dispatcher and broker taps; the service-plane and
            # RPC-stub taps are wired in build() once the front-end exists
            self.tracer = self.extension.enable_tracing(**kwargs)
        self.rng = DeterministicRNG(spec.seed)
        #: global client indices this engine drives.  A shard worker passes
        #: its slice of the full run's clients; the ids seed the per-client
        #: RNG child streams (``client:{id}``), so every client draws the
        #: identical sequence whether it runs in the full serial engine or
        #: inside any shard partition.
        ids = (list(client_ids) if client_ids is not None
               else list(range(spec.clients)))
        if len(ids) != spec.clients or len(set(ids)) != len(ids):
            raise SimulationError(
                "client_ids must be unique and match spec.clients")
        self.client_ids = ids
        self.modules: List = []
        #: the only module when the run has one: its arrivals draw no pick
        self._sole_module = None
        self.clients: List[ClientState] = []
        self._client_by_id: Dict[int, ClientState] = {}
        self._controllers: Dict[int, AdaptiveBatchController] = {}
        self._built = False
        # the call mix as weighted-choice thresholds, built by the same
        # float additions DeterministicRNG.weighted_choice performs, so a
        # walk over them picks exactly what weighted_choice would
        self._mix_total = float(sum(weight for _, weight in spec.call_mix))
        acc = 0.0
        cum = []
        for name, weight in spec.call_mix:
            acc += weight
            cum.append((name, acc))
        self._mix_cum = cum
        self._mix_last = spec.call_mix[-1][0]
        # ---- analytic fast-forward state -----------------------------------
        # HOT (session, shape, config) spans accumulate here instead of
        # replaying one by one; `_ff_flush` settles them as one closed-form
        # charge per key.  `_pending_cycles` is the total deferred virtual
        # time (spans + idle), so `_now_us` stays exact mid-window.
        self._ff_enabled = (self.config.use_trace_replay
                            and self.config.use_fast_forward
                            and not spec.via_service
                            # shed decisions are per call; the closed-form
                            # fast-forward tier would skip them
                            and spec.shed_deadline_us == 0.0)
        # ---- service plane --------------------------------------------------
        #: the front-end (built lazily with the run) when via_service is on
        self.frontend = None
        #: client index -> m_id -> binding id on the front-end
        self._service_bindings: Dict[int, Dict[int, int]] = {}
        #: client index -> the client's BoundClient RPC stub
        self._service_clients: Dict[int, object] = {}
        #: (m_id, function name) -> (func_id, arg_words) for RPC encoding
        self._service_funcs: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._pending_cycles = 0
        self._pending_idle_cycles = 0
        self._pending_idle_events = 0
        #: key -> [entry, accumulated span count, session]
        self._ff_windows: Dict[Tuple, List] = {}
        #: (session_id, function name) -> the depth-1 trace key, so the
        #: depth-1 probe builds no key (see `_ff_key`)
        self._ff_keys: Dict[Tuple[int, str], Tuple] = {}
        self._mhz = float(self.machine.spec.mhz)
        # hot-loop caches: bound methods/objects resolved once (the run
        # loop touches these a few times per simulated call)
        self._dispatcher = self.extension.dispatcher
        self._broker = self.extension.broker
        self._clock = self.machine.clock
        #: the cost profile's clock rate: cycles / this is exactly
        #: ``profile.microseconds(cycles)``, without the call
        self._profile_mhz = self.machine.meter.profile.mhz
        # record_queue_delay feeds both observation planes; hoist the
        # either-enabled check out of the per-call loops
        self._observe_queue = self.telemetry.enabled or self.tracer.enabled
        # broker seat-queue deadline shedding (default off: the gate stays
        # entirely out of the unprotected per-call paths)
        self._broker_shed = spec.shed_deadline_us > 0.0
        self.extension.broker.shed_deadline_us = spec.shed_deadline_us

    # ------------------------------------------------------------------- build
    def build(self) -> "TrafficEngine":
        """Register the M modules and establish every client's sessions."""
        if self._built:
            return self
        spec = self.spec
        policy = traffic_policy(spec)
        broker_policy = spec.broker_policy()
        for index in range(spec.modules):
            definition = build_traffic_module(index, policy=policy)
            registered = self.extension.registry.register(
                definition, uid=0, protection=ProtectionMode.ENCRYPT)
            self.modules.append(registered)
            # the module owner registers how its handles may be shared
            self.extension.broker.register_policy(registered.name,
                                                  broker_policy)

        service_backends: List = []
        if spec.via_service:
            # deferred import: the service plane is compiled out of every
            # non-service run, and the import itself stays off their path
            from ..serve.frontend import ServiceConfig, ServiceFrontend
            self.frontend = ServiceFrontend(
                self.kernel, self.extension,
                config=ServiceConfig(principal=spec.principal, uid=spec.uid),
                telemetry=self.telemetry)
            if self.tracer.enabled:
                self.frontend.attach_tracer(self.tracer)
            if spec.multi_session:
                # one backend per module, mirroring the session topology
                for registered in self.modules:
                    service_backends.append(self.frontend.register_backend(
                        registered.name, [registered], policy=broker_policy))
            else:
                service_backends.append(self.frontend.register_backend(
                    "traffic", self.modules, policy=broker_policy))
            for registered in self.modules:
                for function in registered.definition.functions():
                    self._service_funcs[(registered.m_id, function.name)] = \
                        (function.func_id, function.arg_words)

        for c in self.client_ids:
            program = Program.spawn(self.kernel, f"traffic-client{c}",
                                    uid=spec.uid)
            state = ClientState(index=c, program=program,
                                rng=self.rng.child(f"client:{c}"))
            if spec.via_service:
                tenant = c % spec.service_tenants
                bindings = self._service_bindings.setdefault(c, {})
                for record in service_backends:
                    binding = self.frontend.attach(record, tenant=tenant,
                                                   client=program)
                    bindings.update({registered.m_id: binding.binding_id
                                     for registered in record.modules})
                    for registered in record.modules:
                        state.sessions[registered.m_id] = binding.session
                stub = self.frontend.make_client(program.proc)
                stub.tracer = self.tracer
                self._service_clients[c] = stub
            elif spec.multi_session:
                # one session per module: N x M entries in the sharded table
                for registered in self.modules:
                    session = self._start_session(program, [registered],
                                                  allow_multiple=True)
                    state.sessions[registered.m_id] = session
            else:
                session = self._start_session(program, self.modules,
                                              allow_multiple=False)
                for registered in self.modules:
                    state.sessions[registered.m_id] = session
            self.clients.append(state)
            self._client_by_id[state.index] = state
        self._sole_module = self.modules[0] if spec.modules == 1 else None
        self._built = True
        return self

    def _start_session(self, program: Program, registered_modules,
                       *, allow_multiple: bool):
        descriptor = SessionDescriptor(
            build_requirements(registered_modules,
                               principal=self.spec.principal,
                               uid=self.spec.uid),
            allow_multiple=allow_multiple)
        session_id = program.smod_crt0_startup(self.extension, descriptor)
        return self.extension.sessions.get(session_id)

    # --------------------------------------------------------------------- run
    def _now_us(self) -> float:
        """Virtual now, including cycles deferred by open fast-forward
        windows.

        ``clock.cycles + pending`` is exactly the cycle count the serial
        engine's clock would show at this point, and the conversion is the
        same profile division, so every time-derived value (arrival idles,
        queueing delays, think schedules, policy contexts after a flush)
        is float-identical with fast-forward on or off.
        """
        return (self._clock.cycles + self._pending_cycles) / self._profile_mhz

    def _advance_clock_to(self, target_us: float) -> None:
        """Idle the machine forward to a scheduled arrival time.

        Closed-loop arrivals and the AIMD sink call this; :meth:`_arrive`
        inlines the same arithmetic for open arrivals, where one more frame
        per call is a measurable share of a fast-forwarded call.
        """
        now_us = self._now_us()
        if target_us > now_us:
            idle_cycles = round((target_us - now_us) * self._mhz)
            if self._ff_enabled:
                # defer the wait: one accumulated event per arrival (a
                # zero-cycle wait still counts one, exactly like `idle`);
                # `_ff_flush` settles the batch through the meter
                self._pending_cycles += idle_cycles
                self._pending_idle_cycles += idle_cycles
                self._pending_idle_events += 1
            else:
                # routed through the meter (never clock.advance directly):
                # the CostMeter is the single charging authority — CLOCK001
                self.machine.idle(idle_cycles)

    def _ff_flush(self) -> None:
        """Settle every deferred charge: the fast-forward sync barrier.

        Runs before any dispatch that needs the true clock (a slow-path or
        replay execution) and at the end of the run.  Accumulated idle
        waits settle as one ``idle_many`` (cycles *and* event count exact);
        each open window settles as one scaled-trace commit.
        """
        if self._pending_idle_events:
            self.machine.meter.idle_many(self._pending_idle_cycles,
                                         self._pending_idle_events)
            self._pending_idle_cycles = 0
            self._pending_idle_events = 0
        if self._ff_windows:
            dispatcher = self._dispatcher
            for entry, count, session in self._ff_windows.values():
                dispatcher.fast_forward_commit(entry, session, count)
            self._ff_windows.clear()
        self._pending_cycles = 0

    def _draw_call(self, state: ClientState, offset: int) -> Tuple[str, Tuple]:
        """One weighted draw from the call mix, plus the call's arguments.

        The arguments never come from the RNG, so callers that only need
        the name may skip them (the depth-1 path in :meth:`_one_flush`).
        """
        draw = self._mix_total * state.rng.next_double()
        name = self._mix_last
        for candidate, threshold in self._mix_cum:
            if draw < threshold:
                name = candidate
                break
        args = ((state.calls_issued + offset,)
                if name == "test_incr" else ())
        return name, args

    def _arrive(self, state: ClientState, count: int,
                scheduled_at: Optional[float]):
        """The arrival prologue both sinks share; returns the module the
        flush targets, or None when the arrival is shed.

        Picks the module.  An open-loop arrival (``scheduled_at`` given)
        then idles the machine forward to its scheduled time, passes the
        broker's deadline gate with its queueing delay (start minus
        schedule) and records that delay once per call, also into the
        per-seat taps.  A shed arrival never dispatches and never records
        into the served latency/queue-delay streams: its queueing delay
        alone already blew the deadline.  Calls held by the AIMD queue
        (``state.held_us``) each record the delay since their own arrival.
        """
        # a single-value range consumes nothing from the numpy bit stream
        # (verified: Generator.integers with range 1 short-circuits), so
        # skipping the draw is sequence-identical, not just cheaper
        registered = self._sole_module
        if registered is None:
            modules = self.modules
            registered = modules[state.rng.integer(0, len(modules) - 1)]
        if scheduled_at is None:
            if state.held_us:
                self._record_held(state, registered)
            return registered
        # _advance_clock_to, inline: this runs once per open arrival
        pending = self._pending_cycles
        now_us = (self._clock.cycles + pending) / self._profile_mhz
        if scheduled_at > now_us:
            idle_cycles = round((scheduled_at - now_us) * self._mhz)
            if self._ff_enabled:
                self._pending_cycles = pending = pending + idle_cycles
                self._pending_idle_cycles += idle_cycles
                self._pending_idle_events += 1
            else:
                self.machine.idle(idle_cycles)
            now_us = (self._clock.cycles + pending) / self._profile_mhz
        delay = now_us - scheduled_at if now_us > scheduled_at else 0.0
        if self._broker_shed and not self._broker.admit_delay(
                state.sessions[registered.m_id], delay, count):
            return None
        if self._observe_queue or count != 1:
            self._record_delays(state, registered, [delay] * count)
        else:
            state.queue_delays_us.append(delay)
        return registered

    def _record_held(self, state: ClientState, registered) -> None:
        """Each call the AIMD queue held waited since its own arrival."""
        now_us = self._now_us()
        self._record_delays(state, registered,
                            [max(0.0, now_us - at) for at in state.held_us])
        state.held_us.clear()

    def _record_delays(self, state: ClientState, registered,
                       delays: List[float]) -> None:
        state.queue_delays_us.extend(delays)
        if self._observe_queue:
            session = state.sessions[registered.m_id]
            for delay in delays:
                self._broker.record_queue_delay(session, delay)

    def _one_flush(self, state: ClientState, count: int, *,
                   scheduled_at: Optional[float] = None) -> None:
        """The flush sink: draw ``count`` calls and dispatch them against
        one session.

        A queue targets a single module/session — a super-frame lives on
        exactly one shared stack.  Open-loop callers pass the arrival's
        scheduled time (see :meth:`_arrive`).

        With fast-forward on, the flush first offers itself to an open
        window: it asks the dispatcher for the flush's trace key, and
        ``fast_forward_probe`` revalidates every replay guard *and*
        performs the span's decision-cache touches, so per-span cache
        state matches per-call replay exactly.  An admitted span is only
        accumulated; anything else settles the open windows and takes the
        real dispatch path.  A depth-1 flush synthesizes its call's
        arguments only on that fallback, which is draw-for-draw identical:
        arguments never come from the RNG.
        """
        registered = self._arrive(state, count, scheduled_at)
        if registered is None:
            return
        session = state.sessions[registered.m_id]
        key = None
        if count == 1:
            draw = self._mix_total * state.rng.next_double()
            name = self._mix_last
            for candidate, threshold in self._mix_cum:
                if draw < threshold:
                    name = candidate
                    break
            if self._ff_enabled:
                key = (self._ff_keys.get((session.session_id, name))
                       or self._ff_key(session, name))
            queue = None
        else:
            queue, key = self._draw_batch(state, session, count)
        if key is not None:
            entry = self._dispatcher.fast_forward_probe(session, key)
            if entry is not None:
                window = self._ff_windows.get(key)
                if window is None:
                    self._ff_windows[key] = [entry, 1, session]
                else:
                    # keep the freshest entry: a re-recorded key stays
                    # byte-equal (the probe's guards proved it) but guard
                    # fields may be newer
                    window[0] = entry
                    window[1] += 1
                cycles = entry.trace.total_cycles
                self._pending_cycles += cycles
                # the replay span's Stopwatch measures exactly the trace's
                # cycles, so this division reproduces its latency float for
                # float
                state.calls_issued += count
                if count == 1:
                    state.latencies_us.append(cycles / self._mhz)
                else:
                    state.latencies_us.extend(
                        [cycles / self._mhz / count] * count)
                state.calls_denied += entry.denied
                return
        if self._ff_enabled:
            # the span needs the real dispatch path, which must see the
            # true clock (policy contexts, stopwatches): settle everything
            self._ff_flush()
        if queue is None:
            queue = [(name, (state.calls_issued,)
                      if name == "test_incr" else ())]
        self._dispatch_queue_slow(state, session, queue)

    def _draw_batch(self, state: ClientState, session, count: int):
        """Draw a flush of ``count`` calls: the queue, and its trace key
        when fast-forward is on (else None).  Kept out of
        :meth:`_one_flush`, whose locals a comprehension would turn into
        slower closure cells."""
        queue = [self._draw_call(state, offset) for offset in range(count)]
        if not self._ff_enabled:
            return queue, None
        return queue, self._dispatcher.trace_key(
            session, [name for name, _ in queue], self.config)

    def _ff_key(self, session, name: str) -> Tuple:
        """The trace key the dispatcher files a single call of ``name``
        under (:meth:`SmodDispatcher.trace_key`), memoized per session."""
        key = self._ff_keys[(session.session_id, name)] = \
            self._dispatcher.trace_key(session, (name,), self.config)
        return key

    def _dispatch_queue_slow(self, state: ClientState, session,
                             queue: List[Tuple[str, Tuple]]) -> None:
        """The real dispatch tail: op-by-op or per-call replay execution.

        A queue of one goes through the ordinary single-call path (so a
        depth-1 flush is the paper's per-call dispatch, cycle for cycle);
        longer queues flush through the batched path in one chunk.
        Callers must have settled any open fast-forward state first (the
        stopwatch below needs the true clock).
        """
        count = len(queue)
        mark = self._clock.checkpoint()
        if count == 1:
            name, args = queue[0]
            outcome = self._dispatcher.call(
                session, name, *args, config=self.config)
            denied = 0 if outcome.ok else 1
        else:
            batch = self._dispatcher.call_batch(
                session, queue,
                config=self._dispatcher.flush_config(self.config, count))
            denied = batch.denied
        service_us = self._clock.since(mark).microseconds(self._mhz)
        state.calls_issued += count
        state.latencies_us.extend([service_us / count] * count)
        state.calls_denied += denied

    def _one_service_call(self, state: ClientState, *,
                          scheduled_at: Optional[float] = None) -> None:
        """The service sink: one arrival, dispatched across the smodserve
        RPC surface.

        The call crosses the front-end exactly as a remote client's would:
        client stub encode, loopback datagram, server dispatch, binding
        resolve (keyed shard probe), SecModule dispatch, reply.  Latency is
        measured around the whole round trip, so service-plane runs report
        the served call cost, not just the dispatch tail.  Batching,
        adaptive control and fast-forward are all off here (the spec
        validator pins the first two; the constructor pins the third): the
        replay tiers' guards do not span the RPC boundary.
        """
        registered = self._arrive(state, 1, scheduled_at)
        if registered is None:
            return
        name, args = self._draw_call(state, 0)
        func_id, arg_words = self._service_funcs[(registered.m_id, name)]
        binding_id = self._service_bindings[state.index][registered.m_id]
        stub = self._service_clients[state.index]
        mark = self._clock.checkpoint()
        result = stub.call("serve_call", binding_id, registered.m_id,
                           func_id, args[0] if arg_words and args else 0)
        service_us = self._clock.since(mark).microseconds(self._mhz)
        state.calls_issued += 1
        state.latencies_us.append(service_us)
        if result < 0:
            state.calls_denied += 1

    def _aimd_sink(self):
        """The AIMD sink: ``(arrive, drain)`` for the open-loop driver.

        Each client holds its arrivals in a queue that flushes when it
        reaches the controller's current depth.  Lull detection is
        **gap-based**: an arrival gap at or beyond ``linger_us`` drains the
        queue at that next arrival, so a burst's stragglers wait at most
        one lull (not an age-based timer — holding a filling queue is the
        price of amortization, and the recorded queueing delays state it
        honestly).  A client's last arrival drains whatever it leaves
        held, so tail calls are never deferred to another client's
        schedule.

        A flush picks its module and draws its calls when it fires.  Each
        client's RNG feeds nothing else between its arrivals, so this is
        the exact draw sequence of picking at the first held arrival and
        drawing at each one; a depth-1 controller therefore stays
        cycle-identical to the static single-call open loop.
        """
        spec = self.spec
        start_us = self._now_us()
        controllers = {
            state.index: AdaptiveBatchController(
                AdaptiveConfig(
                    max_depth=spec.adaptive_max_depth,
                    service_p95_target_us=spec.service_p95_target_us),
                telemetry=self.telemetry, client=state.index,
                start_us=start_us)
            for state in self.clients}
        if spec.service_p95_target_us > 0.0:
            # closed loop: the controllers consume the observed flush
            # service-time tail straight from the telemetry plane (the
            # spec validator pinned telemetry on for this mode); the live
            # family aggregate makes each read O(buckets)
            flush_service = self.telemetry.registry.family(
                "flush_service_us")

            def service_p95() -> float:
                return flush_service.quantile(95)

            for controller in controllers.values():
                controller.service_p95_supplier = service_p95
        self._controllers = controllers

        def flush(state: ClientState) -> None:
            count = len(state.held_us)
            if count:
                self._one_flush(state, count)
                controllers[state.index].on_flush(count, self._now_us())

        def arrive(state: ClientState, count: int, *,
                   scheduled_at: float) -> None:
            index = state.index
            self._advance_clock_to(scheduled_at)
            controller = controllers[index]
            if controller.observe_arrival(scheduled_at):
                flush(state)        # lull: the queue will not fill, drain it
            state.held_us.append(scheduled_at)
            held = len(state.held_us)
            if (held >= controller.depth
                    or state.calls_issued + held == spec.calls_per_client):
                flush(state)

        def drain() -> None:
            for state in self.clients:
                flush(state)        # safety net; the last arrival drained it

        return arrive, drain

    def _think_source(self, state: ClientState):
        """Per-client closed-loop think-time draw (``TrafficSpec.think``).

        The exponential default reproduces the original engine draw for
        draw; lognormal/pareto keep the same mean think time but add the
        heavy tail, so a seed change is the only way totals move.
        """
        spec = self.spec
        if spec.think == "lognormal":
            return lambda: state.rng.lognormal(spec.mean_interval_us,
                                               spec.think_sigma)
        if spec.think == "pareto":
            return lambda: state.rng.pareto(spec.mean_interval_us,
                                            spec.think_alpha)
        return lambda: state.rng.exponential(spec.mean_interval_us)

    def _interarrival_source(self, state: ClientState):
        """Per-client interarrival draw for the pre-drawn (open) schedules."""
        spec = self.spec
        if spec.arrival == "mmpp":
            mmpp = TwoStateMMPP(state.rng,
                                on_interval=spec.burst_interval_us,
                                off_interval=spec.mean_interval_us,
                                on_duration=spec.burst_on_us,
                                off_duration=spec.burst_off_us)
            return mmpp.next_interarrival
        return lambda: state.rng.exponential(spec.mean_interval_us)

    def _open_schedule_sorted(self, events_per_client: int
                              ) -> Tuple[List[float], List[int]]:
        """Pre-draw every client's open-loop arrivals, in firing order.

        Returns parallel ``(times, indices)`` lists, bit-identical at every
        step to pushing ``(time, insertion order, client)`` tuples through
        a heap, which the static schedule never needs (it never grows
        mid-run):

        * gaps accumulate through ``np.cumsum`` seeded with ``base_us``
          as element 0, which performs the same left-to-right float
          additions as the scalar ``at += gap`` loop (verified);
          pure-exponential clients draw their gaps in one vectorized call
          (see ``exponential_array``);
        * the global ordering is a **stable** argsort on fire time, which
          equals sorting ``(time, insertion-order)`` tuples.

        Two parallel primitive lists instead of one tuple list keeps
        10^7-event schedules out of the cyclic GC's way: floats and ints
        are untracked, so full collections no longer crawl ten million
        tracked tuples (measured ~2x end-to-end at 10^7 calls).
        """
        base_us = self._now_us()
        per_client: List[np.ndarray] = []
        for state in self.clients:
            if self.spec.arrival == "open":
                gaps = state.rng.exponential_array(
                    self.spec.mean_interval_us, events_per_client)
            else:
                draw = self._interarrival_source(state)
                gaps = np.asarray([draw() for _ in range(events_per_client)])
            per_client.append(
                np.cumsum(np.concatenate(((base_us,), gaps)))[1:])
        times = np.concatenate(per_client)
        indices = np.concatenate([
            np.full(events_per_client, state.index, dtype=np.int64)
            for state in self.clients])
        order = np.argsort(times, kind="stable")
        return times[order].tolist(), indices[order].tolist()

    def run(self) -> TrafficResult:
        """Drive the full call schedule and collect the result."""
        self.build()
        spec = self.spec
        start_mark = self._clock.checkpoint()
        by_id = self._client_by_id

        # each arrival flushes `batch` calls, a client's last one the rest
        # (adaptive and service runs pin batch_size to 1)
        batch = spec.batch_size
        arrivals = math.ceil(spec.calls_per_client / batch)
        last = spec.calls_per_client - (arrivals - 1) * batch
        left = {index: arrivals for index in by_id}
        uneven = last != batch
        drain = None
        if spec.adaptive_batch:
            sink, drain = self._aimd_sink()
        elif spec.via_service:
            one_service_call = self._one_service_call

            def sink(state, count, scheduled_at=None):
                one_service_call(state, scheduled_at=scheduled_at)
        else:
            sink = self._one_flush

        if spec.arrival == "closed":
            # the next arrival is drawn after each completion
            events: List[Tuple[float, int, int]] = []
            base_us = self._now_us()
            think = {s.index: self._think_source(s) for s in self.clients}
            for tiebreak, state in enumerate(self.clients):
                heapq.heappush(events, (base_us + think[state.index](),
                                        tiebreak, state.index))
            tiebreak = len(events)
            while events:
                at, _, index = heapq.heappop(events)
                self._advance_clock_to(at)
                left[index] = n = left[index] - 1
                sink(by_id[index], batch if n else last)
                if n:
                    heapq.heappush(events, (self._now_us() + think[index](),
                                            tiebreak, index))
                    tiebreak += 1
        else:
            # pre-drawn arrivals per client, independent of completions
            times, indices = self._open_schedule_sorted(arrivals)
            for at, index in zip(times, indices):
                count = batch
                if uneven:
                    left[index] = n = left[index] - 1
                    count = batch if n else last
                sink(by_id[index], count, scheduled_at=at)
        if drain is not None:
            drain()

        # settle every open fast-forward window before reading the clock
        self._ff_flush()
        if self.tracer.enabled:
            # a clean run leaves no open spans; force-close (and flag) any
            # stragglers so the recorder's view is complete
            self.tracer.drain()
        interval = self._clock.since(start_mark)
        # array-to-array extends are raw memcpys — no 10^7-object churn
        latencies = array("d")
        delays = array("d")
        for state in self.clients:
            latencies.extend(state.latencies_us)
            delays.extend(state.queue_delays_us)
        total_calls = sum(s.calls_issued for s in self.clients)
        return TrafficResult(
            spec=spec,
            total_calls=total_calls,
            denied_calls=sum(s.calls_denied for s in self.clients),
            elapsed_us=interval.microseconds(self._mhz),
            total_cycles=interval.cycles,
            cycles_per_call=(interval.cycles / total_calls
                             if total_calls else 0.0),
            per_client_mean_us=[
                sum(s.latencies_us) / len(s.latencies_us)
                if s.latencies_us else 0.0
                for s in self.clients],
            latencies_us=latencies,
            queue_delays_us=delays,
            cache_stats=self.extension.decision_cache.snapshot(),
            shard_sizes=self.extension.sessions.shard_sizes(),
            session_count=len(self.extension.sessions),
            handle_count=self.extension.sessions.handle_count(),
            broker_stats=self._broker.snapshot(),
            metrics=(self.telemetry.snapshot()
                     if self.telemetry.enabled else {}),
            adaptive=({"per_client": [self._controllers[s.index].snapshot()
                                      for s in self.clients]}
                      if self._controllers else {}),
            seat_fairness=(self._broker.seat_delay_report()
                           if self.telemetry.enabled else {}),
            trace_spans=(self.tracer.spans()
                         if self.tracer.enabled else []),
            trace_stats=(self.tracer.stats()
                         if self.tracer.enabled else {}),
        )

    # ---------------------------------------------------------------- teardown
    def teardown(self) -> None:
        """Tear down every client's sessions (kills all handles)."""
        for state in self.clients:
            self.extension.sessions.teardown_all_for_client(
                state.program.proc)


def run_traffic(spec: Optional[TrafficSpec] = None, *,
                dispatch_config: Optional[DispatchConfig] = None,
                teardown: bool = False) -> TrafficResult:
    """Convenience one-shot: build, run and (optionally) tear down."""
    engine = TrafficEngine(spec or TrafficSpec(),
                           dispatch_config=dispatch_config)
    result = engine.run()
    if teardown:
        engine.teardown()
    return result
