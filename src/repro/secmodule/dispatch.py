"""The protected-call dispatch path (``sys_smod_call``).

This is the code whose latency the paper's Figure 8 measures.  There is one
path, over a queue of ``n >= 1`` calls; the paper's single protected call
is the queue of one.  A flush executes, in order:

1. the client-side stub pushes each call's argument frame and its
   ``(moduleID, funcID)`` pair on the shared stack (Figure 3 steps 1–2);
2. one trap — ``sys_smod_call(framep, rtnaddr, m_id, funcID)`` for a
   single call, ``sys_smod_call_batch`` for a longer queue — enters the
   kernel, which verifies the caller has a live session and that the
   credential/policy still allow each call;
3. the kernel notifies the handle through the session's SysV message queue
   and context-switches to it;
4. the handle's ``smod_stub_receive`` (on its secret stack) strips each
   frame down to the bare arguments, relays to the real function on the
   shared stack, and restores the frame (Figure 3 steps 3–4);
5. the handle posts the results on the reply queue, the kernel switches
   back to the client, copies the return values out and returns from the
   trap;
6. the client stub unwinds what is left of the frames.

A queue of more than one call adds four things, each chosen by the queue
length, never by an option:

* one ``SMOD_BATCH_SETUP`` charge per trap and one ``SMOD_BATCH_ENTRY``
  per entry — the kernel walks the queue it was handed;
* a batch-aware decision prefetch: one epoch check validates every
  memoized decision the queue needs (see :meth:`SmodDispatcher._prefetch`);
* the handle, not the client stub, pops each executed frame's remains
  (restored fp/ret and the args) as stub fix-up work — in a queue the
  client never revisits individual frames;
* a whole-queue rejection fails the rest of a chunked queue in place.

The :class:`DispatchConfig` knobs expose the design alternatives the paper
discusses but does not measure — the §4.4 multithreaded-client hardenings
and the explicit-copy marshalling that the shared-VM design replaced — so
the ablation benchmarks can quantify them.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..control.overload import OverloadController
from ..errors import SimulationError
from ..kernel.errno import Errno
from ..kernel.proc import Proc
from ..kernel.sysv_msg import Message
from ..sim import costs
from ..sim.clock import Stopwatch
from ..telemetry import NULL_TELEMETRY, NULL_TRACER, Telemetry, Tracer
from ..telemetry.tracing import TIER_OP_BY_OP, TIER_REPLAY
from .decision_cache import DecisionCache, policy_is_cacheable
from .module import CallEnvironment, SecFunction
from .registry import RegisteredModule
from .session import Session
from .stubs import (
    BatchCallFrame,
    BatchStub,
    ClientStub,
    StubCallFrame,
    unwind_client_frame,
)


class HardeningMode(enum.Enum):
    """§4.4 countermeasures against multithreaded argument-rewriting attacks."""

    NONE = "none"                       # what the paper measured
    UNMAP_CLIENT = "unmap-client"       # unmap client data/stack during the call
    SUSPEND_CLIENT = "suspend-client"   # pull the client off the ready queue


class MarshallingMode(enum.Enum):
    """How arguments travel between client and handle."""

    SHARED_VM = "shared-vm"             # the paper's design: nothing to copy
    EXPLICIT_COPY = "explicit-copy"     # SysV-shm-style copy in and out


@dataclass(frozen=True)
class DispatchConfig:
    """Per-call-path configuration (defaults reproduce the paper's setup)."""

    hardening: HardeningMode = HardeningMode.NONE
    marshalling: MarshallingMode = MarshallingMode.SHARED_VM
    #: evaluate the module policy on every call (the paper's design point;
    #: turning it off isolates the pure dispatch cost in ablations)
    per_call_policy_check: bool = True
    #: memoize static policy decisions per (session, module, function);
    #: disable for paper-faithful runs.  With the paper's zero-step
    #: always-allow policy the cache never engages, so the default stays
    #: cycle-identical to the published setup either way.
    use_decision_cache: bool = True
    #: the longest queue one trap flushes: ``call_batch`` chunks longer
    #: queues to this bound.  1 reproduces the paper's behaviour (every
    #: call pays its own trap and two context switches); larger values
    #: amortize those fixed costs across the queue.  An int >= 1.
    batch_size: int = 1
    #: trace-replay fast path: record the exact charge sequence of a
    #: steady-state flush once, then replay later identical flushes as one
    #: aggregated clock charge.  Accounting is byte-identical either way —
    #: cycle totals, op histograms, cache statistics — the knob only trades
    #: simulator wall-clock for the op-by-op execution (see
    #: docs/performance.md); disable it to force every call down the
    #: op-by-op path.
    use_trace_replay: bool = True
    #: analytic fast-forward tier: once a key is HOT, a driver (the traffic
    #: engine) may accumulate N identical spans and settle them as a single
    #: closed-form charge (``CallTrace.scaled``) instead of N replays.
    #: Accounting stays byte-identical; requires ``use_trace_replay``.
    use_fast_forward: bool = True
    #: record Figure 3 stack snapshots (off for the million-call benchmarks)
    record_checkpoints: bool = False

    def __post_init__(self) -> None:
        size = self.batch_size
        if type(size) is not int or size < 1:
            raise SimulationError(
                f"batch_size must be an int >= 1, got {size!r}")
        # the generated frozen-dataclass hash walks every field (two enums
        # included) on each dict operation, and trace-cache keys embed the
        # config — so every lookup on the hot path pays it.  Configs are
        # immutable: compute once, keep the same equality contract.
        object.__setattr__(self, "_cached_hash", hash(
            (self.hardening, self.marshalling, self.per_call_policy_check,
             self.use_decision_cache, self.batch_size, self.use_trace_replay,
             self.use_fast_forward, self.record_checkpoints)))

    def __hash__(self) -> int:
        return self._cached_hash


@dataclass
class DispatchOutcome:
    """Result of one protected call."""

    value: Any = None
    errno: Optional[Errno] = None
    frame: Optional[StubCallFrame] = None

    @property
    def ok(self) -> bool:
        return self.errno is None


@dataclass
class BatchOutcome:
    """Result of one flush: per-entry outcomes in submission order.

    Per-entry failures (ENOENT, EACCES) never abort the flush — each entry
    carries its own :class:`DispatchOutcome`.  ``errno`` is set only when
    the *whole* queue was rejected before any entry ran (dead session,
    foreign client), in which case every entry's outcome carries the same
    errno.
    """

    outcomes: List[DispatchOutcome] = field(default_factory=list)
    #: queue-level rejection (EINVAL/EPERM); None when entries were processed
    errno: Optional[Errno] = None

    @property
    def ok(self) -> bool:
        return self.errno is None and all(o.ok for o in self.outcomes)

    @property
    def values(self) -> List[Any]:
        """Per-entry return values (None for failed entries)."""
        return [o.value for o in self.outcomes]

    @property
    def denied(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def __len__(self) -> int:
        return len(self.outcomes)


# --------------------------------------------------------------------------
# Trace-replay fast path.
#
# The paper's numbers are per-call totals of a *fixed* op sequence (trap,
# policy check, two context switches, msgsnd/reply, stack fixups) — yet the
# simulator re-executes that sequence op by op on every one of the millions
# of calls a traffic run issues.  The trace cache records the sequence once
# per steady-state key, proves it stable with a confirming second execution,
# and then replays it as one aggregated clock charge (plus the handful of
# explicit state deltas the slow path would have made).  Anything the replay
# cannot reproduce exactly — stateful policy chains, checkpoint recording,
# variable-cost function bodies, a live TraceBuffer — stays on the op-by-op
# path for good.
# --------------------------------------------------------------------------

#: TraceEntry life cycle: freshly recorded entries are CONFIRMING until a
#: second execution reproduces the identical charge sequence and state
#: deltas; only then do replays begin.  Keys whose sequence keeps changing
#: are POISONED and never attempted again (their recording overhead would
#: be pure waste).
TRACE_CONFIRMING, TRACE_HOT, TRACE_POISONED = 0, 1, 2

#: consecutive confirm mismatches before a key is poisoned
TRACE_MISMATCH_LIMIT = 8

#: span kind of a flush, by whether it held more than one call
SPAN_KINDS = ("dispatch.call", "dispatch.batch")


class TraceEntry:
    """One recorded dispatch span: its charge sequence and state deltas."""

    __slots__ = (
        "state", "strikes", "raw_ops", "trace",
        # guards revalidated before every replay
        "policy_epoch", "handle_epoch", "cache_epoch", "hardening_sig",
        # state deltas the slow path would have applied
        "dispatched", "denied", "served",
        "cache_hits", "cache_misses", "cache_batch_checks",
        "cache_batch_served", "cache_touch_keys",
        # replay plumbing
        "env", "handle", "m_ids",
        # outcome template: one (module, function, errno) triple per entry,
        # and the same re-keyed by (m_id, func_id) so a sorted-shape key
        # replays any permutation of its calls
        "plan", "plan_by_pair", "any_executed", "depth",
        # per-module executed-call counts for the fast-forward tier's bulk
        # ``note_calls`` (every module of the plan, count 0 when denied)
        "note_plan",
    )

    def effects_signature(self) -> Tuple:
        """Everything beyond the charge sequence that must repeat exactly.

        The key is the *sorted* shape, so a flush may observe its per-entry
        plan and decision-cache touches in a different order per
        permutation; those fields compare as multisets.
        """
        plan_sig = tuple(sorted(
            (module.m_id, function.func_id, "" if errno is None else errno.name)
            for module, function, errno in self.plan))
        return (self.dispatched, self.denied, self.served,
                self.cache_hits, self.cache_misses, self.cache_batch_checks,
                self.cache_batch_served, tuple(sorted(self.cache_touch_keys)),
                plan_sig)

    def charge_signature(self) -> Tuple:
        """The charge sequence as the replay applies it: the event count
        and the per-op totals (permutations of a sorted-shape key may
        interleave per-entry ops differently; the aggregated charge cannot
        tell)."""
        totals: Dict[str, int] = {}
        for operation, count in self.raw_ops:
            totals[operation] = totals.get(operation, 0) + count
        return (len(self.raw_ops), tuple(sorted(totals.items())))




class TraceCache:
    """Per-dispatcher store of recorded call traces, LRU-bounded.

    Keys are ``(session_id, call shape, DispatchConfig)`` tuples built by
    :meth:`SmodDispatcher.trace_key`; the shape is the sorted tuple of the
    flush's ``(m_id, func_id)`` pairs (one pair for a single call), so
    every distinct multiset of calls gets its own trace.  Invalidation is
    two-layered: cheap per-replay guard checks (policy epoch, handle seat
    epoch, session liveness) catch anything that changed under a live key,
    and the explicit ``invalidate_*`` hooks — forwarded from the decision
    cache and the handle broker — drop entries eagerly so the cache never
    fills with dead keys.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise SimulationError("trace cache needs a positive capacity")
        self.capacity = capacity
        # smod: guarded-by epoch
        self._entries: "OrderedDict[Tuple, TraceEntry]" = OrderedDict()
        #: session id -> keys stored for it; per-session invalidation (the
        #: teardown and broker seat-churn paths) is O(own keys), not a walk
        #: over the whole cache — at served scale teardown storms would
        #: otherwise rescan thousands of live entries per dead session
        self._by_session: Dict[int, set] = {}
        #: bumped by ``invalidate_all``; every entry records the epoch it was
        #: stored under, so a bump retires the whole cache in O(1)
        self.epoch = 0
        # observability
        self.records = 0
        self.confirms = 0
        self.replays = 0
        self.mismatches = 0
        self.poisoned = 0
        self.fallbacks = 0
        self.invalidated = 0
        self.evictions = 0
        #: fast-forward windows committed / calls they covered
        self.fast_forwards = 0
        self.fast_forward_calls = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple) -> Optional[TraceEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def store(self, key: Tuple, entry: TraceEntry) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            # smod: allow(EPOCH001)  evicting never stales survivors: the
            # epoch only retires entries wholesale (invalidate_all)
            evicted_key, _ = self._entries.popitem(last=False)
            self._unindex(evicted_key)
            self.evictions += 1
        # smod: allow(EPOCH001)  inserting a fresh entry cannot stale it;
        # it is recorded under the current epoch by construction
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._by_session.setdefault(key[0], set()).add(key)

    def _unindex(self, key: Tuple) -> None:
        keys = self._by_session.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_session[key[0]]

    # ------------------------------------------------------------ invalidation
    def invalidate_session(self, session_id: int) -> int:
        stale = self._by_session.pop(session_id, None)
        if not stale:
            return 0
        for key in stale:
            # smod: allow(EPOCH001)  entries are removed outright, not staled;
            # the epoch exists for O(1) wholesale retirement only
            del self._entries[key]
        self.invalidated += len(stale)
        return len(stale)

    def invalidate_module(self, m_id: int) -> int:
        stale = [key for key, entry in self._entries.items()
                 if m_id in entry.m_ids]
        for key in stale:
            # smod: allow(EPOCH001)  entries are removed outright, not staled;
            # the epoch exists for O(1) wholesale retirement only
            del self._entries[key]
            self._unindex(key)
        self.invalidated += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self._by_session.clear()
        self.invalidated += count
        self.epoch += 1
        return count

    def snapshot(self) -> Dict[str, int]:
        hot = sum(1 for e in self._entries.values() if e.state == TRACE_HOT)
        return {"entries": len(self._entries), "hot": hot,
                "records": self.records, "confirms": self.confirms,
                "replays": self.replays, "mismatches": self.mismatches,
                "poisoned": self.poisoned, "fallbacks": self.fallbacks,
                "invalidated": self.invalidated, "evictions": self.evictions,
                "fast_forwards": self.fast_forwards,
                "fast_forward_calls": self.fast_forward_calls}




class SmodDispatcher:
    """Executes protected calls for established sessions."""

    def __init__(self, kernel, *,
                 decision_cache: Optional[DecisionCache] = None,
                 trace_cache: Optional[TraceCache] = None) -> None:
        self.kernel = kernel
        self.calls_dispatched = 0
        self.calls_denied = 0
        # explicit None check: an *empty* cache is falsy (it has __len__)
        self.decision_cache = (decision_cache if decision_cache is not None
                               else DecisionCache())
        self.trace_cache = (trace_cache if trace_cache is not None
                            else TraceCache())
        # decision invalidations retire the traces recorded under them
        self.decision_cache.trace_cache = self.trace_cache
        #: pure observation — recording never charges the virtual clock
        self.telemetry: Telemetry = NULL_TELEMETRY
        #: span tracing, same contract: observation only, null by default
        self.tracer: Tracer = NULL_TRACER
        #: overload protection (token-bucket admission); None = unprotected,
        #: and the entry check compiles down to one attribute test
        self.overload: Optional[OverloadController] = None
        self.calls_shed = 0
        #: (config, n) -> the widened config of a one-chunk flush of n calls
        self._flush_configs: Dict[Tuple[DispatchConfig, int],
                                  DispatchConfig] = {}

    # ------------------------------------------------------------------ helpers
    def _admit(self, session: Session, tokens: int) -> bool:
        """Token-bucket admission at the dispatch entry.

        Runs *before* any trace lookup or recording, so its charges — one
        SMOD_ADMIT_CHECK per decision, one SMOD_ADMIT_REFILL when the
        check refilled the bucket — never land inside a recorded span, and
        a refused call never touches the trace machinery at all.  The
        refusal therefore has honest nonzero virtual cost without ever
        being able to poison a HOT key.
        """
        overload = self.overload
        if overload is None or not overload.admission_active:
            return True
        machine = self.kernel.machine
        admitted, refilled = overload.admit(
            session.client.pid, machine.microseconds(), tokens)
        machine.charge(costs.SMOD_ADMIT_CHECK)
        if refilled:
            machine.charge(costs.SMOD_ADMIT_REFILL)
        if not admitted:
            self.calls_shed += tokens
        return admitted

    def _policy_check(self, session: Session, module: RegisteredModule,
                      function: SecFunction, *,
                      pending_calls: int = 0) -> Tuple[bool, str]:
        machine = self.kernel.machine
        ctx = session.policy_context(
            module, function.name, now_us=machine.microseconds(),
            args_words=function.arg_words, pending_calls=pending_calls)
        decision = module.definition.policy.evaluate(ctx)
        if decision.steps:
            machine.charge(costs.SMOD_POLICY_STEP, decision.steps)
        return decision.allowed, decision.reason

    def _policy_check_cached(self, session: Session, module: RegisteredModule,
                             function: SecFunction,
                             config: DispatchConfig, *,
                             pending_calls: int = 0) -> Tuple[bool, str]:
        """Per-call policy check, memoized for static chains.

        A hit costs one :data:`~repro.sim.costs.SMOD_POLICY_CACHE_HIT` charge
        instead of re-walking the policy chain.  Only decisions from chains
        that (a) declare themselves static and (b) actually cost at least one
        step are stored — memoizing the paper's zero-step always-allow
        baseline would make a hit *more* expensive than the evaluation.
        """
        policy = module.definition.policy
        if not config.use_decision_cache or not policy_is_cacheable(policy):
            # dynamic chains are the only ones that can read call counts, so
            # the batch's pending-call offset only matters on this branch
            return self._policy_check(session, module, function,
                                      pending_calls=pending_calls)
        cached = self.decision_cache.lookup(session, module.m_id,
                                            function.func_id)
        if cached is not None:
            self.kernel.machine.charge(costs.SMOD_POLICY_CACHE_HIT)
            return cached.allowed, cached.reason
        machine = self.kernel.machine
        ctx = session.policy_context(
            module, function.name, now_us=machine.microseconds(),
            args_words=function.arg_words)
        decision = policy.evaluate(ctx)
        if decision.steps:
            machine.charge(costs.SMOD_POLICY_STEP, decision.steps)
            self.decision_cache.store(session, module.m_id, function.func_id,
                                      decision)
        return decision.allowed, decision.reason

    def _apply_hardening(self, session: Session,
                         mode: HardeningMode) -> None:
        machine = self.kernel.machine
        if mode is HardeningMode.UNMAP_CLIENT:
            # "simply unmap the entire data and stack region of the client
            # ... during the kernel level execution of sys_smod_call" — the
            # simulation charges the page-table work for the client's shared
            # entries without destroying the mappings (they come right back).
            for entry in session.client.vmspace.shared_entries():
                machine.charge(costs.UVM_PAGE_OP, entry.pages)
            machine.charge(costs.UVM_MAP_ENTRY_OP,
                           max(1, len(session.client.vmspace.shared_entries())))
        elif mode is HardeningMode.SUSPEND_CLIENT:
            # "forcibly remove the client (and all threads related to the
            # client) from the ready queue" — cheaper for the kernel.
            self.kernel.sched.suspend(session.client)
            machine.charge(costs.SCHED_ENQUEUE)

    def _undo_hardening(self, session: Session, mode: HardeningMode) -> None:
        machine = self.kernel.machine
        if mode is HardeningMode.UNMAP_CLIENT:
            for entry in session.client.vmspace.shared_entries():
                machine.charge(costs.UVM_PAGE_OP, entry.pages)
            machine.charge(costs.UVM_MAP_ENTRY_OP,
                           max(1, len(session.client.vmspace.shared_entries())))
        elif mode is HardeningMode.SUSPEND_CLIENT:
            self.kernel.sched.resume(session.client)
            machine.charge(costs.SCHED_ENQUEUE)

    # ----------------------------------------------------- trace-replay helpers
    def _flush_key(self, session: Session, found_list,
                   config: DispatchConfig) -> Optional[Tuple]:
        """The trace-cache key of this flush, or None when its charge
        sequence may not be recorded and replayed at all.

        Everything that can make the sequence vary call-to-call under an
        unchanged key stays on the op-by-op path: stateful (non-static)
        policy chains, variable-cost function bodies, Figure 3 checkpoint
        recording, a live event TraceBuffer (replay skips its emits) and
        names that do not resolve.
        """
        if (not config.use_trace_replay or config.record_checkpoints
                or self.kernel.machine.trace.enabled
                or not session.established or session.torn_down):
            return None
        pairs = []
        for found in found_list:
            if found is None:
                return None
            module, function = found
            if not function.fixed_cost or (
                    config.per_call_policy_check
                    and not policy_is_cacheable(module.definition.policy)):
                return None
            pairs.append((module.m_id, function.func_id))
        return self._key(session, pairs, config)

    @staticmethod
    def _shared_entry_signature(session: Session) -> Tuple[int, ...]:
        """Page counts of the client's shared map entries (UNMAP hardening
        charges are a function of these, so they guard those traces)."""
        return tuple(e.pages
                     for e in session.client.vmspace.shared_entries())
    def _trace_guard_ok(self, entry: TraceEntry, session: Session) -> bool:
        """Cheap precondition re-validation before a replay."""
        if not session.established or session.torn_down:
            return False
        if session.policy_epoch != entry.policy_epoch:
            return False
        if session.handle.trace_epoch != entry.handle_epoch:
            return False
        if entry.cache_epoch != self.trace_cache.epoch:
            return False
        if entry.hardening_sig is not None and \
                entry.hardening_sig != self._shared_entry_signature(session):
            return False
        return True

    def _begin_trace_recording(self, session: Session):
        """Arm the meter's charge log and snapshot every affected counter."""
        recorder = self.kernel.machine.meter.record_trace()
        if not recorder.start():
            return None
        cache = self.decision_cache
        cache.start_touch_log()
        snapshot = (self.calls_dispatched, self.calls_denied,
                    session.handle.calls_served,
                    cache.hits, cache.misses, cache.batch_epoch_checks,
                    cache.batch_served, cache.evictions, cache.invalidations,
                    len(cache))
        return (recorder, snapshot)

    def _abort_trace_recording(self, recording) -> None:
        recorder, _ = recording
        recorder.abort()
        self.decision_cache.stop_touch_log()

    def _finish_trace_recording(self, recording, key: Tuple,
                                session: Session, found_list,
                                outcomes: List[DispatchOutcome],
                                config: DispatchConfig) -> None:
        """Turn one recorded op-by-op flush into a (confirming) trace entry."""
        recorder, before = recording
        raw_ops = recorder.stop()
        touches = self.decision_cache.stop_touch_log()
        cache = self.decision_cache
        (d0, n0, s0, h0, m0, bc0, bs0, ev0, inv0, len0) = before
        if (cache.evictions != ev0 or cache.invalidations != inv0
                or len(cache) != len0):
            # the span changed the decision cache's *structure* (a first-call
            # store, an eviction): not steady state yet — a replay could not
            # repeat it.  The next execution records again.
            return
        entry = TraceEntry()
        entry.state = TRACE_CONFIRMING
        entry.strikes = 0
        entry.raw_ops = raw_ops
        entry.trace = None
        entry.policy_epoch = session.policy_epoch
        entry.handle_epoch = session.handle.trace_epoch
        entry.cache_epoch = self.trace_cache.epoch
        entry.hardening_sig = (
            self._shared_entry_signature(session)
            if config.hardening is HardeningMode.UNMAP_CLIENT else None)
        entry.dispatched = self.calls_dispatched - d0
        entry.denied = self.calls_denied - n0
        entry.served = session.handle.calls_served - s0
        entry.cache_hits = cache.hits - h0
        entry.cache_misses = cache.misses - m0
        entry.cache_batch_checks = cache.batch_epoch_checks - bc0
        entry.cache_batch_served = cache.batch_served - bs0
        entry.cache_touch_keys = touches
        entry.env = CallEnvironment(kernel=self.kernel, session=session,
                                    client=session.client,
                                    handle=session.handle.proc)
        entry.handle = session.handle
        entry.plan = tuple((module, function, outcome.errno)
                           for (module, function), outcome
                           in zip(found_list, outcomes))
        entry.plan_by_pair = {(module.m_id, function.func_id): errno
                              for module, function, errno in entry.plan}
        entry.m_ids = frozenset(module.m_id for module, _, _ in entry.plan)
        entry.any_executed = any(errno is None for _, _, errno in entry.plan)
        entry.depth = len(entry.plan)
        executed: Dict[int, List] = {}
        for module, _, errno in entry.plan:
            slot = executed.setdefault(module.m_id, [module, 0])
            if errno is None:
                slot[1] += 1
        entry.note_plan = tuple(tuple(slot) for slot in executed.values())
        self._observe_trace(key, entry)

    def _observe_trace(self, key: Tuple, entry: TraceEntry) -> None:
        """The record → confirm → hot state machine for one key."""
        cache = self.trace_cache
        existing = cache.lookup(key)
        if (existing is not None and existing.state != TRACE_POISONED
                and existing.charge_signature() == entry.charge_signature()
                and existing.effects_signature() == entry.effects_signature()):
            # a second execution reproduced the sequence exactly: promote
            # (the guards are refreshed from this, newest, execution)
            entry.state = TRACE_HOT
            entry.trace = self.kernel.machine.meter.build_trace(entry.raw_ops)
            cache.confirms += 1
            cache.store(key, entry)
            return
        if existing is not None:
            cache.mismatches += 1
            entry.strikes = existing.strikes + 1
            if entry.strikes >= TRACE_MISMATCH_LIMIT:
                entry.state = TRACE_POISONED
                cache.poisoned += 1
        cache.records += 1
        cache.store(key, entry)

    def _credit(self, entry: TraceEntry, n: int) -> None:
        """Apply ``n`` spans of a hot trace in bulk: the scaled trace charge
        (cycles, events and the op histogram all multiply exactly) and
        every counter delta the op-by-op execution would have made."""
        self.kernel.machine.meter.charge_trace(entry.trace.scaled(n))
        if (entry.cache_hits or entry.cache_misses
                or entry.cache_batch_checks or entry.cache_batch_served):
            self.decision_cache.credit_replay(
                hits=entry.cache_hits * n, misses=entry.cache_misses * n,
                batch_epoch_checks=entry.cache_batch_checks * n,
                batch_served=entry.cache_batch_served * n)
        self.calls_dispatched += entry.dispatched * n
        self.calls_denied += entry.denied * n
        entry.handle.calls_served += entry.served * n

    def _observe_flush(self, session: Session, calls: int, depth: int,
                       module: Optional[RegisteredModule], span_us: float,
                       n: int = 1) -> None:
        """Dispatch-level telemetry of ``n`` identical flushes of ``calls``
        calls, ``depth`` of which reached the kernel: a single call feeds
        its module's latency histogram, a longer queue the batch ones."""
        if calls == 1:
            self.telemetry.record_dispatch(session.session_id, module.name,
                                           span_us, n=n)
        else:
            self.telemetry.record_batch(session.session_id, depth, span_us,
                                        n=n)

    def _observe_span(self, entry: TraceEntry, session: Session,
                      span_us: float, n: int = 1) -> None:
        """Telemetry of ``n`` replayed spans of ``entry``, including the
        handle-queue depth the op-by-op handle records itself."""
        if entry.any_executed:
            self.telemetry.record_handle_queue(entry.handle.proc.pid,
                                               entry.depth, n=n)
        self._observe_flush(session, entry.depth, entry.depth,
                            entry.note_plan[0][0], span_us, n)

    def _replay(self, entry: TraceEntry, session: Session, calls,
                found_list) -> Optional[BatchOutcome]:
        """Replay one hot trace; None → take the op-by-op path.

        The trace key is the *sorted* shape, so this flush may be any
        permutation of the recorded one; per-entry outcomes come from the
        plan re-keyed by (m_id, func_id) rather than by position.
        """
        machine = self.kernel.machine
        watch = (Stopwatch(machine.clock, machine.spec.mhz)
                 if self.telemetry.enabled else None)
        if entry.cache_touch_keys and not self.decision_cache.replay_touch(
                session, entry.cache_touch_keys):
            self.trace_cache.fallbacks += 1
            return None
        self._credit(entry, 1)
        self.trace_cache.replays += 1
        env = entry.env
        plan = entry.plan_by_pair
        outcomes: List[DispatchOutcome] = []
        for (module, function), (_, args) in zip(found_list, calls):
            errno = plan[(module.m_id, function.func_id)]
            if errno is not None:
                outcomes.append(DispatchOutcome(errno=errno))
            else:
                session.note_call(module)
                outcomes.append(
                    DispatchOutcome(value=function.impl(env, *args)))
        if watch is not None:
            self._observe_span(entry, session, watch.elapsed_us())
        return BatchOutcome(outcomes=outcomes)

    # ------------------------------------------------------------ fast-forward
    def fast_forward_probe(self, session: Session,
                           key: Tuple) -> Optional[TraceEntry]:
        """May the span keyed ``key`` be fast-forwarded right now?

        The analytic tier's per-span admission check: the key must be HOT,
        every replay guard must hold, and the decision-cache touches the
        recorded span performs must be repeatable — and they are *applied
        here*, once per accumulated span, so the decision cache's LRU order
        and touch accounting stay identical to per-call replay.  Returns the
        entry to accumulate, or None (with the same ``fallbacks`` counter
        bump a failed replay takes) when the caller must flush and fall back
        to the replay/op-by-op path.
        """
        if self.kernel.machine.trace.enabled:
            return None
        overload = self.overload
        if overload is not None and overload.admission_active:
            # fast-forward folds n calls into one closed-form charge; that
            # would bypass the per-call admission decision (and its
            # charges), so protected runs stay on the per-call tiers
            return None
        entry = self.trace_cache.lookup(key)
        if entry is None or entry.state != TRACE_HOT:
            return None
        if not self._trace_guard_ok(entry, session):
            return None
        # inline, not shared with _replay: this runs once per fast-forwarded
        # call, where one more Python frame is measurable
        if entry.cache_touch_keys and not self.decision_cache.replay_touch(
                session, entry.cache_touch_keys):
            self.trace_cache.fallbacks += 1
            return None
        return entry

    def fast_forward_commit(self, entry: TraceEntry, session: Session,
                            n: int) -> None:
        """Settle ``n`` accumulated spans of ``entry`` as one closed-form
        charge.

        Everything a loop of ``n`` replays would apply, applied in bulk:
        :meth:`_credit`, per-module ``note_calls``, and the dispatch-level
        telemetry histograms via their bulk ``n`` parameter (the per-span
        decision-cache touches already ran in :meth:`fast_forward_probe`).
        """
        if n <= 0:
            return
        self._credit(entry, n)
        for module, executed in entry.note_plan:
            if executed:
                session.note_calls(module.m_id, executed * n)
        trace_cache = self.trace_cache
        trace_cache.fast_forwards += 1
        trace_cache.fast_forward_calls += n
        span_us = entry.trace.total_cycles / self.kernel.machine.spec.mhz
        if self.telemetry.enabled:
            self._observe_span(entry, session, span_us, n)
        tracer = self.tracer
        if tracer.enabled:
            # one synthesized span stands in for the whole window, so a
            # traced fast-forward run records O(windows) spans, not O(n)
            tracer.aggregate(SPAN_KINDS[entry.depth > 1], span_us=span_us,
                             n=n, client_id=session.client.pid,
                             session_id=session.session_id)

    # -------------------------------------------------------------- trace keys
    def flush_config(self, config: DispatchConfig,
                     n: int) -> DispatchConfig:
        """The config under which :meth:`call_batch` flushes a queue of
        ``n`` calls as one chunk: ``config`` itself when its
        ``batch_size`` already covers ``n``, else a memoized copy widened
        to ``n``."""
        if config.batch_size >= n:
            return config
        wide = self._flush_configs.get((config, n))
        if wide is None:
            wide = self._flush_configs[(config, n)] = replace(
                config, batch_size=n)
        return wide

    def trace_key(self, session: Session, names: Sequence[str],
                  config: DispatchConfig) -> Tuple:
        """The trace-cache key of one flush of the calls ``names`` under
        ``config`` (widened by :meth:`flush_config`):
        ``(session_id, sorted (m_id, func_id) pairs, config)``.  Every name
        must resolve in ``session``."""
        pairs = []
        for name in names:
            module, function = session.find_function(name)
            pairs.append((module.m_id, function.func_id))
        return self._key(session, pairs,
                         self.flush_config(config, len(names)))

    @staticmethod
    def _key(session: Session, pairs: List[Tuple[int, int]],
             config: DispatchConfig) -> Tuple:
        # sorted: every permutation of one multiset of calls shares a trace
        # — the per-entry charges and state deltas are permutation-invariant
        # sums, and outcomes replay by pair, not position
        pairs.sort()
        return (session.session_id, tuple(pairs), config)

    # -------------------------------------------------------------- kernel path
    def _prefetch(self, session: Session, frames,
                  config: DispatchConfig) -> Dict[Tuple[int, int], object]:
        """Batch-aware decision prefetch for a queue of more than one call.

        One epoch check (one SMOD_POLICY_CACHE_HIT charge) validates every
        memoized static decision the queue needs, instead of one check per
        entry; entries the prefetch cannot answer take the per-entry path.
        """
        if not (config.per_call_policy_check and config.use_decision_cache):
            return {}
        keys = []
        for frame in frames:
            module = session.modules.get(frame.module_id)
            if module is not None and policy_is_cacheable(
                    module.definition.policy):
                keys.append((frame.module_id, frame.func_id))
        if not keys:
            return {}
        prefetched = self.decision_cache.lookup_batch(session, keys)
        if prefetched:
            self.kernel.machine.charge(costs.SMOD_POLICY_CACHE_HIT)
        return prefetched

    def sys_smod_call(self, client: Proc, session: Optional[Session],
                      queue: BatchCallFrame, *,
                      config: DispatchConfig = DispatchConfig()
                      ) -> BatchOutcome:
        """The kernel half of a flush, already inside the trap (the
        ``smod_call`` and ``smod_call_batch`` traps both land here).

        Validates the session **once**, runs the (cached) policy check per
        entry, applies the §4.4 hardening **once**, and pays one request
        ``msgsnd`` + one switch-to-handle + one reply + one switch-back for
        the whole queue.  A per-entry failure marks that entry denied and
        the rest go on; the handle unwinds denied frames while draining.
        When no entry is allowed nothing is sent at all: the client stub
        unwinds every frame once the trap returns, as it does for a denied
        single call.
        """
        machine = self.kernel.machine
        frames = queue.frames
        machine.charge(costs.SMOD_SESSION_LOOKUP)
        if queue.batched:
            machine.charge(costs.SMOD_BATCH_SETUP)
        if session is None or not session.established or session.torn_down:
            self.calls_denied += len(frames)
            return BatchOutcome(errno=Errno.EINVAL)
        if session.client is not client:
            # the handle is bound to p and only p (paper question 2)
            self.calls_denied += len(frames)
            return BatchOutcome(errno=Errno.EPERM)
        prefetched = (self._prefetch(session, frames, config)
                      if queue.batched else None)

        outcomes: List[Optional[DispatchOutcome]] = [None] * len(frames)
        #: per entry: the function the handle runs, None to unwind the frame
        plan: List[Optional[SecFunction]] = [None] * len(frames)
        #: calls already granted in this queue, per module: the whole queue
        #: is validated before any entry runs, so quota/count clauses must
        #: see each entry against the count including its predecessors
        pending: Dict[int, int] = {}
        for index, frame in enumerate(frames):
            if queue.batched:
                machine.charge(costs.SMOD_BATCH_ENTRY)
            module = session.modules.get(frame.module_id)
            function = (session.handle.lookup_function(
                frame.module_id, frame.func_id) if module is not None else None)
            if function is None:
                self.calls_denied += 1
                outcomes[index] = DispatchOutcome(errno=Errno.ENOENT,
                                                  frame=frame)
                continue
            machine.charge(costs.SMOD_CRED_CHECK)
            if config.per_call_policy_check:
                decision = (prefetched.get((frame.module_id, frame.func_id))
                            if prefetched else None)
                if decision is not None:
                    # already validated by the queue's epoch check: no
                    # per-entry charge
                    self.decision_cache.note_batch_served()
                    allowed, reason = decision.allowed, decision.reason
                else:
                    allowed, reason = self._policy_check_cached(
                        session, module, function, config,
                        pending_calls=pending.get(frame.module_id, 0))
                if not allowed:
                    self.calls_denied += 1
                    machine.trace.emit("smod.call", "policy_denied",
                                       pid=client.pid, detail_reason=reason)
                    outcomes[index] = DispatchOutcome(errno=Errno.EACCES,
                                                      frame=frame)
                    continue
            pending[frame.module_id] = pending.get(frame.module_id, 0) + 1
            plan[index] = function
        if not pending:
            # nothing to run: no hardening, no message round trip, no switch
            return BatchOutcome(outcomes=outcomes)

        self._apply_hardening(session, config.hardening)
        # Everything between apply and undo can raise (the msg/sched plumbing,
        # the handle's receive); without the finally a SUSPEND_CLIENT-hardened
        # client would stay in Scheduler._suspended forever.
        try:
            if config.marshalling is MarshallingMode.EXPLICIT_COPY:
                # Arguments must be copied into a transfer buffer and back out:
                # the cost the shared-VM design avoids.  (Pointer-rich calls
                # such as malloc simply cannot work in this mode; the caller
                # asserts that separately in the marshalling ablation.)
                for function in plan:
                    if function is not None:
                        machine.charge_words(costs.COPY_WORD,
                                             function.arg_words * 2)
                machine.charge(costs.KMALLOC)

            # -- notify the handle and switch to it ----------------------------
            words: List[int] = []
            for frame in frames:
                words += (frame.module_id, frame.func_id, frame.return_address)
            request = Message(mtype=1, payload=tuple(words))
            self.kernel.msg.msgsnd(client, session.request_msqid, request)
            self.kernel.sched.switch_to(session.handle.proc)
            if self.kernel.msg.msgrcv(session.handle.proc,
                                      session.request_msqid, 1) is None:
                raise SimulationError("handle woke without a queued request")

            # -- the handle executes the functions on the shared stack ---------
            env = CallEnvironment(kernel=self.kernel, session=session,
                                  client=client, handle=session.handle.proc)
            results = session.handle.receive(
                session.shared_stack, queue, plan, env,
                record_checkpoints=config.record_checkpoints)

            # -- reply and switch back -----------------------------------------
            reply = Message(mtype=2, payload=(1,) * len(results))
            self.kernel.msg.msgsnd(session.handle.proc, session.reply_msqid,
                                   reply)
            self.kernel.sched.switch_to(client)
            self.kernel.msg.msgrcv(client, session.reply_msqid, 2)
            self.kernel.copyout(len(results))    # one return value per entry

            if config.marshalling is MarshallingMode.EXPLICIT_COPY:
                machine.charge(costs.KFREE)
        finally:
            self._undo_hardening(session, config.hardening)

        for index, value in results.items():
            frame = frames[index]
            outcomes[index] = DispatchOutcome(value=value, frame=frame)
            session.note_call(session.modules[frame.module_id])
            self.calls_dispatched += 1
        return BatchOutcome(outcomes=outcomes)

    # ---------------------------------------------------------------- user path
    def call(self, session: Session, function_name: str, *args: Any,
             config: DispatchConfig = DispatchConfig()) -> DispatchOutcome:
        """The full user-visible call: the queue of one.

        This is what the SecModule-converted libc's wrappers boil down to
        and what the Figure 8 benchmark loops over.  With admission control
        on, the call first pays one token-bucket check.
        """
        if not self._admit(session, 1):
            return DispatchOutcome(errno=Errno.EAGAIN)
        return self._dispatch(session, ((function_name, args),),
                              config).outcomes[0]

    def call_batch(self, session: Session,
                   calls: Sequence[Tuple[str, Tuple[Any, ...]]], *,
                   config: DispatchConfig = DispatchConfig()) -> BatchOutcome:
        """A queue of protected calls: ``[(function_name, args), ...]``.

        The queue is flushed in chunks of at most ``config.batch_size``
        entries; each chunk pays one trap and one context-switch pair.  A
        chunk of one is a single call, so ``batch_size=1`` is
        cycle-identical to issuing the calls one at a time.  An empty queue
        flushes nothing and charges nothing.

        Admission control charges one token per queued call, decided in a
        single bucket check up front: a queue that does not fit is refused
        whole (EAGAIN per entry) before any flush runs.
        """
        if not calls:
            return BatchOutcome()
        if not self._admit(session, len(calls)):
            return BatchOutcome(errno=Errno.EAGAIN, outcomes=[
                DispatchOutcome(errno=Errno.EAGAIN) for _ in calls])
        chunk = config.batch_size
        merged = BatchOutcome()
        for start in range(0, len(calls), chunk):
            flushed = self._dispatch(session, calls[start:start + chunk],
                                     config)
            merged.outcomes.extend(flushed.outcomes)
            if flushed.errno is not None and chunk > 1:
                # whole-queue rejection means the session is dead for this
                # client; don't burn a trap + push + unwind per remaining
                # chunk — fail the rest of the queue in place (chunks of one
                # are single calls, each failing on its own)
                merged.errno = flushed.errno
                merged.outcomes.extend(
                    DispatchOutcome(errno=flushed.errno)
                    for _ in calls[start + chunk:])
                break
        return merged

    def _dispatch(self, session: Session, calls,
                  config: DispatchConfig) -> BatchOutcome:
        """The one protected-call path: flush ``n >= 1`` calls in one trap.

        In steady state (a confirmed trace whose preconditions still hold)
        the whole flush replays as one aggregated clock charge; the first
        two executions of a key, and anything the trace cache cannot prove
        repeatable, run op by op in :meth:`_run`.
        """
        n = len(calls)
        found_list = [session.find_function(name) for name, _ in calls]
        if n == 1 and found_list[0] is None:
            # an unknown single call fails in the stub: nothing is charged
            return BatchOutcome(outcomes=[DispatchOutcome(errno=Errno.ENOENT)])
        tracer = self.tracer
        span = (tracer.start(SPAN_KINDS[n > 1], client_id=session.client.pid,
                             session_id=session.session_id)
                if tracer.enabled else None)
        tier = TIER_OP_BY_OP
        try:
            key = self._flush_key(session, found_list, config)
            if key is not None:
                entry = self.trace_cache.lookup(key)
                if entry is not None:
                    if entry.state == TRACE_HOT \
                            and self._trace_guard_ok(entry, session):
                        replayed = self._replay(entry, session, calls,
                                                found_list)
                        if replayed is not None:
                            tier = TIER_REPLAY
                            return replayed
                    elif entry.state == TRACE_POISONED:
                        key = None    # recording this key again is pure waste
            return self._run(session, calls, found_list, config, key)
        finally:
            # on every exit, a raising one included: a span left open would
            # become the causal parent of every later span
            if span is not None:
                tracer.finish(span, tier=tier)

    def _run(self, session: Session, calls, found_list,
             config: DispatchConfig, key: Optional[Tuple]) -> BatchOutcome:
        """The op-by-op flush: client stub, trap, kernel path and unwind,
        recorded into the trace cache under ``key`` when one is given."""
        machine = self.kernel.machine
        n = len(calls)
        recording = (self._begin_trace_recording(session)
                     if key is not None else None)
        watch = (Stopwatch(machine.clock, machine.spec.mhz)
                 if self.telemetry.enabled else None)
        stack = session.shared_stack
        try:
            machine.charge(costs.USER_CALL_OVERHEAD)  # one flush, not per call
            stub = BatchStub()
            #: entries whose name did not resolve: they never reach the stack
            #: or the kernel
            unknown: List[int] = []
            for index, found in enumerate(found_list):
                if found is None:
                    unknown.append(index)
                    continue
                module, function = found
                name, args = calls[index]
                stub.enqueue(ClientStub(name, module.m_id, function.func_id,
                                        arg_words=function.arg_words), args)
            if len(unknown) == n:
                if recording is not None:
                    self._abort_trace_recording(recording)
                return BatchOutcome(outcomes=[
                    DispatchOutcome(errno=Errno.ENOENT) for _ in calls])

            queue = stub.push_batch(
                stack, batched=n > 1, session_id=session.session_id,
                record_checkpoints=config.record_checkpoints)
            result = self.kernel.syscall(
                session.client,
                "smod_call_batch" if queue.batched else "smod_call",
                queue, config)
            frames = queue.frames
            flushed = result.value if not result.failed else BatchOutcome(
                outcomes=[DispatchOutcome(errno=result.errno, frame=frame)
                          for frame in frames], errno=result.errno)
            for outcome in flushed.outcomes:
                if outcome.errno is None:
                    break
            else:
                # no frame reached the handle (a whole-queue rejection or
                # every entry denied): the client stub unwinds them all,
                # topmost (first submission) first
                for frame in frames:
                    unwind_client_frame(stack, frame)
            if not queue.batched and flushed.outcomes[0].errno is None:
                # a single call's restored frame is the client stub's to pop
                ClientStub.pop_return(stack, frames[0])
            for index in unknown:
                flushed.outcomes.insert(index,
                                        DispatchOutcome(errno=Errno.ENOENT))
        except BaseException:
            if recording is not None:
                self._abort_trace_recording(recording)
            raise
        if recording is not None:
            if result.failed:
                # a dead/foreign session is not a steady state to memoize
                self._abort_trace_recording(recording)
            else:
                self._finish_trace_recording(recording, key, session,
                                             found_list, flushed.outcomes,
                                             config)
        if watch is not None:
            # a single call's histogram is labelled with its module
            self._observe_flush(session, n, len(frames),
                                found_list[0][0] if n == 1 else None,
                                watch.elapsed_us())
        return flushed
