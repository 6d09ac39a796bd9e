"""Virtual-time causal tracing: span trees over the simulated stack.

The metrics plane (:mod:`repro.telemetry.metrics`) answers *how long*;
this plane answers *where* and *why*: every flush of protected calls
becomes one attributed span tree (``traffic.request`` over its
``broker.queue_wait`` and ``rpc.serve_call`` → ``serve.call`` →
``serve.resolve``, ``dispatch.call``) with start/end stamped in
**virtual microseconds**, the same move the Dapper /
Pivot-Tracing lineage made for production RPC stacks.

Design constraints, in order — the same contract the metrics plane keeps:

1. **Non-perturbing.**  The tracer never charges the virtual clock or the
   cost meter; a span timestamp is a pure read of ``clock.cycles``
   (the :class:`~repro.sim.clock.Stopwatch` idiom), so cycle totals are
   byte-identical with tracing on or off.
2. **Compiled out by default.**  The shared :data:`NULL_TRACER` singleton
   answers every tap with an allocation-free no-op; instrumented sites
   guard with ``if tracer.enabled:`` and pay one attribute load.
3. **Bounded.**  Finished spans land in a fixed-capacity ring buffer (the
   **flight recorder**): the last N spans are always available, older
   spans are overwritten and counted in ``dropped`` — always-on tracing
   of a 10^7-call run stays O(capacity) memory.
4. **Deterministic.**  Head sampling keeps whole request trees for 1-in-K
   clients, decided per client id through a
   :class:`~repro.sim.rng.DeterministicRNG` child stream — no ambient
   entropy, so two runs of the same seed sample the same clients and the
   flight recorder's contents are reproducible.
5. **Per-call tiers only.**  Tracing runs on the op-by-op and replay
   tiers: the dispatcher refuses fast-forward windows while a tracer is
   enabled, so every span reads the true clock and a traced run's span
   trees are the same on every tier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.rng import DeterministicRNG

#: Default flight-recorder capacity (spans kept).
DEFAULT_CAPACITY = 65536

#: Dispatch-tier annotations spans carry in :attr:`Span.tier`.
TIER_OP_BY_OP = "op-by-op"
TIER_REPLAY = "replay"


#: The fields of a recorded span, in :meth:`Span.to_dict` order.
RECORDED_FIELDS = ("span_id", "parent_id", "kind", "start_us", "end_us",
                   "client_id", "session_id", "tier")


class Span:
    """One attributed interval of virtual time.

    ``start_us``/``end_us`` are virtual microseconds (cycles / MHz);
    ``parent_id`` links the causal tree; ``kind`` names the tap point
    (``dispatch.call``, ``pool.checkout``, ...); ``tier`` annotates which
    dispatch tier served it; ``unclosed`` marks a span force-closed at run
    end.
    """

    __slots__ = RECORDED_FIELDS + ("sampled", "unclosed")

    def __init__(self, span_id: int, parent_id: Optional[int], kind: str,
                 start_us: float, *, client_id: int = -1,
                 session_id: int = -1, tier: str = "",
                 sampled: bool = True) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.start_us = start_us
        self.end_us = start_us
        self.client_id = client_id
        self.session_id = session_id
        self.tier = tier
        self.sampled = sampled
        self.unclosed = False

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {name: getattr(self, name)
                                  for name in RECORDED_FIELDS}
        if self.unclosed:
            out["unclosed"] = True
        return out

    def __repr__(self) -> str:
        return (f"Span({self.kind} [{self.start_us:.3f}, "
                f"{self.end_us:.3f}]us client={self.client_id})")


class Tracer:
    """The facade the simulated layers open spans through.

    Sites guard every tap with ``if tracer.enabled:`` (the metrics-plane
    idiom), then call :meth:`start` / :meth:`finish` around live work and
    :meth:`interval` for a wait whose bounds are already known (queue
    delays).  Spans nest through an explicit stack — virtual time is
    single-threaded, so the innermost open span is the causal parent
    unless the caller names one (``parent=``).
    """

    #: class attribute so the null subclass can flip it without state
    enabled: bool = True

    def __init__(self, clock, mhz: float, *,
                 capacity: int = DEFAULT_CAPACITY,
                 sample_every: int = 1, seed: int = 0x51A9) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be >= 1 (1 = keep all)")
        self._clock = clock
        self._inv_mhz = 1.0 / mhz
        self.capacity = capacity
        self.sample_every = sample_every
        self._rng = DeterministicRNG(seed)
        self._sample_cache: Dict[int, bool] = {}
        self._ring: List[Span] = []
        self._next = 0
        self._stack: List[Span] = []
        self._span_seq = 0
        self.started = 0
        self.finished = 0
        self.dropped = 0
        self.sampled_out = 0

    # ------------------------------------------------------------------ clock
    def now_us(self) -> float:
        """Current virtual time — a pure observation of the clock."""
        return self._clock.cycles * self._inv_mhz

    # --------------------------------------------------------------- sampling
    def client_sampled(self, client_id: int) -> bool:
        """Deterministic head-sampling decision for one client id.

        1-in-K (``sample_every``) on average, decided once per client from
        a :class:`DeterministicRNG` child stream keyed by the id — stable
        across runs, independent of call order, no ambient entropy.
        Negative ids (system work: health probes, drains) are always kept.
        """
        if self.sample_every <= 1 or client_id < 0:
            return True
        cached = self._sample_cache.get(client_id)
        if cached is None:
            draw = self._rng.child(f"trace-head-{client_id}")
            cached = draw.integer(0, self.sample_every - 1) == 0
            self._sample_cache[client_id] = cached
        return cached

    # ------------------------------------------------------------- span taps
    def _link(self, parent: Optional[Span], client_id: int,
              session_id: int) -> Tuple[Optional[int], bool, int, int]:
        """A new span's parent id, head-sampling decision, client and
        session.  The parent (``parent``, else the innermost open span)
        lends its decision and fills unset ids; a root decides from its
        client id."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if parent is None:
            return (None, self.client_sampled(client_id), client_id,
                    session_id)
        if client_id < 0:
            client_id = parent.client_id
        if session_id < 0:
            session_id = parent.session_id
        return parent.span_id, parent.sampled, client_id, session_id

    def start(self, kind: str, *, client_id: int = -1, session_id: int = -1,
              tier: str = "", start_us: Optional[float] = None) -> Span:
        """Open a span and push it on the causal stack.

        It starts at ``start_us`` when given (a request that arrived
        before the clock reached it), else at the current virtual time.
        Children inherit the head-sampling decision of the innermost open
        span; a root span decides from its client id."""
        parent_id, sampled, client_id, session_id = self._link(
            None, client_id, session_id)
        self._span_seq += 1
        span = Span(self._span_seq, parent_id, kind,
                    self.now_us() if start_us is None else start_us,
                    client_id=client_id, session_id=session_id, tier=tier,
                    sampled=sampled)
        self.started += 1
        self._stack.append(span)
        return span

    def finish(self, span: Optional[Span], *,
               tier: Optional[str] = None) -> None:
        """Close ``span`` at the current virtual time and record it.

        ``tier`` set here overrides the one given at :meth:`start` — the
        dispatch tier is often only known once the call has been served.
        Tolerates ``None`` (a site that started nothing) and out-of-order
        closes (the span is removed wherever it sits on the stack)."""
        if span is None:
            return
        span.end_us = self.now_us()
        if tier is not None:
            span.tier = tier
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # defensive: unwind a mismatched close
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
        self.finished += 1
        if span.sampled:
            self._record(span)
        else:
            self.sampled_out += 1

    def interval(self, kind: str, start_us: float, end_us: float, *,
                 client_id: int = -1, session_id: int = -1, tier: str = "",
                 parent: Optional[Span] = None) -> Optional[Span]:
        """Record a completed span whose bounds are already known — a
        queue wait measured by the layer itself.  Attached under
        ``parent`` (the request it delays), else under the innermost open
        span, if any.  A ``parent`` never starts after its wait: a wait
        read off the cycle-rounded clock may begin a fraction of a cycle
        before the arrival time its request was opened at, and the
        request's start moves back to cover it."""
        if parent is not None and start_us < parent.start_us:
            parent.start_us = start_us
        parent_id, sampled, client_id, session_id = self._link(
            parent, client_id, session_id)
        self._span_seq += 1
        self.started += 1
        self.finished += 1
        if not sampled:
            self.sampled_out += 1
            return None
        span = Span(self._span_seq, parent_id, kind, start_us,
                    client_id=client_id, session_id=session_id, tier=tier,
                    sampled=True)
        span.end_us = end_us
        self._record(span)
        return span

    # --------------------------------------------------------- flight recorder
    def _record(self, span: Span) -> None:
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(span)
        else:
            ring[self._next] = span
            self._next += 1
            if self._next == self.capacity:
                self._next = 0
            self.dropped += 1

    def spans(self) -> List[Span]:
        """Recorded spans, oldest first (the ring, unwound)."""
        ring = self._ring
        if self._next == 0:
            return list(ring)
        return ring[self._next:] + ring[:self._next]

    def open_spans(self) -> List[Span]:
        """Spans started but not yet finished (outermost first)."""
        return list(self._stack)

    def drain(self) -> int:
        """Force-close every open span at the current virtual time (run
        end, abandoned requests).  Closed spans are flagged ``unclosed``
        and recorded; returns how many were drained."""
        drained = 0
        while self._stack:
            span = self._stack[-1]
            span.unclosed = True
            self.finish(span)
            drained += 1
        return drained

    # ------------------------------------------------------------------ views
    def stats(self) -> Dict[str, int]:
        return {
            "started": self.started,
            "finished": self.finished,
            "recorded": len(self._ring),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
            "open": len(self._stack),
            "capacity": self.capacity,
            "sample_every": self.sample_every,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable flight-recorder contents plus counters."""
        return {
            "stats": self.stats(),
            "spans": [span.to_dict() for span in self.spans()],
        }


class NullTracer(Tracer):
    """The compiled-out default: every tap is an allocation-free no-op.

    No clock, no ring, no RNG — construction takes nothing and the
    overridden taps touch no instance state, so the disabled path is a
    branch on the ``enabled`` class attribute and an early return.
    """

    enabled = False

    def __init__(self) -> None:  # noqa: D401 - deliberately not calling super
        pass

    def now_us(self) -> float:
        return 0.0

    def client_sampled(self, client_id: int) -> bool:
        return False

    def start(self, kind: str, *, client_id: int = -1, session_id: int = -1,
              tier: str = "", start_us: Optional[float] = None
              ) -> Optional[Span]:  # type: ignore[override]
        return None

    def interval(self, kind: str, start_us: float, end_us: float, *,
                 client_id: int = -1, session_id: int = -1, tier: str = "",
                 parent: Optional[Span] = None) -> Optional[Span]:
        return None

    def spans(self) -> List[Span]:
        return []

    def open_spans(self) -> List[Span]:
        return []

    def drain(self) -> int:
        return 0

    def stats(self) -> Dict[str, int]:
        return {}

    def snapshot(self) -> Dict[str, object]:
        return {}


#: The shared disabled instance every component starts wired to.
NULL_TRACER = NullTracer()


def make_tracer(enabled: bool, clock=None, mhz: float = 0.0, *,
                capacity: int = DEFAULT_CAPACITY, sample_every: int = 1,
                seed: int = 0x51A9) -> Tracer:
    """A live :class:`Tracer` when enabled, the shared null otherwise."""
    if not enabled:
        return NULL_TRACER
    if clock is None or mhz <= 0.0:
        raise ValueError("a live tracer needs the virtual clock and MHz")
    return Tracer(clock, mhz, capacity=capacity, sample_every=sample_every,
                  seed=seed)
