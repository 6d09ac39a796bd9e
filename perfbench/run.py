#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ff-steady --seed 1 --seconds 10 --trace 0

A run, in one process:

1. cold starts: fresh interpreters import the package, build the
   workload and make one protected call (``setup_s``);
2. tier check: the workload at reduced length on the op-by-op tier and on
   the default tiers must keep identical books;
3. audited pass: one full-length run with outcome, idle and closed-loop
   delay hooks; it yields the virtual metrics, the virtual ledger and the
   backlog guard;
4. timed repetitions of the full-length run for ``--seconds`` (tracing
   off), each with books identical to the audited pass (``calls_per_s``);
5. with ``--trace 1``: traced repetitions with every layer's entry points
   wrapped, whose books must also be identical; they give the per-layer
   metrics instead of the end-to-end ones.

The last line of standard output is the JSON result.  A failed check
prints ``"correct": false`` with no metrics and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from repro.secmodule.dispatch import DispatchConfig  # noqa: E402
from repro.sim.stats import mean, percentile  # noqa: E402
from repro.workloads.traffic import TrafficEngine  # noqa: E402

import ledger  # noqa: E402
import reference  # noqa: E402
from books import Audit, Books  # noqa: E402
from layers import LayerTracer, Patches  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

COLD_STARTS = 7
COLD_START_TIMEOUT_S = 60
MIN_REPS = 3
MAX_TRACED_REPS = 3
#: open-loop backlog guard: the second half's response p99 may exceed the
#: first half's by at most this share
BACKLOG_TOLERANCE = 0.10
OP_BY_OP = DispatchConfig(use_trace_replay=False, use_fast_forward=False)


class CheckFailed(Exception):
    """A correctness check failed; the run reports no number."""


# ---------------------------------------------------------------- set-up
def cold_starts(workload: Workload, seed: int) -> Dict[str, float]:
    """Median seconds from a fresh interpreter to the first call, scaled
    to the nominal host speed (see ``reference.py``)."""
    argv = [sys.executable, str(HERE / "cold_start.py"),
            json.dumps(workload.spec_kwargs(seed))]
    totals: List[float] = []
    imports: List[float] = []
    builds: List[float] = []
    for _ in range(COLD_STARTS):
        before = reference.seconds()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            watchdog = threading.Timer(COLD_START_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                line = child.stdout.readline()
                totals.append(time.perf_counter() - start)
                child.stdout.read()
                status = child.wait()
            finally:
                watchdog.cancel()
        if status != 0 or not line:
            raise CheckFailed("cold start exited without a first call")
        after = reference.seconds()
        totals[-1] = reference.scaled(totals[-1], before, after)
        report = json.loads(line)
        imports.append(reference.scaled(report["import_s"], before, after))
        builds.append(reference.scaled(report["build_s"], before, after))
    return {"setup_s": statistics.median(totals),
            "import_s": statistics.median(imports),
            "build_s": statistics.median(builds)}


# ------------------------------------------------------------ tier check
def tier_check(workload: Workload, seed: int) -> None:
    """Op-by-op and the default tiers must keep identical books."""
    spec = workload.spec(seed, reduced=True)
    books = []
    for config in (OP_BY_OP, None):
        engine = TrafficEngine(spec, dispatch_config=config)
        books.append(Books.of(engine, engine.run()))
    differs = books[0].differences(books[1])
    if differs:
        raise CheckFailed(f"op-by-op and default tiers differ in {differs}")


# --------------------------------------------------------- audited pass
def client_responses(engine, audit: Audit) -> List[List[float]]:
    """Per client, chronological virtual response times (delay + service)."""
    out = []
    for state in engine.clients:
        if engine.spec.arrival == "closed":
            delays = audit.closed_delays.get(state.index, [])
        else:
            delays = state.queue_delays_us
        if len(delays) != len(state.latencies_us):
            raise CheckFailed("queue delays and service times do not pair up")
        out.append([d + s for d, s in zip(delays, state.latencies_us)])
    return out


def check_backlog(responses: List[List[float]]) -> None:
    """Open-loop guard: the response p99 must not grow over the run.

    A growing backlog makes later calls slower; a slower *first* half is
    the synchronised start (every MMPP client begins in a burst).
    """
    first, second = [], []
    for client in responses:
        half = len(client) // 2
        first.extend(client[:half])
        second.extend(client[half:])
    p1, p2 = percentile(first, 99), percentile(second, 99)
    if p2 > (1.0 + BACKLOG_TOLERANCE) * p1:
        raise CheckFailed(
            f"backlog: response p99 {p1:.2f}us in the first half, "
            f"{p2:.2f}us in the second; the load is past saturation")


def audited_pass(workload: Workload, seed: int) -> Tuple[Books, Dict]:
    """One full-length run with the audit hooks; the virtual metrics."""
    spec = workload.spec(seed)
    audit = Audit()
    with Patches() as patches:
        audit.install(patches)
        engine = TrafficEngine(spec).build()
        meter = engine.machine.meter
        built_ops = dict(meter.op_counts)
        sheds_before = (engine.extension.broker.seat_sheds
                        + engine.extension.dispatcher.calls_shed)
        audit.armed = True
        result = engine.run()
        audit.armed = False
    books = Books.of(engine, result)
    attempted = spec.clients * spec.calls_per_client

    # every attempted call was served, denied or shed, and no other way
    shed = attempted - result.total_calls
    counted_sheds = (engine.extension.broker.seat_sheds
                     + engine.extension.dispatcher.calls_shed - sheds_before)
    if shed != counted_sheds:
        raise CheckFailed(f"{shed} calls missing but {counted_sheds} shed")
    if (audit.calls, audit.denied) != (result.total_calls,
                                       result.denied_calls):
        raise CheckFailed("audited calls disagree with the engine's counts")

    # the virtual ledger: sections plus idle equal the clock, exactly
    profile = meter.profile
    whole = ledger.section_cycles(meter.op_counts, profile)
    if sum(whole.values()) + audit.idle_cycles != engine.machine.clock.cycles:
        raise CheckFailed("section cycles plus idle miss the clock total")
    run_sections = ledger.section_cycles(
        ledger.count_delta(meter.op_counts, built_ops), profile)
    if sum(run_sections.values()) + audit.run_idle_cycles != \
            result.total_cycles:
        raise CheckFailed("run section cycles plus idle miss the run total")

    responses = client_responses(engine, audit)
    mhz = engine.machine.spec.mhz
    latencies = result.latencies_us
    all_responses = [r for client in responses for r in client]
    served = result.total_calls - result.denied_calls
    errors = shed + audit.unexpected
    virt = {
        "virt_service_us_mean": mean(latencies),
        "virt_response_us_p99": percentile(all_responses, 99),
        "virt_goodput_per_ms": served / (result.elapsed_us / 1000.0),
        "ok_frac": 1.0 - errors / attempted,
    }
    per_layer = {
        "virt.service_cycles_p50": percentile(latencies, 50) * mhz,
        "virt.service_cycles_p99": percentile(latencies, 99) * mhz,
        "virt.service_samples": len(latencies),
        "virt.response_samples": len(all_responses),
        "virt.idle.cycles_per_call": audit.run_idle_cycles / attempted,
    }
    for section, cycles in run_sections.items():
        per_layer[f"virt.{section}.cycles_per_call"] = cycles / attempted
    return books, {"virt": virt, "per_layer": per_layer,
                   "responses": responses, "attempted": attempted,
                   "unexpected": audit.unexpected}


# ---------------------------------------------------------- timed passes
def _timed_run(engine) -> Tuple[object, float]:
    gc.collect()
    start = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - start


def timed_reps(workload: Workload, seed: int, seconds: float,
               books: Books) -> Tuple[List[float], List[float]]:
    """Host seconds of each timed ``run()`` (the build is not timed), raw
    and scaled to the nominal host speed."""
    spec = workload.spec(seed)
    raw: List[float] = []
    scaled: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_REPS or time.perf_counter() < deadline:
        engine = TrafficEngine(spec).build()
        before = reference.seconds()
        result, elapsed = _timed_run(engine)
        after = reference.seconds()
        if Books.of(engine, result) != books:
            raise CheckFailed("a repetition's virtual books differ")
        raw.append(elapsed)
        scaled.append(reference.scaled(elapsed, before, after))
        del engine, result
    return raw, scaled


def layer_counters(engine) -> Dict[str, float]:
    """The layers' own public counters, read from outside."""
    ext = engine.extension
    traces = ext.dispatcher.trace_cache
    cache = ext.decision_cache
    out = {"replays": traces.replays, "ff_calls": traces.fast_forward_calls,
           "ff_windows": traces.fast_forwards, "records": traces.records,
           "cache_hits": cache.hits, "cache_misses": cache.misses,
           "seat_sheds": ext.broker.seat_sheds,
           "switches": engine.kernel.sched.context_switches,
           "spans_started": engine.tracer.stats().get("started", 0),
           "pool_checkouts": 0, "pool_waits": 0, "pool_wait_us": 0.0,
           "pool_sheds": 0}
    if engine.frontend is not None:
        status = engine.frontend.status(probe=False)
        for stats in status["pools"].values():
            out["pool_checkouts"] += stats["checkouts"]
            out["pool_waits"] += stats["waits"]
            out["pool_wait_us"] += stats["total_wait_us"]
            out["pool_sheds"] += stats["refusals"]
        out["pool_sheds"] += sum(status["overload"]["pool_sheds"].values())
    return out


@dataclass
class TracedRep:
    """One traced run, its span totals read before anything else ran."""

    books: Books
    result: object
    elapsed: float
    layers: Dict[str, Dict[str, float]]
    spanned_s: float
    charges: int
    rpc_calls: int
    #: layer counters accumulated over the run
    counters: Dict[str, float]
    trace_cache: Dict[str, int]


def traced_rep(workload: Workload, seed: int) -> TracedRep:
    """One full-length run with every layer's entry points wrapped."""
    spec = workload.spec(seed)
    tracer = LayerTracer()
    with Patches() as patches:
        tracer.install(patches)
        engine = TrafficEngine(spec).build()
        before = layer_counters(engine)
        tracer.reset()
        result, elapsed = _timed_run(engine)
    # the engine still holds wrapped bound methods, so read the spans
    # before the counters below call into it
    rep = TracedRep(
        books=Books.of(engine, result), result=result, elapsed=elapsed,
        layers=tracer.layer_totals(), spanned_s=tracer.spanned_s,
        charges=tracer.spans_of("sim.costs", "CostMeter.charge"),
        rpc_calls=tracer.spans_of("rpc", "RpcClient.clnt_call"),
        counters={}, trace_cache={})
    after = layer_counters(engine)
    rep.counters = {key: after[key] - before[key] for key in after}
    rep.trace_cache = engine.extension.dispatcher.trace_cache.snapshot()
    return rep


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload: Workload, seed: int, seconds: float,
                      books: Books, untraced_s: float,
                      attempted: int) -> Dict[str, float]:
    reps: List[TracedRep] = []
    deadline = time.perf_counter() + seconds
    while not reps or (len(reps) < MAX_TRACED_REPS
                       and time.perf_counter() < deadline):
        rep = traced_rep(workload, seed)
        if rep.books != books:
            raise CheckFailed("the traced run's virtual books differ")
        reps.append(rep)
    # the median rep by host time, whole, so its layers still sum up
    reps.sort(key=lambda r: r.elapsed)
    rep = reps[len(reps) // 2]
    delta, layers = rep.counters, rep.layers
    us = 1e6 / attempted
    out = {f"{layer}.self_us_per_call": layers[layer]["self_s"] * us
           for layer in layers}
    out["unattributed.self_us_per_call"] = (rep.elapsed - rep.spanned_s) * us
    out["trace.overhead_ratio"] = rep.elapsed / untraced_s
    calls = rep.result.total_calls
    out.update({
        "secmodule.dispatch.replay_ratio":
            _ratio(delta["replays"] + delta["ff_calls"], calls),
        "secmodule.dispatch.ff_window_calls":
            _ratio(delta["ff_calls"], delta["ff_windows"]),
        "secmodule.dispatch.trace_records": delta["records"],
        "secmodule.dispatch.trace_hot_ratio":
            _ratio(rep.trace_cache["hot"], rep.trace_cache["entries"]),
        "secmodule.decision_cache.hit_rate":
            _ratio(delta["cache_hits"],
                   delta["cache_hits"] + delta["cache_misses"]),
        "secmodule.policy.evals_per_call":
            layers["secmodule.policy"]["entries"] / attempted,
        "secmodule.handle_pool.seat_sheds": delta["seat_sheds"],
        "kernel.sysv_msg.ops_per_call":
            layers["kernel.sysv_msg"]["entries"] / attempted,
        "kernel.sched.switches_per_call": delta["switches"] / attempted,
        "sim.costs.charges_per_call": rep.charges / attempted,
        "rpc.calls_per_call": rep.rpc_calls / attempted,
        "serve.attachment_pool.wait_us_mean":
            _ratio(delta["pool_wait_us"], delta["pool_waits"]),
        "serve.attachment_pool.shed_ratio":
            _ratio(delta["pool_sheds"],
                   delta["pool_checkouts"] + delta["pool_sheds"]),
        "control.adaptive.depth_mean": _adaptive_depth(rep.result),
        "telemetry.tracing.spans_per_call":
            delta["spans_started"] / attempted,
    })
    return out


def _adaptive_depth(result) -> float:
    clients = result.adaptive.get("per_client", [])
    return _ratio(sum(c["arrivals"] for c in clients),
                  sum(c["flushes"] for c in clients))


# ------------------------------------------------------------------ main
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Dict:
    """One run: the checks, then the end-to-end or the per-layer metrics."""
    setup = cold_starts(workload, seed)
    tier_check(workload, seed)
    books, audited = audited_pass(workload, seed)
    if audited["unexpected"]:
        raise CheckFailed(f"{audited['unexpected']} calls had an outcome "
                          "the traffic policy does not dictate")
    if workload.open_loop:
        check_backlog(audited["responses"])
    raw, scaled = timed_reps(workload, seed, seconds, books)
    attempted = audited["attempted"]
    untraced_s = statistics.median(raw)
    reps = len(raw) + 1
    if trace:
        metrics = dict(audited["per_layer"])
        metrics["setup.import_s"] = setup["import_s"]
        metrics["setup.build_s"] = setup["build_s"]
        metrics["host.raw_calls_per_s"] = attempted / untraced_s
        metrics["host.speed"] = statistics.median(scaled) / untraced_s
        metrics.update(per_layer_metrics(workload, seed, seconds, books,
                                         untraced_s, attempted))
    else:
        metrics = {"calls_per_s": attempted / statistics.median(scaled),
                   "setup_s": setup["setup_s"],
                   "peak_rss_mb": peak_rss_mb()}
        metrics.update(audited["virt"])
    return {"attempted": attempted * reps, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in
             spec_file["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in
             spec_file["per_layer"] + spec_file["end_to_end"]}
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    missing = sorted(set(names) - set(report["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": report["metrics"][name], "unit": units[name]}
               for name in names}
    for name in names:
        print(f"{name} = {metrics[name]['value']} {units[name]}")
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
