"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import books
import ledger
import run
from layers import LAYERS, LayerTracer, Patches
from repro.sim import costs
from repro.workloads.traffic import TrafficEngine
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7

#: every workload at test size
SMALL = {name: replace(WORKLOADS[name], calls_per_client=calls,
                       check_calls_per_client=check)
         for name, calls, check in (("ff-steady", 3_000, 200),
                                    ("opbyop-quota", 60, 30),
                                    ("served-mmpp", 100, 30),
                                    ("adaptive-p95", 300, 50))}


def test_names_are_plain():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_benchmark_names_the_workloads_and_layers():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.self_us_per_call" in per_layer
    for section in ledger.SECTIONS + ("idle",):
        assert f"virt.{section}.cycles_per_call" in per_layer


def test_every_cost_operation_has_a_section():
    constants = {value for name, value in vars(costs).items()
                 if name.isupper() and isinstance(value, str)}
    operations = set(costs.ALL_OPERATIONS) | constants
    unmapped = sorted(operations - set(ledger.SECTION_OF))
    assert not unmapped, f"operations without a ledger section: {unmapped}"
    assert set(ledger.SECTION_OF.values()) <= set(ledger.SECTIONS)


def _class_and_module_state():
    import sys
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        state[name] = dict(vars(module))
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                state[value] = dict(vars(value))
    return state


def _assert_state_equal(before, after):
    assert before.keys() <= after.keys()
    for owner, members in before.items():
        assert members.keys() == after[owner].keys(), owner
        changed = [name for name, value in members.items()
                   if after[owner].get(name) is not value]
        assert not changed, f"{owner} left patched: {changed}"


@pytest.mark.parametrize("hooks", ["layers", "audit"])
def test_patches_restore_every_class_even_when_the_run_raises(hooks):
    workload = SMALL["opbyop-quota"]
    for module_names in LAYERS.values():  # import every layer first
        for module_name in module_names:
            importlib.import_module(module_name)
    TrafficEngine(workload.spec(SEED)).build()    # and its lazy imports
    before = _class_and_module_state()

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    with pytest.raises(RuntimeError, match="injected failure"):
        with Patches() as patches:
            if hooks == "layers":
                LayerTracer().install(patches)
            else:
                books.Audit().install(patches)
            engine = TrafficEngine(workload.spec(SEED)).build()
            engine._dispatch_queue_slow = boom
            engine.run()
    _assert_state_equal(before, _class_and_module_state())


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_books_equal_untraced_and_self_times_sum(name):
    workload = SMALL[name]
    engine = TrafficEngine(workload.spec(SEED))
    untraced = books.Books.of(engine, engine.run())
    rep = run.traced_rep(workload, SEED)
    assert rep.books == untraced
    self_s = sum(layer["self_s"] for layer in rep.layers.values())
    unattributed = rep.elapsed - rep.spanned_s
    assert unattributed >= 0.0
    assert math.isclose(self_s + unattributed, rep.elapsed, rel_tol=1e-9)
    assert rep.layers["workloads.traffic"]["spans"] >= 1


@pytest.mark.parametrize("name", list(SMALL))
def test_tiers_agree_and_the_ledger_sums_to_the_clock(name):
    workload = SMALL[name]
    run.tier_check(workload, SEED)
    first, audited = run.audited_pass(workload, SEED)
    second, _ = run.audited_pass(workload, SEED)
    assert first == second
    assert audited["unexpected"] == 0
    per_call = audited["per_layer"]
    cycles = sum(per_call[f"virt.{s}.cycles_per_call"]
                 for s in ledger.SECTIONS + ("idle",))
    assert cycles > 0


def test_backlog_guard_flags_only_a_growing_tail():
    steady = [[10.0] * 50 + [10.5] * 50 for _ in range(4)]
    run.check_backlog(steady)
    run.check_backlog([[20.0] * 50 + [10.0] * 50])     # slow start only
    with pytest.raises(run.CheckFailed, match="backlog"):
        run.check_backlog([[10.0] * 50 + [12.0] * 50])


def test_audit_flags_a_wrong_outcome(monkeypatch):
    monkeypatch.setattr(books, "DENIED_FUNCTION", "getpid")
    _, audited = run.audited_pass(SMALL["opbyop-quota"], SEED)
    assert audited["unexpected"] > 0


def test_books_notice_a_changed_latency():
    workload = SMALL["opbyop-quota"]
    engine = TrafficEngine(workload.spec(SEED))
    result = engine.run()
    good = books.Books.of(engine, result)
    result.latencies_us[0] += 1e-9
    assert good.differences(books.Books.of(engine, result)) == ["latencies"]


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_exactly_the_named_metrics(trace):
    report = run.measure(SMALL["opbyop-quota"], SEED, seconds=0.1,
                         trace=trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"] for m in BENCHMARK[section]}
    assert expected <= set(report["metrics"])
    if not trace:
        assert all(report["metrics"][name] > 0 for name in expected)
