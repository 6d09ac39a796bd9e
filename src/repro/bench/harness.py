"""Running and exporting experiments.

``run_experiment`` resolves an experiment's params (``experiments.py``
declares them), calls its runner and, given an ``export_dir`` (the CLI
passes the working directory), writes ``BENCH_<experiment id>.json`` next
to the printed report, so the perf trajectory of a checkout is diffable
across commits and CI can upload the files as build artifacts.
``regenerate`` reruns a committed baseline from its recorded params and
diffs the result against it: the ``repro bench diff`` gate.
"""

from __future__ import annotations

import enum
import json
import os
import time
from array import array

try:
    import resource
except ImportError:                       # pragma: no cover - non-POSIX host
    resource = None  # type: ignore[assignment]
from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .diff import BenchDiff, BenchDiffError, compare_payloads, load_payload
from .experiments import EXPERIMENTS, Experiment
from .report import section


@dataclass
class ExperimentRun:
    """An executed experiment: its declaration, params, result and rendering."""

    experiment: Experiment
    #: the resolved params the runner was called with (as recorded)
    params: Dict[str, object]
    result: object
    rendered: str
    #: host wall-clock seconds the runner took
    wall_seconds: Optional[float] = None

    def payload(self) -> Dict[str, object]:
        experiment = self.experiment
        return experiment_payload(
            experiment.experiment_id, experiment.title, experiment.kind,
            self.result, self.rendered, params=self.params,
            wall_seconds=self.wall_seconds)


# ------------------------------------------------------------ JSON export
def to_jsonable(value: object) -> object:
    """Coerce a result object into something ``json.dump`` accepts.

    Dataclasses become dicts field by field (without ``asdict``'s deep-copy
    surprises on non-dataclass members), enums their values, and anything
    else unrecognized its ``str()`` — an export must never fail just
    because a report grew an exotic field.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, array):
        # latency vectors are array('d'); export exactly as a list would
        return value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in fields(value)}
    return str(value)


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes (None off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalize to
    bytes.  A high-water mark, not a per-experiment delta: runs later in a
    ``repro all`` sweep inherit earlier peaks.  Machine-dependent, so it
    lives at the payload top level (outside ``data``) where the byte-exact
    regression gate never looks.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":    # pragma: no cover - mac only
        return int(peak)
    return int(peak) * 1024


def result_total_calls(result: object) -> Optional[int]:
    """Simulated protected calls a result covers (for the wall-rate field).

    Reports may define ``bench_total_calls`` explicitly; otherwise a plain
    integer ``total_calls`` attribute is used.  None when the result has no
    meaningful call count (layout figures, dmesg tables).
    """
    for attribute in ("bench_total_calls", "total_calls"):
        value = getattr(result, attribute, None)
        if isinstance(value, int) and value > 0:
            return value
    return None


def experiment_payload(experiment_id: str, title: str, kind: str,
                       result: object, rendered: str, *,
                       params: Optional[Dict[str, object]] = None,
                       wall_seconds: Optional[float] = None
                       ) -> Dict[str, object]:
    """The machine-readable record written to ``BENCH_<id>.json``.

    ``params`` records the resolved run parameters (client counts, call
    counts, ``fast``, ...) so a cross-commit diff of the files can tell a
    smoke run from the canonical experiment instead of silently comparing
    runs of different sizes.

    ``wall_seconds`` is the host wall-clock time the run took; together
    with the result's call count it yields ``calls_per_wall_second`` — the
    simulator-throughput trajectory of a checkout.  Both are machine-
    dependent and excluded from the ``repro bench diff`` regression gate,
    as is ``peak_rss_bytes`` — the process's memory high-water mark, the
    other half of the scaling story at 10^7+-call runs.
    """
    if hasattr(result, "as_dict"):
        data = to_jsonable(result.as_dict())
    elif is_dataclass(result) and not isinstance(result, type):
        data = to_jsonable(result)
    else:
        data = None
    total_calls = result_total_calls(result)
    return {
        "experiment": experiment_id,
        "title": title,
        "kind": kind,
        "params": to_jsonable(params or {}),
        "data": data,
        "rendered": rendered,
        "wall_seconds": wall_seconds,
        "calls_per_wall_second": (
            total_calls / wall_seconds
            if wall_seconds and total_calls else None),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def export_payload(payload: Dict[str, object],
                   directory: str = ".") -> str:
    """Write one experiment payload to ``<directory>/BENCH_<id>.json``."""
    path = os.path.join(directory, f"BENCH_{payload['experiment']}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def run_experiment(experiment_id: str,
                   given: Optional[Mapping[str, object]] = None, *,
                   fast: bool = False,
                   export_dir: Optional[str] = None) -> ExperimentRun:
    """Run one experiment by id; ``export_dir`` also writes its JSON record.

    ``given`` holds the params set explicitly (or a recorded params dict);
    the rest come from the runner's defaults, or from the experiment's
    fast overrides under ``fast``.
    """
    experiment = EXPERIMENTS[experiment_id]
    params = experiment.resolve(given, fast=fast)
    start = time.perf_counter()
    result = experiment.run(params)
    wall_seconds = time.perf_counter() - start
    rendered = result.render() if hasattr(result, "render") else str(result)
    run = ExperimentRun(experiment=experiment, params=params, result=result,
                        rendered=rendered, wall_seconds=wall_seconds)
    if export_dir is not None:
        export_payload(run.payload(), export_dir)
    return run


def run_all(experiment_ids: Optional[List[str]] = None, *, fast: bool = False,
            export_dir: Optional[str] = None) -> List[ExperimentRun]:
    """Run several (default: all) experiments in registry order."""
    return [run_experiment(experiment_id, fast=fast, export_dir=export_dir)
            for experiment_id in experiment_ids or EXPERIMENTS]


def regenerate(path: str, *, canonical: bool = True,
               rel_tol: float = 0.0) -> Tuple[Dict[str, object], BenchDiff]:
    """Rerun the baseline at ``path`` from its recorded params and diff it.

    Returns the fresh payload and its diff against the baseline.

    ``canonical`` refuses a baseline whose recorded params are not its
    experiment's declared defaults, which catches a drifted default.
    """
    baseline = load_payload(path)
    experiment = EXPERIMENTS.get(baseline["experiment"])
    if experiment is None:
        raise BenchDiffError(
            f"{path}: no experiment {baseline['experiment']!r} is declared")
    params = experiment.resolve(baseline.get("params"))
    defaults = experiment.resolve()
    if canonical and to_jsonable(params) != to_jsonable(defaults):
        raise BenchDiffError(
            f"{path}: recorded params {baseline.get('params')} differ from "
            f"the declared defaults {to_jsonable(defaults)}")
    payload = run_experiment(experiment.experiment_id, params).payload()
    return payload, compare_payloads(baseline, payload, old_path=path,
                                     new_path="regenerated", rel_tol=rel_tol)


def full_report(runs: List[ExperimentRun]) -> str:
    """Concatenate experiment renderings into one report document."""
    return "\n".join(
        section(f"[{run.experiment.experiment_id}] {run.experiment.title}",
                run.rendered)
        for run in runs)
