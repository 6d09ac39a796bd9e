"""Figure 8 reproduction: the performance-comparison table.

The paper's Figure 8 has two parts — the trial counts and the measured
latencies::

    Test Function         microsec/CALL   stdev(microsec)
    getpid()              0.658000        0.00918937
    SMOD(SMOD-getpid)     6.532000        0.29850740
    SMOD(test-incr)       6.407000        0.07513691
    RPC(test-incr)        63.230000       0.13482911

:func:`reproduce_figure8` regenerates both parts from the simulation and
also computes the two ratios the paper's text highlights: SecModule dispatch
is roughly 10× a bare kernel call, and roughly 10× *faster* than the same
function over local RPC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.stats import MeasurementSummary
from ..workloads.microbench import (
    PAPER_SPECS,
    run_native_getpid,
    run_rpc_testincr,
    run_smod_getpid,
    run_smod_testincr,
)
from .report import format_us, render_table

#: The paper's published numbers, used for the paper-vs-measured comparison
#: in EXPERIMENTS.md and by the shape checks below (values in microseconds).
PAPER_RESULTS: Dict[str, Dict[str, float]] = {
    "getpid": {"mean_us": 0.658000, "stdev_us": 0.00918937},
    "smod_getpid": {"mean_us": 6.532000, "stdev_us": 0.29850740},
    "smod_testincr": {"mean_us": 6.407000, "stdev_us": 0.07513691},
    "rpc_testincr": {"mean_us": 63.230000, "stdev_us": 0.13482911},
}


@dataclass
class Figure8Row:
    """One row of the reproduced table."""

    key: str
    name: str
    calls_per_trial: int
    trials: int
    mean_us: float
    stdev_us: float

    @property
    def paper_mean_us(self) -> Optional[float]:
        entry = PAPER_RESULTS.get(self.key)
        return entry["mean_us"] if entry else None

    def relative_error(self) -> Optional[float]:
        paper = self.paper_mean_us
        if paper is None or paper == 0:
            return None
        return abs(self.mean_us - paper) / paper


@dataclass
class Figure8Table:
    """The full reproduced Figure 8."""

    rows: List[Figure8Row] = field(default_factory=list)
    summaries: Dict[str, MeasurementSummary] = field(default_factory=dict)

    def row(self, key: str) -> Figure8Row:
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    # -- the claims the paper's text makes about this table --------------------
    def smod_vs_native_factor(self) -> float:
        """How many times slower SMOD(test-incr) is than native getpid()."""
        return self.row("smod_testincr").mean_us / self.row("getpid").mean_us

    def rpc_vs_smod_factor(self) -> float:
        """How many times slower RPC(test-incr) is than SMOD(test-incr).

        The paper: "invoking a SecModule function is roughly 10 times faster
        than the identical function being executed via RPC."
        """
        return self.row("rpc_testincr").mean_us / self.row("smod_testincr").mean_us

    def ordering_matches_paper(self) -> bool:
        """getpid < SMOD(test-incr) <= SMOD(SMOD-getpid) < RPC, as published."""
        getpid = self.row("getpid").mean_us
        smod_incr = self.row("smod_testincr").mean_us
        smod_getpid = self.row("smod_getpid").mean_us
        rpc = self.row("rpc_testincr").mean_us
        return getpid < smod_incr <= smod_getpid < rpc

    # -- rendering -----------------------------------------------------------------
    def render(self) -> str:
        counts = render_table(
            ["", "Number of Calls/Trial", "Total Number of Trials"],
            [[row.name, f"{row.calls_per_trial:,}", row.trials]
             for row in self.rows],
            title="Figure 8: Performance Comparisons (reproduced)")
        latencies = render_table(
            ["Test Function", "microsec/CALL", "stdev(microsec)",
             "paper microsec/CALL"],
            [[row.name, format_us(row.mean_us), format_us(row.stdev_us, 8),
              format_us(row.paper_mean_us) if row.paper_mean_us else "-"]
             for row in self.rows])
        ratios = (
            f"SMOD(test-incr) / getpid()        = {self.smod_vs_native_factor():.2f}x\n"
            f"RPC(test-incr)  / SMOD(test-incr) = {self.rpc_vs_smod_factor():.2f}x"
        )
        return "\n\n".join([counts, latencies, ratios])


def reproduce_figure8(*, trials: Optional[int] = None,
                      sample_calls: Optional[int] = None,
                      seed: int = 42) -> Figure8Table:
    """Run all four Figure 8 benchmarks and assemble the table.

    ``trials`` / ``sample_calls`` default to the paper's 10 trials with the
    standard sample size; tests pass smaller values to keep runtimes short.
    """
    if (trials is not None and trials < 1) or \
            (sample_calls is not None and sample_calls < 1):
        raise ValueError("trials and sample_calls must be >= 1")
    def spec(key: str):
        return PAPER_SPECS[key].scaled(trials=trials, sample_calls=sample_calls)

    summaries = {
        "getpid": run_native_getpid(spec("getpid"), seed=seed + 1),
        "smod_getpid": run_smod_getpid(spec=spec("smod_getpid"), seed=seed + 2),
        "smod_testincr": run_smod_testincr(spec=spec("smod_testincr"),
                                           seed=seed + 3),
        "rpc_testincr": run_rpc_testincr(spec("rpc_testincr"), seed=seed + 4),
    }

    table = Figure8Table(summaries=summaries)
    for key, summary in summaries.items():
        table.rows.append(Figure8Row(
            key=key,
            name=summary.name,
            calls_per_trial=summary.calls_per_trial,
            trials=summary.num_trials,
            mean_us=summary.mean_us_per_call,
            stdev_us=summary.stdev_us_per_call,
        ))
    return table
