"""Every experiment, declared once.

An :class:`Experiment` names its id, title and kind, the runner that
produces its report, the runner keywords it exposes as parameters (each
with the parser that reads and validates one command-line value) and what
``--fast`` changes.  Defaults are read from the runner's signature, so no
default is written twice.  Everything else is generated from
:data:`EXPERIMENTS`: the ``repro <id>`` and ``repro all`` commands, the
``BENCH_<id>.json`` export and its recorded params, and the ``repro bench
diff`` baseline gate.  Adding an experiment is one entry here.

Resolution rules, shared by the command line and the baseline gate:

* ``--fast`` overrides only the params left at their defaults; overrides of
  runner keywords that are not params always apply under ``--fast``.
* The recorded params hold every declared param as resolved, plus ``fast``
  when the experiment declares fast overrides.  Resolving a record again
  yields the same record and so the same runner call.
"""

from __future__ import annotations

import argparse
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from .ablations import (
    run_argument_size_ablation,
    run_hardening_ablation,
    run_machine_sensitivity,
    run_marshalling_ablation,
    run_policy_ablation,
    run_protection_ablation,
)
from .adaptive import run_adaptive_bench
from .batch import run_batch_sweep
from .figure7 import reproduce_figure7
from .figure8 import reproduce_figure8
from .figures123 import reproduce_figure1, reproduce_figure2, reproduce_figure3
from .overload import (
    FAST_ADMIT_CALLS,
    FAST_CALLS as OVERLOAD_FAST_CALLS,
    FAST_RATIOS,
    run_overload_sweep,
)
from .pool import run_pool_sweep
from .serve import FAST_SESSIONS, run_serve_sweep
from .simspeed import FAST_CALLS as SIMSPEED_FAST_CALLS, run_simspeed
from .throughput import run_throughput

Parser = Callable[[str], object]


# ------------------------------------------------------------- value parsers
# argparse turns a ValueError into "invalid <parser name> value: 'x'", exit 2


def at_least(minimum: int) -> Parser:
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(text)
        return value
    parse.__name__ = f"integer >= {minimum}"
    return parse


def positive(text: str) -> float:
    value = float(text)
    if not (0.0 < value < math.inf):
        raise ValueError(text)
    return value


def comma_list(parse: Parser) -> Parser:
    """A non-empty comma-separated list of ``parse`` values, as a tuple."""
    def parse_list(text: str) -> tuple:
        values = tuple(parse(part) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError(text)
        return values
    parse_list.__name__ = f"comma-separated {parse.__name__}"
    return parse_list


def choice(*names: str) -> Parser:
    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"choose from {', '.join(names)}; got {text!r}")
        return text
    return parse


count = at_least(1)
counts = comma_list(count)


# ------------------------------------------------------------ the declaration
@dataclass(frozen=True)
class Experiment:
    """One regenerable experiment."""

    experiment_id: str
    title: str
    runner: Callable[..., object]
    kind: str = "figure"          # "figure" | "table" | "ablation"
    #: runner keyword -> parser of one command-line value
    params: Mapping[str, Parser] = field(default_factory=dict)
    #: runner keyword -> its value under ``--fast``
    fast: Mapping[str, object] = field(default_factory=dict)

    def defaults(self) -> Dict[str, object]:
        """The declared params at the runner's own defaults."""
        signature = inspect.signature(self.runner).parameters
        return {name: signature[name].default for name in self.params}

    def resolve(self, given: Optional[Mapping[str, object]] = None, *,
                fast: bool = False) -> Dict[str, object]:
        """The params to run and record, from user values or a record.

        ``given`` may be a recorded params dict (lists for tuples, and its
        own ``fast`` entry); a name that is not a declared param raises
        ``ValueError``.
        """
        given = dict(given or {})
        fast = bool(given.pop("fast", fast)) and bool(self.fast)
        unknown = sorted(set(given) - set(self.params))
        if unknown:
            raise ValueError(f"{self.experiment_id} has no params {unknown}")
        params = self.defaults()
        if fast:
            params.update((name, value) for name, value in self.fast.items()
                          if name in self.params)
        params.update((name, tuple(value) if isinstance(value, list) else value)
                      for name, value in given.items())
        if self.fast:
            params["fast"] = fast
        return params

    def run(self, params: Mapping[str, object]) -> object:
        """Call the runner with resolved ``params``."""
        kwargs = {name: params[name] for name in self.params}
        if params.get("fast"):
            kwargs.update((name, value) for name, value in self.fast.items()
                          if name not in self.params)
        return self.runner(**kwargs)


def _registry(*experiments: Experiment) -> Dict[str, Experiment]:
    return {experiment.experiment_id: experiment for experiment in experiments}


_FAST_SWEEP = (1, 4, 16)

#: Every experiment, keyed by id, in report order.
EXPERIMENTS: Dict[str, Experiment] = _registry(
    Experiment("fig1", "SecModule initialization sequence", reproduce_figure1),
    Experiment("fig2", "Address space layout", reproduce_figure2),
    Experiment("fig3", "Stack manipulations", reproduce_figure3),
    Experiment("fig7", "Test system information", reproduce_figure7),
    Experiment("fig8", "Performance comparisons", reproduce_figure8,
               kind="table",
               params={"trials": count, "sample_calls": count, "seed": int}),
    Experiment("abl-policy", "Policy complexity sweep", run_policy_ablation,
               kind="ablation"),
    Experiment("abl-hardening", "§4.4 hardening modes", run_hardening_ablation,
               kind="ablation"),
    Experiment("abl-marshalling", "Shared-VM vs explicit-copy marshalling",
               run_marshalling_ablation, kind="ablation"),
    Experiment("abl-protection", "Text protection modes",
               run_protection_ablation, kind="ablation"),
    Experiment("abl-argsize", "Argument-size scaling",
               run_argument_size_ablation, kind="ablation"),
    Experiment("abl-machine", "Machine sensitivity", run_machine_sensitivity,
               kind="ablation"),
    Experiment("abl-throughput",
               "Multi-client throughput and the policy-decision cache",
               run_throughput, kind="ablation",
               params={"clients": count, "modules": count,
                       "calls_per_client": count,
                       "policy_kind": choice("static", "quota", "expiry",
                                             "deny-only"),
                       "seed": int},
               fast={"include_open_loop": False}),
    Experiment("abl-batch",
               "Batched dispatch: amortizing the two context switches",
               run_batch_sweep, kind="ablation",
               params={"sizes": counts, "calls": count, "seed": int},
               fast={"sizes": _FAST_SWEEP, "calls": 48}),
    Experiment("abl-pool",
               "Handle pooling: one handle co-process serving many sessions",
               run_pool_sweep, kind="ablation",
               params={"seats": counts, "sessions": count,
                       "calls_per_session": count, "seed": int},
               fast={"seats": _FAST_SWEEP, "sessions": 16}),
    Experiment("abl-serve",
               "Service plane: attach/lookup/pool costs vs live-session count",
               run_serve_sweep, kind="ablation",
               params={"sessions": counts, "tenants": count,
                       "sessions_per_client": count, "seed": int},
               fast={"sessions": FAST_SESSIONS}),
    Experiment("abl-adaptive",
               "Adaptive batching: AIMD queue depth from the arrival-rate EWMA",
               run_adaptive_bench, kind="ablation",
               params={"depths": counts, "seed": int},
               fast={"depths": _FAST_SWEEP, "adaptive_calls": 256,
                     "static_calls": 96, "mmpp_calls": 256}),
    Experiment("abl-simspeed",
               "Simulator speed: trace-replay dispatch off vs on (wall clock)",
               run_simspeed, kind="ablation",
               params={"calls": count, "clients": count, "modules": count,
                       "seed": int, "shards": count, "workers": count},
               fast={"calls": SIMSPEED_FAST_CALLS}),
    Experiment("abl-overload",
               "Overload protection: the goodput/tail-latency knee past "
               "saturation",
               run_overload_sweep, kind="ablation",
               params={"ratios": comma_list(positive),
                       "calls": at_least(10), "admit_calls": at_least(10),
                       "seed": int},
               fast={"ratios": FAST_RATIOS, "calls": OVERLOAD_FAST_CALLS,
                     "admit_calls": FAST_ADMIT_CALLS}),
)
