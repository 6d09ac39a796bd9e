"""Analysis configuration: scan root and the committed allowlist.

The allowlist is the file-granularity escape hatch for whole files whose
*purpose* exempts them from a rule — the benchmark harness measures real
wall-clock time, so banning ``time.perf_counter`` there would ban the
measurement itself.  Line-granularity exemptions use ``# smod: allow``
comments instead; both carry a mandatory reason so every exemption stays
reviewable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

#: rule family -> {relative path: reason}.  A family key ("DET") covers every
#: rule with that prefix; an exact rule id ("COST002") covers just that rule.
DEFAULT_ALLOWLIST: Dict[str, Dict[str, str]] = {
    "DET": {
        "repro/bench/harness.py":
            "wall_seconds export field times the harness itself, not the "
            "simulation",
        "repro/bench/simspeed.py":
            "the experiment *is* wall-clock: calls-per-wall-second of the "
            "simulator",
        "repro/workloads/shard.py":
            "workers measure their own host wall-clock for the parallel "
            "speed report; shard simulation time stays on per-shard "
            "virtual clocks",
    },
    "CLOCK": {
        "repro/sim/costs.py":
            "the CostMeter is the single charging authority the rule "
            "protects",
        "repro/sim/clock.py":
            "the clock's own definition",
    },
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything the runner needs to scan one tree."""

    #: directory scanned recursively for ``*.py`` (the installed package dir)
    root: Path
    #: directory rel_paths are computed against (defaults to ``root.parent``
    #: so paths read ``repro/sim/costs.py`` when scanning the package)
    rel_root: Optional[Path] = None
    #: rule family / rule id -> {rel path: reason}
    allowlist: Mapping[str, Mapping[str, str]] = field(
        default_factory=lambda: DEFAULT_ALLOWLIST)
    #: restrict to these rule ids / family prefixes (empty = all)
    only_rules: Tuple[str, ...] = ()
    #: rel path suffix identifying the cost-model module inside the tree
    costs_suffix: str = "sim/costs.py"

    @property
    def effective_rel_root(self) -> Path:
        return self.rel_root if self.rel_root is not None else self.root.parent

    def allowlisted(self, rule: str, rel_path: str) -> Optional[str]:
        """The allowlist reason covering ``rule`` in ``rel_path``, if any."""
        family = rule.rstrip("0123456789")
        for key in (rule, family):
            reason = self.allowlist.get(key, {}).get(rel_path)
            if reason is not None:
                return reason
        return None

    def rule_selected(self, rule: str) -> bool:
        if not self.only_rules:
            return True
        return any(rule == sel or rule.startswith(sel)
                   for sel in self.only_rules)


def default_config(root: Optional[Path] = None, **overrides) -> AnalysisConfig:
    """The configuration ``repro analyze`` runs with: the live package tree."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    return AnalysisConfig(root=Path(root), **overrides)
