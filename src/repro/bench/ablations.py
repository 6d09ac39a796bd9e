"""Ablation studies over the design choices DESIGN.md calls out.

The paper measures only one configuration (always-allow policy, shared-VM
marshalling, no per-call hardening, encryption protection).  It *discusses*
several alternatives without measuring them; these ablations fill that gap:

* policy complexity (§5's "slowdown in proportion to the complexity");
* §4.4 hardenings against multithreaded argument rewriting;
* shared-VM vs explicit-copy argument marshalling (§3's rejected design);
* protection mode (encrypt vs unmap vs both) — a *setup-time* cost;
* argument-size scaling of SecModule vs RPC (XDR pays per item);
* machine sensitivity (how the ratios move on a faster machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from ..hw.machine import Machine, make_modern_machine, make_paper_machine
from ..kernel.cred import unprivileged
from ..kernel.kernel import Kernel
from ..rpc.rpcgen import InterfaceDefinition, generate_service
from ..secmodule.api import SecModuleSystem
from ..secmodule.dispatch import DispatchConfig, HardeningMode, MarshallingMode
from ..secmodule.libc_conversion import build_test_module
from ..secmodule.protection import ProtectionMode
from ..secmodule.registry import ModuleRegistry
from ..secmodule.smod_syscalls import install_secmodule
from ..sim.stats import MeasurementSummary
from ..workloads.microbench import (
    PAPER_SPECS,
    run_native_getpid,
    run_rpc_testincr,
    run_smod_function,
    run_smod_testincr,
)
from ..workloads.policies import run_keynote_policy, run_policy_chain_sweep
from .report import render_table


# ---------------------------------------------------------------------------
# Policy complexity (§5)
# ---------------------------------------------------------------------------

class PolicySweepReport:
    """Synthetic policy chains plus KeyNote, rendered as one table."""

    def __init__(self, sweep, keynote) -> None:
        self.sweep = sweep
        self.keynote = keynote

    def render(self) -> str:
        rows = [[p.label, p.complexity, f"{p.mean_us_per_call:.3f}"]
                for p in self.sweep.points + self.keynote.points]
        text = render_table(
            ["policy", "complexity", "microsec/CALL"], rows,
            title="Policy complexity sweep (synthetic chains + KeyNote)")
        return text + (f"\n\nper-clause cost (synthetic chain slope): "
                       f"{self.sweep.per_clause_cost_us():.4f} us/clause")


def run_policy_ablation() -> PolicySweepReport:
    return PolicySweepReport(run_policy_chain_sweep(), run_keynote_policy())


# ---------------------------------------------------------------------------
# Hardening modes (§4.4)
# ---------------------------------------------------------------------------

@dataclass
class HardeningPoint:
    mode: HardeningMode
    summary: MeasurementSummary

    @property
    def mean_us(self) -> float:
        return self.summary.mean_us_per_call


@dataclass
class HardeningResult:
    points: List[HardeningPoint] = field(default_factory=list)

    def point(self, mode: HardeningMode) -> HardeningPoint:
        for point in self.points:
            if point.mode is mode:
                return point
        raise KeyError(mode)

    def render(self) -> str:
        rows = [[p.mode.value, f"{p.mean_us:.3f}"] for p in self.points]
        return render_table(["hardening mode", "microsec/CALL"], rows,
                            title="Ablation: §4.4 hardening modes, SMOD(test-incr)")


def run_hardening_ablation(*, trials: int = 3, sample_calls: int = 24,
                           seed: int = 6000) -> HardeningResult:
    result = HardeningResult()
    spec = PAPER_SPECS["smod_testincr"].scaled(trials=trials,
                                               sample_calls=sample_calls)
    for mode in (HardeningMode.NONE, HardeningMode.SUSPEND_CLIENT,
                 HardeningMode.UNMAP_CLIENT):
        config = DispatchConfig(hardening=mode)
        summary = run_smod_function("test_incr", args=(41,), spec=spec,
                                    seed=seed + hash(mode.value) % 97,
                                    dispatch_config=config)
        result.points.append(HardeningPoint(mode=mode, summary=summary))
    return result


# ---------------------------------------------------------------------------
# Marshalling modes (§3's rejected explicit-copy design)
# ---------------------------------------------------------------------------

@dataclass
class MarshallingPoint:
    mode: MarshallingMode
    arg_words: int
    mean_us: float


@dataclass
class MarshallingResult:
    points: List[MarshallingPoint] = field(default_factory=list)

    def mean_us(self, mode: MarshallingMode, arg_words: int) -> float:
        for point in self.points:
            if point.mode is mode and point.arg_words == arg_words:
                return point.mean_us
        raise KeyError((mode, arg_words))

    def render(self) -> str:
        rows = [[p.mode.value, p.arg_words, f"{p.mean_us:.3f}"]
                for p in self.points]
        return render_table(["marshalling", "arg words", "microsec/CALL"], rows,
                            title="Ablation: shared-VM vs explicit-copy marshalling")


def _wide_arg_module(arg_words: int):
    """A module exposing a function that takes ``arg_words`` integer args."""
    from ..sim import costs
    module = build_test_module()
    module.add_function(
        f"wide_{arg_words}",
        lambda env, *args: sum(args) & 0xFFFFFFFF,
        cost_op=costs.FUNC_BODY_TESTINCR,
        arg_words=arg_words,
        doc=f"sum of {arg_words} integer arguments")
    return module


def run_marshalling_ablation(arg_word_counts: Sequence[int] = (1, 4, 16, 64), *,
                             calls: int = 24, seed: int = 6100) -> MarshallingResult:
    """Compare per-call cost of both marshalling modes across argument sizes."""
    result = MarshallingResult()
    for arg_words in arg_word_counts:
        for mode in (MarshallingMode.SHARED_VM, MarshallingMode.EXPLICIT_COPY):
            module = _wide_arg_module(arg_words)
            system = SecModuleSystem.create(include_libc=False,
                                            include_test_module=False,
                                            extra_modules=[module],
                                            seed=seed + arg_words)
            config = DispatchConfig(marshalling=mode)
            args = tuple(range(arg_words))
            system.call(f"wide_{arg_words}", *args, config=config)   # warm
            mark = system.machine.clock.checkpoint()
            for _ in range(calls):
                system.call(f"wide_{arg_words}", *args, config=config)
            interval = system.machine.clock.since(mark)
            mean_us = interval.microseconds(system.machine.spec.mhz) / calls
            result.points.append(MarshallingPoint(mode=mode,
                                                  arg_words=arg_words,
                                                  mean_us=mean_us))
    return result


# ---------------------------------------------------------------------------
# Protection modes (registration/setup cost; §4.1's two approaches)
# ---------------------------------------------------------------------------

@dataclass
class ProtectionPoint:
    mode: ProtectionMode
    registration_us: float
    session_setup_us: float
    per_call_us: float


@dataclass
class ProtectionResult:
    points: List[ProtectionPoint] = field(default_factory=list)

    def point(self, mode: ProtectionMode) -> ProtectionPoint:
        for point in self.points:
            if point.mode is mode:
                return point
        raise KeyError(mode)

    def render(self) -> str:
        rows = [[p.mode.value, f"{p.registration_us:.1f}",
                 f"{p.session_setup_us:.1f}", f"{p.per_call_us:.3f}"]
                for p in self.points]
        return render_table(
            ["protection", "registration (us)", "session setup (us)",
             "per call (us)"],
            rows, title="Ablation: text-protection modes")


def run_protection_ablation(*, calls: int = 24,
                            seed: int = 6200) -> ProtectionResult:
    """Compare registration, session-setup and per-call cost across modes."""
    result = ProtectionResult()
    for mode in (ProtectionMode.UNMAP, ProtectionMode.ENCRYPT, ProtectionMode.BOTH):
        machine = make_paper_machine(seed=seed)
        kernel = Kernel(machine=machine).boot()
        extension = install_secmodule(kernel)
        registry: ModuleRegistry = extension.registry

        module_def = build_test_module()
        mark = machine.clock.checkpoint()
        registered = registry.register(module_def, protection=mode, uid=0)
        registration_us = machine.clock.since(mark).microseconds(machine.spec.mhz)

        # Build the rest of the system around the registered module.
        from ..secmodule.session import SessionDescriptor, SessionRequirement
        from ..userland.process import Program
        credential = registered.definition.issuer.issue("alice", uid=1000)
        descriptor = SessionDescriptor((SessionRequirement(
            module_name=registered.name, version=registered.version,
            credential=credential),))
        client = Program.spawn(kernel, "client", uid=1000)
        mark = machine.clock.checkpoint()
        session_id = client.smod_crt0_startup(extension, descriptor)
        session_setup_us = machine.clock.since(mark).microseconds(machine.spec.mhz)
        session = extension.sessions.get(session_id)

        extension.dispatcher.call(session, "test_incr", 41)   # warm
        mark = machine.clock.checkpoint()
        for _ in range(calls):
            extension.dispatcher.call(session, "test_incr", 41)
        per_call_us = machine.clock.since(mark).microseconds(machine.spec.mhz) / calls

        result.points.append(ProtectionPoint(
            mode=mode, registration_us=registration_us,
            session_setup_us=session_setup_us, per_call_us=per_call_us))
    return result


# ---------------------------------------------------------------------------
# Argument-size scaling: SecModule (shared stack) vs RPC (XDR per item)
# ---------------------------------------------------------------------------

@dataclass
class ArgSizePoint:
    mechanism: str
    arg_words: int
    mean_us: float


@dataclass
class ArgSizeResult:
    points: List[ArgSizePoint] = field(default_factory=list)

    def mean_us(self, mechanism: str, arg_words: int) -> float:
        for point in self.points:
            if point.mechanism == mechanism and point.arg_words == arg_words:
                return point.mean_us
        raise KeyError((mechanism, arg_words))

    def crossover_absent(self) -> bool:
        """SecModule stays cheaper than RPC at every measured size."""
        sizes = sorted({p.arg_words for p in self.points})
        return all(self.mean_us("secmodule", s) < self.mean_us("rpc", s)
                   for s in sizes)

    def render(self) -> str:
        rows = [[p.mechanism, p.arg_words, f"{p.mean_us:.3f}"]
                for p in self.points]
        return render_table(["mechanism", "arg words", "microsec/CALL"], rows,
                            title="Ablation: argument-size scaling")


def run_argument_size_ablation(arg_word_counts: Sequence[int] = (1, 8, 32, 128), *,
                               calls: int = 16, seed: int = 6300) -> ArgSizeResult:
    result = ArgSizeResult()
    for arg_words in arg_word_counts:
        # --- SecModule: arguments live on the shared stack, no copying -------
        module = _wide_arg_module(arg_words)
        system = SecModuleSystem.create(include_libc=False,
                                        include_test_module=False,
                                        extra_modules=[module],
                                        seed=seed + arg_words)
        args = tuple(range(arg_words))
        system.call(f"wide_{arg_words}", *args)
        mark = system.machine.clock.checkpoint()
        for _ in range(calls):
            system.call(f"wide_{arg_words}", *args)
        smod_us = (system.machine.clock.since(mark)
                   .microseconds(system.machine.spec.mhz) / calls)
        result.points.append(ArgSizePoint("secmodule", arg_words, smod_us))

        # --- RPC: every argument is an XDR item on both sides -----------------
        machine = make_paper_machine(seed=seed + arg_words)
        kernel = Kernel(machine=machine).boot()
        interface = InterfaceDefinition(name="wide", prog=0x20000200, vers=1)
        interface.add_procedure(1, "wide",
                                lambda a: sum(a) & 0xFFFFFFFF,
                                arg_names=tuple(f"a{i}" for i in range(arg_words)))
        service = generate_service(kernel, interface)
        client_proc = kernel.create_process("rpc-wide", cred=unprivileged(1000))
        client = service.make_client(kernel, client_proc)
        client.call("wide", *range(arg_words))
        mark = machine.clock.checkpoint()
        for _ in range(calls):
            client.call("wide", *range(arg_words))
        rpc_us = machine.clock.since(mark).microseconds(machine.spec.mhz) / calls
        result.points.append(ArgSizePoint("rpc", arg_words, rpc_us))
    return result


# ---------------------------------------------------------------------------
# Machine sensitivity: the paper machine vs a modern one
# ---------------------------------------------------------------------------

@dataclass
class MachineSensitivityRow:
    machine_name: str
    native_us: float
    smod_us: float
    rpc_us: float

    @property
    def smod_vs_native(self) -> float:
        return self.smod_us / self.native_us

    @property
    def rpc_vs_smod(self) -> float:
        return self.rpc_us / self.smod_us


@dataclass
class MachineSensitivityResult:
    rows: List[MachineSensitivityRow] = field(default_factory=list)

    def render(self) -> str:
        rows = [[r.machine_name, f"{r.native_us:.3f}", f"{r.smod_us:.3f}",
                 f"{r.rpc_us:.3f}", f"{r.smod_vs_native:.1f}x",
                 f"{r.rpc_vs_smod:.1f}x"] for r in self.rows]
        return render_table(
            ["machine", "getpid (us)", "SMOD (us)", "RPC (us)",
             "SMOD/getpid", "RPC/SMOD"],
            rows, title="Ablation: machine sensitivity of the Figure 8 ratios")


def run_machine_sensitivity(*, trials: int = 2, sample_calls: int = 16,
                            seed: int = 6400) -> MachineSensitivityResult:
    result = MachineSensitivityResult()
    factories: List[Tuple[str, Callable[[], Machine]]] = [
        ("pentium3-599 (paper)", make_paper_machine),
        ("modern-x86-3000", make_modern_machine),
    ]
    for name, factory in factories:
        native = run_native_getpid(
            PAPER_SPECS["getpid"].scaled(trials=trials, sample_calls=sample_calls),
            seed=seed, machine_factory=factory)
        smod = run_smod_testincr(
            spec=PAPER_SPECS["smod_testincr"].scaled(trials=trials,
                                                     sample_calls=sample_calls),
            seed=seed + 1, machine_factory=factory)
        rpc = run_rpc_testincr(
            PAPER_SPECS["rpc_testincr"].scaled(trials=trials,
                                               sample_calls=sample_calls),
            seed=seed + 2, machine_factory=factory)
        result.rows.append(MachineSensitivityRow(
            machine_name=name,
            native_us=native.mean_us_per_call,
            smod_us=smod.mean_us_per_call,
            rpc_us=rpc.mean_us_per_call))
    return result
