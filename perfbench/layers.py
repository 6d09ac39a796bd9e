"""Host-time spans around each layer's entry points, installed from outside.

A :class:`LayerTracer` wraps the public methods of every class, and every
module-level function, defined in a layer's modules.  Each wrapper records
a span: its host duration, the share of it covered by child spans, and
whether it was entered from another layer.  A layer's self time is the sum
of its spans' durations minus their children's.

Wrappers go on the *classes*, so they must be installed before the engine
is constructed: hot paths bind methods at construction (``CostMeter``
keeps ``clock.advance``).  :class:`Patches` restores every replaced
attribute, also when the run raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from enum import Enum
from typing import Callable, Dict, List, Tuple


class Patches:
    """Attribute replacements on classes and modules, undone in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, new: object) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _package_modules(package: str) -> Tuple[str, ...]:
    pkg = importlib.import_module(package)
    return tuple(sorted(f"{package}.{info.name}"
                        for info in pkgutil.iter_modules(pkg.__path__)))


#: layer name -> the modules whose entry points belong to it
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads.traffic": ("repro.workloads.traffic",),
    "secmodule.dispatch": ("repro.secmodule.dispatch",),
    "secmodule.decision_cache": ("repro.secmodule.decision_cache",),
    "secmodule.policy": ("repro.secmodule.policy",),
    "secmodule.stubs": ("repro.secmodule.stubs",),
    "secmodule.session": ("repro.secmodule.session",),
    "secmodule.handle_pool": ("repro.secmodule.handle_pool",),
    "kernel.syscall": ("repro.kernel.syscall",),
    "kernel.sysv_msg": ("repro.kernel.sysv_msg",),
    "kernel.sched": ("repro.kernel.sched",),
    "sim.costs": ("repro.sim.costs",),
    "sim.clock": ("repro.sim.clock",),
    "rpc": _package_modules("repro.rpc"),
    "serve.frontend": ("repro.serve.frontend",),
    "serve.attachment_pool": ("repro.serve.attachment_pool",),
    "control.adaptive": ("repro.control.adaptive",),
    "telemetry.metrics": ("repro.telemetry.metrics",),
    "telemetry.tracing": ("repro.telemetry.tracing",),
}


class LayerTracer:
    """Per-layer host self time, span counts and cross-layer entries."""

    def __init__(self) -> None:
        #: the open spans: [child seconds, layer]; the root is never popped
        self._root: List = [0.0, None]
        self._stack: List[List] = [self._root]
        #: "<layer>:<qualname>" -> [self seconds, spans, entries]
        self.slots: Dict[str, List] = {}

    # ------------------------------------------------------------- wrapping
    def _wrap(self, fn: Callable, layer: str, qualname: str) -> Callable:
        slot = self.slots.setdefault(f"{layer}:{qualname}", [0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                slot[0] += elapsed - frame[0]
                slot[1] += 1
                if parent[1] != layer:
                    slot[2] += 1

        return functools.update_wrapper(span, fn)

    def _wrap_member(self, value: object, layer: str, qualname: str):
        if inspect.isfunction(value):
            if inspect.isgeneratorfunction(value):
                return None     # its body runs in the consumer's span
            return self._wrap(value, layer, qualname)
        if isinstance(value, (staticmethod, classmethod)):
            return type(value)(self._wrap(value.__func__, layer, qualname))
        return None

    def install(self, patches: Patches) -> None:
        """Wrap every layer's entry points (undone by ``patches``)."""
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for name, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != module_name:
                        continue
                    if inspect.isclass(obj) and not issubclass(obj, Enum):
                        for attr, value in list(vars(obj).items()):
                            if attr.startswith("_"):
                                continue
                            wrapped = self._wrap_member(
                                value, layer, f"{obj.__qualname__}.{attr}")
                            if wrapped is not None:
                                patches.replace(obj, attr, wrapped)
                    elif (inspect.isfunction(obj) and not name.startswith("__")
                          and not inspect.isgeneratorfunction(obj)):
                        self._rebind_function(obj, self._wrap(obj, layer, name),
                                              patches)

    @staticmethod
    def _rebind_function(fn: Callable, wrapped: Callable,
                         patches: Patches) -> None:
        # a module-level function is called through whichever module
        # namespace imported it: replace every reference in the package
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.replace(module, attr, wrapped)

    # ------------------------------------------------------------ measuring
    def reset(self) -> None:
        """Forget every span so far (spans of the build phase)."""
        if len(self._stack) != 1:
            raise RuntimeError("reset inside an open span")
        self._root[0] = 0.0
        for slot in self.slots.values():
            slot[0], slot[1], slot[2] = 0.0, 0, 0

    @property
    def spanned_s(self) -> float:
        """Host seconds inside top-level spans (from the root frame)."""
        return self._root[0]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, spans and entries from other layers."""
        out = {layer: {"self_s": 0.0, "spans": 0, "entries": 0}
               for layer in LAYERS}
        for key, (self_s, spans, entries) in self.slots.items():
            totals = out[key.split(":", 1)[0]]
            totals["self_s"] += self_s
            totals["spans"] += spans
            totals["entries"] += entries
        return out

    def spans_of(self, layer: str, qualname: str) -> int:
        slot = self.slots.get(f"{layer}:{qualname}")
        return slot[1] if slot else 0
