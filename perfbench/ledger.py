"""Virtual per-layer ledger: every cost-model operation belongs to a section.

The sections follow the comment blocks of ``repro/sim/costs.py``.  A run's
virtual books split into per-section cycles (operation count times its
cost) plus idle cycles (open-loop waits, charged through the meter's
``idle``/``idle_many``), and the split must sum exactly to the clock.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.sim import costs

SECTIONS = ("cpu", "kernel", "process", "uvm", "sysv_msg", "secmodule",
            "user", "rpc", "serve", "overload")

#: operation name -> section.  A new operation in ``costs.py`` must be
#: added here; the benchmark's tests fail on any unmapped operation.
SECTION_OF: Dict[str, str] = {
    costs.TRAP_ENTRY: "cpu",
    costs.TRAP_EXIT: "cpu",
    costs.CONTEXT_SWITCH: "cpu",

    costs.SYSCALL_DEMUX: "kernel",
    costs.COPY_WORD: "kernel",
    costs.SCHED_ENQUEUE: "kernel",
    costs.SCHED_WAKEUP: "kernel",
    costs.KMALLOC: "kernel",
    costs.KFREE: "kernel",

    costs.FORK_BASE: "process",
    costs.FORK_PER_MAP_ENTRY: "process",
    costs.EXEC_BASE: "process",
    costs.EXIT_BASE: "process",

    costs.UVM_MAP_ENTRY_OP: "uvm",
    costs.UVM_PAGE_OP: "uvm",
    costs.UVM_FAULT_BASE: "uvm",
    costs.UVM_FAULT_SHARE: "uvm",
    costs.OBREAK_BASE: "uvm",

    costs.MSGQ_SEND: "sysv_msg",
    costs.MSGQ_RECV: "sysv_msg",
    costs.MSGQ_PER_WORD: "sysv_msg",

    costs.SMOD_SESSION_LOOKUP: "secmodule",
    costs.SMOD_SHARD_LOCK: "secmodule",
    costs.SMOD_CRED_CHECK: "secmodule",
    costs.SMOD_POLICY_STEP: "secmodule",
    costs.SMOD_POLICY_CACHE_HIT: "secmodule",
    costs.SMOD_STACK_FIXUP_WORD: "secmodule",
    costs.SMOD_BATCH_SETUP: "secmodule",
    costs.SMOD_BATCH_ENTRY: "secmodule",
    costs.SMOD_POOL_ATTACH: "secmodule",
    costs.SMOD_POOL_ROUTE: "secmodule",
    costs.SMOD_TENANT_LOOKUP: "secmodule",
    costs.SMOD_REGISTER_BASE: "secmodule",
    costs.CIPHER_BLOCK: "secmodule",
    costs.KEY_SCHEDULE: "secmodule",

    costs.USER_STACK_WORD: "user",
    costs.USER_CALL_OVERHEAD: "user",
    costs.FUNC_BODY_TESTINCR: "user",
    costs.FUNC_BODY_GETPID: "user",
    costs.FUNC_BODY_SMOD_GETPID: "user",
    costs.MALLOC_BODY: "user",

    costs.XDR_ITEM: "rpc",
    costs.UDP_SEND_PATH: "rpc",
    costs.UDP_RECV_PATH: "rpc",
    costs.SOCKET_ALLOC: "rpc",
    costs.RPC_CLNT_CALL_OVERHEAD: "rpc",
    costs.RPC_SVC_DISPATCH: "rpc",
    costs.RPC_AUTH_CHECK: "rpc",

    costs.SERVE_BACKEND_RESOLVE: "serve",
    costs.SERVE_POOL_CHECKOUT: "serve",
    costs.SERVE_POOL_CHECKIN: "serve",
    costs.SERVE_HEALTH_PROBE: "serve",

    costs.SMOD_ADMIT_CHECK: "overload",
    costs.SMOD_ADMIT_REFILL: "overload",
    costs.SERVE_SHED: "overload",
    costs.SERVE_BREAKER_CHECK: "overload",
    costs.SERVE_BREAKER_TRIP: "overload",
}


def section_cycles(op_counts: Mapping[str, int],
                   profile: costs.CostProfile) -> Dict[str, int]:
    """Cycles per section for an operation histogram (every section keyed).

    Raises ``KeyError`` for an operation the table does not map.
    """
    out = {section: 0 for section in SECTIONS}
    for operation, count in op_counts.items():
        out[SECTION_OF[operation]] += profile.cost(operation) * count
    return out


def count_delta(after: Mapping[str, int],
                before: Mapping[str, int]) -> Dict[str, int]:
    """Per-operation counts accumulated between two histogram snapshots."""
    return {op: n - before.get(op, 0) for op, n in after.items()
            if n != before.get(op, 0)}
