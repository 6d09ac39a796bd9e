"""Pinned dispatch contract: charge sequences and observation output.

Every digest below is a SHA-256 taken from the dispatcher as it stood
with separate single-call and batch paths.  A change to the dispatch
path that keeps these digests keeps:

* the exact ``record_trace()`` op sequence of one single call under every
  hardening mode, explicit-copy marshalling, with the per-call policy
  check or the decision cache off, for an allowed call, a policy denial
  (EACCES), a kernel-level lookup failure (ENOENT) and a torn-down
  session (EINVAL);
* the op totals, cycles and event counts of depth-2 and depth-4 flushes
  with mixed allowed and denied entries (plus an all-denied queue, a
  queue naming an unknown function and a whole-queue rejection);
* the telemetry snapshot and export, the tracer's spans and the trace
  cache counters of traffic runs at depth 1 and depth 4 on the default
  tiers and on the op-by-op tier, and of direct calls on every tier.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import (
    DispatchConfig,
    HardeningMode,
    MarshallingMode,
)
from repro.secmodule.policy import FunctionDenyPolicy
from repro.workloads.traffic import TrafficEngine, TrafficSpec

OP_BY_OP = DispatchConfig(use_trace_replay=False, use_fast_forward=False)

CONFIGS = {
    "none": DispatchConfig(),
    "unmap": DispatchConfig(hardening=HardeningMode.UNMAP_CLIENT),
    "suspend": DispatchConfig(hardening=HardeningMode.SUSPEND_CLIENT),
    "copy": DispatchConfig(marshalling=MarshallingMode.EXPLICIT_COPY),
    "no-policy": DispatchConfig(per_call_policy_check=False),
    "no-cache": DispatchConfig(use_decision_cache=False),
}


def make_system():
    return SecModuleSystem.create(
        seed=0x5EC, include_libc=False,
        policy=FunctionDenyPolicy(["test_null"]))


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _break(system, case: str) -> None:
    """Put the session in the state ``case`` calls against."""
    session = system.session
    if case == "enoent":
        # the handle lost the module's text: the kernel's function lookup
        # fails after the session checks passed
        module, _ = session.find_function("test_incr")
        del session.handle.loaded[module.m_id]
    elif case == "einval":
        system.extension.sessions.teardown(session)


def _recorded(system, action):
    """Run ``action`` under the meter's charge log; return what it did."""
    machine = system.machine
    recorder = machine.meter.record_trace()
    assert recorder.start()
    mark = machine.clock.checkpoint()
    result = action()
    ops = recorder.stop()
    spent = machine.clock.since(mark)
    return ops, spent.cycles, spent.events, result


# ----------------------------------------------------------- single calls
SINGLE_CASES = {
    "allowed": ("test_incr", (41,)),
    "eacces": ("test_null", ()),
    "enoent": ("test_incr", (41,)),
    "einval": ("test_incr", (41,)),
}

SINGLE_DIGESTS = {
    'copy/allowed':
        '74eeb2b8f2912d06267a647ca8e5e6c6081aebb93b1dab97c4dabd403f43ed03',
    'copy/eacces':
        '516a40d19d78927819167855c0ac9cb7043902f2e1cb67a28e9f89e90d5cedab',
    'copy/einval':
        '80e1e3bdffe4608e590886719425bd3b9246f9acfb97b3c322fa15be7926ec90',
    'copy/enoent':
        '2ea4913abc490f66da86392b21ab246a0c928671de38acccf46bdf39452b5c00',
    'no-cache/allowed':
        'b16edf3d870dabb74531518c7793f6179d50634b226da08c33b625e3abdf392b',
    'no-cache/eacces':
        '1433fd0d36efeaeba08b7d9f85d75eefa108833cad089f707bd1790f02c0ade1',
    'no-cache/einval':
        '80e1e3bdffe4608e590886719425bd3b9246f9acfb97b3c322fa15be7926ec90',
    'no-cache/enoent':
        '2ea4913abc490f66da86392b21ab246a0c928671de38acccf46bdf39452b5c00',
    'no-policy/allowed':
        '3a625dba46f0a20aa26180d499739b6f01f671c4f67453ea2bf2dce7ca4801cc',
    'no-policy/eacces':
        '42c390a09fb5c25c6d33679b7793679a38a8b0e931a23d5511c763bc98819257',
    'no-policy/einval':
        '80e1e3bdffe4608e590886719425bd3b9246f9acfb97b3c322fa15be7926ec90',
    'no-policy/enoent':
        '2ea4913abc490f66da86392b21ab246a0c928671de38acccf46bdf39452b5c00',
    'none/allowed':
        '8102ec987d724392bae47133c73233dfacd20335f005002fcfcfec70df5c0e83',
    'none/eacces':
        '516a40d19d78927819167855c0ac9cb7043902f2e1cb67a28e9f89e90d5cedab',
    'none/einval':
        '80e1e3bdffe4608e590886719425bd3b9246f9acfb97b3c322fa15be7926ec90',
    'none/enoent':
        '2ea4913abc490f66da86392b21ab246a0c928671de38acccf46bdf39452b5c00',
    'suspend/allowed':
        '62234107a64399123458f524b51087d9a8c8fbe66a583c6244d711a3969b5e3f',
    'suspend/eacces':
        '516a40d19d78927819167855c0ac9cb7043902f2e1cb67a28e9f89e90d5cedab',
    'suspend/einval':
        '80e1e3bdffe4608e590886719425bd3b9246f9acfb97b3c322fa15be7926ec90',
    'suspend/enoent':
        '2ea4913abc490f66da86392b21ab246a0c928671de38acccf46bdf39452b5c00',
    'unmap/allowed':
        '0f058a29ae8ef1db1374fd82b1f3845dd25a155445de87b2df19f712ab73df25',
    'unmap/eacces':
        '516a40d19d78927819167855c0ac9cb7043902f2e1cb67a28e9f89e90d5cedab',
    'unmap/einval':
        '80e1e3bdffe4608e590886719425bd3b9246f9acfb97b3c322fa15be7926ec90',
    'unmap/enoent':
        '2ea4913abc490f66da86392b21ab246a0c928671de38acccf46bdf39452b5c00',
}


def single_sequence(config_name: str, case: str) -> str:
    system = make_system()
    config = CONFIGS[config_name]
    _break(system, case)
    name, args = SINGLE_CASES[case]
    dispatcher = system.extension.dispatcher
    calls = []
    for _ in range(3):
        ops, cycles, events, outcome = _recorded(
            system, lambda: dispatcher.call(system.session, name, *args,
                                            config=config))
        calls.append({
            "ops": list(ops), "cycles": cycles, "events": events,
            "value": outcome.value,
            "errno": None if outcome.errno is None else outcome.errno.name,
            "stack": system.session.shared_stack.depth(),
            "suspended": system.kernel.sched.is_suspended(
                system.client_proc)})
    calls.append([dispatcher.calls_dispatched, dispatcher.calls_denied,
                  system.session.handle.calls_served,
                  system.kernel.syscalls.count("smod_call"),
                  system.kernel.syscalls.count("smod_call_batch")])
    return _digest(calls)


@pytest.mark.parametrize("case", sorted(SINGLE_CASES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_single_call_sequence_is_pinned(config_name, case):
    assert single_sequence(config_name, case) == \
        SINGLE_DIGESTS[f"{config_name}/{case}"]


# ----------------------------------------------------------------- batches
BATCH_CASES = {
    "d2-mixed": ([("test_incr", (1,)), ("test_null", ())], None),
    "d4-mixed": ([("test_incr", (1,)), ("test_null", ()),
                  ("test_add", (2, 3)), ("test_incr", (4,))], None),
    "d2-denied": ([("test_null", ()), ("test_null", ())], None),
    "d2-unknown": ([("test_incr", (1,)), ("no_such_function", ())], None),
    "d4-einval": ([("test_incr", (1,)), ("test_null", ()),
                   ("test_incr", (2,)), ("test_incr", (3,))], "einval"),
}

BATCH_DIGESTS = {
    'copy/d2-denied':
        'dc1cf4aad75ee12f18aa8e6388047d481c8ef67e0a785c2948318b5a5958c7e1',
    'copy/d2-mixed':
        '54ad333313b2d76b3d6348948ef8f2ed0b7005bfb09011609a325de67c26dac9',
    'copy/d2-unknown':
        'd7d64e6cd7bf3076f1ed5594fdd2049dd8aca3f9383c0b9ffdbe5c7c6d7f3726',
    'copy/d4-einval':
        '7483c88a36a67c7632c0f9b4c0603598a7303bd2d1ec7b0e8f1815fd3a8af5c1',
    'copy/d4-mixed':
        '68151e85480c9114217b14eebd6b6a1bfa7a9acb160cc28805c8ae8ceda8fadf',
    'no-cache/d2-denied':
        'a0a077e372893ce21b818c695d0d12210f27dab9a2086c621c7107ee31f498e3',
    'no-cache/d2-mixed':
        '44e63cd7ac8a82c3bd66cb358fcded534d466a020d31f0d0cc1ca36efa93cfeb',
    'no-cache/d2-unknown':
        '86d03e6c24cfc3e172960f6d81b035c279ac3d6d39596e28379a8765d33e014e',
    'no-cache/d4-einval':
        '7483c88a36a67c7632c0f9b4c0603598a7303bd2d1ec7b0e8f1815fd3a8af5c1',
    'no-cache/d4-mixed':
        '440cd91d7566251ac547a2137cd64e1edd8b01dea4a5d2d9c687c8f2fcc2fc31',
    'no-policy/d2-denied':
        '05c3e2dcee1450e49a6e629f4e0ca5e703abbe4325f5c24451d04226e26fe96c',
    'no-policy/d2-mixed':
        'ffb01d26c3a1c6f48cef1883bc336f10c8ab718198e9d3db9061201feae0422d',
    'no-policy/d2-unknown':
        '5ca8855601ad5871f649e40541155eab852f9e456915c75260eb7df220fcc70d',
    'no-policy/d4-einval':
        '7483c88a36a67c7632c0f9b4c0603598a7303bd2d1ec7b0e8f1815fd3a8af5c1',
    'no-policy/d4-mixed':
        'af82628d6e6dcc96c5e1d6ba6bffba209a2fbf3972fbd0b37600ab5a3d94a8fd',
    'none/d2-denied':
        'dc1cf4aad75ee12f18aa8e6388047d481c8ef67e0a785c2948318b5a5958c7e1',
    'none/d2-mixed':
        'f142405a4147c665fe7ecb3bfbe3e6e5c0a23ccde51436e8e3d4f7ffb19a0849',
    'none/d2-unknown':
        '099b32a80a5a42b1e7b9055301e1c2269d3bd265266dd1687eaee6eecfce9660',
    'none/d4-einval':
        '7483c88a36a67c7632c0f9b4c0603598a7303bd2d1ec7b0e8f1815fd3a8af5c1',
    'none/d4-mixed':
        '3c00243aadf4c656bd6366cac86edd426e2e5d005fb44c25edccc93c81a3cbd5',
    'suspend/d2-denied':
        'dc1cf4aad75ee12f18aa8e6388047d481c8ef67e0a785c2948318b5a5958c7e1',
    'suspend/d2-mixed':
        '9f4ec3b6641a4d5ba0c1f46b7f56d8a947db83c05b7646b7ba36ea232fd7a014',
    'suspend/d2-unknown':
        '649c2c898217350009c3fa263009de2a3e504d42982086fe6646b0b5a367225f',
    'suspend/d4-einval':
        '7483c88a36a67c7632c0f9b4c0603598a7303bd2d1ec7b0e8f1815fd3a8af5c1',
    'suspend/d4-mixed':
        '2a5240b00f984fff7abeb1dadddee17de9212030bae396984103bd8af71a7ebe',
    'unmap/d2-denied':
        'dc1cf4aad75ee12f18aa8e6388047d481c8ef67e0a785c2948318b5a5958c7e1',
    'unmap/d2-mixed':
        '2adad2fc399caef5ed3819a498273f9da28d27790f6d607eedf4a4306072e3fc',
    'unmap/d2-unknown':
        '93ea59f38b8213af2d8f3926b1e1b49424fbae3347870be2fd36fbbaa9591296',
    'unmap/d4-einval':
        '7483c88a36a67c7632c0f9b4c0603598a7303bd2d1ec7b0e8f1815fd3a8af5c1',
    'unmap/d4-mixed':
        'c3faf3a71e2737a1f8addd49cd2f7247860d9a38ef170b012f7d8b5cc12823d2',
}


def batch_totals(config_name: str, case: str) -> str:
    system = make_system()
    queue, broken = BATCH_CASES[case]
    if broken:
        _break(system, broken)
    config = CONFIGS[config_name]
    config = DispatchConfig(**{**{f: getattr(config, f) for f in (
        "hardening", "marshalling", "per_call_policy_check",
        "use_decision_cache")}, "batch_size": len(queue)})
    dispatcher = system.extension.dispatcher
    flushes = []
    for _ in range(3):
        ops, cycles, events, batch = _recorded(
            system, lambda: dispatcher.call_batch(system.session, queue,
                                                  config=config))
        totals = {}
        for op, count in ops:
            totals[op] = totals.get(op, 0) + count
        flushes.append({
            "totals": sorted(totals.items()), "charges": len(ops),
            "cycles": cycles, "events": events,
            "values": batch.values,
            "errnos": [None if o.errno is None else o.errno.name
                       for o in batch.outcomes],
            "errno": None if batch.errno is None else batch.errno.name,
            "stack": system.session.shared_stack.depth()})
    flushes.append([dispatcher.calls_dispatched, dispatcher.calls_denied,
                    system.session.handle.calls_served,
                    system.kernel.syscalls.count("smod_call"),
                    system.kernel.syscalls.count("smod_call_batch")])
    return _digest(flushes)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_batch_totals_are_pinned(config_name, case):
    assert batch_totals(config_name, case) == \
        BATCH_DIGESTS[f"{config_name}/{case}"]


# ------------------------------------------------------------ observation
def _spans(tracer):
    return [(span.kind, span.parent_id, span.tier, span.count,
             span.start_us, span.end_us) for span in tracer.spans()]


DRIVER_SHAPES = {
    f"{arrival}-d{depth}": dict(arrival=arrival, batch_size=depth,
                                modules=2, mean_interval_us=6.0,
                                burst_interval_us=1.5)
    for arrival in ("closed", "open", "mmpp") for depth in (1, 4)
}
# one module and a two-function mix repeat the sorted depth-4 shapes often
# enough for those flushes to replay and fast-forward too
DRIVER_SHAPES.update({
    f"{arrival}-d4-repeat": dict(arrival=arrival, batch_size=4,
                                 mean_interval_us=6.0,
                                 call_mix=(("test_incr", 0.75),
                                           ("test_null", 0.25)))
    for arrival in ("closed", "open")
})
TIERS = {"default": None, "replay": DispatchConfig(use_fast_forward=False),
         "op": OP_BY_OP}

OBSERVATION_DIGESTS = {
    'closed-d1/default':
        '4a41feeb03b5fea378616ad4f203289e41c9f8614c11c22916be309218633da4',
    'closed-d1/op':
        'bc69b1afacc678d2413ad2f3bdf6d5751657ad2dc47eed1fb660292658f8d00c',
    'closed-d1/replay':
        'fe6373b8a5423a4b1bad90b26f5982b6695cdf16ef652f2240ab257b59b3c7b0',
    'closed-d4-repeat/default':
        '46c60cda084f35dfdba322e84ffa0a3d5f92f7a82607af624f34b80f7f8464b3',
    'closed-d4-repeat/op':
        'f54cad397fe4584a4da3461dac1724da2c2a4f61908c9dc2213e66787e20a4b0',
    'closed-d4-repeat/replay':
        'f96fa10ad842dac632f65b940de3d6017ceb34456cab5dd8735105f805727ac0',
    'closed-d4/default':
        '2ab2b88950f1e6249965e99f635059e37f82a0a710b3fafabd0a9906ba48e7ba',
    'closed-d4/op':
        '0eed9c1de744be6ced080ed67c7928eedf5b93d7e0976fe166cc10152373be6a',
    'closed-d4/replay':
        '6eb55ef70aeafba1257083fec2047c03d90391d1ae06a110501444673499de99',
    'direct/default':
        '6c7be56737814bb7676613a186f0a7ddd9682d378561e15cf50ef7747f00554f',
    'direct/ff':
        '0c471316fdccc3607a28b27ce56aeb3b3d5e4c1c58718527dd4c24a83695077e',
    'direct/op':
        'da3aa230ec31b7649b5da9ded980bb54e30cd53b433c8f248490e2c5f8a6062f',
    'mmpp-d1/default':
        'abe90c4abac38cb4317d8654c230b83974a2c0e2df41e1527decf56959dcf137',
    'mmpp-d1/op':
        'a04b52e5b3eca7c7a2cd79e0c07658cfe34e8d0f723ff238d275f0ae71ad1e30',
    'mmpp-d1/replay':
        '284d801a7f1adc7264c40245348d7f3bb3b9d6e182ea69810b41b46db1e9d0d4',
    'mmpp-d4/default':
        'ea26a05cb8a7e293ed2f77224631d83bdc6705ec7279eb80a83950cf4243d984',
    'mmpp-d4/op':
        'a2f5d2a0f55603dd943b62040b8ac52aedb2af538cca8bb15c78f38776b9428c',
    'mmpp-d4/replay':
        '5cc5819c934fadec93aeafc1887ce0de87a3028777373c5f9ac65379c9010f2b',
    'open-d1/default':
        '3f7ca3c923127f4e6137ad750b90c3a6b67912948313df1511052e102fce3096',
    'open-d1/op':
        'd825c75e97f2dae545cdacdae5c5f13395322ff4984ef015e05a74d68d57e831',
    'open-d1/replay':
        '18d4844d314f3f393e2feaa0ce526127f4a80617f242d6630412ca1c969e9a04',
    'open-d4-repeat/default':
        '75770c4f68e037beadbd78c26198c844f7b2d889a5655341d5a00b4fd30356e1',
    'open-d4-repeat/op':
        'c0944bd523b8cb22fc405be2108d2eeb81cb64389ff8505675fba9fb88db5929',
    'open-d4-repeat/replay':
        'ad7ca5e5014c8e8d12ab574691677556c418b2e0479562c1258b391bd9a3d36a',
    'open-d4/default':
        '147d5847a83c8b99297fbf79fdde7880284b515285e569f3fb91502634c8ddb0',
    'open-d4/op':
        '1adbd14ae293608f0ddc56a9fe8019e88a784d5c7f26133efd6a0075af63f469',
    'open-d4/replay':
        '83ce7391e155147d7fcdb98a64d1c9fe4926940df1481ac319862d3d87e953b1',
}


def driver_observation(name: str, tier: str) -> str:
    spec = TrafficSpec(clients=3, calls_per_client=48, seed=77,
                       telemetry=True, tracing=True, **DRIVER_SHAPES[name])
    engine = TrafficEngine(spec, dispatch_config=TIERS[tier])
    engine.run()
    return _digest({
        "snapshot": engine.telemetry.snapshot(),
        "export": engine.telemetry.export_state(),
        "spans": _spans(engine.tracer),
        "traces": engine.extension.dispatcher.trace_cache.snapshot(),
    })


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("name", sorted(DRIVER_SHAPES))
def test_driver_observation_is_pinned(name, tier):
    assert driver_observation(name, tier) == \
        OBSERVATION_DIGESTS[f"{name}/{tier}"]


def direct_observation(tier: str) -> str:
    """Single calls and flushes straight into the dispatcher, observed."""
    system = make_system()
    extension = system.extension
    telemetry = extension.enable_telemetry()
    tracer = extension.enable_tracing()
    config = OP_BY_OP if tier == "op" else DispatchConfig()
    dispatcher = extension.dispatcher
    session = system.session
    mixed = [("test_incr", (1,)), ("test_null", ()), ("test_add", (2, 3)),
             ("test_incr", (4,))]
    for round_ in range(4):
        dispatcher.call(session, "test_incr", round_, config=config)
        dispatcher.call(session, "test_null", config=config)
        dispatcher.call_batch(session, mixed[:2], config=DispatchConfig(
            batch_size=2, use_trace_replay=config.use_trace_replay))
        dispatcher.call_batch(session, mixed, config=DispatchConfig(
            batch_size=4, use_trace_replay=config.use_trace_replay))
    if tier == "ff":
        for name in ("test_incr", "test_null"):
            key = dispatcher.trace_key(session, (name,), config)
            entry = dispatcher.fast_forward_probe(session, key)
            assert entry is not None
            dispatcher.fast_forward_commit(entry, session, 5)
    # the whole-queue rejection paths are observed too
    system.extension.sessions.teardown(session)
    dispatcher.call(session, "test_incr", 1, config=config)
    dispatcher.call_batch(session, mixed, config=DispatchConfig(batch_size=4))
    return _digest({
        "snapshot": telemetry.snapshot(),
        "export": telemetry.export_state(),
        "spans": _spans(tracer),
        "traces": dispatcher.trace_cache.snapshot(),
        "cycles": system.machine.clock.cycles,
    })


@pytest.mark.parametrize("tier", ["default", "op", "ff"])
def test_direct_observation_is_pinned(tier):
    assert direct_observation(tier) == OBSERVATION_DIGESTS[f"direct/{tier}"]
