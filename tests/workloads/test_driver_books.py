"""Pinned books for every traffic driver shape.

Each spec below is a small run of one arrival loop feeding one sink:
closed, open and mmpp arrivals at depth 1 and depth 4 (static and quota
policies, one and two modules), the AIMD controller with and without its
p95 feed, the service plane in all three arrival modes, static shedding
and the heavy-tailed think times.  Every spec runs on the default tiers
and on the op-by-op tier, and the SHA-256 of its books must equal the
digest pinned here.  A refactor of the drivers that keeps these digests
keeps every cycle, event, op count, latency and queue delay the engine
produces.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.secmodule.dispatch import DispatchConfig
from repro.workloads.traffic import TrafficEngine, TrafficSpec

OP_BY_OP = DispatchConfig(use_trace_replay=False, use_fast_forward=False)

#: calls per client of every pinned run; 10 at depth 4 leaves a short
#: last flush (4, 4, 2)
CALLS = 10


def _static_grid():
    for arrival in ("closed", "open", "mmpp"):
        for modules in (1, 2):
            for depth in (1, 4):
                for policy in ("static", "quota"):
                    name = f"{arrival}-m{modules}-d{depth}-{policy}"
                    yield name, dict(arrival=arrival, modules=modules,
                                     batch_size=depth, policy_kind=policy,
                                     quota_calls=6, mean_interval_us=6.0,
                                     burst_interval_us=1.5)


SPECS = dict(_static_grid())
SPECS.update({
    "adaptive": dict(arrival="mmpp", modules=2, adaptive_batch=True,
                     adaptive_max_depth=8, mean_interval_us=30.0,
                     burst_interval_us=0.5, calls_per_client=24),
    "adaptive-p95": dict(arrival="open", modules=2, adaptive_batch=True,
                         mean_interval_us=1.0, telemetry=True,
                         service_p95_target_us=9.0, calls_per_client=24),
    "service-open": dict(arrival="open", via_service=True,
                         handle_policy="pooled", pool_max_sessions=2,
                         service_tenants=2, shed_deadline_us=100.0,
                         mean_interval_us=150.0, telemetry=True,
                         tracing=True),
    "service-mmpp": dict(arrival="mmpp", via_service=True,
                         handle_policy="pooled", pool_max_sessions=2,
                         service_tenants=2, shed_deadline_us=150.0,
                         mean_interval_us=400.0, burst_interval_us=40.0,
                         tracing=True),
    "service-closed": dict(arrival="closed", via_service=True,
                           handle_policy="pooled", pool_max_sessions=2,
                           service_tenants=2, telemetry=True, tracing=True),
    "open-shed-d2": dict(arrival="open", batch_size=2, shed_deadline_us=25.0,
                         mean_interval_us=5.0, telemetry=True),
    "closed-lognormal": dict(think="lognormal", think_sigma=1.5),
    "closed-pareto": dict(think="pareto", think_alpha=1.5, modules=2),
})

#: sha256 of the books, per spec; the default tiers and the op-by-op
#: tier must both produce it
DIGESTS = {
    'adaptive':
        'c5434ea3bfb5b365f78814809cb2829f48dd9a49789b4d5fb74a3b21f789c7a1',
    'adaptive-p95':
        '3a98d7984a2d976277492ca75400c16c36b83d5de370369fc85faa21d5868f7c',
    'closed-lognormal':
        'fc35a4a2582b5e274fe2ca67e3ca09db1dbe4c94a7b36c7217d8a204c4d8a934',
    'closed-m1-d1-quota':
        'e8f0541ad2c9fe91db46b1ee844883b9b6ee55d6531a2fa1de768fdd893417cf',
    'closed-m1-d1-static':
        '0f5a0ef609d12da52206b78779fa77b37ca3f5e2d2614313abdc646e82b88ae1',
    'closed-m1-d4-quota':
        '23d88da9d89815f8e9d29b477db8c8a8e933d4956e520ba921195c8e623eca54',
    'closed-m1-d4-static':
        '3077082eab40fdd00c393bc886a72e3439f50c424a0f8719e1105a30e0b1e8cd',
    'closed-m2-d1-quota':
        '1cec8050774cf4e6e8dbc39f066d5e48d052f2121762109f321e40ff07d69c28',
    'closed-m2-d1-static':
        '23217f5787e2e1bb5c433dab11584cd95f44257724e693d299ddc25cbe0f7436',
    'closed-m2-d4-quota':
        '8ee37168ae4720f50a366a1ad64d1784676f377975d3efb8f2078e6add53aeb8',
    'closed-m2-d4-static':
        '14af045a085a3b0fb2cbb626431721501f7d0dcf633002b402151b9fbd41af42',
    'closed-pareto':
        '7366a471eec4871c7471858a122457bbe2334a37e597a489b363d9435276ac2c',
    'mmpp-m1-d1-quota':
        '20889716311a93998fd428845e723f103781c874d2465c655ca181ef5f93e297',
    'mmpp-m1-d1-static':
        '67f3e978c1cd8841d122cedd43f8e546cbe568b710d8a2f1a137c0f4371dbfdc',
    'mmpp-m1-d4-quota':
        '4ec42c8e302d4b802392f508aba57ab2128fee21de521bc5cc26fd7c4d4828d1',
    'mmpp-m1-d4-static':
        '92db64b7df445e54cab15fa4172170a6fec9549100aa897732c38e6744e07b6e',
    'mmpp-m2-d1-quota':
        '1631babf17c132931a167fb09739f8dd3a8e6c3121c0d6b449f292e712e75fba',
    'mmpp-m2-d1-static':
        'f5651e695731781198e0f14aa664dff2c09edf82af370b6f8f827a3c007d63ab',
    'mmpp-m2-d4-quota':
        'b46b66cbd9289c9d477e3965252111b0cc640f376bfa67e96efefd6747ff3c89',
    'mmpp-m2-d4-static':
        '0803b6f357f6e18f84d8e6574718345c0c6434e1c985d3c9887a939743a98d77',
    'open-m1-d1-quota':
        'a22e2e089ba8de9f32633d5eddbdc77f987d9fe23391e5cf8a1ce874da79a155',
    'open-m1-d1-static':
        'c3433e494314a95babf8b7fff5e756e3ea200f71afb7356ae96d7fa63c7689e4',
    'open-m1-d4-quota':
        '96bc0d1daafb20ac3063399b50122e9d64f8bffbcdb0659d122aa0d6bd5166bd',
    'open-m1-d4-static':
        '7ec6fa3dad6a4581161eca458822675e1c3f31af9d7451f36d196bc3650f1d06',
    'open-m2-d1-quota':
        'b19bc7c3aafa3b2e9eb01df54a7e06a4e8b881390c5439b3ec0679c78c0de48b',
    'open-m2-d1-static':
        '1c3f566ce6dd0ec53815ce6c911d723120cdb820957491939d595851d8b8909d',
    'open-m2-d4-quota':
        'cc940a55784d9895f5e0fe3bc0b2594ea7a349cc9ab8fae11fa327f23397eaf2',
    'open-m2-d4-static':
        '751d937a85ea420959d50686d00d00bb021ba5f83d4a4a416c930defc18e2f6e',
    'open-shed-d2':
        '76f80ee64f223f20ae4511aba5e7206e52cf5382c6016d61c371d16ea8d6efeb',
    'service-closed':
        '13d34293b965b3e67eaf819eb8d6e852e73d61f8a14f4a8a72405111307632ee',
    'service-mmpp':
        'efbb8d86a0f80b0cedd87c5cf3ee94206a8920064047081b8aae69ccd411d5f3',
    'service-open':
        'c5d8e48ddc7b82464494edc4e033df68263db2d67873f530e0a73e5be871ecb5',
}


def books_digest(spec: TrafficSpec, config) -> str:
    engine = TrafficEngine(spec, dispatch_config=config)
    result = engine.run()
    clock = engine.machine.clock
    text = json.dumps({
        "cycles": clock.cycles,
        "events": clock.events,
        "ops": sorted(engine.machine.meter.op_counts.items()),
        "calls": [result.total_calls, result.denied_calls],
        "cache": result.cache_stats,
        "broker": result.broker_stats,
        "adaptive": result.adaptive,
    }, sort_keys=True)
    digest = hashlib.sha256(text.encode())
    digest.update(result.latencies_us.tobytes())
    digest.update(result.queue_delays_us.tobytes())
    return digest.hexdigest()


def make_spec(shape) -> TrafficSpec:
    kwargs = dict(clients=3, calls_per_client=CALLS, seed=2024)
    kwargs.update(shape)
    return TrafficSpec(**kwargs)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_books_match_the_pinned_digest(name):
    spec = make_spec(SPECS[name])
    assert books_digest(spec, None) == DIGESTS[name]
    assert books_digest(spec, OP_BY_OP) == DIGESTS[name]
