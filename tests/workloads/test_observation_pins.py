"""Pinned observation output of the traced and telemetered driver shapes.

The books digests (``test_driver_books.py``) pin what a run charges; this
suite pins what a run *reports* about itself: the telemetry snapshot, the
per-seat fairness report, the broker's counters and, for a run through
the service plane, the front-end's status.  Five shapes cover every
observer: the three service-plane arrival modes (all traced), static
deadline shedding and the AIMD controller's p95 feed.  Each shape runs on
the default tiers and on the op-by-op tier, and both must produce the
digest pinned here.  Span trees are not part of the digest; the span
invariants are checked in ``test_trace_nonperturbation.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads.traffic import TrafficEngine

from test_driver_books import OP_BY_OP, SPECS, make_spec

DIGESTS = {
    'adaptive-p95':
        '70961d5f66676bf3e58f4ca4136ddeefa11cf3455e11cdfe0e2438e053429af2',
    'open-shed-d2':
        'cd977c1de0f352e7f5c4bbfb099a1ec5c18b74ae89a6858ae0cf68903be0c880',
    'service-closed':
        '7dd484e8ac3a221b6197f9fccaed29c2056a0311e12483b45941ef82966684f9',
    'service-mmpp':
        '721a427d0c7949f328778ea004802e56f8bc9d7e9366d1c0fdeaae410258127b',
    'service-open':
        '391cbeee3d496c3c34c5d618cf3c1315a16c1cb055eb1b4ab8d4a582a792adbe',
}


def observation_digest(name: str, config) -> str:
    engine = TrafficEngine(make_spec(SPECS[name]), dispatch_config=config)
    result = engine.run()
    payload = {"metrics": result.metrics,
               "seat_fairness": result.seat_fairness,
               "broker": result.broker_stats}
    if engine.frontend is not None:
        payload["frontend"] = engine.frontend.status(probe=False)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_observation_matches_the_pinned_digest(name):
    assert observation_digest(name, None) == DIGESTS[name]
    assert observation_digest(name, OP_BY_OP) == DIGESTS[name]
