"""abl-simspeed: the three-tier wall-clock benchmark's acceptance bar.

Wall-clock numbers are machine-dependent, so the tier-1 assertions are the
*identity* half of the bar (neither replay nor fast-forward may change a
single virtual number, serial or sharded) plus the structural facts
(traces record, confirm and feed the fast tiers).  The >= 100x headline is
asserted loosely at a small size — the full-size run prints the real
figure — because CI machines vary wildly in single-core speed.
"""

from __future__ import annotations

from repro.bench.harness import run_experiment
from repro.bench.simspeed import FAST_FORWARD, OP_BY_OP, REPLAY, run_simspeed


def test_simspeed_small_run_is_byte_identical():
    report = run_simspeed(calls=2_000)
    assert report.cycles_identical
    assert report.ops_identical
    assert report.workers_identical
    assert report.identical
    stats = report.trace_stats
    assert stats["records"] > 0
    assert stats["confirms"] > 0
    # nearly every call lands in a fast tier once the keys go hot; the
    # fast-forward driver absorbs what the replay tier used to execute
    assert stats["replays"] + stats["fast_forward_calls"] >= \
        report.calls - 50


def test_simspeed_all_three_tiers_present():
    report = run_simspeed(calls=1_000)
    tiers = {leg.tier for leg in report.legs}
    assert tiers == {OP_BY_OP, REPLAY, FAST_FORWARD}
    # the identity block runs every tier at one common size
    identity = [leg for leg in report.legs if leg.identity_leg]
    assert {leg.tier for leg in identity} == {OP_BY_OP, REPLAY, FAST_FORWARD}
    assert len({leg.total_calls for leg in identity}) == 1
    # sharded legs at both worker counts rode along
    assert any(leg.shards > 1 and leg.workers == 1 for leg in report.legs)
    assert any(leg.shards > 1 and leg.workers > 1 for leg in report.legs)


def test_simspeed_fast_tiers_are_faster():
    report = run_simspeed(calls=4_000)
    # identity is the hard bar (speedup reports 0.0 on any mismatch); the
    # wall-clock ratios are only sanity-checked loosely here because
    # shared CI runners can stall any timed leg — the canonical >= 100x
    # figure comes from the full-size `repro abl-simspeed` run
    assert report.identical
    assert report.speedup > 1.0
    assert report.replay_speedup > 1.0
    assert report.speedup >= report.replay_speedup


def test_simspeed_fast_flag_caps_calls():
    report = run_experiment("abl-simspeed", fast=True).result
    assert report.calls <= 4_000


def test_simspeed_render_mentions_the_target():
    report = run_simspeed(calls=1_000)
    text = report.render()
    assert "speedup" in text and "byte-identical" in text
    assert "sharded" in text
