"""Every experiment's payload, pinned by digest across changes to the CLI.

Each digest is SHA-256 over an export's numeric ``data`` leaves, gathered
exactly as ``repro bench diff`` gathers them (wall keys skipped), followed
by its ``rendered`` text.  abl-simspeed's rendering carries wall-clock
speedups, so only its leaves are pinned.  The digests were taken from the
hand-wired CLI that the experiment registry replaced: the default run of
every experiment, and every CI smoke invocation.  abl-serve (~25 s) and
abl-simspeed (~6 s) run too long at their defaults and are pinned at their
fast sizes only.  A change to the CLI, the registry or the export must keep
them passing unchanged; never regenerate them to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.diff import _collect_leaves
from repro.cli import main as cli_main

#: ``repro`` argv -> digest of its BENCH_<id>.json export
DIGESTS = {
    "fig1": "11a8b4ac2e51c10e90378f117891bbb9286d5b2d4f92c4b0724e7389c5e07346",
    "fig2": "12d805a9eaf17dc777d61e16f6184c656f05aa1831bfa3463e37e0a39d60cff6",
    "fig3": "bea8e9649cbc277fb5a276398638c8d67407b60130987aa8e60044f36b28ca4e",
    "fig7": "96baac01d1dec64d0a463c172c21ceae845997256f24362356db9d5d7a1df035",
    "fig8": "de562ffcadaedffb64894b2b5281ec83087a1161950ad2242a3bc9a8ec90a8c8",
    "abl-policy":
        "e9884ec6baa36ef1b8bc3f5299c450126b1ff11f2a9be2c390c8eaa844ec1782",
    "abl-marshalling":
        "5c01320e16eee99b6735f68c6ee691fda156f512a8b4f2204761ee006434c121",
    "abl-protection":
        "a8b4c4a3a7f36b90bcce540094733824aa2f83c6014dabc7b8dc45e5a90c6152",
    "abl-argsize":
        "b9f30853e4a7071c730beb255c55a408c327793d3e0c109cc4c80ccd95370017",
    "abl-machine":
        "8207687278f9ffc1f85f567229c8cbca2b8a3d5e3b277350c3b3e70cb07e107f",
    "abl-throughput":
        "c4b23416213a37987da1937ba1a5d230aac3ca871772db3b2b46451881cd94d4",
    "abl-batch":
        "1c71a69f6b386b62c66ea6e36e31214177223c582bffbc48bae1e29392642f14",
    "abl-pool":
        "edfdce6ffddd516c6e09f1284aa636e45a75431ca80053554ba80fdd2223b7a6",
    "abl-adaptive":
        "a315a2b9877b783a92c72b5cc207097ebd6f73f9e1897e75252e6a8bec4d95fb",
    "abl-overload":
        "760104d354486ac3f4e7c44c246ed3b64800c60beaa0bb9529b7929874bf67b1",
    "abl-throughput --fast":
        "6107fee90ce5bcd5164e009c7df7a0351d51d9d59e918bcf92be3af678efba06",
    "abl-throughput --fast --clients 4 --calls-per-client 8":
        "882a4a8bfa2d33073923da42baa51e92522f61b8129b8ad8713aa720f09a8f3a",
    "abl-batch --fast":
        "bd7dc8b2fa424e0fecb91073839998bafea917538cdc15c22c1595601cc2cf0d",
    "abl-pool --fast":
        "e4203aa621592725bd7cca13843548a5f94035ca2eea75ce09948b3c1e10f59e",
    "abl-serve --fast":
        "a732a7571035026126787141e07f1497be9ed4f886dbeb0a696cba1aab296ce1",
    "abl-adaptive --fast":
        "739d91ef597c9b9cb401717e14f5756683b07ad63d0220ef8eb4fe0c29c08c5a",
    "abl-simspeed --fast":
        "09674f0000e3845ce3c14ae0911384ff2cd3b0912b02843438dddef3c9d764cb",
    "abl-overload --fast":
        "e1f899bf272c21db8b70e06e6953cce227dbd2ee292e75b69192c0d363e453ee",
}

#: abl-hardening seeds each mode with ``hash(mode.value)``, which string hash
#: randomization varies per process; it is pinned under PYTHONHASHSEED=0
HARDENING_DIGEST = \
    "7bb8102b8dcf9e18f71805eae3680bde72fc4b447a275aace8fbd246c3ce9674"


def export_digest(path: Path) -> str:
    payload = json.loads(path.read_text())
    leaves = {}
    _collect_leaves(payload["data"], "data", leaves)
    digest = hashlib.sha256(json.dumps(leaves, sort_keys=True).encode())
    if payload["experiment"] != "abl-simspeed":
        digest.update(payload["rendered"].encode())
    return digest.hexdigest()


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_export_digest_unchanged(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv.split()) == 0
    capsys.readouterr()
    experiment_id = argv.split()[0]
    assert export_digest(tmp_path / f"BENCH_{experiment_id}.json") == \
        DIGESTS[argv]


def test_hardening_export_digest_unchanged(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "repro.cli", "abl-hardening"],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    assert export_digest(tmp_path / "BENCH_abl-hardening.json") == \
        HARDENING_DIGEST
