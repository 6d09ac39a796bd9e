"""The experiment registry: one declaration drives the CLI, ``--fast``, the
export, ``bench diff --update`` and the no-argument ``bench diff`` gate."""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass

import pytest

from repro.bench.batch import run_batch_sweep
from repro.bench.diff import compare_payloads
from repro.bench.experiments import EXPERIMENTS, Experiment, count
from repro.bench.figure8 import reproduce_figure8
from repro.bench.harness import to_jsonable
from repro.bench.simspeed import run_simspeed
from repro.cli import main as cli_main


def read(path):
    return json.loads(path.read_text())


class TestResolution:
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("fast", [False, True])
    def test_a_record_resolves_to_itself(self, experiment_id, fast):
        experiment = EXPERIMENTS[experiment_id]
        record = to_jsonable(experiment.resolve(fast=fast))
        assert to_jsonable(experiment.resolve(record)) == record
        assert ("fast" in record) == bool(experiment.fast)

    def test_fast_overrides_only_params_left_at_defaults(self):
        params = EXPERIMENTS["abl-batch"].resolve({"calls": 100}, fast=True)
        assert params == {"sizes": (1, 4, 16), "calls": 100,
                          "seed": 0xBA7C_4, "fast": True}

    def test_defaults_come_from_the_runner_signature(self):
        assert EXPERIMENTS["abl-batch"].defaults() == {
            "sizes": (1, 2, 4, 8, 16, 32, 64), "calls": 192,
            "seed": 0xBA7C_4}
        assert EXPERIMENTS["fig8"].defaults() == {
            "trials": None, "sample_calls": None, "seed": 42}

    def test_unknown_recorded_param_is_refused(self):
        with pytest.raises(ValueError):
            EXPERIMENTS["abl-batch"].resolve({"defaults": True})


class TestValidationAtTheEdge:
    @pytest.mark.parametrize("argv", [
        "abl-batch --calls 0 --sizes 4",
        "abl-simspeed --fast --clients 0",
        "fig8 --trials 0",
        "fig8 --sample-calls 0",
        "abl-batch --sizes 0",
        "abl-pool --seats 0",
        "abl-serve --tenants 0",
        "abl-overload --ratios 0",
        "abl-adaptive --depths 0",
        "abl-overload --calls 0",
        "all --only fig7 nope",
    ])
    def test_bad_value_is_a_usage_error_before_anything_runs(
            self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv.split())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert not list(tmp_path.glob("BENCH_*.json"))

    @pytest.mark.parametrize("run", [
        lambda: run_batch_sweep(sizes=(4,), calls=0),
        lambda: run_simspeed(calls=4_000, clients=0),
        lambda: reproduce_figure8(trials=0),
        lambda: reproduce_figure8(sample_calls=0),
    ], ids=["batch-calls", "simspeed-clients", "fig8-trials",
            "fig8-sample-calls"])
    def test_runner_rejects_the_value_too(self, run):
        with pytest.raises(ValueError):
            run()


def test_every_export_rebuilds_from_its_params(tmp_path, monkeypatch, capsys):
    """Each export's params say exactly what ran: ``--update`` rebuilds
    every one of them with 0 differing leaves."""
    monkeypatch.chdir(tmp_path)
    for experiment_id, experiment in EXPERIMENTS.items():
        argv = [experiment_id] + (["--fast"] if experiment.fast else [])
        assert cli_main(argv) == 0
    before = {path.name: read(path) for path in tmp_path.glob("BENCH_*.json")}
    assert len(before) == len(EXPERIMENTS)
    simspeed = before["BENCH_abl-simspeed.json"]
    assert simspeed["params"]["calls"] == simspeed["data"]["calls"] == 4_000
    capsys.readouterr()
    assert cli_main(["bench", "diff", "--update",
                     "--baselines-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("(0 differ,") == len(EXPERIMENTS)
    for name, old in before.items():
        new = read(tmp_path / name)
        diff = compare_payloads(old, new)
        assert not (diff.items or diff.only_old or diff.only_new), name
        assert new["params"] == old["params"]


def test_update_refuses_a_record_it_cannot_resolve(tmp_path, capsys):
    payload = {"experiment": "abl-batch", "params": {"defaults": True},
               "data": {}, "rendered": ""}
    (tmp_path / "BENCH_abl-batch.json").write_text(json.dumps(payload))
    assert cli_main(["bench", "diff", "--update",
                     "--baselines-dir", str(tmp_path)]) == 2
    assert "bench diff error" in capsys.readouterr().err


# -------------------------------------------------- a new experiment is one entry
@dataclass
class ToyReport:
    calls: int
    seed: int
    warm: bool

    def render(self) -> str:
        return f"toy: {self.calls} calls, warm={self.warm}"

    def as_dict(self):
        return {"calls": self.calls, "warm": self.warm,
                "total_cycles": 100 * self.calls + self.seed}


def run_toy(*, calls: int = 64, seed: int = 7, warm: bool = True) -> ToyReport:
    return ToyReport(calls=calls, seed=seed, warm=warm)


TOY = Experiment("abl-toy", "Toy experiment", run_toy, kind="ablation",
                 params={"calls": count, "seed": int},
                 fast={"calls": 4, "warm": False})


def test_a_declared_experiment_gets_cli_export_update_and_gate(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENTS, "abl-toy", TOY)
    monkeypatch.chdir(tmp_path)
    baselines = tmp_path / "baselines"
    baselines.mkdir()

    assert cli_main(["abl-toy", "--fast"]) == 0
    assert "toy: 4 calls, warm=False" in capsys.readouterr().out
    smoke = read(tmp_path / "BENCH_abl-toy.json")
    assert smoke["params"] == {"calls": 4, "seed": 7, "fast": True}
    assert smoke["data"]["total_cycles"] == 407

    # --update rebuilds the smoke export from its params, leaf for leaf
    shutil.copy(tmp_path / "BENCH_abl-toy.json", baselines)
    assert cli_main(["bench", "diff", "--update",
                     "--baselines-dir", str(baselines)]) == 0
    assert "(0 differ," in capsys.readouterr().out
    assert read(baselines / "BENCH_abl-toy.json")["data"] == smoke["data"]

    # the gate refuses a baseline that is not at the declared defaults ...
    assert cli_main(["bench", "diff", "--baselines-dir", str(baselines)]) == 2
    assert "differ from the declared defaults" in capsys.readouterr().err

    # ... passes a canonical one ...
    assert cli_main(["abl-toy"]) == 0
    shutil.copy(tmp_path / "BENCH_abl-toy.json", baselines)
    capsys.readouterr()
    assert cli_main(["bench", "diff", "--baselines-dir", str(baselines)]) == 0
    assert "(0 differ, 0 cycle regressions)" in capsys.readouterr().out

    # ... and fails a cycle regression against it
    cheaper = read(baselines / "BENCH_abl-toy.json")
    cheaper["data"]["total_cycles"] -= 1
    (baselines / "BENCH_abl-toy.json").write_text(json.dumps(cheaper))
    assert cli_main(["bench", "diff", "--baselines-dir", str(baselines)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
