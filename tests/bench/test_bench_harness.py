"""Tests for the benchmark harness: figures 1-3, 7, 8, ablations, CLI, report."""

import pytest

from repro.bench.ablations import (
    run_argument_size_ablation,
    run_hardening_ablation,
    run_machine_sensitivity,
    run_marshalling_ablation,
    run_protection_ablation,
)
from repro.bench.figure7 import reproduce_figure7
from repro.bench.figure8 import PAPER_RESULTS, reproduce_figure8
from repro.bench.figures123 import (
    FIGURE1_EXPECTED_SEQUENCE,
    reproduce_figure1,
    reproduce_figure2,
    reproduce_figure3,
)
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import run_experiment
from repro.bench.report import format_ratio, format_us, render_table, section
from repro.cli import main as cli_main
from repro.secmodule.dispatch import HardeningMode, MarshallingMode
from repro.secmodule.protection import ProtectionMode
from repro.workloads.microbench import PAPER_SPECS
from repro.workloads.policies import run_policy_chain_sweep


class TestReportHelpers:
    def test_render_table_alignment(self):
        table = render_table(["a", "long header"], [[1, 2], ["xyz", 42]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "long header" in lines[2]
        assert len({len(line) for line in lines[2:4]}) >= 1

    def test_format_helpers(self):
        assert format_us(1.23456789) == "1.234568"
        assert format_ratio(9.87) == "9.87x"
        assert "Body" in section("Title", "Body")


class TestFigure7:
    def test_report_fields_and_rendering(self):
        report = reproduce_figure7()
        assert report.mhz == pytest.approx(599.0)
        assert report.hz == 100
        text = report.render()
        assert "OpenBSD 3.6" in text and "Pentium III" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def table(self):
        return reproduce_figure8(trials=3, sample_calls=16, seed=7)

    def test_has_all_four_rows_with_paper_call_counts(self, table):
        keys = [row.key for row in table.rows]
        assert keys == ["getpid", "smod_getpid", "smod_testincr", "rpc_testincr"]
        assert table.row("getpid").calls_per_trial == 1_000_000
        assert table.row("rpc_testincr").calls_per_trial == 100_000
        assert all(row.trials == 3 for row in table.rows)

    def test_ordering_matches_paper(self, table):
        assert table.ordering_matches_paper()

    def test_ratios_are_roughly_ten(self, table):
        assert 7 <= table.smod_vs_native_factor() <= 13
        assert 7 <= table.rpc_vs_smod_factor() <= 13

    def test_values_close_to_paper(self, table):
        for row in table.rows:
            assert row.relative_error() < 0.10, row.key

    def test_stdev_columns_nonzero_for_multi_trial(self, table):
        assert all(row.stdev_us >= 0 for row in table.rows)
        assert any(row.stdev_us > 0 for row in table.rows)

    def test_render_mentions_all_mechanisms(self, table):
        text = table.render()
        for name in ("getpid()", "SMOD(SMOD-getpid)", "SMOD(test-incr)",
                     "RPC(test-incr)"):
            assert name in text

    def test_paper_reference_table_complete(self):
        assert set(PAPER_RESULTS) == set(PAPER_SPECS)


class TestFigures123:
    def test_figure1_sequence_order(self):
        report = reproduce_figure1()
        assert report.follows_expected_order()
        assert set(FIGURE1_EXPECTED_SEQUENCE) <= set(report.labels)
        assert "smod_start_session" in report.render()

    def test_figure2_layouts(self):
        report = reproduce_figure2()
        assert report.shared_entry_names          # data/heap/stack shared
        assert "stack" in report.shared_entry_names
        assert report.handle_layout.has_secret_region
        assert not report.client_layout.has_secret_region
        assert any("smod:" in name for name in report.handle_text_entries)
        assert report.render().count("0x") > 4

    def test_figure3_checkpoints(self):
        report = reproduce_figure3(argument=41)
        assert report.result == 42
        assert report.slot_kinds("step1") == ["arg", "ret", "fp"]
        assert report.slot_kinds("step2") == ["arg", "ret", "fp", "m_id",
                                              "func_id", "ret", "fp"]
        assert report.slot_kinds("step3") == ["arg"]
        assert report.slot_kinds("step4") == ["arg", "ret", "fp"]
        assert "Stack Manipulations" in report.render()


class TestAblations:
    def test_policy_sweep_is_monotone_and_roughly_linear(self):
        sweep = run_policy_chain_sweep(lengths=(0, 4, 16), trials=1,
                                       sample_calls=8)
        values = [p.mean_us_per_call for p in sweep.points]
        assert values[0] < values[1] < values[2]
        slope = sweep.per_clause_cost_us()
        expected = 140 / 599.0          # SMOD_POLICY_STEP cycles at 599 MHz
        assert slope == pytest.approx(expected, rel=0.15)
        overhead = sweep.overhead_vs_baseline()
        assert overhead[0] == pytest.approx(0.0)

    def test_hardening_ablation_ordering(self):
        result = run_hardening_ablation(trials=1, sample_calls=8)
        none = result.point(HardeningMode.NONE).mean_us
        suspend = result.point(HardeningMode.SUSPEND_CLIENT).mean_us
        unmap = result.point(HardeningMode.UNMAP_CLIENT).mean_us
        assert none < suspend < unmap
        assert "hardening" in result.render()

    def test_marshalling_ablation_copy_costs_grow_with_args(self):
        result = run_marshalling_ablation(arg_word_counts=(1, 32), calls=6)
        shared_1 = result.mean_us(MarshallingMode.SHARED_VM, 1)
        shared_32 = result.mean_us(MarshallingMode.SHARED_VM, 32)
        copy_1 = result.mean_us(MarshallingMode.EXPLICIT_COPY, 1)
        copy_32 = result.mean_us(MarshallingMode.EXPLICIT_COPY, 32)
        assert copy_1 > shared_1
        assert (copy_32 - shared_32) > (copy_1 - shared_1)

    def test_protection_ablation_setup_costs(self):
        result = run_protection_ablation(calls=6)
        unmap = result.point(ProtectionMode.UNMAP)
        encrypt = result.point(ProtectionMode.ENCRYPT)
        both = result.point(ProtectionMode.BOTH)
        # encryption pays key schedule + per-block work at registration
        assert encrypt.registration_us > unmap.registration_us
        assert both.registration_us >= encrypt.registration_us
        # but the steady-state per-call cost is unaffected by the mode
        assert encrypt.per_call_us == pytest.approx(unmap.per_call_us, rel=0.02)

    def test_argument_size_ablation_no_crossover(self):
        result = run_argument_size_ablation(arg_word_counts=(1, 32), calls=4)
        assert result.crossover_absent()
        # RPC cost grows faster with argument count than SecModule's
        rpc_growth = result.mean_us("rpc", 32) - result.mean_us("rpc", 1)
        smod_growth = result.mean_us("secmodule", 32) - result.mean_us("secmodule", 1)
        assert rpc_growth > smod_growth

    def test_machine_sensitivity_keeps_ordering(self):
        result = run_machine_sensitivity(trials=1, sample_calls=8)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.native_us < row.smod_us < row.rpc_us
        assert "machine" in result.render()


class TestBatchSweep:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.bench.batch import run_batch_sweep
        return run_batch_sweep(sizes=(1, 2, 4, 8), calls=48)

    def test_batch1_cycle_identical_to_single_call(self, report):
        assert report.batch1_matches_single_call()

    def test_cycles_per_call_monotonically_decreasing(self, report):
        assert report.monotonically_decreasing()

    def test_switch_pair_amortized(self, report):
        assert report.point(1).switches_per_call == pytest.approx(2.0)
        assert report.point(8).switches_per_call == pytest.approx(0.25)

    def test_batch1_lands_on_paper_dispatch_latency(self, report):
        assert report.us_per_call(report.point(1)) == \
            pytest.approx(6.407, abs=0.35)

    def test_render_reports_the_checks(self, report):
        text = report.render()
        assert "identical" in text and "monotonically decreasing: yes" in text


class TestPoolSweep:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.bench.pool import run_pool_sweep
        return run_pool_sweep(seats=(1, 2, 8), sessions=16,
                              calls_per_session=2)

    def test_handle_count_is_ceil_sessions_over_seats(self, report):
        assert report.handle_counts_match()
        assert report.point(1).handle_count == 16
        assert report.point(8).handle_count == 2

    def test_us_per_call_monotone(self, report):
        assert report.monotone_us_per_call()

    def test_seat1_lands_on_paper_dispatch_latency(self, report):
        assert report.us_per_call(report.point(1)) == \
            pytest.approx(6.407, abs=0.01)

    def test_pooled_establishment_cheaper(self, report):
        assert report.establish_us(report.point(8)) < \
            report.establish_us(report.point(1))

    def test_render_reports_the_checks(self, report):
        text = report.render()
        assert "ceil(sessions/seats) at every point: yes" in text
        assert "monotone (non-decreasing) in seats/handle: yes" in text


class TestHarnessAndCli:
    def test_experiment_table_covers_design_doc(self):
        for experiment_id in ("fig1", "fig2", "fig3", "fig7", "fig8",
                              "abl-policy", "abl-hardening", "abl-marshalling",
                              "abl-protection", "abl-argsize", "abl-machine",
                              "abl-throughput", "abl-batch", "abl-pool"):
            assert experiment_id in EXPERIMENTS

    def test_run_experiment_fig7(self):
        run = run_experiment("fig7")
        assert "OpenBSD" in run.rendered

    def test_cli_list_and_fig7(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert cli_main(["fig7"]) == 0
        assert "Pentium III" in capsys.readouterr().out

    def test_cli_fig8_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["fig8", "--trials", "1", "--sample-calls", "8"]) == 0
        out = capsys.readouterr().out
        assert "RPC(test-incr)" in out

    def test_cli_bench_batch_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["abl-batch", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "batch size" in out and "monotonically decreasing: yes" in out

    def test_cli_bench_pool_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["abl-pool", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "sessions/handle" in out
        assert "ceil(sessions/seats) at every point: yes" in out

    def test_cli_output_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "fig7.txt"
        assert cli_main(["-o", str(target), "fig7"]) == 0
        assert "Pentium III" in target.read_text()

    def test_cli_describe(self, capsys):
        assert cli_main(["describe"]) == 0
        assert "SMOD test_incr(41) -> 42" in capsys.readouterr().out
