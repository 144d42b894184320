"""Tests for the hplai-sim command-line interface."""

from pathlib import Path

import pytest

from repro.cli import FIGURES, main


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hplai-sim" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestSolve:
    def test_small_exact_solve(self, capsys):
        rc = main(["solve", "-n", "128", "-b", "16", "-p", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged=True" in out
        assert "residual" in out

    def test_machine_choice(self, capsys):
        rc = main(["solve", "-n", "64", "-b", "16", "-p", "1",
                   "--machine", "summit"])
        assert rc == 0
        assert "summit" in capsys.readouterr().out


class TestRunAndModel:
    def test_run_small(self, capsys):
        rc = main(["run", "--machine", "frontier", "-p", "2",
                   "--nl", "6144", "-b", "3072"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "event-engine" in out
        assert "EFLOPS" in out or "TFLOPS" in out or "GFLOPS" in out

    def test_model_paper_scale(self, capsys):
        rc = main(["model", "--machine", "frontier", "-p", "172",
                   "--qr", "4", "--qc", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "breakdown" in out
        assert "EFLOPS" in out  # the achievement run is exascale

    def test_model_flags(self, capsys):
        rc = main(["model", "--machine", "summit", "-p", "6",
                   "--no-lookahead", "--no-gpu-aware", "--no-port-binding",
                   "--bcast", "ring1"])
        assert rc == 0


class TestTuneScanFigures:
    def test_tune_block(self, capsys):
        rc = main(["tune", "block", "--machine", "frontier", "-p", "8",
                   "--values", "1536,3072"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "B sweep" in out

    def test_tune_grid(self, capsys):
        rc = main(["tune", "grid", "--machine", "summit", "-p", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "node-grid sweep" in out

    def test_scan(self, capsys):
        rc = main(["scan", "--gcds", "64", "--machine", "frontier"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GCD scan" in out

    @pytest.mark.parametrize("fig", ["table1", "table2", "fig3", "fig7",
                                     "nl", "scan", "fig12"])
    def test_cheap_figures(self, fig, capsys):
        rc = main(["figure", fig])
        assert rc == 0
        assert len(capsys.readouterr().out) > 50

    def test_figures_registry_complete(self):
        from repro.bench import figures as figmod

        for fn_name, _title in FIGURES.values():
            assert hasattr(figmod, fn_name)

    def test_specs(self, capsys):
        rc = main(["specs"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4608" in out and "9408" in out


class TestDatCommand:
    SAMPLE = (
        "HPLinpack benchmark input file\n"
        "device out\n"
        "1 sizes\n49152 Ns\n"
        "1 nbs\n3072 NBs\n"
        "1 grids\n2 Ps\n2 Qs\n"
        "machine frontier\n"
    )

    def test_dat_model_sweep(self, tmp_path, capsys):
        f = tmp_path / "HPL.dat"
        f.write_text(self.SAMPLE)
        rc = main(["dat", str(f)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "HPL.dat sweep" in out and "best:" in out

    def test_dat_engine_sweep(self, tmp_path, capsys):
        f = tmp_path / "HPL.dat"
        f.write_text(self.SAMPLE)
        rc = main(["dat", str(f), "--engine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "event engine" in out


class TestReportCommand:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "EXPERIMENTS.md"
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# EXPERIMENTS" in text
        assert "## Fig 11" in text
        assert "## Roofline" in text
        assert "Correctness anchor" in text
        committed = Path(__file__).parent.parent / "EXPERIMENTS.md"
        assert text == committed.read_text(), (
            "the generated report drifted from the committed EXPERIMENTS.md; "
            "regenerate it with scripts/make_experiments_md.py only in a PR "
            "that means to change the numbers"
        )


class TestGanttCommand:
    def test_gantt_small_run(self, capsys):
        rc = main(["gantt", "--machine", "frontier", "-p", "2",
                   "--nl", "6144", "--width", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gantt:" in out and "legend:" in out
        assert "busy fraction" in out

    def test_gantt_refuses_large_grids(self, capsys):
        rc = main(["gantt", "--machine", "frontier", "-p", "16",
                   "--nl", "6144"])
        assert rc == 1
