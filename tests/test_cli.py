import subprocess
import sys

import numpy as np
import pytest

from qbm import parse_config
from qbm.cli import build_report, emit_plot_script, main, run
from qbm.errors import MissingProduct

TWO_LEVEL_CFG = "coupling = explicit\nomegas = 1.0\ncouplings = 0.1\n"


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def run_cli(tmp_path, text, out_name="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / out_name
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, out


class TestRunProducts:
    def test_all_products_written(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "N = 10\nn_steps = 40\noutputs = spectrum, population, survival, "
            "position, coefficients, report\n",
        )
        assert code == 0
        for name in (
            "spectrum.csv",
            "population.csv",
            "survival.csv",
            "position.csv",
            "coefficients.csv",
            "report.txt",
            "plot.gp",
        ):
            assert (out / name).exists()

    def test_row_counts_match_grid(self, tmp_path):
        code, out = run_cli(
            tmp_path, "N = 6\nn_steps = 25\noutputs = survival, coefficients\n"
        )
        assert code == 0
        for name in ("survival.csv", "coefficients.csv"):
            header, rows = read_rows(out / name)
            assert len(rows) == 25

    def test_spectrum_csv_two_level(self, tmp_path):
        code, out = run_cli(tmp_path, TWO_LEVEL_CFG + "outputs = spectrum\n")
        assert code == 0
        header, rows = read_rows(out / "spectrum.csv")
        assert header == ["nu", "alpha", "weight"]
        assert [int(r[0]) for r in rows] == [0, 1]
        assert float(rows[0][1]) == pytest.approx(0.9, abs=1e-12)
        assert float(rows[1][1]) == pytest.approx(1.1, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[1][2]) == pytest.approx(0.5, abs=1e-12)

    def test_float_format_is_full_precision(self, tmp_path):
        code, out = run_cli(tmp_path, "N = 5\nn_steps = 5\noutputs = survival\n")
        assert code == 0
        _, rows = read_rows(out / "survival.csv")
        mantissa = rows[1][0].split("e")[0]
        assert len(mantissa.lstrip("-").replace(".", "")) == 17

    def test_flagged_coefficient_row(self, tmp_path):
        # symmetric doublet: denominator zero at t = 5 pi lands on the grid
        text = (
            TWO_LEVEL_CFG
            + f"t_start = {5.0 * np.pi!r}\nt_step = 1.0\nn_steps = 3\n"
            + "outputs = coefficients\n"
        )
        code, out = run_cli(tmp_path, text)
        assert code == 0
        header, rows = read_rows(out / "coefficients.csv")
        assert header == ["t", "omega2", "gamma", "denominator_ok"]
        assert rows[0][1] == "" and rows[0][2] == ""
        assert rows[0][3] == "0"
        assert rows[1][3] == "1" and rows[2][3] == "1"
        assert float(rows[1][1]) > 0.0

    def test_run_returns_written_paths(self, tmp_path):
        cfg = parse_config("N = 5\nn_steps = 10\noutputs = survival, report\n")
        paths = run(cfg, out_dir=tmp_path / "direct")
        assert [p.name for p in paths] == ["survival.csv", "report.txt", "plot.gp"]

    def test_out_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config("N = 5\nn_steps = 10\noutputs = spectrum\nout_dir = here\n")
        paths = run(cfg)
        assert (tmp_path / "here" / "spectrum.csv").exists()
        assert paths[0].parent.name == "here"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        text = "N = 12\nn_steps = 600\n"
        _, out1 = run_cli(tmp_path, text, "a")
        _, out2 = run_cli(tmp_path, text, "b")
        for f in sorted(out1.iterdir()):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        text = "N = 12\nn_steps = 600\noutputs = population, coefficients\n"
        _, out1 = run_cli(tmp_path, text, "w1")
        monkeypatch.setenv("QBM_THREADS", "5")
        _, out5 = run_cli(tmp_path, text, "w5")
        monkeypatch.setenv("QBM_THREADS", "0")
        _, out0 = run_cli(tmp_path, text, "w0")
        for f in sorted(out1.iterdir()):
            assert f.read_bytes() == (out5 / f.name).read_bytes()
            assert f.read_bytes() == (out0 / f.name).read_bytes()


class TestExitCodes:
    def test_success(self, tmp_path):
        code, _ = run_cli(tmp_path, "N = 5\nn_steps = 5\noutputs = spectrum\n")
        assert code == 0

    def test_config_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "frequency = 3\n")
        assert code == 2
        assert "UnknownKey" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_numerical_error(self, tmp_path, capsys):
        # negative frequency passes parsing but cannot be thermally occupied
        code, _ = run_cli(
            tmp_path,
            "coupling = explicit\nomegas = -0.5, 1.0\ncouplings = 0.1, 0.1\n"
            "outputs = population\n",
        )
        assert code == 3
        assert "NonPositiveFrequency" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_mode_is_config_error(self, tmp_path, capsys, raw):
        code, _ = run_cli(
            tmp_path,
            f"coupling = explicit\nomegas = 0.5, {raw}, 1.5\ncouplings = 0.1, 0.1, 0.1\n",
        )
        assert code == 2
        assert "InvalidValue" in capsys.readouterr().err

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QBM_THREADS", "many")
        code, _ = run_cli(tmp_path, "N = 5\nn_steps = 5\noutputs = spectrum\n")
        assert code == 2
        assert "InvalidValue" in capsys.readouterr().err


class TestReport:
    def test_report_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("N = 10\n")
        code = main(["report", "--config", str(cfg)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("eigenvalues = 11\n")
        fields = dict(
            line.split(" = ", 1) for line in text.splitlines() if " = " in line
        )
        assert float(fields["sum_w_residual"]) < 1e-12
        assert float(fields["gamma_golden_rule"]) == pytest.approx(
            2.0 * np.pi * 0.018, rel=1e-12
        )
        assert float(fields["tau_oscillator"]) == pytest.approx(2.0 * np.pi)

    def test_report_matches_run_product(self, tmp_path):
        text = "N = 8\nn_steps = 30\noutputs = report\n"
        code, out = run_cli(tmp_path, text)
        assert code == 0
        assert build_report(parse_config(text)) == (out / "report.txt").read_text()

    def test_degenerate_fit_reported_as_nan(self):
        # node of the doublet amplitude on a fit sample: the fit is skipped,
        # not fatal
        t_node = float(np.linspace(1.0, 20.0, 256)[128])
        g = np.pi / (2.0 * t_node)
        text = f"coupling = explicit\nomegas = 1.0\ncouplings = {g!r}\n"
        report = build_report(parse_config(text))
        fields = dict(
            line.split(" = ", 1) for line in report.splitlines() if " = " in line
        )
        assert fields["gamma_fit"] == "nan"
        assert fields["gamma_fit_rms_residual"] == "nan"

    def test_plateau_window_reported(self, tmp_path):
        code, out = run_cli(tmp_path, "N = 8\nn_steps = 2000\noutputs = report\n")
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "plateau_window = [" in report
        fields = dict(
            line.split(" = ", 1) for line in report.splitlines() if " = " in line
        )
        assert np.isfinite(float(fields["plateau_mean"]))


class TestRecurrencePreset:
    def test_grid_covers_revival(self, tmp_path):
        code, out = run_cli(
            tmp_path, TWO_LEVEL_CFG + "grid = recurrence\noutputs = survival\n"
        )
        assert code == 0
        _, rows = read_rows(out / "survival.csv")
        ts = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        # horizon reaches 1.2 t_r = 12 pi; the revival at t_r = 10 pi is
        # a grid point and a full reconstruction
        assert ts[-1] >= 1.2 * 10.0 * np.pi - 1e-9
        late = ts > 1.0  # skip the trivial maximum at t = 0
        assert ps[late].max() >= 0.999
        assert abs(ts[late][np.argmax(ps[late])] - 10.0 * np.pi) < 1e-9


class TestPlotScript:
    def test_empty_products_rejected(self, tmp_path):
        with pytest.raises(MissingProduct):
            emit_plot_script([], tmp_path)

    def test_report_only_rejected(self, tmp_path):
        with pytest.raises(MissingProduct):
            emit_plot_script(["report"], tmp_path)

    def test_missing_csv_rejected(self, tmp_path):
        with pytest.raises(MissingProduct):
            emit_plot_script(["population"], tmp_path)

    def test_population_panel(self, tmp_path):
        code, out = run_cli(
            tmp_path, "N = 5\nn_steps = 10\noutputs = population\n"
        )
        assert code == 0
        script = (out / "plot.gp").read_text()
        assert "population.csv" in script
        assert "⟨N_Ω⟩" in script
        assert "Population of the Brownian oscillator vs. t" in script

    def test_all_panels(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "N = 5\nn_steps = 10\noutputs = spectrum, population, survival, "
            "position, coefficients\n",
        )
        assert code == 0
        script = (out / "plot.gp").read_text()
        for name in (
            "spectrum.csv",
            "population.csv",
            "survival.csv",
            "position.csv",
            "coefficients.csv",
        ):
            assert name in script
        assert "Survival probability vs. t" in script
        assert "Mean position of the Brownian oscillator vs. t" in script
        assert "Damping factor of the Langevin equation vs. t" in script
        assert script.count("set title") == 5


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("N = 5\nn_steps = 5\noutputs = spectrum\n")
        proc = subprocess.run(
            [sys.executable, "-m", "qbm.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "o" / "spectrum.csv").exists()
        assert "spectrum.csv" in proc.stdout
