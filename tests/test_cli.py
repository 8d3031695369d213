import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm
from conftest import traced_peak
from qbm import TimeGrid, parse_config
from qbm.cli import build_report, main, run

TWO_LEVEL_CFG = "coupling = explicit\nomegas = 1.0\ncouplings = 0.1\n"


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


ALL_PANELS_SCRIPT = """\
# generated by qbm; run with: gnuplot plot.gp
set datafile separator ','
set encoding utf8
set terminal pngcairo size 960,1600
set output 'qbm_plots.png'
set multiplot layout 5,1
set title 'Eigenvalue weights'
set xlabel 'α_ν'
set ylabel 'w_ν'
plot 'spectrum.csv' using 2:3 skip 1 with impulses notitle
set title 'Population of the Brownian oscillator vs. t'
set xlabel 't'
set ylabel '⟨N_Ω⟩'
plot 'population.csv' using 1:2 skip 1 with lines notitle
set title 'Survival probability vs. t'
set xlabel 't'
set ylabel 'P_ΩΩ(t)'
plot 'survival.csv' using 1:2 skip 1 with lines notitle
set title 'Mean position of the Brownian oscillator vs. t'
set xlabel 't'
set ylabel 'X(t)'
plot 'position.csv' using 1:2 skip 1 with lines notitle
set title 'Damping factor of the Langevin equation vs. t'
set xlabel 't'
set ylabel 'Γ(t)'
plot 'coefficients.csv' using 1:3 skip 1 with lines notitle
unset multiplot
"""


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


class TestCsvBytes:
    """Every field of a CSV file is f"{x:.16e}" of the library's value."""

    def test_files_render_library_arrays(self, tmp_path):
        # the symmetric doublet's denominator vanishes at t = 5 pi: row 0 is flagged
        text = TWO_LEVEL_CFG + f"t_start = {5.0 * np.pi!r}\nt_step = 0.7\nn_steps = 12\n"
        code, out = run_cli(tmp_path, text + "outputs = spectrum, population, coefficients\n")
        assert code == 0
        cfg = parse_config(text)
        spec = qbm.solve_spectrum(qbm.build_bath(cfg.model), cfg.model.omega0)
        ts = cfg.grid.times()
        occ = qbm.thermal_occupations(spec.bath, cfg.model.beta, cfg.n_omega0)
        omega2, gamma, ok = qbm.coefficient_series(spec, ts)
        assert not ok[0] and ok[1:].all()
        want = {
            "spectrum": ["nu,alpha,weight"]
            + [f"{k},{a:.16e},{w:.16e}" for k, (a, w) in enumerate(zip(spec.alphas, spec.weights))],
            "population": ["t,n_omega"]
            + [f"{t:.16e},{n:.16e}" for t, n in zip(ts, qbm.oscillator_population(spec, occ, ts))],
            "coefficients": ["t,omega2,gamma,denominator_ok"]
            + [
                f"{t:.16e},{o:.16e},{g:.16e},1" if k else f"{t:.16e},,,0"
                for t, o, g, k in zip(ts, omega2, gamma, ok)
            ],
        }
        for name, lines in want.items():
            assert (out / f"{name}.csv").read_text().split("\n") == lines + [""], name

    def test_special_values(self, tmp_path, monkeypatch):
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1])
        monkeypatch.setattr(qbm.cli, "survival_probability", lambda spec, ts: values)
        code, out = run_cli(tmp_path, "N = 3\nn_steps = 6\noutputs = survival\n")
        assert code == 0
        lines = (out / "survival.csv").read_text().splitlines()[1:]
        ts = parse_config("n_steps = 6\n").grid.times()
        assert lines == [f"{t:.16e},{v:.16e}" for t, v in zip(ts, values)]
        assert [line.split(",")[1] for line in lines[:5]] == [
            "nan", "inf", "-inf", "-0.0000000000000000e+00", "4.9406564584124654e-324"
        ]


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


def test_blas_thread_count_does_not_change_bytes(tmp_path):
    # while the node runs let OpenBLAS split their GEMMs across two
    # threads, this N = 2000 run wrote 5 of its 1001 population rows
    # differently (in the last bit); the runs hold BLAS at one thread
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 2000\nA = 0.0009\nt_start = 100\nn_steps = 1000\noutputs = population\n")
    src = str(Path(qbm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    written = []
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"out-{blas}-{workers}"
            subprocess.run(
                [sys.executable, "-m", "qbm.cli", "run", "--config", str(cfg), "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": blas, "QBM_THREADS": workers, "PYTHONPATH": path},
                capture_output=True,
                check=True,
            )
            written.append((out / "population.csv").read_bytes())
    assert written[1:] == written[:1] * 3


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

    @pytest.mark.parametrize("out_name", ["f", "f/x"], ids=["file", "under-file"])
    def test_unwritable_out_dir_is_config_error(self, tmp_path, capsys, out_name):
        # --out names an existing file or a path under one: one line naming
        # the first file and that file, exit 2, before the solve (which
        # would fail here) and with nothing made
        (tmp_path / "f").write_text("")
        with mock.patch("qbm.cli.solve_spectrum", side_effect=AssertionError("solved")) as solve:
            code, out = run_cli(tmp_path, "N = 5\nn_steps = 5\noutputs = spectrum\n", out_name)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"ConfigError: cannot write {out / 'spectrum.csv'}: {tmp_path / 'f'} is not a directory\n"
        solve.assert_not_called()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "run.cfg"]

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

    def test_cold_bath_leaves_stderr_empty(self, tmp_path):
        # beta*omega runs past ~709, where expm1 overflows: occupations are 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("beta = 1000\nn_steps = 5\noutputs = population\n")
        proc = subprocess.run(
            [sys.executable, "-m", "qbm.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "text, code, prefix",
        [
            ("t_step = 1e308\nn_steps = 3\noutputs = survival\n", 2, "InvalidValue: line "),
            ("coupling = explicit\nomegas = -1e308, 1e308\ncouplings = 0.1, 0.1\n", 2, "InvalidValue: line "),
            ("coupling = explicit\nomegas = 1.0\ncouplings = 1e200\noutputs = survival\n", 2, "InvalidValue: line "),
            # grid and bath are each fine; their phases t * alpha overflow
            ("t_step = 5e307\nn_steps = 3\noutputs = survival\n", 2, "InvalidValue: phases "),
            # finite, but from 2^52 on they keep no bits below the unit
            ("t_step = 1e300\nn_steps = 3\noutputs = coefficients\n", 2, "InvalidValue: phases "),
            ("A = 1e300\n", 2, "InvalidValue: line "),
            ("n_steps = 100000000000000000000\n", 2, "InvalidValue: line "),
            # sum|g| rounds away beside omega_1: the lowest root starts on its pole
            ("coupling = explicit\nomegas = 1.0\ncouplings = 1e-150\n", 3, "RootNotBracketed: "),
            ("Omega = 2\ncoupling = explicit\nomegas = 1.0\ncouplings = 1e-150\n", 3, "RootNotBracketed: "),
            # the Lorentzian half-width squares to 0
            ("N = 4\nA = 1e-200\n", 2, "InvalidValue: line "),
            ("N = 100\nA = 1e-170\n", 2, "InvalidValue: line "),
            # P0/(M Omega), or |X0| + |P0/(M Omega)|, is not finite
            ("M = 1e-320\nP0 = 1\n", 2, "InvalidValue: mean position "),
            ("X0 = 1.5e308\nP0 = -1.5e308\n", 2, "InvalidValue: mean position "),
            # beta * omega rounds to 0, or to a denormal: 1 / expm1 is not finite
            ("beta = 5e-324\noutputs = population\n", 2, "InvalidValue: beta "),
            ("beta = 1e-310\noutputs = population\n", 2, "InvalidValue: beta "),
            # 2 pi / Omega overflows: tau_oscillator would read inf
            ("N = 3\nn_steps = 2\nOmega = 5e-324\n", 2, "InvalidValue: line "),
        ],
        ids=[
            "last-time", "bath-span", "bath-g2", "phase", "phase-bits", "lorentzian-width", "grid-size",
            "outer-root-on-pole", "outer-root-on-pole-omega-2", "half-width-n4", "half-width-n100",
            "position-mass", "position-span", "tiny-beta", "denormal-beta", "omega-period",
        ],
    )
    def test_overflowing_input_is_config_error(self, tmp_path, text, code, prefix):
        # one error line, no numpy warning and nothing written
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qbm.cli", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix)
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_subnormal_steps_write_no_nan(self, tmp_path):
        # 17 steps of 5e-324 on N = 3: no span of them holds a run's nodes
        # apart, so every run takes its own times; no warning, no NaN row
        text = "N = 3\nt_step = 5e-324\nn_steps = 17\noutputs = population, survival, position\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, text)
        assert code == 0
        for name in ("population", "survival", "position"):
            _, rows = read_rows(out / f"{name}.csv")
            values = np.array([row[1] for row in rows], dtype=float)
            assert values.size == 17 and np.all(np.isfinite(values))

    def test_huge_occupation_refused_before_the_solve(self, tmp_path, capsys):
        # the recurrence grid's plateau mean of N_Omega0 = 1.7e308 would
        # overflow to inf: N_Omega0 above 1e290 is refused when the config
        # is read; at 1e290 the report's mean is finite
        cfg = tmp_path / "r.cfg"
        cfg.write_text("N_Omega0 = 1.7e308\ngrid = recurrence\n")
        with mock.patch("qbm.cli.solve_spectrum") as solve:
            code = main(["report", "--config", str(cfg)])
        assert code == 2
        streams = capsys.readouterr()
        assert streams.out == "" and streams.err.startswith("InvalidValue: ") and "N_Omega0" in streams.err
        solve.assert_not_called()
        cfg.write_text("N = 10\nN_Omega0 = 1e290\ngrid = recurrence\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--config", str(cfg)]) == 0
        fields = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert 0.0 < float(fields["plateau_mean"]) < 1e290

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        # run and report reject it before the spectrum is solved
        monkeypatch.setenv("QBM_THREADS", "many")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 5\nn_steps = 5\noutputs = spectrum\n")
        for args in (["run", "--out", str(tmp_path / "o")], ["report"]):
            with mock.patch("qbm.cli.solve_spectrum") as solve:
                code = main([*args, "--config", str(cfg)])
            assert code == 2
            assert "InvalidValue" in capsys.readouterr().err
            solve.assert_not_called()
        assert not (tmp_path / "o").exists()

    def test_unconverged_solve_exits_3(self, capsys):
        # the solve raises ToleranceNotReached; the CLI names it and exits 3
        with mock.patch.object(qbm.spectrum, "_MAX_ITER", 1):
            code = main(["report"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ToleranceNotReached: ")


# report text of a saved spectrum on grid times 0 .. 9, which miss the
# plateau window, so no population kernel runs
SUM_RULE_REPORT = """
import sys
import numpy as np
from qbm import DiscretizedBath, RunConfig, Spectrum, TimeGrid
from qbm.cli import _report_text
d = np.load(sys.argv[1])
bath = DiscretizedBath(d["omegas"], d["couplings"])
spec = Spectrum(d["alphas"], d["weights"], float(sys.argv[2]), bath)
sys.stdout.write(_report_text(RunConfig(), spec, TimeGrid(t_step=1.0, n_steps=10)))
"""


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

    def test_recurrence_probe_report_memory(self):
        # from before the solve through the plateau window on the N = 10^4
        # bath: the solve's boxed sums, the fit window's moment slices, then
        # the window's row-0 kernel, whose window is its peak (5.1 MB; 5.6 MB
        # when it held each root box's factor from its first use to its
        # last and swept the far field into a spare chunk of rows, 7.9 MB
        # when it held every leaf box's charges for its tree sweeps)
        config = parse_config("N = 10000\nA = 0.00018\n")
        assert traced_peak(build_report, config) < 5.3e6

    def test_sum_rules_do_not_depend_on_blas_threads(self, tmp_path, recurrence_probe):
        spec = recurrence_probe
        saved = tmp_path / "spec.npz"
        np.savez(
            saved,
            alphas=spec.alphas,
            weights=spec.weights,
            omegas=spec.bath.omegas,
            couplings=spec.bath.couplings,
        )
        src = str(Path(qbm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        texts = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", SUM_RULE_REPORT, str(saved), repr(spec.omega0)],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
                check=True,
            )
            texts.append([line for line in proc.stdout.splitlines() if line.startswith("sum_")])
        assert len(texts[0]) == 3
        assert texts[0] == texts[1]

    def test_report_does_not_load_numpy_ma(self):
        # np.median loads numpy.ma on first use, ~13 ms of every report, and
        # so does np.unique; the N = 1000 bath's boxed sums run on a tree of
        # several levels, the default bath's need none
        src = str(Path(qbm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            "import sys\nfrom qbm import parse_config\nfrom qbm.cli import build_report\n"
            "for text in ('', 'N = 1000\\nA = 0.0018\\n'):\n"
            "    build_report(parse_config(text))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_fit_does_not_reach_lapack(self, tmp_path):
        # the decay rate is a line fitted in closed form, so neither qbm run
        # on the default config nor the report calls least squares (np.polyfit
        # and np.linalg.lstsq, the package's only LAPACK, whose library pages
        # a fresh process would load)
        def refused(*args, **kwargs):
            raise AssertionError("least squares called")

        with mock.patch.object(np, "polyfit", refused), mock.patch.object(np.linalg, "lstsq", refused):
            code, out = run_cli(tmp_path, "")
            report = build_report(parse_config(""))
        assert code == 0 and report == (out / "report.txt").read_text()
        fields = dict(line.split(" = ", 1) for line in report.splitlines() if " = " in line)
        assert np.isfinite(float(fields["gamma_fit"]))


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

    @pytest.mark.parametrize("n", [3, 40])
    def test_unbounded_grid_refused_before_it_is_allocated(self, tmp_path, capsys, monkeypatch, n):
        # at A = 1e-8 the grid to 1.2 t_r would hold 1.48e9 (N = 3) or 1.03e9
        # (N = 40) times, 8-12 GB a float array: run and report refuse it,
        # and never allocate it
        monkeypatch.setattr(TimeGrid, "times", lambda grid: pytest.fail(f"{grid.n_steps} times allocated"))
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"N = {n}\nA = 1e-8\ngrid = recurrence\n")
        for args in (["run", "--out", str(tmp_path / "o")], ["report"]):
            assert main([*args, "--config", str(cfg)]) == 2
            streams = capsys.readouterr()
            assert streams.out == "" and streams.err.count("\n") == 1
            assert streams.err.startswith("InvalidValue: grid = recurrence needs ")
        assert not (tmp_path / "o").exists()

    def test_explicit_grid_keys_rejected(self, tmp_path, capsys):
        # the preset sets its own grid; explicit grid keys are an error, not
        # silently ignored
        code, out = run_cli(
            tmp_path,
            "grid = recurrence\nt_start = 50\nt_step = 0.5\nn_steps = 7\n"
            "outputs = survival\n",
        )
        assert code == 2
        assert "InvalidValue" in capsys.readouterr().err
        assert not out.exists()


FUZZ_KEYS = ("A", "Omega", "beta", "N_Omega0", "X0", "P0", "M", "t_start", "t_step")
FUZZ_VALUES = (0.0, -1.0, 5e-324, 1e-300, 1e-30, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e30, 1e300, 1.7e308, math.inf, math.nan)
# report lines documented to read nan: a failed fit, N = 1's golden rule, an empty plateau window
NAN_LINES = ("gamma_fit", "gamma_fit_rms_residual", "gamma_golden_rule", "plateau_mean")

fuzz_configs = st.builds(
    lambda n, steps, recurrence, values: "".join(
        [f"N = {n}\nn_steps = {steps}\n", "grid = recurrence\n" * recurrence]
        + [f"{key} = {value!r}\n" for key, value in values.items()]
        + ["outputs = spectrum, population, survival, position, coefficients, report\n"]
    ),
    st.sampled_from([1, 2, 3, 7, 40]),
    st.sampled_from([2, 17]),
    st.integers(0, 4).map(lambda i: i == 0),  # one draw in five
    st.dictionaries(
        st.sampled_from(FUZZ_KEYS),
        st.builds(lambda v, f: v * f, st.sampled_from(FUZZ_VALUES), st.sampled_from([1.0, 1.37])),
        min_size=1,
        max_size=3,
    ),
)


def check_clean_or_typed(text):
    """qbm run and qbm report on the config text, in a temporary directory:
    each exits 0 with finite outputs (nan only in NAN_LINES of the report;
    a flagged coefficient row holds empty fields), or exits 2 or 3 with one
    line on stderr.  A warning fails the check (warnings are errors)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        for args in (["run", "--out", str(out)], ["report"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*args, "--config", str(cfg)])
            if code:
                assert code in (2, 3) and stderr.getvalue().count("\n") == 1, (text, stderr.getvalue())
                continue
            assert stderr.getvalue() == "", text
            report = stdout.getvalue()
            if args[0] == "run":
                for csv in out.glob("*.csv"):
                    for row in csv.read_text().splitlines()[1:]:
                        fields = row.split(",")
                        if fields[-1] == "0" and not any(fields[1:-1]):  # a flagged coefficient row
                            fields = fields[:1]
                        assert all(math.isfinite(float(f)) for f in fields), (text, csv.name, row)
                report = (out / "report.txt").read_text()
            for line in report.splitlines():
                key, value = line.split(" = ")
                values = [float(v) for v in value.strip("[]").split(", ")]
                assert all(math.isfinite(v) or key in NAN_LINES and math.isnan(v) for v in values), (text, line)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(fuzz_configs)
def test_every_config_runs_clean_or_exits_typed(text):
    # the ends of the float range in one to three of the config's numbers, on
    # baths of 1 to 40 modes, the default grid or the recurrence one
    check_clean_or_typed(text)


class TestPlotScript:
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
        script = (out / "plot.gp").read_text(encoding="utf-8")
        assert script == ALL_PANELS_SCRIPT


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
