"""Run orchestration and deterministic file emission.

`qbm run --config <path> [--out <dir>]` writes one CSV per requested
product, a text report, and a gnuplot script for the plottable products.
`qbm report --config <path>` prints the report to stdout.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All
diagnostics go to stderr.  Output is deterministic: fixed product order,
fixed float formatting (17 significant digits, scientific), Unix
newlines.  Each product evaluates its kernel once, on the whole grid; the
environment variable QBM_THREADS (0 = one worker) sets how many threads
run the kernel's node runs, which depend on the times alone and hold
numpy's bundled OpenBLAS at one thread, so neither the worker count nor
OPENBLAS_NUM_THREADS changes the bytes written.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import PRODUCTS, RunConfig, parse_config
from .errors import ConfigError, InvalidValue, QbmError
from .evolution import oscillator_population, survival_probability
from .langevin import (
    _velocity_scale,
    _worker_count,
    coefficient_series,
    estimate_gamma,
    golden_rule_rate,
    mean_position,
    recurrence_time,
)
from .model import build_bath, thermal_occupations
from .series import TimeGrid
from .spectrum import Spectrum, solve_spectrum

# report fit window and equilibrium averaging window
_FIT_WINDOW = (1.0, 20.0)
_PLATEAU_WINDOW = (100.0, 300.0)
_RECURRENCE_TIMES = 1 << 24  # most times of a grid = recurrence (the N = 10^4 probe's: 58,696)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _setup(config: RunConfig) -> tuple[Spectrum, TimeGrid]:
    """The spectrum and time grid of a config, QBM_THREADS validated before
    the solve, a recurrence grid refused above _RECURRENCE_TIMES times.
    build_bath and solve_spectrum are looked up as module globals, so that
    bench/spans.py traces them."""
    _worker_count()
    spec = solve_spectrum(build_bath(config.model), config.model.omega0)
    if config.grid_preset == "default":
        return spec, config.grid
    # recurrence preset: coarse step (tau_Omega/8), long horizon (1.2 t_r)
    step = spec.tau_omega / 8.0
    horizon = 1.2 * recurrence_time(spec)
    if not horizon / step <= _RECURRENCE_TIMES - 1:  # before it is allocated; nan and inf too
        raise InvalidValue(f"grid = recurrence needs {horizon / step + 1:.3g} times, more than {_RECURRENCE_TIMES}")
    n_steps = max(2, int(math.ceil(horizon / step)) + 1)
    return spec, TimeGrid(t_start=0.0, t_step=step, n_steps=n_steps)


def _write_text(path: Path, text: str) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)  # a run that fails early writes nothing
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return path


def _csv(header: str, cols) -> str:
    # one %-template per row kind fills the whole table in one %: numbers
    # take %.16e (the same string as _fmt for every float64: nan, +-inf,
    # -0.0 and subnormals too), the spectrum's integer index %d; a boolean
    # last column is the coefficients' flag, 1, or 0 with the row's values
    # but the first left empty (the series stays rectangular)
    *cols, ok = cols if cols[-1].dtype == bool else (*cols, None)
    table = np.column_stack(cols)
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.16e" for c in cols)
    keep, rows = np.ones(table.shape, bool), [row] * len(table)
    if ok is not None:
        keep[~ok, 1:] = False
        rows = np.where(ok, row + ",1", "%.16e" + "," * len(cols) + "0")
    return header + "\n" + "\n".join([*rows, ""]) % tuple(table[keep].tolist())


def _population(config: RunConfig, spec: Spectrum, ts: np.ndarray):
    occ = thermal_occupations(spec.bath, config.model.beta, config.n_omega0)
    return ts, oscillator_population(spec, occ, ts)


# product: (CSV header, columns(config, spec, ts), plot panel as (title,
# x label, y label, columns, style)), in evaluation and panel order.  The
# columns look the grid kernels up as module globals, so a kernel patched on
# this module (bench/spans.py traces them so) is the one called.
_PRODUCTS = {
    "spectrum": (
        "nu,alpha,weight",
        lambda config, spec, ts: (np.arange(spec.n_levels), spec.alphas, spec.weights),
        ("Eigenvalue weights", "α_ν", "w_ν", "2:3", "impulses"),
    ),
    "population": (
        "t,n_omega",
        _population,
        ("Population of the Brownian oscillator vs. t", "t", "⟨N_Ω⟩", "1:2", "lines"),
    ),
    "survival": (
        "t,p_surv",
        lambda config, spec, ts: (ts, survival_probability(spec, ts)),
        ("Survival probability vs. t", "t", "P_ΩΩ(t)", "1:2", "lines"),
    ),
    "position": (
        "t,x",
        lambda config, spec, ts: (ts, mean_position(spec, config.langevin_input, ts)),
        ("Mean position of the Brownian oscillator vs. t", "t", "X(t)", "1:2", "lines"),
    ),
    "coefficients": (
        "t,omega2,gamma,denominator_ok",
        lambda config, spec, ts: (ts, *coefficient_series(spec, ts)),
        ("Damping factor of the Langevin equation vs. t", "t", "Γ(t)", "1:3", "lines"),
    ),
}


def _report_text(config: RunConfig, spec: Spectrum, grid: TimeGrid) -> str:
    bath = spec.bath
    # exactly rounded sums, so the residuals do not depend on BLAS threads
    sum_w = math.fsum(spec.weights)
    sum_aw = math.fsum(spec.alphas * spec.weights)
    sum_a2w = math.fsum(spec.alphas**2 * spec.weights)
    m2 = spec.omega0**2 + float(np.sum(bath.couplings**2))

    try:
        est = estimate_gamma(spec, _FIT_WINDOW)
        gamma_fit, gamma_rms = est.gamma, est.rms_residual
    except QbmError:
        gamma_fit, gamma_rms = math.nan, math.nan

    ts = grid.times()
    lo, hi = _PLATEAU_WINDOW
    window = ts[(ts >= lo) & (ts <= hi)]
    plateau = float(np.mean(_population(config, spec, window)[1])) if window.size else math.nan

    t_r = recurrence_time(spec)
    lines = [
        f"eigenvalues = {spec.n_levels}",
        f"sum_w_residual = {_fmt(abs(sum_w - 1.0))}",
        f"sum_alpha_w_residual = {_fmt(abs(sum_aw - spec.omega0))}",
        f"sum_alpha2_w_residual_rel = {_fmt(abs(sum_a2w - m2) / m2)}",
        f"gamma_fit = {_fmt(gamma_fit)}",
        f"gamma_fit_rms_residual = {_fmt(gamma_rms)}",
        f"gamma_golden_rule = {_fmt(golden_rule_rate(bath, spec.omega0))}",
        f"t_recurrence = {_fmt(t_r)}",
        f"tau_oscillator = {_fmt(spec.tau_omega)}",
        f"recurrence_over_period = {_fmt(t_r / spec.tau_omega)}",
        f"plateau_mean = {_fmt(plateau)}",
        f"plateau_window = [{_fmt(lo)}, {_fmt(hi)}]",
    ]
    return "\n".join(lines) + "\n"


def _plot_script(products) -> str:
    """Self-contained gnuplot script with one panel per plottable product
    requested, titled after the corresponding figure captions."""
    wanted = [p for p in _PRODUCTS if p in products]
    lines = [
        "# generated by qbm; run with: gnuplot plot.gp",
        "set datafile separator ','",
        "set encoding utf8",
        f"set terminal pngcairo size 960,{320 * len(wanted)}",
        "set output 'qbm_plots.png'",
        f"set multiplot layout {len(wanted)},1",
    ]
    for p in wanted:
        title, xlab, ylab, columns, style = _PRODUCTS[p][2]
        lines += [
            f"set title '{title}'",
            f"set xlabel '{xlab}'",
            f"set ylabel '{ylab}'",
            f"plot '{p}.csv' using {columns} skip 1 with {style} notitle",
        ]
    lines += ["unset multiplot"]
    return "\n".join(lines) + "\n"


def run(config: RunConfig, out_dir=None) -> list[Path]:
    """Execute a run: diagonalize, evaluate the requested products over the
    grid, and write them to out_dir.  Returns the written paths."""
    if "position" in config.outputs:  # refused before the solve and any file
        _velocity_scale(config.langevin_input, config.model.omega0)
    spec, grid = _setup(config)
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    ts = grid.times()

    written: list[Path] = []
    for product in PRODUCTS:  # fixed evaluation order for determinism
        if product not in config.outputs:
            continue
        if product == "report":
            path, text = out / "report.txt", _report_text(config, spec, grid)
        else:
            header, cols, _ = _PRODUCTS[product]
            path, text = out / f"{product}.csv", _csv(header, cols(config, spec, ts))
        written.append(_write_text(path, text))

    if any(p in config.outputs for p in _PRODUCTS):
        written.append(_write_text(out / "plot.gp", _plot_script(config.outputs)))
    return written


def build_report(config: RunConfig) -> str:
    """Report text for a config without writing any files."""
    return _report_text(config, *_setup(config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbm",
        description="Exactly soluble quantum Brownian motion of a harmonic "
        "oscillator in a discretized bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="compute products and write CSVs")
    p_run.add_argument("--config", type=Path, default=None, help="config file")
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_report = sub.add_parser("report", help="print the summary report")
    p_report.add_argument("--config", type=Path, default=None, help="config file")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                print(f"ConfigError: cannot read {args.config}: {exc}", file=sys.stderr)
                return 2
        else:
            text = ""
        config = parse_config(text)
        if args.command == "run":
            for path in run(config, out_dir=args.out):
                print(path)
        else:
            sys.stdout.write(build_report(config))
        return 0
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except QbmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
