"""The library's contract: every time-series quantity takes a scalar as one
time and returns arrays whose last axis is time, bit for bit the same at
any QBM_THREADS, and every error type the package declares is one it
raises."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import row0_runs
import qbm
from qbm import (
    InitialOccupations,
    LangevinInput,
    TimeGrid,
    coefficient_series,
    errors,
    evolution,
    gamma_from_survival,
    mean_position,
    moment_signal,
    oscillator_population,
    population_decomposition,
    population_series,
    survival_probability,
)


def occ(spec):
    return InitialOccupations(n_omega0=1.0, n_bath_modes=np.full(spec.bath.n, 0.5))


ROUTES = {
    "moment_signal": lambda spec, t: moment_signal(spec, 1, t),
    "survival_probability": survival_probability,
    "gamma_from_survival": gamma_from_survival,
    "mean_position": lambda spec, t: mean_position(spec, LangevinInput(), t),
    "coefficient_series": coefficient_series,
    "oscillator_population": lambda spec, t: oscillator_population(spec, occ(spec), t),
    "population_decomposition": lambda spec, t: population_decomposition(spec, occ(spec), t),
    "population_series": lambda spec, t: population_series(spec, occ(spec), t),
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize(
    "times, n", [(2.0, 1), ([0.5, 1.0, 2.0], 3), ([], 0)], ids=["scalar", "list", "empty"]
)
def test_times_in_arrays_out(two_level, route, times, n):
    out = route(two_level, times)
    for part in out if isinstance(out, tuple) else (out,):
        assert isinstance(part, np.ndarray)
        assert part.shape[-1] == n


@pytest.mark.parametrize(
    "route", [oscillator_population, population_decomposition, population_series],
    ids=["oscillator_population", "population_decomposition", "population_series"],
)
@pytest.mark.parametrize("modes", [0, 2], ids=["fewer", "more"])
def test_occupations_of_another_bath_are_invalid(two_level, route, modes):
    # two_level has one bath mode: occupations of 0 or 2 modes are another bath's
    occ = InitialOccupations(n_omega0=1.0, n_bath_modes=np.full(modes, 0.5))
    with pytest.raises(errors.InvalidValue, match=f"occupations of {modes + 1} levels .* spectrum of 2 levels"):
        route(two_level, occ, [0.0, 1.0])


# the routes on the node-run kernel; population_series is the dense reference
KERNEL_ROUTES = {k: f for k, f in ROUTES.items() if k != "population_series"}


@pytest.mark.parametrize("route", KERNEL_ROUTES.values(), ids=KERNEL_ROUTES.keys())
def test_worker_count_does_not_change_values(ref_spectrum, monkeypatch, route):
    # node runs depend on the times alone, so the threads that run them
    # change no bit; more workers than cores, switching often, each writing
    # its own columns of one output
    ts = np.linspace(0.0, 150.0, 3000)
    assert len(row0_runs(ref_spectrum, ts)) >= 3
    outs, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "3"):
            monkeypatch.setenv("QBM_THREADS", workers)
            out = route(ref_spectrum, ts)
            outs.append(out if isinstance(out, tuple) else (out,))
    finally:
        sys.setswitchinterval(interval)
    for one, three in zip(*outs):
        assert one.tobytes() == three.tobytes()


def test_worker_error_raised_in_caller(ref_spectrum, ref_occupations, monkeypatch):
    # a run that fails on a worker thread fails the call, with its own error
    calls, box_rows = [], evolution._box_rows

    def failing(*args):  # called once per run
        calls.append(None)
        if len(calls) == 2:
            raise errors.ToleranceNotReached("run 2 failed")
        return box_rows(*args)

    monkeypatch.setenv("QBM_THREADS", "2")
    monkeypatch.setattr(evolution, "_box_rows", failing)
    with pytest.raises(errors.ToleranceNotReached, match="run 2 failed"):
        oscillator_population(ref_spectrum, ref_occupations, TimeGrid().times())


def test_worker_threads_load_no_executor(tmp_path):
    # the workers are plain threads: neither concurrent.futures nor the
    # logging it imports is loaded by a two-worker kernel call
    code = (
        "import sys, threading\n"
        "from qbm import ModelParams, TimeGrid, build_bath, solve_spectrum, survival_probability\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self), start(self))\n"
        "spec = solve_spectrum(build_bath(ModelParams()), 1.0)\n"
        "survival_probability(spec, TimeGrid().times())\n"
        "print(len(started), 'concurrent.futures' in sys.modules, 'logging' in sys.modules)\n"
    )
    src = str(Path(qbm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "QBM_THREADS": "2", "PYTHONPATH": path}
    run = [sys.executable, "-c", code]
    out = subprocess.run(run, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "False", "False"]


def test_bad_worker_count_is_typed_error(two_level, monkeypatch):
    for workers in ("many", "-1"):
        monkeypatch.setenv("QBM_THREADS", workers)
        with pytest.raises(errors.InvalidValue, match="QBM_THREADS"):
            survival_probability(two_level, [0.0, 1.0])


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_is_raised():
    # a declared error type that nothing raises is dead API
    raised = set()
    for path in Path(qbm.__file__).parent.glob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text(encoding="utf-8"))))
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.QbmError)
    }
    assert declared - {"QbmError", "ConfigError"} - raised == set()
