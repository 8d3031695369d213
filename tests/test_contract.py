"""The library's contract: every time-series quantity takes a scalar as one
time and returns arrays whose last axis is time, bit for bit the same at
any QBM_THREADS, and every error type the package declares is one it
raises."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import qbm
from qbm import (
    InitialOccupations,
    LangevinInput,
    coefficient_series,
    errors,
    gamma_from_survival,
    mean_position,
    moment_signal,
    oscillator_population,
    population_decomposition,
    population_series,
    survival_probability,
)
from qbm.langevin import _node_runs


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


# the routes on the node-run kernel; population_series is the dense reference
KERNEL_ROUTES = {k: f for k, f in ROUTES.items() if k != "population_series"}


@pytest.mark.parametrize("route", KERNEL_ROUTES.values(), ids=KERNEL_ROUTES.keys())
def test_worker_count_does_not_change_values(ref_spectrum, monkeypatch, route):
    # node runs depend on the times alone, so the threads that run them
    # change no bit; more workers than cores, switching often, each writing
    # its own columns of one output
    ts = np.linspace(0.0, 150.0, 3000)
    half_band = ref_spectrum.alphas[-1] / 2 - ref_spectrum.alphas[0] / 2
    assert len(list(_node_runs(ts, half_band, ref_spectrum.n_levels))) >= 3
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
