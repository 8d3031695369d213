"""The library's contract: every time-series quantity takes a scalar as one
time and returns arrays whose last axis is time, and every error type the
package declares is one it raises."""

import ast
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

OCC = InitialOccupations(n_omega0=1.0, n_bath_modes=np.array([0.5]))

ROUTES = {
    "moment_signal": lambda spec, t: moment_signal(spec, 1, t),
    "survival_probability": survival_probability,
    "gamma_from_survival": gamma_from_survival,
    "mean_position": lambda spec, t: mean_position(spec, LangevinInput(), t),
    "coefficient_series": coefficient_series,
    "oscillator_population": lambda spec, t: oscillator_population(spec, OCC, t),
    "population_decomposition": lambda spec, t: population_decomposition(spec, OCC, t),
    "population_series": lambda spec, t: population_series(spec, OCC, t),
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("times, n", [(2.0, 1), ([0.5, 1.0, 2.0], 3)], ids=["scalar", "list"])
def test_times_in_arrays_out(two_level, route, times, n):
    out = route(two_level, times)
    for part in out if isinstance(out, tuple) else (out,):
        assert isinstance(part, np.ndarray)
        assert part.shape[-1] == n


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
