import numpy as np
import pytest

from qbm import ModelParams, build_bath, solve_spectrum, thermal_occupations


@pytest.fixture(scope="session")
def ref_bath():
    """Reference N=100 Lorentzian bath (A=0.018, Omega=1)."""
    return build_bath(ModelParams())


@pytest.fixture(scope="session")
def ref_spectrum(ref_bath):
    return solve_spectrum(ref_bath, 1.0)


@pytest.fixture(scope="session")
def ref_occupations(ref_bath):
    """beta = 1 thermal bath, one quantum on the oscillator."""
    return thermal_occupations(ref_bath, 1.0, 1.0)


@pytest.fixture(scope="session")
def two_level():
    """Single resonant mode, g = 0.1: eigenvalues 0.9 / 1.1, weights 1/2,
    survival amplitude e^{-it} cos(0.1 t)."""
    bath = build_bath(ModelParams.explicit([1.0], [0.1]))
    return solve_spectrum(bath, 1.0)


@pytest.fixture(scope="session")
def plateau_probe():
    """Spectrum and beta = 1 occupations of the README plateau probe
    (N = 1000, A = 0.0018), built outside criterion 2's timer."""
    bath = build_bath(ModelParams(n_bath=1000, step=0.0018))
    return solve_spectrum(bath, 1.0), thermal_occupations(bath, 1.0, 1.0)


@pytest.fixture(scope="session")
def recurrence_probe():
    """Spectrum of the README recurrence probe (N = 10^4, A = 1.8e-4)."""
    return solve_spectrum(build_bath(ModelParams(n_bath=10000, step=1.8e-4)), 1.0)


# (omegas, omega0) of three explicit baths with 0.002 couplings whose boxes
# are uneven: a box across the clusters' gap, boxes that widen geometrically,
# and the last one stretched out to the root near Omega = 5
UNEVEN_BATHS = pytest.mark.parametrize(
    "omegas, omega0",
    [
        (np.concatenate([np.linspace(0.5, 0.6, 500), np.linspace(2.0, 9.0, 500)]), 1.0),
        (np.geomspace(0.1, 10.0, 1000), 1.0),
        (np.linspace(0.1, 1.0, 1000), 5.0),
    ],
    ids=["two-clusters", "geometric", "above-band"],
)


def make_random_bath(rng, n):
    """Well-separated random bath for property tests."""
    gaps = rng.uniform(0.05, 0.15, size=n)
    omegas = 0.3 + np.cumsum(gaps)
    couplings = rng.uniform(0.01, 0.08, size=n)
    return build_bath(ModelParams.explicit(omegas, couplings))


def explicit_spectrum(omega0):
    """Explicit 30-mode band over [0.1, 3] with uneven couplings, solved at
    omega0; keeps Omega = 0.5, 1 and 2 inside the band (the Lorentzian rule
    would put modes below zero at Omega = 0.5)."""
    omegas = np.linspace(0.1, 3.0, 30)
    couplings = 0.01 + 0.03 * np.abs(np.sin(3.0 * omegas))
    return solve_spectrum(build_bath(ModelParams.explicit(omegas, couplings)), omega0)
