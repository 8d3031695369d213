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
