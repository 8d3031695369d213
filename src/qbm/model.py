"""Discretized oscillator-bath model in the one-excitation sector.

A distinguished oscillator of frequency Omega couples linearly to N bath
modes omega_1 < ... < omega_N with real couplings g_n.  Restricted to a
single excitation the Hamiltonian is the (N+1) x (N+1) real symmetric
arrowhead matrix

    H[0, 0] = Omega,   H[0, n] = H[n, 0] = g_n,   H[n, n] = omega_n,

in units hbar = k_B = 1 with all frequencies measured in units of Omega.

Two coupling rules are supported:

``lorentzian``
    omega_n = Omega + A (n - N/2) for n = 1..N and
    g_n = A a^2 / (a^2 + (omega_n - Omega)^2) with half-width
    a = A (N - 2) / 2.  The grid is intentionally asymmetric about
    Omega (n runs 1..N, so the top mode has no mirror partner).

``explicit``
    frequencies and couplings supplied verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWidth,
    InvalidValue,
    NonMonotonicGrid,
    NonPositiveFrequency,
    ZeroCoupling,
)

COUPLING_RULES = ("lorentzian", "explicit")


@dataclass(frozen=True)
class ModelParams:
    """Parameters selecting a bath discretization.

    The defaults reproduce the reference configuration used throughout the
    test-suite: N = 100 Lorentzian-coupled modes of spacing A = 0.018
    around Omega = 1 at inverse temperature beta = 1.
    """

    n_bath: int = 100
    step: float = 0.018
    omega0: float = 1.0
    beta: float = 1.0
    coupling: str = "lorentzian"
    omegas: tuple[float, ...] | None = None
    couplings: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        lists = tuple(self.omegas or ()) + tuple(self.couplings or ())
        if not all(map(math.isfinite, (self.step, self.omega0, self.beta) + lists)):
            raise InvalidValue("model parameters must be finite (no nan or inf)")
        # past max_intp // 8 modes numpy cannot size the bath arrays
        if int(self.n_bath) != self.n_bath or not 1 <= self.n_bath <= np.iinfo(np.intp).max // 8:
            raise InvalidValue(f"n_bath must be a positive integer numpy can size, got {self.n_bath}")
        if not (self.step > 0.0):
            raise InvalidValue(f"step must be positive, got {self.step}")
        if not (self.omega0 > 0.0):
            raise InvalidValue(f"omega0 must be positive, got {self.omega0}")
        if not (self.beta > 0.0):
            raise InvalidValue(f"beta must be positive, got {self.beta}")
        if self.coupling not in COUPLING_RULES:
            raise InvalidValue(
                f"coupling must be one of {COUPLING_RULES}, got {self.coupling!r}"
            )
        if self.coupling == "lorentzian":
            if self.omegas is not None or self.couplings is not None:
                raise InvalidValue("lorentzian rule does not take explicit lists")
            if self.n_bath < 3:
                raise DegenerateWidth(
                    f"lorentzian rule needs n_bath >= 3, got {self.n_bath}"
                )
        else:
            if self.omegas is None or self.couplings is None:
                raise InvalidValue("explicit rule requires omegas and couplings")
            if len(self.omegas) != self.n_bath or len(self.couplings) != self.n_bath:
                raise InvalidValue(
                    "explicit lists must have length n_bath = "
                    f"{self.n_bath}, got {len(self.omegas)} and {len(self.couplings)}"
                )

    @classmethod
    def explicit(
        cls,
        omegas,
        couplings,
        *,
        omega0: float = 1.0,
        beta: float = 1.0,
    ) -> "ModelParams":
        """Explicit-rule parameters with n_bath inferred from the lists."""
        return cls(
            n_bath=len(omegas),
            step=1.0,
            omega0=omega0,
            beta=beta,
            coupling="explicit",
            omegas=tuple(float(w) for w in omegas),
            couplings=tuple(float(g) for g in couplings),
        )


@dataclass(frozen=True, eq=False)
class DiscretizedBath:
    """Frozen bath arrays: frequencies, couplings and (if Lorentzian) the
    half-width a of the coupling profile."""

    omegas: np.ndarray
    couplings: np.ndarray
    width: float | None = None

    def __post_init__(self) -> None:
        om = np.atleast_1d(np.asarray(self.omegas, dtype=float)).copy()
        g = np.atleast_1d(np.asarray(self.couplings, dtype=float)).copy()
        if om.ndim != 1 or g.shape != om.shape:
            raise InvalidValue("omegas and couplings must be 1-d arrays of equal length")
        if om.size < 1:
            raise InvalidValue("bath needs at least one mode")
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(g))):
            raise InvalidValue("bath frequencies and couplings must be finite")
        if np.any(om[1:] <= om[:-1]):
            raise NonMonotonicGrid("bath frequencies must be strictly increasing")
        # in Python floats, so an overflow gives inf and no numpy warning
        span, g2 = float(om[-1]) - float(om[0]), sum(x * x for x in g.tolist())
        if not (math.isfinite(span) and math.isfinite(g2)):
            raise InvalidValue("bath frequency span and sum of g^2 must be finite")
        if np.any(g == 0.0):
            raise ZeroCoupling("every bath coupling must be nonzero")
        om.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "couplings", g)

    @property
    def n(self) -> int:
        return self.omegas.size


@dataclass(frozen=True, eq=False)
class InitialOccupations:
    """Initial mean occupation numbers: the distinguished oscillator first,
    then one entry per bath mode."""

    n_omega0: float
    n_bath_modes: np.ndarray

    def __post_init__(self) -> None:
        nb = np.atleast_1d(np.asarray(self.n_bath_modes, dtype=float)).copy()
        if not np.isfinite(self.n_omega0) or self.n_omega0 < 0.0:
            raise InvalidValue(f"n_omega0 must be finite and >= 0, got {self.n_omega0}")
        if not np.all(np.isfinite(nb)) or np.any(nb < 0.0):
            raise InvalidValue("bath occupations must be finite and >= 0")
        nb.setflags(write=False)
        object.__setattr__(self, "n_bath_modes", nb)

    @property
    def vector(self) -> np.ndarray:
        """Length N+1 vector (oscillator entry first)."""
        return np.concatenate(([self.n_omega0], self.n_bath_modes))


def build_bath(params: ModelParams) -> DiscretizedBath:
    """Construct the bath arrays for the requested coupling rule.

    For the Lorentzian rule the frequency of mode n is
    omega_n = omega0 + step * (n - N/2), n = 1..N, and the coupling is
    g(omega_n) = step * a^2 / (a^2 + (omega_n - omega0)^2),
    a = step * (N - 2) / 2.
    """
    if params.coupling == "lorentzian":
        n_modes = params.n_bath
        a = params.step * (n_modes - 2) / 2.0
        idx = np.arange(1, n_modes + 1, dtype=float)
        omegas = params.omega0 + params.step * (idx - n_modes / 2.0)
        couplings = params.step * a**2 / (a**2 + (omegas - params.omega0) ** 2)
        return DiscretizedBath(omegas, couplings, width=a)  # rejects zero couplings

    # explicit rule; DiscretizedBath validates monotonicity and zeros
    return DiscretizedBath(
        np.asarray(params.omegas, dtype=float),
        np.asarray(params.couplings, dtype=float),
        width=None,
    )


def thermal_occupations(
    bath: DiscretizedBath,
    beta: float,
    n_omega0: float = 1.0,
) -> InitialOccupations:
    """Bose-Einstein occupations n(omega) = 1 / (exp(beta*omega) - 1) for the
    bath modes, with a caller-chosen occupation for the distinguished
    oscillator (default 1 quantum).
    """
    if not (beta > 0.0):
        raise InvalidValue(f"beta must be positive, got {beta}")
    if np.any(bath.omegas <= 0.0):
        raise NonPositiveFrequency(
            "thermal occupation undefined for modes with omega <= 0"
        )
    with np.errstate(over="ignore"):  # beta*omega > ~709: expm1 = inf, n = 0
        occ = 1.0 / np.expm1(beta * bath.omegas)
    return InitialOccupations(n_omega0=float(n_omega0), n_bath_modes=occ)
