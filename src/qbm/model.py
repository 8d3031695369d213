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

from .errors import InvalidValue, NonPositiveFrequency

COUPLING_RULES = ("lorentzian", "explicit")
_MAX_OCCUPATION = 1e290  # 2^60 of it, as many times as a TimeGrid holds, sum to a finite float


def _whole(n) -> bool:
    """Whether n equals an integer; False, not an error, for inf, nan or a non-number."""
    try:
        return int(n) == n
    except (OverflowError, TypeError, ValueError):
        return False


def _reals(x, name: str, finite: bool = True) -> np.ndarray:
    """x as a 1-d float array (a scalar is one value); InvalidValue unless it
    holds real numbers (no text, complex values or None) on one axis, each
    finite (no nan or inf) unless finite is False.  The one check of every
    array argument."""
    try:
        a = np.atleast_1d(np.asarray(x))
    except ValueError as exc:  # ragged nesting
        raise InvalidValue(f"{name} must be a scalar or a 1-d array: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise InvalidValue(f"{name} must be real numbers, got {a.dtype} values")
    if a.ndim != 1:
        raise InvalidValue(f"{name} must be a scalar or a 1-d array, got shape {a.shape}")
    a = a.astype(float, copy=False)
    if finite and (bad := a[~np.isfinite(a)]).size:
        raise InvalidValue(f"{name} must be finite, got {bad[0]}")
    return a


def _real(x, name: str, finite: bool = True) -> float:
    """x as a float; InvalidValue unless it is one real number (no text,
    complex value, None or array), finite unless finite is False.  _reals
    checks the type and finiteness; this adds only the one-value check."""
    a = _reals(x, name, finite)
    if np.ndim(x):
        raise InvalidValue(f"{name} must be a single real number, got {x!r}")
    return float(a[0])


def _frozen(obj, **arrays) -> None:
    """Set each named field of the frozen dataclass obj to its array, made read-only."""
    for field, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(obj, field, a)


def _frequency(omega0) -> float:
    """omega0 as a float; InvalidValue unless it is finite and > 0, with a
    finite period 2 pi / omega0."""
    if not ((w := _real(omega0, "omega0")) > 0.0 and math.isfinite(2.0 * math.pi / w)):
        raise InvalidValue(f"omega0 must be finite and > 0, with 2*pi/omega0 finite, got {omega0!r}")
    return w


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
        step, beta = _real(self.step, "step"), _real(self.beta, "beta")
        _frequency(self.omega0)
        _reals(tuple(self.omegas or ()) + tuple(self.couplings or ()), "explicit lists")
        # past max_intp // 8 modes numpy cannot size the bath arrays
        if not _whole(self.n_bath) or not 1 <= self.n_bath <= np.iinfo(np.intp).max // 8:
            raise InvalidValue(f"n_bath must be a positive integer numpy can size, got {self.n_bath}")
        if not (step > 0.0):
            raise InvalidValue(f"step must be positive, got {self.step}")
        if not (beta > 0.0):
            raise InvalidValue(f"beta must be positive, got {self.beta}")
        if self.coupling not in COUPLING_RULES:
            raise InvalidValue(
                f"coupling must be one of {COUPLING_RULES}, got {self.coupling!r}"
            )
        if self.coupling == "lorentzian":
            if self.omegas is not None or self.couplings is not None:
                raise InvalidValue("lorentzian rule does not take explicit lists")
            if self.n_bath < 3:
                raise InvalidValue(f"lorentzian rule needs n_bath >= 3, got {self.n_bath}")
            # build_bath squares the half-width and detunings, each below step * N
            span = step * self.n_bath
            if not math.isfinite(span * span):
                raise InvalidValue(f"step * n_bath = {span} is too wide: its square overflows")
            half_width = step * (self.n_bath - 2) / 2.0
            if half_width**2 == 0.0:
                raise InvalidValue(f"step = {self.step} is too small: the half-width squares to 0")
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
            omegas=tuple(_reals(omegas, "bath frequencies").tolist()),
            couplings=tuple(_reals(couplings, "bath couplings").tolist()),
        )


@dataclass(frozen=True, eq=False)
class DiscretizedBath:
    """Frozen bath arrays: strictly increasing frequencies and nonzero
    couplings."""

    omegas: np.ndarray
    couplings: np.ndarray

    def __post_init__(self) -> None:
        om, g = _reals(self.omegas, "bath frequencies").copy(), _reals(self.couplings, "bath couplings").copy()
        if g.shape != om.shape:
            raise InvalidValue("omegas and couplings must be 1-d arrays of equal length")
        if om.size < 1:
            raise InvalidValue("bath needs at least one mode")
        if np.any(om[1:] <= om[:-1]):
            raise InvalidValue("bath frequencies must be strictly increasing")
        # in Python floats, so an overflow gives inf and no numpy warning
        span, g2 = float(om[-1]) - float(om[0]), sum(x * x for x in g.tolist())
        if not (math.isfinite(span) and math.isfinite(g2)):
            raise InvalidValue("bath frequency span and sum of g^2 must be finite")
        if np.any(g == 0.0):
            raise InvalidValue("every bath coupling must be nonzero")
        _frozen(self, omegas=om, couplings=g)

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
        nb = _reals(self.n_bath_modes, "bath occupations").copy()
        if _real(self.n_omega0, "n_omega0") < 0.0:
            raise InvalidValue(f"n_omega0 must be finite and >= 0, got {self.n_omega0}")
        if np.any(nb < 0.0):
            raise InvalidValue("bath occupations must be >= 0")
        if max(self.n_omega0, nb.max(initial=0.0)) > _MAX_OCCUPATION:
            raise InvalidValue(f"occupations must be at most {_MAX_OCCUPATION:g}")
        _frozen(self, n_bath_modes=nb)

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
        return DiscretizedBath(omegas, couplings)  # rejects zero couplings

    # explicit rule; DiscretizedBath validates monotonicity and zeros
    return DiscretizedBath(
        np.asarray(params.omegas, dtype=float),
        np.asarray(params.couplings, dtype=float),
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
    if not (_real(beta, "beta", finite=False) > 0.0):  # inf: every mode empty
        raise InvalidValue(f"beta must be positive, got {beta}")
    if np.any(bath.omegas <= 0.0):
        raise NonPositiveFrequency(
            "thermal occupation undefined for modes with omega <= 0"
        )
    with np.errstate(over="ignore", divide="ignore"):  # beta*omega > ~709: n = 0; ~0: n = inf
        occ = 1.0 / np.expm1(beta * bath.omegas)
    if not np.all(np.isfinite(occ)):
        raise InvalidValue(f"beta = {beta} is too small: 1 / expm1(beta * omega) is not finite")
    return InitialOccupations(n_omega0=_real(n_omega0, "n_omega0"), n_bath_modes=occ)
