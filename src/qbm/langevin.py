"""Langevin-channel quantities of the exactly diagonalized model.

Everything here is a spectral sum over the diagonalized modes.  The three
moment signals

    S_k(t) = sum_nu alpha_nu^k w_nu exp(-i alpha_nu t),   k = 0, 1, 2,

carry all the time dependence: S_0 is the survival amplitude A(t) of the
distinguished oscillator, and its derivatives are analytic resummations
(dA/dt = -i S_1, d2A/dt2 = -S_2) rather than finite differences.  All
three come from one real phase block [cos(t alpha); sin(t alpha)], the
one the row-0 population kernel in evolution uses too.  The
time-local frequency and damping coefficients of the mean-path equation

    X'' + Gamma(t) X' + Omega2(t) X = <f>/M

factorize through them:

    Omega2(t) = Re[S_1 conj(S_2)] / Re[S_1 conj(S_0)],
    Gamma(t)  = Im[conj(S_2) S_0] / Re[conj(S_1) S_0].

The overall sign of Gamma is fixed by the damping convention Gamma > 0:
with it Gamma(0) = 0 exactly and Gamma grows onto the golden-rule plateau
gamma_GR = 2 pi g(Omega)^2 / spacing, which is what the decay of |A|^2
shows.  The shared denominator has isolated zero crossings; samples taken
within 1e-12 (relative to sum |alpha| w) of one are flagged, not fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeVanishes, InvalidValue, WindowTooShort
from .model import DiscretizedBath
from .spectrum import Spectrum

_DENOM_RTOL = 1e-12
_AMPLITUDE_FLOOR = 1e-12
_MIN_FIT_SAMPLES = 16


@dataclass(frozen=True)
class LangevinInput:
    """Initial mean position/momentum of the oscillator and its mass."""

    x0: float = 1.0
    p0: float = 0.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x0, self.p0, self.mass))):
            raise InvalidValue("x0, p0 and mass must be finite (no nan or inf)")
        if not (self.mass > 0.0):
            raise InvalidValue(f"mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class GammaEstimate:
    """Least-squares exponential decay rate of |A(t)|^2 over a window,
    with the fit intercept, rms residual of the linear model in
    -ln|A|^2, and the golden-rule surrogate for comparison."""

    gamma: float
    intercept: float
    rms_residual: float
    golden_rule: float
    window: tuple[float, float]
    n_samples: int


def _phase_block(ts: np.ndarray, alphas: np.ndarray, out=None) -> np.ndarray:
    """Real phase block [cos(t alpha); sin(t alpha)], shape (2T, N+1), for a
    1-d array of T times; written into the leading rows of out if given."""
    nt = ts.size
    e = np.empty((2 * nt, alphas.size)) if out is None else out[: 2 * nt]
    np.multiply.outer(ts, alphas, out=e[:nt])
    np.sin(e[:nt], out=e[nt:])
    np.cos(e[:nt], out=e[:nt])
    return e


def _moments(spec: Spectrum, ks, t) -> np.ndarray:
    """S_k(t) for each k in ks, shape (len(ks),) + shape(t): one phase block
    times the columns alpha^k w in a real GEMM, S = cos part - i sin part."""
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    coeff = np.stack([spec.weights * spec.alphas**k for k in ks], axis=1)
    r = _phase_block(flat, spec.alphas) @ coeff
    s = r[: flat.size] - 1j * r[flat.size :]
    return s.T.reshape((len(ks),) + ts.shape)


def moment_signal(spec: Spectrum, k: int, t):
    """S_k(t) = sum_nu alpha_nu^k w_nu exp(-i alpha_nu t) for k in {0, 1, 2}.

    Scalar t returns a complex scalar; an array of times returns the
    corresponding complex array.
    """
    if k not in (0, 1, 2):
        raise InvalidValue(f"moment order k must be 0, 1 or 2, got {k}")
    val = _moments(spec, (k,), t)[0]
    return complex(val) if val.ndim == 0 else val


def coefficient_series(
    spec: Spectrum, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Omega2(t) and Gamma(t) over an array of times, through S_0, S_1, S_2.

    Returns (omega2, gamma, denominator_ok); flagged entries hold NaN.
    """
    s0, s1, s2 = _moments(spec, (0, 1, 2), np.atleast_1d(times))
    den = np.real(np.conj(s1) * s0)
    ok = np.abs(den) >= _DENOM_RTOL * float(np.sum(np.abs(spec.alphas) * spec.weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        omega2 = np.real(s1 * np.conj(s2)) / den
        gamma = np.imag(np.conj(s2) * s0) / den
    omega2 = np.where(ok, omega2, np.nan)
    gamma = np.where(ok, gamma, np.nan)
    return omega2, gamma, ok


def gamma_from_survival(spec: Spectrum, t):
    """Instantaneous decay rate of the survival probability,

        -d ln|A(t)|^2 / dt = -2 Re[dA/dt / A] = -2 Re[-i S_1 / S_0],

    evaluated with the analytic derivative.  Raises AmplitudeVanishes if
    |A| is at (or below) 1e-12 anywhere in the request.
    """
    ts = np.asarray(t, dtype=float)
    s0, s1 = _moments(spec, (0, 1), ts)
    a0 = np.abs(np.atleast_1d(s0))
    if np.any(a0 <= _AMPLITUDE_FLOOR):
        t_bad = np.atleast_1d(ts)[int(np.argmin(a0))]
        raise AmplitudeVanishes(
            f"|A(t)| = {float(a0.min()):.3e} at t = {float(t_bad)!r}"
        )
    val = -2.0 * np.real(-1j * s1 / s0)
    return float(val) if ts.ndim == 0 else val


def mean_position(spec: Spectrum, inp: LangevinInput, t):
    """Deterministic mean path

        X(t) = sum_nu w_nu cos(alpha_nu t) X(0)
             + sum_nu w_nu sin(alpha_nu t) P(0)/(M Omega)
             = Re S_0(t) X(0) - Im S_0(t) P(0)/(M Omega),

    with the fluctuating force averaging to zero, so that X'(0) = P(0)/M
    by the sum rule sum_nu alpha_nu w_nu = Omega.  Linear in (X(0), P(0))
    by construction.
    """
    s0 = moment_signal(spec, 0, t)
    val = np.real(s0) * inp.x0 - np.imag(s0) * (inp.p0 / (inp.mass * spec.omega0))
    return float(val) if np.ndim(val) == 0 else val


def golden_rule_rate(bath: DiscretizedBath, omega0: float) -> float:
    """Golden-rule surrogate gamma_GR = 2 pi g(Omega)^2 / spacing, with
    g(Omega) the coupling of the bath mode closest to resonance and the
    spacing taken as the median frequency step.  NaN for N < 2 (no
    spacing is defined)."""
    if bath.n < 2:
        return math.nan
    g_res = bath.couplings[int(np.argmin(np.abs(bath.omegas - omega0)))]
    spacing = float(np.median(np.diff(bath.omegas)))
    return 2.0 * math.pi * float(g_res) ** 2 / spacing


def estimate_gamma(
    spec: Spectrum,
    fit_window: tuple[float, float],
    n_samples: int = 256,
) -> GammaEstimate:
    """Exponential decay rate of |A(t)|^2 over a window.

    Samples -ln|A(t)|^2 uniformly over [t0, t1] and fits a straight line
    by least squares; the slope is gamma.  The rms residual is reported so
    callers can tell a genuine exponential regime from a meaningless fit
    (two-level dynamics, for example, never decays and leaves a large
    residual).  The window must contain at least 16 samples.
    """
    t0, t1 = float(fit_window[0]), float(fit_window[1])
    if n_samples < _MIN_FIT_SAMPLES:
        raise WindowTooShort(
            f"need at least {_MIN_FIT_SAMPLES} samples, got {n_samples}"
        )
    if not t1 > t0:
        raise WindowTooShort(f"empty fit window [{t0}, {t1}]")
    ts = np.linspace(t0, t1, n_samples)
    a = moment_signal(spec, 0, ts)
    p = np.abs(a) ** 2
    if np.any(p <= _AMPLITUDE_FLOOR**2):
        raise AmplitudeVanishes("survival probability vanishes inside fit window")
    y = -np.log(p)
    slope, intercept = np.polyfit(ts, y, 1)
    resid = y - (slope * ts + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return GammaEstimate(
        gamma=float(slope),
        intercept=float(intercept),
        rms_residual=rms,
        golden_rule=golden_rule_rate(spec.bath, spec.omega0),
        window=(t0, t1),
        n_samples=int(n_samples),
    )


def recurrence_time(spec: Spectrum) -> float:
    """t_r = 2 pi / min(alpha_{nu+1} - alpha_nu): the beat period of the
    closest eigenvalue pair, after which the quasi-continuum rephases.
    For a single bath mode (two eigenvalues) this is the beat period of
    the doublet.  The companion scale tau_omega = 2 pi / Omega lives on
    the Spectrum itself."""
    gaps = np.diff(spec.alphas)
    return 2.0 * math.pi / float(gaps.min())
