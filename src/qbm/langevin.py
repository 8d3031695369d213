"""Langevin-channel quantities of the exactly diagonalized model.

Everything here is a spectral sum over the diagonalized modes.  The three
moment signals

    S_k(t) = sum_nu alpha_nu^k w_nu exp(-i alpha_nu t),   k = 0, 1, 2,

carry all the time dependence: S_0 is the survival amplitude A(t) of the
distinguished oscillator, and its derivatives are analytic resummations
(dA/dt = -i S_1, d2A/dt2 = -S_2) rather than finite differences.  The
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

The moments share one phase kernel, _node_sums, with the row-0 population
kernel in evolution.  Demodulated by the band centre abar,
sum_nu c_nu exp(-i alpha_nu t) = exp(-i abar t) sum_nu c_nu
exp(-i (alpha_nu - abar) t) has frequencies within r = (alpha_N -
alpha_0)/2, so on a run of times [tc - h, tc + h] the phase block is
formed at K ~ r h Chebyshev node times only (second kind: the run's ends
are nodes, so t = 0 is exact) and contracted along the mode axis; the
caller's carry step takes that to the times with the matrix of the second
(true) barycentric form (Berrut & Trefethen, SIAM Rev. 46, 2004), taken on
the nodes as rounded: no error floor.  The runs are the only partition of
the time axis: QBM_THREADS worker threads take whole runs, each with a
phase block of its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeVanishes, InvalidValue
from .model import DiscretizedBath
from .spectrum import _CELLS, Spectrum, _barycentric, _chebyshev

_DENOM_RTOL = 1e-12
_AMPLITUDE_FLOOR = 1e-12
_FIT_SAMPLES = 256
_T_CHUNK = 512  # most node times per phase block
_PHASE_CELLS = 1 << 21  # most K x (N+1) entries in one half of a phase block
_T_SPAN = 8192  # most grid times one run looks ahead
# K = r h + 12 (r h)^(1/3) + 4 nodes: 4 sum_{k>=K} |J_k(r h)| < 1e-17 bounds
# the Chebyshev tail of exp(-i beta x), |beta| <= r h, on [-1, 1]
_NODE_MARGIN = (12.0, 4.0)


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
    with the fit intercept and rms residual of the linear model in
    -ln|A|^2."""

    gamma: float
    intercept: float
    rms_residual: float


def _check_phases(ts: np.ndarray, alphas: np.ndarray) -> None:
    """InvalidValue unless max|t| * max|alpha|, in Python floats, is finite."""
    big = float(np.max(np.abs(ts), initial=0.0)) * float(np.max(np.abs(alphas), initial=0.0))
    if not math.isfinite(big):
        raise InvalidValue(f"phases t*alpha are not finite: max|t| * max|alpha| = {big}")


def _times(t) -> np.ndarray:
    """Times as a 1-d float array; a scalar counts as one time.  Anything
    but real numbers (strings, complex values, None) is InvalidValue."""
    try:
        ts = np.atleast_1d(np.asarray(t))
    except ValueError as exc:  # ragged nesting
        raise InvalidValue(f"times must be a scalar or a 1-d array: {exc}") from None
    if ts.dtype.kind not in "biuf":
        raise InvalidValue(f"times must be real numbers, got {ts.dtype} values")
    if ts.ndim != 1:
        raise InvalidValue(f"times must be a scalar or a 1-d array, got shape {ts.shape}")
    return ts.astype(float, copy=False)


def _node_runs(ts, r, n_levels):
    """(i0, t, x, w) per run: the times ts are cut, in order, into runs
    t = ts[i0 : i0 + n], each evaluated on K = r h + 12 (r h)^(1/3) + 4
    Chebyshev nodes x with barycentric weights w or, where those save no
    flops (K (n_levels + n) / n >= n_levels per time), on its own times
    (x = t, w None); runs take the cheapest length, spread evenly, with at
    most _T_CHUNK nodes and K n_levels <= _PHASE_CELLS."""
    i0, chunk = 0, max(1, min(_T_CHUNK, _PHASE_CELLS // n_levels))
    while i0 < ts.size:
        t, rest = ts[i0 : i0 + _T_SPAN], ts.size - i0
        rh = r * (np.maximum.accumulate(t) / 2 - np.minimum.accumulate(t) / 2)
        nodes = np.ceil(rh + _NODE_MARGIN[0] * np.cbrt(rh) + _NODE_MARGIN[1])
        sizes = np.arange(1, t.size + 1)
        ok = (nodes < sizes) & (nodes <= chunk)
        cost = np.where(ok, nodes * (n_levels + sizes) / sizes, np.inf)
        n = int(np.argmin(cost)) + 1
        # equal runs over the times left, so no short last run pays for a contraction
        even = -(-rest // max(1, round(rest / n)))
        if even <= t.size and ok[even - 1]:
            n = even
        if cost[n - 1] < n_levels:
            x, w = _chebyshev(t[:n].min(), t[:n].max(), int(nodes[n - 1]))
        else:
            n = min(chunk, t.size)
            x, w = t[:n], None
        yield i0, t[:n], x, w
        i0 += n


def _worker_count() -> int:
    """Threads that run the node runs: QBM_THREADS, unset or 0 meaning one;
    anything but an integer >= 0 is InvalidValue."""
    raw = os.environ.get("QBM_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise InvalidValue(f"QBM_THREADS must be an integer, got {raw!r}")
    if workers < 0:
        raise InvalidValue(f"QBM_THREADS must be >= 0, got {workers}")
    return workers or 1


def _node_sums(spec: Spectrum, ts: np.ndarray, contract, carry, out: np.ndarray) -> np.ndarray:
    """out[:, rows] = carry(a, b) per block of the times ts; returns out.
    Per run of _node_runs the phase block e = [w cos(x (alpha - abar));
    w sin(x (alpha - abar))], shape (2K, N+1), at its K nodes x meets the
    mode axis in a = contract(e, on_nodes): sum_nu (...) e^{-i alpha_nu t}
    = e^{-i abar t} (cos part - i sin part).  b is the (rows, K) barycentric
    matrix to the times ts[rows] or, on a run of its own times, None with a
    sliced to those rows on axis -2.  The runs are mapped over _worker_count
    threads; each allocates its own phase block and writes only its own
    columns of out, and the runs depend on the times alone, so the worker
    count never changes a value.  b holds at most _CELLS entries."""
    workers = _worker_count()
    al = spec.alphas
    _check_phases(ts, al)
    mid, r = al[0] / 2 + al[-1] / 2, al[-1] / 2 - al[0] / 2
    # a list, not the generator: a run being built would sit on a worker's peak
    runs = list(_node_runs(ts, r, al.size))

    def run(i0, t, x, w):
        k = x.size
        e = np.empty((2 * k, al.size))
        np.multiply.outer(x, al - mid, out=e[:k])
        np.sin(e[:k], out=e[k:])
        np.cos(e[:k], out=e[:k])
        e *= spec.weights
        a = contract(e, w is not None)
        step = max(1, _CELLS // k)
        for j in range(0, t.size, step):
            n = min(step, t.size - j)
            b = None if w is None else _barycentric(t[j : j + n], x, w)
            out[:, i0 + j : i0 + j + n] = carry(a[..., j : j + n, :] if b is None else a, b)
            del b

    if min(workers, len(runs)) <= 1:
        for args in runs:
            run(*args)
    else:  # imported here, so that import qbm does not load it (and logging)
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, *zip(*runs)))
    return out


def _moments(spec: Spectrum, ks, t) -> np.ndarray:
    """S_k(t) for each k in ks, shape (len(ks), T): the node sums of the
    columns alpha^k, remodulated by e^{-i abar t}."""
    ts, al = _times(t), spec.alphas
    coeff = np.stack([al**k for k in ks], axis=1)
    out = np.empty((len(ks), ts.size), dtype=complex)

    def carry(a, b):
        u = a if b is None else b @ a
        return (u[0] - 1j * u[1]).T

    s = _node_sums(spec, ts, lambda e, _: (e @ coeff).reshape(2, -1, len(ks)), carry, out)
    return s * np.exp(-1j * (al[0] / 2 + al[-1] / 2) * ts)


def moment_signal(spec: Spectrum, k: int, t) -> np.ndarray:
    """S_k(t) = sum_nu alpha_nu^k w_nu exp(-i alpha_nu t) for k in {0, 1, 2},
    over an array of times (a scalar is one time).  S_0 is the survival
    amplitude A(t)."""
    if k not in (0, 1, 2):
        raise InvalidValue(f"moment order k must be 0, 1 or 2, got {k}")
    return _moments(spec, (k,), t)[0]


def coefficient_series(
    spec: Spectrum, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Omega2(t) and Gamma(t) over an array of times, through S_0, S_1, S_2.

    Returns (omega2, gamma, denominator_ok); flagged entries hold NaN.
    """
    s0, s1, s2 = _moments(spec, (0, 1, 2), times)
    den = np.real(np.conj(s1) * s0)
    ok = np.abs(den) >= _DENOM_RTOL * float(np.sum(np.abs(spec.alphas) * spec.weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        omega2 = np.real(s1 * np.conj(s2)) / den
        gamma = np.imag(np.conj(s2) * s0) / den
    omega2 = np.where(ok, omega2, np.nan)
    gamma = np.where(ok, gamma, np.nan)
    return omega2, gamma, ok


def gamma_from_survival(spec: Spectrum, t) -> np.ndarray:
    """Instantaneous decay rate of the survival probability over an array
    of times,

        -d ln|A(t)|^2 / dt = -2 Re[dA/dt / A] = -2 Re[-i S_1 / S_0],

    evaluated with the analytic derivative.  Raises AmplitudeVanishes if
    |A| is at (or below) 1e-12 anywhere in the request.
    """
    ts = _times(t)
    s0, s1 = _moments(spec, (0, 1), ts)
    a0 = np.abs(s0)
    if np.any(a0 <= _AMPLITUDE_FLOOR):
        t_bad = ts[int(np.argmin(a0))]
        raise AmplitudeVanishes(
            f"|A(t)| = {float(a0.min()):.3e} at t = {float(t_bad)!r}"
        )
    return -2.0 * np.real(-1j * s1 / s0)


def mean_position(spec: Spectrum, inp: LangevinInput, t) -> np.ndarray:
    """Deterministic mean path over an array of times,

        X(t) = sum_nu w_nu cos(alpha_nu t) X(0)
             + sum_nu w_nu sin(alpha_nu t) P(0)/(M Omega)
             = Re S_0(t) X(0) - Im S_0(t) P(0)/(M Omega),

    with the fluctuating force averaging to zero, so that X'(0) = P(0)/M
    by the sum rule sum_nu alpha_nu w_nu = Omega.  Linear in (X(0), P(0))
    by construction.
    """
    s0 = moment_signal(spec, 0, t)
    return np.real(s0) * inp.x0 - np.imag(s0) * (inp.p0 / (inp.mass * spec.omega0))


def golden_rule_rate(bath: DiscretizedBath, omega0: float) -> float:
    """Golden-rule surrogate gamma_GR = 2 pi g(Omega)^2 / spacing, with
    g(Omega) the coupling of the bath mode closest to resonance and the
    spacing taken as the median frequency step.  NaN for N < 2 (no
    spacing is defined)."""
    if bath.n < 2:
        return math.nan
    g_res = bath.couplings[int(np.argmin(np.abs(bath.omegas - omega0)))]
    d = np.diff(bath.omegas)
    lo, hi = (d.size - 1) // 2, d.size // 2  # np.median's, which loads numpy.ma
    spacing = float(np.partition(d, [lo, hi])[lo : hi + 1].mean())
    return 2.0 * math.pi * float(g_res) ** 2 / spacing


def estimate_gamma(spec: Spectrum, fit_window: tuple[float, float]) -> GammaEstimate:
    """Exponential decay rate of |A(t)|^2 over a window.

    Samples -ln|A(t)|^2 at 256 uniform times over [t0, t1] and fits a
    straight line by least squares; the slope is gamma.  The rms residual
    is reported so callers can tell a genuine exponential regime from a
    meaningless fit (two-level dynamics, for example, never decays and
    leaves a large residual).  A window that is empty (t1 <= t0) or not
    finite in its ends or width is InvalidValue.
    """
    t0, t1 = float(fit_window[0]), float(fit_window[1])
    if not all(map(math.isfinite, (t0, t1, t1 - t0))):
        raise InvalidValue(f"fit window [{t0}, {t1}] and its width must be finite")
    if not t1 > t0:
        raise InvalidValue(f"empty fit window [{t0}, {t1}]")
    ts = np.linspace(t0, t1, _FIT_SAMPLES)
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
    )


def recurrence_time(spec: Spectrum) -> float:
    """t_r = 2 pi / min(alpha_{nu+1} - alpha_nu): the beat period of the
    closest eigenvalue pair, after which the quasi-continuum rephases.
    For a single bath mode (two eigenvalues) this is the beat period of
    the doublet.  The companion scale tau_omega = 2 pi / Omega lives on
    the Spectrum itself."""
    gaps = np.diff(spec.alphas)
    return 2.0 * math.pi / float(gaps.min())
