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
with it Gamma(0) = 0 and Gamma grows onto the golden-rule plateau
gamma_GR = 2 pi g(Omega)^2 / spacing, which is what the decay of |A|^2
shows.  Gamma(0) = 0 is exact where t = 0 is a node or an own time of its
run, as on every grid that starts or ends at 0; inside a run it is
interpolated (about 1e-18 on 2001 times over [-50, 50] at N = 10^3 and
10^4).  The shared denominator has isolated zero crossings; samples taken
within 1e-12 (relative to sum |alpha| w) of one are flagged, not fatal.

The moments share one phase kernel, _node_sums, with the row-0 population
kernel in evolution.  Demodulated by the band centre abar,
sum_nu c_nu exp(-i alpha_nu t) = exp(-i abar t) sum_nu c_nu
exp(-i (alpha_nu - abar) t) has frequencies within r = (alpha_N -
alpha_0)/2, so on a run of times [tc - h, tc + h] the phase rows are
formed at K ~ r h Chebyshev node times only (second kind: the run's ends
are nodes, and the sin rows at a node t = 0 are its exact zeros, so t = 0
at a run's end is exact) and contracted along the mode axis; the caller's
carry step takes that to the times with the matrix of the second (true)
barycentric form (Berrut & Trefethen, SIAM Rev. 46, 2004), taken on the
nodes as rounded: no error floor.  The runs are the only partition of the
time axis, cut by each kernel's price of a run (_node_runs), and
QBM_THREADS worker threads take whole runs.  Neither kernel forms a phase
block: each root box (for the moments, each group of boxes their price
picks) meets a run through a few Chebyshev proxy frequencies of its own
(spectrum._box_rows), or through its own rows where those cost less.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeVanishes, InvalidValue
from .model import DiscretizedBath, _frequency, _real, _reals
from .spectrum import Spectrum, _barycentric, _box_rows, _chebyshev, _nodes

_DENOM_RTOL = 1e-12
_AMPLITUDE_FLOOR = 1e-12
_FIT_SAMPLES = 256
_T_CHUNK = 512  # most node times per run
_MOMENT_CELLS = 1 << 13  # most entries in a carry block of the moments
_GROUPS = (1, 2, 4)  # middle root boxes per proxy group, by rule
_PRICE = (1000.0, 2150.0, 0.55, 0.26)  # moments, in phase entries: run, group, L entry, carry entry


@dataclass(frozen=True)
class LangevinInput:
    """Initial mean position/momentum of the oscillator and its mass."""

    x0: float = 1.0
    p0: float = 0.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        _real(self.x0, "x0")
        _real(self.p0, "p0")
        if not (_real(self.mass, "mass") > 0.0):
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
    """InvalidValue unless max|t| * max|alpha|, in Python floats, is below 2^52 (phase bits below 1)."""
    big = float(np.max(np.abs(ts), initial=0.0)) * float(np.max(np.abs(alphas), initial=0.0))
    if not big < 2.0**52:
        raise InvalidValue(f"phases t*alpha keep no fractional bits: max|t| * max|alpha| = {big} >= 2^52")


def _node_runs(ts, r, price):
    """(i0, t, x, w) per run: the times ts are cut, in order, into runs
    t = ts[i0 : i0 + n], each on K = r h + 12 (r h)^(1/3) + 4 Chebyshev
    nodes x with barycentric weights w or, where cheaper per time or the
    nodes would lie closer than 2^-970 (t - x subnormal, w / d overflows),
    on at most chunk of its own times (x = t, w None), by the kernel's price
    (cost, (c1, c2), cells, cap): cost(k, h) + (c1 + c2 k) k n for n times
    on k points of half-width h, cost(n, h) on their own.  Runs take the
    cheapest length (K <= chunk, cap or _T_CHUNK), spread evenly; each K is
    priced at the most times it reaches, as far as its carry per time,
    which grows with K, stays below the best.  Node counts past the chunk
    are one count, chunk + 1, at which no run is priced; each window also
    prices its first time, the one length it takes where no K is priced."""
    cost, (c1, c2), _, cap = price
    chunk, carry = max(1, min(_T_CHUNK, cap)), lambda k: (c1 + c2 * k) * k
    i0, w = 0, 2048
    while i0 < ts.size:
        rest, stop = ts.size - i0, False
        while not stop:  # a window of the times ahead, doubled until no longer run can win
            t = ts[i0 : i0 + w]
            h = np.maximum.accumulate(t) / 2 - np.minimum.accumulate(t) / 2
            nodes = np.minimum(_nodes(r * h), chunk + 1)
            # the first time, then the last time at each K
            e = np.append(0, np.flatnonzero(np.append(nodes[1:] != nodes[:-1], True)))
            k, n = nodes[e], e + 1
            per = np.where((k < n) & (k <= chunk), (cost(k, h[e]) + carry(k) * n) / n, np.inf)
            n, far = int(n[np.argmin(per)]), nodes[-1] > chunk or carry(nodes[-1]) >= per.min()
            stop, w = t.size == rest or far and t.size >= 2 * n, 2 * w  # even below is < 2 n
        # equal runs over the times left, so no short last run pays for a contraction
        even, own = -(-rest // max(1, round(rest / n))), min(chunk, rest)
        n = even if nodes[even - 1] < min(even, chunk + 1) else n
        k, t = nodes[n - 1], ts[i0 : i0 + own]
        c = cost(np.array([k, own]), np.array([h[n - 1], t.max() / 2 - t.min() / 2]))
        narrow = h[n - 1] * (1.0 - np.cos(np.pi / (k - 1))) < 2.0**-970  # the nodes' closest pair
        node = k < min(n, chunk + 1) and not narrow and (c[0] + carry(k) * n) / n < c[1] / own
        t = ts[i0 : i0 + (n if node else own)]
        yield i0, t, *(_chebyshev(t.min(), t.max(), int(k)) if node else (t, None))
        i0, w = i0 + t.size, max(256, min(w, 4 * t.size))


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


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS held at one thread, so that no GEMM is split in an order that
    depends on the thread count: numpy's bundled OpenBLAS, found by ctypes
    through numpy's core extension, restored on exit, or else left alone."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        yield
        return
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _node_sums(spec: Spectrum, ts: np.ndarray, price, contract, carry, out) -> np.ndarray:
    """out[:, rows] = carry(a, b) per block of the times ts; returns out.
    Per run of _node_runs, priced by the kernel's price = (cost, carry,
    cells, cap), a = contract(buffer, x, on_nodes) meets the phase rows
    [cos(x (alpha - abar)); sin(x (alpha - abar))] at its K nodes x with the
    mode axis, sum_nu (...) e^{-i alpha_nu t} = e^{-i abar t} (cos part -
    i sin part), one result per half stacked on axis 0, root box by root
    box (spectrum._box_rows); buffer(cells) is the worker's own array of
    that many entries.  b is the (rows, K) barycentric matrix to the times
    ts[rows] or, on a run of its own times, None with a sliced to those rows
    on axis -2, at most cells entries.  _worker_count threads, the caller
    one, take the runs in order, each writing only its runs' columns of out,
    and a worker's error is raised here; the runs depend on the times alone,
    with BLAS held at one thread, so neither thread count changes a value."""
    workers, al = _worker_count(), spec.alphas
    _check_phases(ts, al)
    # a list, not the generator: a run being built would sit on a worker's peak
    runs, block = list(_node_runs(ts, al[-1] / 2 - al[0] / 2, price)), price[2]
    # a buffer per worker, not per run: freeing a large block raises glibc's
    # mmap threshold, and the worker's later arrays stay in its heap
    local = threading.local()

    def buffer(cells):  # the worker's buffer, grown as needed
        if (e := getattr(local, "e", None)) is None or e.size < cells:
            e = local.e = np.empty(cells)
        return e[:cells]

    def run(i0, t, x, w):
        a, o = contract(buffer, x, w is not None), out[:, i0 : i0 + t.size]
        step = max(1, block // x.size)
        for j in range(0, t.size, step):
            b = None if w is None else _barycentric(t[j : j + step], x, w)
            o[:, j : j + step] = carry(a[..., j : j + step, :] if b is None else a, b)
            del b

    todo, failed, lock = iter(runs), [], threading.Lock()

    def take():  # the next run in order, or None once all are taken or one has failed
        with lock:
            return None if failed else next(todo, None)

    def work():
        try:
            for args in iter(take, None):
                run(*args)
        except Exception as exc:  # raised in the caller
            failed.append(exc)

    with _one_blas_thread():
        threads = [threading.Thread(target=work) for _ in range(min(workers, len(runs)) - 1)]
        for th in threads:
            th.start()
        work()  # the caller is a worker too
        for th in threads:
            th.join()
    if failed:
        raise failed[0]
    return out


def _moments(spec: Spectrum, ks, t) -> np.ndarray:
    """S_k(t) for each k in ks, shape (len(ks), T): the node sums of the
    columns w alpha^k, remodulated by e^{-i abar t}.  A run meets the outer
    roots and the middle boxes of spec.boxes through _box_rows, in groups of
    _GROUPS[j] boxes by its price: per run, group and barycentric entry, and
    K min(P, B) cos and sin entries for B roots on P proxies (_PRICE), each
    group priced as _box_rows forms it."""
    ts, al = _reals(t, "times"), spec.alphas
    wk = np.stack([spec.weights * al**k for k in ks], axis=1)
    mid, abar = spec.boxes[1][1:-1], al[0] / 2 + al[-1] / 2  # middle box bounds (N = 1: one empty)
    groups = [mid[np.append(np.arange(0, mid.size - 1, m), mid.size - 1)] for m in _GROUPS]
    r0, r1 = (np.concatenate([g[i] for g in groups]) for i in (slice(-1), slice(1, None)))
    z, roots, (per_run, per_group, per_bary, per_carry) = al - abar, r1 - r0, _PRICE
    rule = np.repeat(np.eye(len(groups)), [g.size - 1 for g in groups], axis=0)
    fixed = per_run + per_group * (rule.sum(axis=0) + 2)  # the outer roots' groups too

    def cost(k, h):  # (runs, rules) prices at k points of half-width h
        p, k = _nodes(np.multiply.outer(h, np.maximum(z[r1 - 1] - z[r0], 0.0)) / 2), k[:, None]
        return np.minimum(p * (k + per_bary * roots), k * roots) @ rule + fixed + 2 * k

    def carry(a, b):
        u = a if b is None else b @ a
        return (u[0] - 1j * u[1]).T

    price = (lambda k, h: cost(k, h).min(axis=1), (per_carry, 0.0), _MOMENT_CELLS, _T_CHUNK // 2)

    def contract(buffer, x, _):  # each group's rows used before the next's
        rows, h = _box_rows(x, per_bary, buffer), x.max() / 2 - x.min() / 2
        g = [0, *groups[int(np.argmin(cost(np.array([x.size]), np.array([h]))))].tolist(), al.size]
        u = sum(rows(z[c0:c1])(wk[c0:c1]) for c0, c1 in zip(g[:-1], g[1:]) if c1 > c0)
        return u.reshape(2, x.size, len(ks))

    s = _node_sums(spec, ts, price, contract, carry, np.empty((len(ks), ts.size), dtype=complex))
    return s * np.exp(-1j * abar * ts)


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
    ts = _reals(t, "times")
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
    v0 = _velocity_scale(inp, spec.omega0)
    s0 = moment_signal(spec, 0, t)
    return np.real(s0) * inp.x0 - np.imag(s0) * v0


def _velocity_scale(inp: LangevinInput, omega0: float) -> float:
    """P(0)/(M Omega), in Python floats; InvalidValue unless it and
    |X(0)| + |P(0)/(M Omega)|, which bounds |X(t)|, are finite."""
    m_omega = inp.mass * omega0
    v0 = inp.p0 / m_omega if m_omega else math.inf  # M Omega can round to 0
    bound = abs(inp.x0) + abs(v0)
    if not math.isfinite(bound):
        raise InvalidValue(f"mean position not representable: |X0| + |P0/(M Omega)| = {bound}")
    return v0


def golden_rule_rate(bath: DiscretizedBath, omega0: float) -> float:
    """Golden-rule surrogate gamma_GR = 2 pi g(Omega)^2 / spacing, with
    g(Omega) the coupling of the bath mode closest to resonance and the
    spacing taken as the median frequency step.  NaN for N < 2 (no
    spacing is defined).  A non-finite or non-positive omega0, or one whose
    period 2 pi/omega0 overflows, is InvalidValue."""
    omega0 = _frequency(omega0)
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
    leaves a large residual).  A window that is not two finite real
    numbers (text such as "12" included), that is empty (t1 <= t0), whose
    width is not finite, or whose centred sample times square to 0 (too
    narrow to fit a slope) is InvalidValue.
    """
    if (ends := _reals(fit_window, "fit window")).size != 2:
        raise InvalidValue(f"fit window must be two numbers, got {fit_window!r}")
    t0, t1 = ends.tolist()
    if not math.isfinite(t1 - t0):
        raise InvalidValue(f"fit window [{t0}, {t1}] and its width must be finite")
    if not t1 > t0:
        raise InvalidValue(f"empty fit window [{t0}, {t1}]")
    ts = np.linspace(t0, t1, _FIT_SAMPLES)
    dt = ts - ts.mean()  # the line in closed form on centred times: no LAPACK
    if not (dt2 := dt @ dt) > 0.0:
        raise InvalidValue(f"fit window [{t0}, {t1}] is too narrow to fit a slope")
    a = moment_signal(spec, 0, ts)
    p = np.abs(a) ** 2
    if np.any(p <= _AMPLITUDE_FLOOR**2):
        raise AmplitudeVanishes("survival probability vanishes inside fit window")
    y = -np.log(p)
    slope = dt @ y / dt2
    intercept = y.mean() - slope * ts.mean()
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
