"""Exact reduced dynamics in the one-excitation sector.

All time dependence enters through the eigenmode phases exp(-i alpha_nu t).
With C the orthogonal overlap matrix (rows = eigenmodes, column 0 = the
distinguished oscillator) the propagator restricted to the sector is

    U(t) = C^T diag(exp(-i alpha t)) C,

and P_nm(t) = |U_nm(t)|^2 is a doubly stochastic matrix of transition
probabilities.  Mean occupations evolve classically through it:

    <N_n(t)> = sum_m P_nm(t) <N_m(0)>.

The survival amplitude of the oscillator is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuard
from .langevin import _phase_block, moment_signal
from .model import DiscretizedBath, InitialOccupations
from .series import TimeGrid, TimeSeries
from .spectrum import Spectrum, overlap_matrix

_NAIVE_LIMIT = 32
_T_CHUNK = 512  # times per phase block of the row-0 kernel
_M_BLOCK = 2048  # bath modes per kernel block


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """Transition probabilities P_nm(t) at a single time (row n: target level,
    column m: source; index 0 is the distinguished oscillator)."""

    time: float
    entries: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.entries, dtype=float).copy()
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("entries must be a square matrix")
        p.setflags(write=False)
        object.__setattr__(self, "entries", p)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class OccupationVector:
    """Mean occupations at a single time, oscillator entry first."""

    time: float
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def survival_amplitude(spec: Spectrum, t):
    """A(t) = sum_nu w_nu exp(-i alpha_nu t); scalar t gives a complex
    scalar, an array of times gives an array."""
    return moment_signal(spec, 0, t)


def survival_probability(spec: Spectrum, t):
    """|A(t)|^2."""
    a = survival_amplitude(spec, t)
    return np.abs(a) ** 2 if isinstance(a, np.ndarray) else abs(a) ** 2


def _propagator(spec: Spectrum, t: float) -> np.ndarray:
    c = overlap_matrix(spec)
    phases = np.exp(-1j * spec.alphas * t)
    return c.T @ (phases[:, None] * c)


def transition_probabilities(
    spec: Spectrum,
    bath: DiscretizedBath | None = None,
    t: float = 0.0,
    mode: str = "fast",
    force: bool = False,
) -> ProbabilityMatrix:
    """P_nm(t) = |U_nm(t)|^2 for all N+1 levels.

    mode="fast" squares the spectral propagator (one O(N^3) product).
    mode="naive" evaluates the displayed pair sums

        P_nm = 2 sum_{mu>nu} cos((alpha_mu - alpha_nu) t) c_mu(n) c_nu(n)
                   c_mu(m) c_nu(m)  +  sum_nu c_nu(n)^2 c_nu(m)^2

    literally, entry by entry; it is the readable cross-check and costs
    O(N^4), so it refuses N > 32 unless force=True.
    """
    b = spec.bath if bath is None else bath
    if mode == "fast":
        u = _propagator(spec, float(t))
        p = u.real**2 + u.imag**2
        return ProbabilityMatrix(time=float(t), entries=p)
    if mode != "naive":
        raise ValueError(f"mode must be 'fast' or 'naive', got {mode!r}")
    if b.n > _NAIVE_LIMIT and not force:
        raise SizeGuard(
            f"naive mode is O(N^4); refusing N = {b.n} > {_NAIVE_LIMIT} "
            "(pass force=True to override)"
        )
    c = overlap_matrix(spec, b)
    nl = spec.n_levels
    iu, il = np.triu_indices(nl, k=1)
    cosines = np.cos((spec.alphas[iu] - spec.alphas[il]) * float(t))
    p = np.empty((nl, nl), dtype=float)
    for n in range(nl):
        cn_pair = c[iu, n] * c[il, n]
        cn_diag = c[:, n] ** 2
        for m in range(n, nl):
            cross = 2.0 * np.sum(cosines * cn_pair * c[iu, m] * c[il, m])
            diag = np.sum(cn_diag * c[:, m] ** 2)
            p[n, m] = cross + diag
            p[m, n] = p[n, m]
    return ProbabilityMatrix(time=float(t), entries=p)


def populations(
    spec: Spectrum,
    bath: DiscretizedBath | None = None,
    occ0: InitialOccupations | None = None,
    t: float = 0.0,
) -> OccupationVector:
    """Mean occupation of every level at time t, from the fast propagator."""
    if occ0 is None:
        raise ValueError("occ0 is required")
    p = transition_probabilities(spec, bath, t, mode="fast")
    return OccupationVector(time=float(t), values=p.entries @ occ0.vector)


def population_series(
    spec: Spectrum,
    occ0: InitialOccupations,
    times: np.ndarray,
    chunk: int = 128,
) -> np.ndarray:
    """Occupation vectors over a grid, shape (N+1, len(times)).  Batched
    spectral products, chunked to keep the complex work arrays small."""
    c = overlap_matrix(spec)
    k = c * np.sqrt(occ0.vector)[None, :]  # scale columns by sqrt(N_m(0))
    ts = np.asarray(times, dtype=float)
    out = np.empty((spec.n_levels, ts.size), dtype=float)
    for start in range(0, ts.size, chunk):
        sl = slice(start, min(start + chunk, ts.size))
        phases = np.exp(-1j * np.outer(ts[sl], spec.alphas))  # (B, N+1)
        m = phases[:, :, None] * k[None, :, :]  # (B, nu, m)
        y = np.matmul(c.T[None, :, :], m)  # (B, n, m) amplitudes
        out[:, sl] = np.sum(y.real**2 + y.imag**2, axis=2).T
    return out


def _row0_contract(spec: Spectrum, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m P_{Omega,m}(t) v[m, k] for each column k of v, shape (k, T).
    Row 0 of U(t) is U_0m = sum_nu K_num e^{-i alpha_nu t}, K_nu0 = w_nu and
    K_num = w_nu g_m / (alpha_nu - omega_m): per chunk of times one real
    phase block [w cos(t alpha); w sin(t alpha)] meets 1/(omega_m - alpha_nu),
    built per block of modes, in real GEMMs (g_m^2 moves onto v; a column's
    sign drops out of |U_0m|^2).  Fixed blocks bound the memory in N and T."""
    al, om = spec.alphas, spec.bath.omegas
    vg = v[1:] * (spec.bath.couplings**2)[:, None]
    out = np.empty((v.shape[1], ts.size))
    nt, nm = min(_T_CHUNK, ts.size), min(_M_BLOCK, om.size)
    phase, kern, amp = np.empty((2 * nt, al.size)), np.empty((nm, al.size)), np.empty((2 * nt, nm))
    for t0 in range(0, ts.size, _T_CHUNK):
        t = ts[t0 : t0 + _T_CHUNK]
        e = _phase_block(t, al, out=phase)
        e *= spec.weights
        a0 = np.square(e.sum(axis=1))
        acc = np.multiply.outer(a0[: t.size] + a0[t.size :], v[0])
        for m0 in range(0, om.size, nm):
            k = np.subtract.outer(om[m0 : m0 + nm], al, out=kern[: min(nm, om.size - m0)])
            np.divide(1.0, k, out=k)
            a = np.matmul(e, k.T, out=amp[: e.shape[0], : k.shape[0]])
            np.square(a, out=a)
            np.add(a[: t.size], a[t.size :], out=a[: t.size])
            acc += a[: t.size] @ vg[m0 : m0 + nm]
        out[:, t0 : t0 + t.size] = acc.T
    return out


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix, O(N^2) per time."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    return _row0_contract(spec, ts, occ0.vector[:, None])[0]


def population_decomposition(
    spec: Spectrum,
    bath: DiscretizedBath | None = None,
    occ0: InitialOccupations | None = None,
    grid: TimeGrid | None = None,
) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Oscillator occupation over a grid, split into what survives and what
    arrives:

        <N_Omega(t)> = |A(t)|^2 N_Omega(0) + sum_n P_Omega,n(t) N_n(0).

    Returns (total, surviving, influx) series; total is the full row-0
    contraction, so surviving + influx matches it to rounding.
    """
    if occ0 is None or grid is None:
        raise ValueError("occ0 and grid are required")
    ts = grid.times()
    n0 = occ0.vector
    v = np.zeros((n0.size, 3))
    v[:, 0], v[0, 1], v[1:, 2] = n0, n0[0], n0[1:]
    total, surviving, influx = _row0_contract(spec, ts, v)
    return (
        TimeSeries(name="population_total", t=ts, value=total),
        TimeSeries(name="population_surviving", t=ts, value=surviving),
        TimeSeries(name="population_influx", t=ts, value=influx),
    )
