"""Exact reduced dynamics in the one-excitation sector.

All time dependence enters through the eigenmode phases exp(-i alpha_nu t).
With C the orthogonal overlap matrix (rows = eigenmodes, column 0 = the
distinguished oscillator) the propagator restricted to the sector is

    U(t) = C^T diag(exp(-i alpha t)) C,

and P_nm(t) = |U_nm(t)|^2 is a doubly stochastic matrix of transition
probabilities.  Mean occupations evolve classically through it:

    <N_n(t)> = sum_m P_nm(t) <N_m(0)>.

`population_series` evaluates this with the dense P(t) at each time, O(N^3)
per time: it is the reference that the row-0 kernel behind
`oscillator_population` and `population_decomposition` (O(N^2) per time)
is checked against.

The survival amplitude of the oscillator is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeGuard
from .langevin import _phase_block, moment_signal
from .model import InitialOccupations
from .spectrum import Spectrum, overlap_matrix

_NAIVE_LIMIT = 32
_T_CHUNK = 512  # times per phase block of the row-0 kernel
_M_BLOCK = 2048  # bath modes per kernel block


def survival_amplitude(spec: Spectrum, t):
    """A(t) = sum_nu w_nu exp(-i alpha_nu t); scalar t gives a complex
    scalar, an array of times gives an array."""
    return moment_signal(spec, 0, t)


def survival_probability(spec: Spectrum, t):
    """|A(t)|^2."""
    a = survival_amplitude(spec, t)
    return np.abs(a) ** 2 if isinstance(a, np.ndarray) else abs(a) ** 2


def transition_probabilities(
    spec: Spectrum, t: float, mode: str = "fast", force: bool = False
) -> np.ndarray:
    """P_nm(t) = |U_nm(t)|^2 for all N+1 levels, an (N+1) x (N+1) array
    (row n: target level, column m: source; index 0 is the oscillator).

    mode="fast" squares the spectral propagator (one O(N^3) product).
    mode="naive" evaluates the displayed pair sums

        P_nm = 2 sum_{mu>nu} cos((alpha_mu - alpha_nu) t) c_mu(n) c_nu(n)
                   c_mu(m) c_nu(m)  +  sum_nu c_nu(n)^2 c_nu(m)^2

    literally, entry by entry; it is the readable cross-check and costs
    O(N^4), so it refuses N > 32 unless force=True.
    """
    if mode not in ("fast", "naive"):
        raise ValueError(f"mode must be 'fast' or 'naive', got {mode!r}")
    if mode == "naive" and spec.bath.n > _NAIVE_LIMIT and not force:
        raise SizeGuard(
            f"naive mode is O(N^4); refusing N = {spec.bath.n} > {_NAIVE_LIMIT} "
            "(pass force=True to override)"
        )
    c = overlap_matrix(spec)
    t = float(t)
    if mode == "fast":
        u = c.T @ (np.exp(-1j * spec.alphas * t)[:, None] * c)
        return u.real**2 + u.imag**2
    nl = spec.n_levels
    iu, il = np.triu_indices(nl, k=1)
    cosines = np.cos((spec.alphas[iu] - spec.alphas[il]) * t)
    p = np.empty((nl, nl), dtype=float)
    for n in range(nl):
        cn_pair = c[iu, n] * c[il, n]
        cn_diag = c[:, n] ** 2
        for m in range(n, nl):
            cross = 2.0 * np.sum(cosines * cn_pair * c[iu, m] * c[il, m])
            diag = np.sum(cn_diag * c[:, m] ** 2)
            p[n, m] = cross + diag
            p[m, n] = p[n, m]
    return p


def population_series(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """Occupation vectors <N_n(t)> = sum_m P_nm(t) N_m(0) over an array of
    times, shape (N+1, len(times)), from the dense propagator at each time.
    O(N^3) per time: the reference the row-0 kernel is checked against."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    n0 = occ0.vector
    out = np.empty((spec.n_levels, ts.size))
    for j, t in enumerate(ts):
        out[:, j] = transition_probabilities(spec, t) @ n0
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
    spec: Spectrum, occ0: InitialOccupations, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oscillator occupation over an array of times, split into what
    survives and what arrives:

        <N_Omega(t)> = |A(t)|^2 N_Omega(0) + sum_n P_Omega,n(t) N_n(0).

    Returns (total, surviving, influx) arrays; total is the full row-0
    contraction, so surviving + influx matches it to rounding.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    n0 = occ0.vector
    v = np.zeros((n0.size, 3))
    v[:, 0], v[0, 1], v[1:, 2] = n0, n0[0], n0[1:]
    return tuple(_row0_contract(spec, ts, v))
