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
`oscillator_population` and `population_decomposition` is checked against.
That kernel needs only row 0, U_0m(t) = sum_nu K_num exp(-i alpha_nu t).
|U_0m|^2 does not see a phase common to all nu, so the kernel demodulates
by the band centre abar: U_0m(t) exp(i abar t) has frequencies within
r = (alpha_N - alpha_0)/2, and on [tc - h, tc + h] its interpolant through
K ~ r h Chebyshev node times reproduces it to rounding.  The N^2 Cauchy
product runs on K node times instead of T grid times, O(N^2 K + N K T) in
all.  The second (true) barycentric form (Berrut & Trefethen, SIAM Rev.
46, 2004) is taken on the node times as rounded, the times the phases were
computed at, so rounding the nodes leaves no error floor.

The survival amplitude of the oscillator is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .langevin import _check_phases, _phase_block, _times, moment_signal
from .model import InitialOccupations
from .spectrum import Spectrum, overlap_matrix

_T_CHUNK = 512  # most node times per phase block of the row-0 kernel
_T_SPAN = 8192  # most grid times one run of the kernel looks ahead
_M_BLOCK = 1024  # bath modes per kernel block
_ROWS = 256  # grid times per interpolation block
# K = r h + 12 (r h)^(1/3) + 4 nodes: 4 sum_{k>=K} |J_k(r h)| < 1e-17 bounds
# the Chebyshev tail of exp(-i beta x), |beta| <= r h, on [-1, 1]
_NODE_MARGIN = (12.0, 4.0)


def survival_probability(spec: Spectrum, t) -> np.ndarray:
    """|A(t)|^2 over an array of times (a scalar is one time), with
    A(t) = moment_signal(spec, 0, t)."""
    return np.abs(moment_signal(spec, 0, t)) ** 2


def transition_probabilities(spec: Spectrum, t: float) -> np.ndarray:
    """P_nm(t) = |U_nm(t)|^2 for all N+1 levels, an (N+1) x (N+1) array
    (row n: target level, column m: source; index 0 is the oscillator),
    from the spectral propagator in one O(N^3) product."""
    _check_phases(np.array([float(t)]), spec.alphas)
    c = overlap_matrix(spec)
    u = c.T @ (np.exp(-1j * spec.alphas * float(t))[:, None] * c)
    return u.real**2 + u.imag**2


def population_series(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """Occupation vectors <N_n(t)> = sum_m P_nm(t) N_m(0) over an array of
    times, shape (N+1, len(times)), from the dense propagator at each time.
    O(N^3) per time: the reference the row-0 kernel is checked against."""
    ts = _times(times)
    n0 = occ0.vector
    out = np.empty((spec.n_levels, ts.size))
    for j, t in enumerate(ts):
        out[:, j] = transition_probabilities(spec, t) @ n0
    return out


def _interpolated_abs2(t, x, w, a):
    """(rows, |u|^2) per block of _ROWS times t, u = a[:K] - i a[K:] at
    the K nodes x, by the second barycentric form with weights w (None:
    the times are the nodes).  A time equal to a node takes its value."""
    for j in range(0, t.size, _ROWS):
        if w is None:
            u = np.square(a.reshape(2, x.size, -1)[:, j : j + _ROWS])
        else:
            d = np.subtract.outer(t[j : j + _ROWS], x)
            hit = d == 0.0
            d[hit] = 1.0
            b = np.divide(w, d, out=d)
            on_node = hit.any(axis=1)
            b[on_node] = hit[on_node]
            b /= b.sum(axis=1, keepdims=True)
            u = b @ a.reshape(2, x.size, -1)
            np.square(u, out=u)
        yield slice(j, j + _ROWS), np.add(u[0], u[1], out=u[0])


def _row0_contract(spec: Spectrum, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m P_{Omega,m}(t) v[m, k] for each column k of v, shape (k, T).
    Row 0 of U(t) is U_0m = sum_nu K_num e^{-i alpha_nu t}, K_nu0 = w_nu and
    K_num = w_nu g_m / (alpha_nu - omega_m) (g_m^2 moves onto v; a column's
    sign drops out of |U_0m|^2).  The times are cut, in order, into runs of
    n times, each evaluated on K = r h + 12 (r h)^(1/3) + 4 Chebyshev nodes
    or, where those save no flops (K (N + 1 + n) / n >= N + 1 per time), on
    its own times; runs take the cheapest length, spread evenly, with at
    most _T_CHUNK nodes.  Per run one real phase block [w cos(x (alpha -
    abar)); w sin(x (alpha - abar))] at the nodes meets 1/(omega_m -
    alpha_nu), built once per block of modes, in a real GEMM (4 N^2 K
    flops), and barycentric weights (-1)^k sin(theta_k) carry U_0m to the
    times (4 N K n flops).  Fixed buffers bound the memory in N and T."""
    al, om = spec.alphas, spec.bath.omegas
    _check_phases(ts, al)
    mid, r = al[0] / 2 + al[-1] / 2, al[-1] / 2 - al[0] / 2
    vg = v[1:] * (spec.bath.couplings**2)[:, None]
    out = np.empty((v.shape[1], ts.size))
    nt, nm = min(_T_CHUNK, ts.size), min(_M_BLOCK, om.size)
    phase, kern, amp = np.empty((2 * nt, al.size)), np.empty((nm, al.size)), np.empty((2 * nt, nm))
    i0 = 0
    while i0 < ts.size:
        t, rest = ts[i0 : i0 + _T_SPAN], ts.size - i0
        rh = r * (np.maximum.accumulate(t) / 2 - np.minimum.accumulate(t) / 2)
        nodes = np.ceil(rh + _NODE_MARGIN[0] * np.cbrt(rh) + _NODE_MARGIN[1])
        sizes = np.arange(1, t.size + 1)
        ok = (nodes < sizes) & (nodes <= _T_CHUNK)
        cost = np.where(ok, nodes * (al.size + sizes) / sizes, np.inf)
        n = int(np.argmin(cost)) + 1
        # equal runs over the times left, so no short last run rebuilds 1/(omega - alpha)
        even = -(-rest // max(1, round(rest / n)))
        if even <= t.size and ok[even - 1]:
            n = even
        if cost[n - 1] < al.size:
            lo, hi, k = t[:n].min(), t[:n].max(), int(nodes[n - 1])
            theta = (np.arange(k) + 0.5) * (np.pi / k)
            x = lo / 2 + hi / 2 + (hi / 2 - lo / 2) * np.cos(theta)
            w = np.sin(theta) * (-1.0) ** np.arange(k)
        else:
            n = k = min(_T_CHUNK, t.size)
            x, w = t[:n], None
        t = t[:n]
        e = _phase_block(x, al - mid, out=phase)
        e *= spec.weights
        acc = np.empty((n, v.shape[1]))
        for rows, p in _interpolated_abs2(t, x, w, e.sum(axis=1)):
            acc[rows] = p @ v[:1]
        for m0 in range(0, om.size, nm):
            kb = np.subtract.outer(om[m0 : m0 + nm], al, out=kern[: min(nm, om.size - m0)])
            np.divide(1.0, kb, out=kb)
            a = np.matmul(e, kb.T, out=amp[: 2 * k, : kb.shape[0]])
            for rows, p in _interpolated_abs2(t, x, w, a):
                acc[rows] += p @ vg[m0 : m0 + nm]
        out[:, i0 : i0 + n] = acc.T
        i0 += n
    return out


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix, O(N^2 K + N K T) for T times on K node times."""
    return _row0_contract(spec, _times(times), occ0.vector[:, None])[0]


def population_decomposition(
    spec: Spectrum, occ0: InitialOccupations, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oscillator occupation over an array of times, split into what
    survives and what arrives:

        <N_Omega(t)> = |A(t)|^2 N_Omega(0) + sum_n P_Omega,n(t) N_n(0).

    Returns (total, surviving, influx) arrays; total is the full row-0
    contraction, so surviving + influx matches it to rounding.
    """
    n0 = occ0.vector
    v = np.zeros((n0.size, 3))
    v[:, 0], v[0, 1], v[1:, 2] = n0, n0[0], n0[1:]
    return tuple(_row0_contract(spec, _times(times), v))
