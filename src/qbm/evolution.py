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
K ~ r h Chebyshev node times reproduces it to rounding.  The Cauchy
product against 1/(omega_m - alpha_nu) runs on the K node times, not the T
grid times, and is a single-level fast multipole sum (Greengard & Rokhlin,
J. Comput. Phys. 73, 1987) with Chebyshev proxies (Fong & Darve, J. Comput.
Phys. 228, 2009): boxes of B modes that lie close are summed exactly, far
ones through p proxies per box, O(K (N n_near + N p + (N p / B)^2) + N K T)
in all, n_near ~ 3 B on an even bath.  The second (true) barycentric form
(Berrut & Trefethen, SIAM Rev. 46, 2004) is taken on the node times as
rounded, the times the phases were computed at, so rounding the nodes
leaves no error floor.

The survival amplitude of the oscillator is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .langevin import _check_phases, _phase_block, _times, moment_signal
from .model import InitialOccupations
from .spectrum import Spectrum, overlap_matrix

_T_CHUNK = 512  # most node times per phase block of the row-0 kernel
_T_SPAN = 8192  # most grid times one run of the kernel looks ahead
_BOX = 128  # bath modes per box of the row-0 kernel's Cauchy product
_PROXIES = 20  # Chebyshev proxies per box for the far field
_CELLS = 1 << 18  # most entries in one interpolation block
# K = r h + 12 (r h)^(1/3) + 4 nodes: 4 sum_{k>=K} |J_k(r h)| < 1e-17 bounds
# the Chebyshev tail of exp(-i beta x), |beta| <= r h, on [-1, 1]
_NODE_MARGIN = (12.0, 4.0)


def survival_probability(spec: Spectrum, t) -> np.ndarray:
    """|A(t)|^2 over an array of times (a scalar is one time), with
    A(t) = moment_signal(spec, 0, t)."""
    return np.abs(moment_signal(spec, 0, t)) ** 2


def transition_probabilities(spec: Spectrum, t: float) -> np.ndarray:
    """P_nm(t) = |U_nm(t)|^2 for all N+1 levels at one time t (a scalar or
    a length-1 array), an (N+1) x (N+1) array (row n: target level, column
    m: source; index 0 is the oscillator), from the spectral propagator in
    one O(N^3) product."""
    ts = _times(t)
    if ts.size != 1:
        raise InvalidValue(f"transition_probabilities takes one time, got {ts.size}")
    _check_phases(ts, spec.alphas)
    c = overlap_matrix(spec)
    u = c.T @ (np.exp(-1j * spec.alphas * ts[0])[:, None] * c)
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


def _chebyshev(lo, hi, k):
    """k Chebyshev points of the first kind on [lo, hi] (broadcast over
    arrays of intervals) and their barycentric weights (-1)^j sin(theta_j)."""
    theta = (np.arange(k) + 0.5) * (np.pi / k)
    x = lo / 2 + hi / 2 + (hi / 2 - lo / 2) * np.cos(theta)
    return x, np.sin(theta) * (-1.0) ** np.arange(k)


def _barycentric(t, x, w):
    """Matrix (len(t), K) that carries values at the K nodes x to the points
    t by the second barycentric form with weights w (Berrut & Trefethen);
    a point equal to a node takes its value."""
    d = np.subtract.outer(t, x)
    hit = d == 0.0
    d[hit] = 1.0
    b = np.divide(w, d, out=d)
    on_node = hit.any(axis=1)
    b[on_node] = hit[on_node]
    b /= b.sum(axis=1, keepdims=True)
    return b


def _interpolated_abs2(t, x, w, a):
    """(rows, |u|^2) per block of times t, u = a[:K] - i a[K:] at the K
    nodes x, by the barycentric interpolant with weights w (None: the times
    are the nodes); a block holds at most _CELLS entries per array."""
    a = a.reshape(2, x.size, -1)
    step = max(1, _CELLS // max(x.size, a.shape[2]))
    for j in range(0, t.size, step):
        if w is None:
            u = np.square(a[:, j : j + step])
        else:
            u = _barycentric(t[j : j + step], x, w) @ a
            np.square(u, out=u)
        yield slice(j, j + step), np.add(u[0], u[1], out=u[0])


def _cauchy(e, al, om):
    """e @ (1 / (om_m - al_nu))^T, shape (len(e), N), for the N + 1 sorted
    roots al and N sorted modes om.  Box j holds om[jB : (j+1)B] and
    al[jB : (j+1)B] (the last box also al[N]), B = _BOX, and spans the
    interval from its least to its greatest member.  Two boxes are far when
    the gap between them is at least the wider one's width, near otherwise:
    distance, not index, decides, so a box that a gap in the bath or an
    outlying edge root widens stays near every box its width reaches.  Near
    pairs are summed exactly; a far pair goes through p = _PROXIES
    Chebyshev proxies per box: the charges are anterpolated onto their
    box's proxies, the proxies meet in a p x p Cauchy product and the
    barycentric interpolant carries the proxy potentials to the modes.
    Per row 2 N n_near + 4 N p + 2 (N p / B)^2 flops, n_near the near
    columns per mode (about 3 B on an even bath); one box (N <= B) is the
    dense product."""
    cut = np.append(np.arange(0, om.size, _BOX), om.size)
    ca = np.append(cut[:-1], al.size)
    lo = np.minimum(al[ca[:-1]], om[cut[:-1]])
    hi = np.maximum(al[ca[1:] - 1], om[cut[1:] - 1])
    gap = np.subtract.outer(lo, hi)
    gap = np.maximum(gap, gap.T)
    near = gap < np.maximum.outer(hi - lo, hi - lo)
    px, pw = _chebyshev(lo[:, None], hi[:, None], _PROXIES)
    if not near.all():
        anterp = (e[:, a0:a1] @ _barycentric(al[a0:a1], p, pw) for a0, a1, p in zip(ca, ca[1:], px))
        q = np.concatenate(list(anterp), axis=1)
    out, sizes = np.empty((e.shape[0], om.size)), np.diff(ca)
    for j, (m0, m1) in enumerate(zip(cut, cut[1:])):
        src = np.repeat(near[j], sizes)
        a = e[:, src] @ (1.0 / np.subtract.outer(om[m0:m1], al[src])).T
        if not near[j].all():
            d = np.subtract.outer(px[j], px.ravel())
            d[:, np.repeat(near[j], _PROXIES)] = np.inf
            a += (q @ np.divide(1.0, d, out=d).T) @ _barycentric(om[m0:m1], px[j], pw).T
        out[:, m0:m1] = a
    return out


def _node_runs(ts, r, n_levels):
    """(i0, t, x, w) per run: the times ts are cut, in order, into runs
    t = ts[i0 : i0 + n], each evaluated on K = r h + 12 (r h)^(1/3) + 4
    Chebyshev nodes x with barycentric weights w or, where those save no
    flops (K (n_levels + n) / n >= n_levels per time), on its own times
    (x = t, w None); runs take the cheapest length, spread evenly, with at
    most _T_CHUNK nodes."""
    i0 = 0
    while i0 < ts.size:
        t, rest = ts[i0 : i0 + _T_SPAN], ts.size - i0
        rh = r * (np.maximum.accumulate(t) / 2 - np.minimum.accumulate(t) / 2)
        nodes = np.ceil(rh + _NODE_MARGIN[0] * np.cbrt(rh) + _NODE_MARGIN[1])
        sizes = np.arange(1, t.size + 1)
        ok = (nodes < sizes) & (nodes <= _T_CHUNK)
        cost = np.where(ok, nodes * (n_levels + sizes) / sizes, np.inf)
        n = int(np.argmin(cost)) + 1
        # equal runs over the times left, so no short last run pays for a Cauchy product
        even = -(-rest // max(1, round(rest / n)))
        if even <= t.size and ok[even - 1]:
            n = even
        if cost[n - 1] < n_levels:
            x, w = _chebyshev(t[:n].min(), t[:n].max(), int(nodes[n - 1]))
        else:
            n = min(_T_CHUNK, t.size)
            x, w = t[:n], None
        yield i0, t[:n], x, w
        i0 += n


def _row0_contract(spec: Spectrum, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m P_{Omega,m}(t) v[m, k] for each column k of v, shape (k, T).
    Row 0 of U(t) is U_0m = sum_nu K_num e^{-i alpha_nu t}, K_nu0 = w_nu and
    K_num = w_nu g_m / (alpha_nu - omega_m) (g_m^2 moves onto v; a column's
    sign drops out of |U_0m|^2).  Per run of times from _node_runs one real
    phase block [w cos(x (alpha - abar)); w sin(x (alpha - abar))] at the K
    nodes meets 1/(omega_m - alpha_nu) in the boxed product _cauchy, and
    barycentric weights carry U_0m to the n times (4 N K n flops).  The
    phase block is sized to the most nodes a run uses; the rest is bounded
    in N and T."""
    al, om = spec.alphas, spec.bath.omegas
    _check_phases(ts, al)
    mid, r = al[0] / 2 + al[-1] / 2, al[-1] / 2 - al[0] / 2
    vg = v[1:] * (spec.bath.couplings**2)[:, None]
    out = np.empty((v.shape[1], ts.size))
    runs = list(_node_runs(ts, r, al.size))
    phase = np.empty((2 * max((x.size for _, _, x, _ in runs), default=0), al.size))
    for i0, t, x, w in runs:
        e = _phase_block(x, al - mid, out=phase)
        e *= spec.weights
        acc = np.empty((t.size, v.shape[1]))
        for rows, p in _interpolated_abs2(t, x, w, e.sum(axis=1)):
            acc[rows] = p @ v[:1]
        for rows, p in _interpolated_abs2(t, x, w, _cauchy(e, al, om)):
            acc[rows] += p @ vg
        out[:, i0 : i0 + t.size] = acc.T
    return out


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix: for T times on K node times, O(K N n_near) near-field,
    O(K N p) proxy, O(K (N p / B)^2) proxy-to-proxy and O(N K T)
    interpolation flops (boxes of B modes with p Chebyshev proxies each,
    n_near ~ 3 B exactly summed columns per mode on an even bath)."""
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
