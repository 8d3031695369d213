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
That kernel needs only row 0, U_0m(t) = sum_nu K_num exp(-i alpha_nu t),
and runs on the node-time phase kernel of langevin (|U_0m|^2 does not see
the band-centre phase): the Cauchy product against 1/(omega_m - alpha_nu)
runs on the K node times, not the T grid times, and is a single-level fast
multipole sum (Greengard & Rokhlin, J. Comput. Phys. 73, 1987) with
Chebyshev proxies (Fong & Darve, J. Comput. Phys. 228, 2009) on the boxes
of spectrum._boxes, the helper behind the secular solve's sums: boxes of B
modes that lie close are summed exactly, far ones through p proxies per
box, O(K (N n_near + N p + (N p / B)^2)), n_near ~ 3 B on an even bath.
Its K x K Gram matrix, O(N K^2), turns the population at each of the T
times into a quadratic form in that time's barycentric row, O(K^2 T) in
all.  The survival amplitude, on the same kernel, is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .langevin import _check_phases, _node_sums, _times, moment_signal
from .model import InitialOccupations
from .spectrum import _PROXIES, Spectrum, _barycentric, _boxes, overlap_matrix


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


def _cauchy(e, al, om):
    """[e.sum(axis=1), e @ (1 / (om_m - al_nu))^T], shape (len(e), N + 1),
    for the N + 1 sorted roots al and N sorted modes om, on the boxes of
    spectrum._boxes.  Near pairs are summed exactly; a far pair goes through
    p = _PROXIES Chebyshev proxies per box: the charges are anterpolated
    onto their box's proxies, the proxies meet in a p x p Cauchy product and
    the barycentric interpolant carries the proxy potentials to the modes.
    Per row 2 N n_near + 4 N p + 2 (N p / B)^2 flops, n_near the near
    columns per mode (about 3 B on an even bath); all near is dense."""
    cm, cr, near, px, pw = _boxes(al, om)
    if not near.all():
        anterp = (e[:, a0:a1] @ _barycentric(al[a0:a1], p, pw) for a0, a1, p in zip(cr, cr[1:], px))
        q = np.concatenate(list(anterp), axis=1)
    out, sizes = np.empty((e.shape[0], om.size + 1)), np.diff(cr)
    out[:, 0] = e.sum(axis=1)
    for j in range(1, near.shape[0] - 1):  # the edge boxes hold no modes
        m0, m1 = cm[j], cm[j + 1]
        src = np.repeat(near[j], sizes)
        a = e[:, src] @ (1.0 / np.subtract.outer(om[m0:m1], al[src])).T
        if not near[j].all():
            d = np.subtract.outer(px[j], px.ravel())
            d[:, np.repeat(near[j], _PROXIES)] = np.inf
            a += (q @ np.divide(1.0, d, out=d).T) @ _barycentric(om[m0:m1], px[j], pw).T
        out[:, m0 + 1 : m1 + 1] = a
    return out


def _row0_contract(spec: Spectrum, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m P_{Omega,m}(t) v[m, k] for each column k of v, shape (k, T).
    Row 0 of U(t) is U_0m = sum_nu K_num e^{-i alpha_nu t}, K_nu0 = w_nu and
    K_num = w_nu g_m / (alpha_nu - omega_m) (g_m^2 moves onto v; a column's
    sign drops out of |U_0m|^2, and so does the band-centre phase).  The
    node-run kernel contracts its phase block with the boxed product
    _cauchy, column 0 the plain sum.  On a node run, that product [a_c; a_s]
    scaled by sqrt(v g^2) gives a K x K Gram matrix G = a_c a_c^T + a_s a_s^T
    per column of v, and the times take b G b^T, b their barycentric rows;
    on a run of its own times |U_0m|^2 meets v g^2 directly."""
    vg = v * np.append(1.0, spec.bath.couplings**2)[:, None]  # >= 0: sqrt(vg) is real

    def contract(e, on_nodes):
        a, k = _cauchy(e, spec.alphas, spec.bath.omegas), e.shape[0] // 2
        if not on_nodes:  # |U_0m|^2 = cos part^2 + sin part^2, squared and added in place
            np.square(a, out=a)
            return np.add(a[:k], a[k:], out=a[:k]) @ vg
        g = np.empty((vg.shape[1], k, k))
        for c, root in enumerate(np.sqrt(vg).T):  # the last column scales a in place
            s = np.multiply(a, root, out=a if c == vg.shape[1] - 1 else None)
            g[c] = s[:k] @ s[:k].T + s[k:] @ s[k:].T
        return g

    def carry(a, b):  # b G b^T, row by row of b, for each G
        return a.T if b is None else np.multiply(q := b @ a, b, out=q).sum(axis=2)

    return _node_sums(spec, ts, contract, carry, np.empty((v.shape[1], ts.size)))


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix: for T times on K node times, O(K N n_near) near-field,
    O(K N p) proxy, O(K (N p / B)^2) proxy-to-proxy, O(N K^2) Gram and
    O(K^2 T) carry flops (boxes of B modes with p Chebyshev proxies each,
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
