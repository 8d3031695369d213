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
runs on the K node times, not the T grid times, as spectrum._cauchy (the
boxed sums are described in spectrum).  The product is folded box by box
into a K x K Gram matrix, O(N K^2), and never stored whole; the Gram
matrix turns the population at each of the T times into a quadratic form
in that time's barycentric row, O(K^2 T) in all.  The survival amplitude,
on the same kernel, is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .langevin import _check_phases, _node_sums, _times, moment_signal
from .model import InitialOccupations
from .spectrum import Spectrum, _cauchy, overlap_matrix


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


def _row0_contract(spec: Spectrum, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m P_{Omega,m}(t) v[m, k] for each column k of v, shape (k, T).
    Row 0 of U(t) is U_0m = sum_nu K_num e^{-i alpha_nu t}, K_nu0 = w_nu and
    K_num = w_nu g_m / (alpha_nu - omega_m) (g_m^2 moves onto v; a column's
    sign drops out of |U_0m|^2, and so does the band-centre phase).  The
    node-run kernel contracts its phase block with the boxed product
    _cauchy, column 0 the plain sum, and folds it in box by box.  On a node
    run, each block [s_c; s_s] of that product scaled by sqrt(v g^2) adds
    s_c s_c^T + s_s s_s^T to a K x K Gram matrix G per column of v, and the
    times take b G b^T, b their barycentric rows; on a run of its own times
    |U_0m|^2 meets v g^2 directly."""
    vg = v * np.append(1.0, spec.bath.couplings**2)[:, None]  # >= 0: sqrt(vg) is real

    def contract(e, on_nodes):
        k = e.shape[0] // 2
        g = np.zeros((vg.shape[1], k, k) if on_nodes else (k, vg.shape[1]))
        for m0, a in _cauchy(e, spec.alphas, spec.bath.omegas):
            m1 = m0 + a.shape[1]
            if on_nodes:
                for c, (gc, rc) in enumerate(zip(g, np.sqrt(vg[m0:m1]).T)):
                    s = np.multiply(a, rc, out=a if c == len(g) - 1 else None)  # the last in place
                    gc += s[:k] @ s[:k].T
                    gc += s[k:] @ s[k:].T
            else:  # |U_0m|^2 = cos part^2 + sin part^2, squared in place
                np.square(a, out=a)
                g += (a[:k] + a[k:]) @ vg[m0:m1]
        return g

    def carry(a, b):  # b G b^T, row by row of b, for each G
        return a.T if b is None else np.multiply(q := b @ a, b, out=q).sum(axis=2)

    return _node_sums(spec, ts, contract, carry, np.empty((v.shape[1], ts.size)))


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix: for T times on K node times, the boxed Cauchy
    product's O(K (N n_near + N p + (N p / B)^2)), O(N K^2) Gram and
    O(K^2 T) carry flops."""
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
