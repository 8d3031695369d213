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
runs on the K node times, not the T grid times, as spectrum._cauchy, on
the boxes and tree the solve built, which the spectrum keeps (both
described in spectrum), root box by root box, through Chebyshev proxy
frequencies of its own where fewer than its roots.  The product is never
held: it is folded box by box into a K x K Gram matrix per half of the
phase rows, O(N K^2), and the population at each of the T times is a
quadratic form in that time's barycentric row, O(K^2 T) in all.  A run
whose rows fit _PHASE_CELLS makes one pass, its far field met after the
tree sweep through a (2K, p) and a (p, p) factor per box.  The survival
amplitude, on the same kernel, is the (0,0) element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .langevin import _check_phases, _node_sums, _times, moment_signal
from .model import InitialOccupations
from .spectrum import _PROXIES, Spectrum, _cauchy, overlap_matrix

_PHASE_CELLS = 1 << 21  # most 2 K (N+1) row entries of a one-pass run, and K (N+1) of any run
_CELLS = 1 << 16  # most entries in a carry block


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


def _row0_price(n):
    """The row-0 kernel's price of a run for langevin._node_runs, fitted in
    phase entries: (158 + K + 0.0098 K^2) (N+1) a run and 0.83 K + 0.002 K^2
    a time; carry blocks of _CELLS, and K (N+1) <= _PHASE_CELLS."""
    return (lambda k, h: (158 + k + 0.0098 * k * k) * n), (0.83, 0.002), _CELLS, _PHASE_CELLS // n


def _row0_contract(spec: Spectrum, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_m P_{Omega,m}(t) v[m, k] for each column k of v, shape (k, T).
    Row 0 of U(t) is U_0m = sum_nu K_num e^{-i alpha_nu t}, K_nu0 = w_nu and
    K_num = w_nu g_m / (alpha_nu - omega_m) (g_m^2 moves onto v; a column's
    sign drops out of |U_0m|^2, and so does the band-centre phase).  A run's
    cos and sin rows meet the boxed product _cauchy on the spectrum's boxes,
    folded in box by box: on a node run each block s, scaled by sqrt(v g^2),
    adds s s^T to its half's K x K Gram matrix per column of v; on a run of
    its own times its squares meet v g^2; a kept run's far field phi b^T
    meets them after the sweep through X = s vg b and M = b^T vg b.  The
    carry sums the halves to G, and the times take b G b^T, b their rows."""
    cols = v.shape[1]
    vg = v * np.append(1.0, spec.bath.couplings**2)[:, None]  # >= 0: sqrt(vg) is real
    spec.boxes  # built here, not in a worker, if the spectrum was made directly
    far = int(np.count_nonzero(~spec.boxes[2][1:-1].all(axis=1)))  # middle boxes with a far box

    def contract(buffer, x, on_nodes):
        k, ms, keep = x.size, [], 2 * x.size * spec.n_levels <= _PHASE_CELLS
        g = np.zeros((2, cols, k, k) if on_nodes else (2, k, cols))
        xs = np.empty((2, cols, k, far, _PROXIES)) if keep else None

        def fold(m0, s, b):
            m1, s3 = m0 + s.shape[1], s.reshape(2, k, -1)
            if b is not None:  # X = s vg b and M = b^T vg b per column, for phi after the sweep
                u = vg[m0:m1].T[:, :, None] * b
                xs[..., len(ms), :] = s3[:, None] @ u
                ms.append(b.T @ u)
            if on_nodes:
                for c, rc in enumerate(np.sqrt(vg[m0:m1]).T):
                    t = np.multiply(s3, rc, out=s3 if c == cols - 1 else None)  # last in place
                    for h in (0, 1):  # a half at a time: half the product's temporary
                        g[h, c] += t[h] @ t[h].T
            else:  # |U_0m|^2 = cos part^2 + sin part^2, squared in place
                g[:] += np.square(s3, out=s3) @ vg[m0:m1]

        phi = _cauchy(buffer, spec, fold, x, keep)
        if ms:  # phi's X phi^T + phi X^T + phi M phi^T = Z phi^T + phi Z^T, Z = X + phi M / 2
            for q, mb in enumerate(ms):  # all boxes in one product
                xs[..., q, :] += phi[:, None, :, q * _PROXIES : (q + 1) * _PROXIES] @ mb / 2
            z, phi = xs.reshape(2, cols, k, -1), phi[:, None]
            a = z @ phi.transpose(0, 1, 3, 2) if on_nodes else np.sum(z * phi, axis=-1).transpose(0, 2, 1)
            g += a + (a.transpose(0, 1, 3, 2) if on_nodes else a)
        return g

    def carry(a, b):  # the halves summed; b G b^T, row by row of b, for each G
        a = a[0] + a[1]
        return a.T if b is None else np.multiply(q := b @ a, b, out=q).sum(axis=2)

    price = _row0_price(spec.n_levels)
    return _node_sums(spec, ts, price, contract, carry, np.empty((cols, ts.size)))


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix: for T times on K node times, the boxed Cauchy
    product's O(K N (n_near + p)), O(N K^2) Gram and O(K^2 T) carry
    flops."""
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
