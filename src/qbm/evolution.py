"""Exact reduced dynamics in the one-excitation sector.

All time dependence enters through the eigenmode phases exp(-i alpha_nu t).
With C the orthogonal overlap matrix (rows = eigenmodes, column 0 = the
distinguished oscillator) the propagator restricted to the sector is

    U(t) = C^T diag(exp(-i alpha t)) C,

and P_nm(t) = |U_nm(t)|^2 is a doubly stochastic matrix of transition
probabilities.  Mean occupations evolve classically through it:

    <N_n(t)> = sum_m P_nm(t) <N_m(0)>.

`population_series` evaluates this with the dense P(t) at each time, O(N^3)
per time: the reference for the row-0 kernel (_row0_contract) behind
`oscillator_population` and `population_decomposition`.

That kernel needs only U_0m(t) = sum_nu K_num e^{-i alpha_nu t}, K_nu0 =
w_nu and K_num = w_nu g_m / (alpha_nu - omega_m): g_m^2 moves onto the
occupations, and a column's sign and the band-centre phase drop out of
|U_0m|^2.  On langevin's node-time phase kernel, the Cauchy product of the
cos and sin rows of alpha - abar against 1/(omega_m - alpha_nu) is taken at
a run's K node times, not its T times, O(K N (n_near + p)), box by box on
the boxes and tree the spectrum keeps (spectrum).  Outer roots and near
pairs are summed exactly, a root box's factor (spectrum._box_rows) formed
at its first target box and freed after its last.  The far field goes
through the p proxies of each box: the root boxes are anterpolated onto
theirs, _far takes the potentials phi to every box's on the tree, in even
chunks of the 2 K rows of at most _SWEEP_CELLS charges (two at fewest), and
a box's (B, p) barycentric matrix b carries them to its modes.  The product
is never held: each box's columns s, weighted by the occupations, are
folded into a K x K Gram matrix per half of the rows, O(N K^2) (on a run of
its own times, their squares into one value a time), and each of the T
times takes a quadratic form in its barycentric row, O(K^2 T).  A run whose
2 K (N+1) rows fit _PHASE_CELLS makes one pass: a root box is anterpolated
when its factor, in a slot of the worker's buffer, is formed, and each box
with a far field keeps X = s vg b and M = b^T vg b, (2 K, p) and (p, p),
until the sweep gives phi.  A larger run takes two passes and holds no X:
the root boxes are anterpolated and swept first and met again in a window
that slides past the target boxes, phi b^T added to each s.  The survival
amplitude, from the moments on the same node-time kernel, is the (0,0)
element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .langevin import _check_phases, _node_sums, _times, moment_signal
from .model import InitialOccupations
from .spectrum import Spectrum, _barycentric, _box_rows, _far, _m2l, _phase_rows, overlap_matrix

_PHASE_CELLS = 1 << 21  # most 2 K (N+1) row entries of a one-pass run, and K (N+1) of any run
_SWEEP_CELLS = 1 << 16  # most entries leaves x rows x proxies of one tree sweep
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


def _occupations(spec: Spectrum, occ0: InitialOccupations) -> np.ndarray:
    """occ0's vector of N+1 occupations; InvalidValue unless its length is the spectrum's."""
    n0 = occ0.vector
    if n0.size != spec.n_levels:
        raise InvalidValue(f"occupations of {n0.size} levels given for a spectrum of {spec.n_levels} levels")
    return n0


def population_series(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """Occupation vectors <N_n(t)> = sum_m P_nm(t) N_m(0) over an array of
    times, shape (N+1, len(times)), from the dense propagator at each time.
    O(N^3) per time: the reference the row-0 kernel is checked against."""
    ts, n0 = _times(times), _occupations(spec, occ0)
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
    """sum_m P_{Omega,m}(t) v[m] at the times ts for v >= 0 of length N+1
    (module docstring).  Per run the boxes' columns, column 0 last, go into
    the Gram matrices, then a kept run's far field as phi X^T + X phi^T +
    phi M phi^T = Z phi^T + phi Z^T, Z = X + phi M / 2."""
    al, w, om = spec.alphas, spec.weights, spec.bath.omegas
    cm, cr, near, px, pw, levels = spec.boxes  # built here, not in a worker, if the spectrum was made directly
    vg = v * np.append(1.0, spec.bath.couplings**2)  # >= 0: sqrt(vg) is real
    n, p, boxed, far = len(px), pw.size, near[1:-1, 1:-1], ~near[1:-1].all(axis=1)
    abar, roots, n_far = al[0] / 2 + al[-1] / 2, np.diff(cr[1:-1]), int(np.count_nonzero(far))
    z = lambda j: al[cr[j + 1] : cr[j + 2]] - abar  # root box j's frequencies less abar
    k_outer = w[[0, -1]] / np.subtract.outer(om, al[[0, -1]])
    # a root box's factor is formed at its first target box and freed after its last
    first, last = boxed.argmax(axis=0), n - 1 - boxed[::-1].argmax(axis=0)
    made, done = first * n + np.arange(n), last * n + np.arange(n)  # in (target, box) order
    at_once = max(np.searchsorted(np.sort(made), made, "right") - np.searchsorted(np.sort(done), made))

    def contract(buffer, x, on_nodes):
        k, keep, box_rows = x.size, 2 * x.size * spec.n_levels <= _PHASE_CELLS, _box_rows(x)
        g, ms = np.zeros((2, k, k) if on_nodes else (2, k)), []
        xs = np.empty((2, k, n_far, p)) if keep else None  # X per box with a far field
        outer = _phase_rows(x, al[[0, -1]] - abar)
        total = outer @ w[[0, -1]]
        sweeps = max(2, -(-2 * k // max(1, _SWEEP_CELLS // (n * p))))
        cuts, c = [2 * k * i // sweeps for i in range(sweeps + 1)], -(-2 * k // sweeps)
        pq = np.empty((n, 2 * k + c, p))  # [phi; q cos; q sin]

        def anterpolate(j, f):  # root box j's rows f onto its proxies, and into column 0
            b = _barycentric(al[(r0 := cr[j + 1]) : (r1 := cr[j + 2])], px[j], pw)
            pq[j, c:] = f(np.multiply(b, w[r0:r1, None], out=b))
            total[:] += f(w[r0:r1])

        def sweep():  # the potentials phi at every box's proxies, in even chunks of the rows
            tree = _m2l(levels)  # held through the sweeps only
            for r0, r1 in zip(cuts, cuts[1:]):
                _far(tree, pq[:, c + r0 : c + r1], out=pq[:, r0:r1])

        def gram(s, vs):  # the columns s, weighted by vs, into each half's Gram matrix
            s3 = s.reshape(2, k, -1)
            if on_nodes:
                t = np.multiply(s3, np.sqrt(vs), out=s3)
                for h in (0, 1):  # a half at a time: half the product's temporary
                    g[h] += t[h] @ t[h].T
            else:  # |U_0m|^2 = cos part^2 + sin part^2, squared in place
                g[:] += np.square(s3, out=s3) @ vs

        cells, held = max(box_rows.cells(z(j)) for j in range(n)) if keep else 0, {}
        if not keep:  # two passes: every root box anterpolated first
            for j in range(n):
                anterpolate(j, box_rows(z(j)))
            sweep()
        area = buffer(cells * at_once + int(np.diff(cm[1:-1]).max() * roots.max()))
        *free, block = np.split(area, cells * np.arange(1, at_once + 1))  # the slots, the near block
        for i, (m0, m1) in enumerate(zip(cm[1:-2].tolist(), cm[2:-1].tolist())):
            s = outer @ k_outer[m0:m1].T
            for j in np.flatnonzero(boxed[i]).tolist():  # each near root box's block
                if first[j] == i:  # on one pass, in a slot and anterpolated
                    e = free.pop()
                    held[j] = e, box_rows(z(j), (lambda cells: e[:cells]) if keep else np.empty)
                    if keep:
                        anterpolate(j, held[j][1])
                r0, r1 = cr[j + 1], cr[j + 2]
                d = block[: (m1 - m0) * (r1 - r0)].reshape(m1 - m0, -1)
                s += held[j][1](np.divide(w[r0:r1], np.subtract.outer(om[m0:m1], al[r0:r1], out=d), out=d).T)
                if last[j] == i:
                    free.append(held.pop(j)[0])
            if far[i]:  # phi_i b^T, b the box's barycentric matrix from its proxies
                b = _barycentric(om[m0:m1], px[i], pw)
                if keep:  # X = s vg b and M = b^T vg b, for phi after the sweep
                    u = vg[m0 + 1 : m1 + 1, None] * b
                    xs[:, :, len(ms)] = s.reshape(2, k, -1) @ u
                    ms.append(b.T @ u)
                else:
                    s += pq[i, : 2 * k] @ b.T
            gram(s, vg[m0 + 1 : m1 + 1])
        gram(total, vg[:1])
        if ms:  # a kept run's far field
            sweep()
            phi = np.stack([pq[i, : 2 * k].reshape(2, k, -1) for i in np.flatnonzero(far)], 2).reshape(2, k, -1)
            del pq  # as phi is stacked, not on the far field's peak
            for q, mb in enumerate(ms):  # Z = X + phi M / 2, box by box
                xs[:, :, q] += phi[..., q * p : (q + 1) * p] @ mb / 2
            xs = xs.reshape(2, k, -1)  # all boxes in one product
            a = xs @ phi.transpose(0, 2, 1) if on_nodes else np.sum(xs * phi, axis=-1)
            g += a + (a.transpose(0, 2, 1) if on_nodes else a)
        return g if on_nodes else g[..., None]  # own times: _node_sums slices axis -2

    def carry(a, b):  # the halves summed; b G b^T, row by row of b
        a = a[0] + a[1]
        return a.T if b is None else np.multiply(q := b @ a, b, out=q).sum(axis=1)

    return _node_sums(spec, ts, _row0_price(spec.n_levels), contract, carry, np.empty((1, ts.size)))[0]


def oscillator_population(spec: Spectrum, occ0: InitialOccupations, times) -> np.ndarray:
    """<N_Omega(t)> over an array of times.  Uses only row 0 of the
    transition matrix: for T times on K node times, the boxed Cauchy
    product's O(K N (n_near + p)), O(N K^2) Gram and O(K^2 T) carry
    flops."""
    return _row0_contract(spec, _times(times), _occupations(spec, occ0))


def population_decomposition(
    spec: Spectrum, occ0: InitialOccupations, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oscillator occupation over an array of times, split into what
    survives and what arrives:

        <N_Omega(t)> = |A(t)|^2 N_Omega(0) + sum_{n>=1} P_Omega,n(t) N_n(0).

    Returns (total, surviving, influx): surviving is
    survival_probability(spec, t) N_Omega(0), influx the row-0 kernel on
    the occupations [0, N_1(0), ..., N_N(0)], and total = surviving + influx.
    """
    ts, n0 = _times(times), _occupations(spec, occ0)
    surviving = survival_probability(spec, ts) * n0[0]
    influx = _row0_contract(spec, ts, np.append(0.0, n0[1:]))
    return surviving + influx, surviving, influx
