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
the boxes and tree the spectrum keeps (spectrum).  Near pairs are summed
exactly, a root box's factor (spectrum._box_rows) formed where a target
box needs it and it is not held, and freed after a target box from which
no later one that needs it is reached through consecutive uses, so formed
again after a gap; alpha_0 and alpha_N, near every box,
share one factor a run (their own rows).  The far field goes through the p
proxies of each box: the root boxes are anterpolated onto theirs, _far
takes the potentials phi to every box's on the tree, each chunk's over its
charges, in even chunks of the 2 K rows of at most _SWEEP_CELLS charges
(two at fewest), and a box's (B, p) barycentric matrix b carries them to
its modes.  The product is never held: each box's columns s, weighted by
the occupations, are folded into a K x K Gram matrix per half of the rows,
O(N K^2) (on a run of its own times, their squares into one value a time),
and each of the T times takes a quadratic form in its barycentric row,
O(K^2 T).  At a root box's first use its rows go into column 0 and its
charges are formed, on either pass.  A run whose 2 K (N+1) rows fit
_PHASE_CELLS makes one pass: the target boxes near a root box use it and
need its factor, its charges wait for the sweep, and each box with a far
field keeps X = s vg b and M = b^T vg b, (2 K, p) and (p, p), until the
sweep gives phi.  A larger run takes two passes and holds no X: the first
only sums each root box's charges onto its parent's and sweeps them from
the tree's level 1 up; the second slides a window past the target boxes and
holds a box's charges from its first use to its last, where those in a leaf
far pair with it (the leaves' m2l) use it too and its first use needs its
factor.  A box's phi is its parent's, carried down, plus its leaf far
pairs' q / (x - y), and phi b^T is added to its s.  The survival
amplitude, from the moments on the same node-time kernel, is the (0,0)
element

    A(t) = sum_nu w_nu exp(-i alpha_nu t),

whose short-time expansion 1 - |A|^2 = (sum_n g_n^2) t^2 + O(t^4) gives the
quadratic (Zeno) onset of decay.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .langevin import _check_phases, _node_sums, moment_signal
from .model import InitialOccupations, _reals
from .spectrum import Spectrum, _barycentric, _box_rows, _far, _m2l, overlap_matrix

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
    ts = _reals(t, "times")
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
    ts, n0 = _reals(times, "times"), _occupations(spec, occ0)
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
    # by keep, the target boxes (rows) that use root box j: those near it, and on a windowed run those
    # it forms a leaf far pair with.  Unless held, its factor is formed at a use that needs it (near it,
    # or its first: its charges) and freed after one with none ahead: ahead[i, j] if a target box at or
    # after i is near it and reached from i through consecutive uses (a row of False past the last box)
    use, box = np.stack((boxed, boxed)), np.arange(n)
    for tb, sb in levels[0][2] if levels else ():
        use[0, box[tb], box[sb]] = True
    first, last = use.argmax(axis=1), n - 1 - use[:, ::-1].argmax(axis=1)
    ahead = np.append(use & boxed, np.zeros((2, 1, n), bool), axis=1)
    for i in reversed(range(n)):
        ahead[:, i] |= ahead[:, i + 1] & use[:, i]
    plans = list(zip(use, first, last, ahead))  # by keep

    def contract(buffer, x, on_nodes):
        k, keep, box_rows = x.size, 2 * x.size * spec.n_levels <= _PHASE_CELLS, _box_rows(x)
        window, first, last, ahead = plans[keep]
        g, ms = np.zeros((2, k, k) if on_nodes else (2, k)), []
        xs = np.empty((2, k, n_far, p)) if keep else None  # X per box with a far field
        outer = box_rows(al[[0, -1]] - abar)  # alpha_0's and alpha_N's own rows
        total = outer(w[[0, -1]])
        sweeps = max(2, -(-2 * k // max(1, _SWEEP_CELLS // (n * p))))
        cuts = [2 * k * i // sweeps for i in range(sweeps + 1)]
        # [q cos; q sin] per box, the sweep's phi in their place; a windowed run's per parent box, zeroed for
        # its children's sums
        pq = np.empty((n, 2 * k, p)) if keep else np.zeros((-(-n // 2), 2 * k, p))

        def charges(j, f):  # root box j's rows f on its proxies
            b = _barycentric(al[(r0 := cr[j + 1]) : (r1 := cr[j + 2])], px[j], pw)
            return f(np.multiply(b, w[r0:r1, None], out=b))

        def sweep(levels):  # the potentials phi at the levels' boxes' proxies, in even chunks of the rows
            tree = _m2l(levels)  # held through the sweeps only
            for r0, r1 in zip(cuts, cuts[1:]):
                pq[:, r0:r1] = _far(tree, pq[:, r0:r1])

        def gram(s, vs):  # the columns s, weighted by vs, into each half's Gram matrix
            s3 = s.reshape(2, k, -1)
            if on_nodes:
                t = np.multiply(s3, np.sqrt(vs), out=s3)
                for h in (0, 1):  # a half at a time: half the product's temporary
                    g[h] += t[h] @ t[h].T
            else:  # |U_0m|^2 = cos part^2 + sin part^2, squared in place
                g[:] += np.square(s3, out=s3) @ vs

        held, qs = {}, {}  # root box j's factor and, on two passes, its charges
        if not keep and levels:  # two passes: every root box's charges summed onto its parent's first
            for j in range(n):
                pq[j // 2] += charges(j, box_rows(z(j))) @ levels[0][0][j]
            if levels[1:]:
                sweep(levels[1:])
        block = buffer(int(np.diff(cm[1:-1]).max() * roots.max()))  # the near block
        for i, (m0, m1) in enumerate(zip(cm[1:-2].tolist(), cm[2:-1].tolist())):
            s = outer((w[[0, -1]] / np.subtract.outer(om[m0:m1], al[[0, -1]])).T)  # their near block
            if far[i] and not keep:  # phi_i: its parent's, then its leaf far pairs' q_j 1/(x_i - y_j)
                phi = pq[i // 2] @ levels[0][0][i].T if levels[1:] else 0.0  # none above the top
            for j in np.flatnonzero(window[i]).tolist():  # each root box that it uses
                if j not in held and (boxed[i, j] or first[j] == i):  # root box j's factor
                    held[j] = box_rows(z(j))
                if first[j] == i:  # its rows into column 0; its charges, on two passes held to its last use
                    total[:] += held[j](w[cr[j + 1] : cr[j + 2]])
                    (pq if keep else qs)[j] = charges(j, held[j])
                r0, r1 = cr[j + 1], cr[j + 2]
                if boxed[i, j]:
                    d = block[: (m1 - m0) * (r1 - r0)].reshape(m1 - m0, -1)
                    s += held[j](np.divide(w[r0:r1], np.subtract.outer(om[m0:m1], al[r0:r1], out=d), out=d).T)
                else:  # in ascending j, the order of _far's m2l groups: its bytes
                    phi += qs[j] @ (1.0 / (px[i] - px[j][:, None]))
                if not ahead[i + 1, j]:
                    held.pop(j, None)
                if last[j] == i:
                    qs.pop(j, None)
            if far[i]:  # phi_i b^T, b the box's barycentric matrix from its proxies
                b = _barycentric(om[m0:m1], px[i], pw)
                if keep:  # X = s vg b and M = b^T vg b, for phi after the sweep
                    u = vg[m0 + 1 : m1 + 1, None] * b
                    xs[:, :, len(ms)] = s.reshape(2, k, -1) @ u
                    ms.append(b.T @ u)
                else:
                    s += phi @ b.T
            gram(s, vg[m0 + 1 : m1 + 1])
        gram(total, vg[:1])
        if ms:  # a kept run's far field
            sweep(levels)
            phi = np.stack([pq[i].reshape(2, k, -1) for i in np.flatnonzero(far)], 2).reshape(2, k, -1)
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
    return _row0_contract(spec, _reals(times, "times"), _occupations(spec, occ0))


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
    ts, n0 = _reals(times, "times"), _occupations(spec, occ0)
    surviving = survival_probability(spec, ts) * n0[0]
    influx = _row0_contract(spec, ts, np.append(0.0, n0[1:]))
    return surviving + influx, surviving, influx
