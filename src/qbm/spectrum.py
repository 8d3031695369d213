"""Exact diagonalization of the arrowhead Hamiltonian via its secular equation.

Eigenvalues alpha of the one-excitation Hamiltonian are the roots of

    F(alpha) = alpha - omega0 - sum_n g_n^2 / (alpha - omega_n) = 0.

F is strictly increasing between consecutive bath poles and runs from
-inf to +inf on each of the N+1 open intervals

    (-inf, omega_1), (omega_1, omega_2), ..., (omega_N, +inf),

so there is exactly one simple root per interval and the spectrum
interlaces the bath grid:

    alpha_0 < omega_1 < alpha_1 < omega_2 < ... < omega_N < alpha_N.

The normalized eigenvector for root alpha_nu has squared overlap with the
distinguished oscillator

    w_nu = 1 / (1 + sum_n (g_n / (alpha_nu - omega_n))^2) = 1 / F'(alpha_nu)

and bath components c_nu(n) = g_n sqrt(w_nu) / (alpha_nu - omega_n).
Completeness of the eigenbasis gives the moment sum rules

    sum_nu w_nu = 1,
    sum_nu alpha_nu w_nu = omega0,
    sum_nu alpha_nu^2 w_nu = omega0^2 + sum_n g_n^2,

which are exact in exact arithmetic and serve as the standing accuracy
check on any computed spectrum.

Both O(N) routes into the spectral sums are boxed Cauchy sums, a fast
multipole method (Greengard & Rokhlin, J. Comput. Phys. 73, 1987) with
Chebyshev proxies (Fong & Darve, J. Comput. Phys. 228, 2009), on the boxes
that _boxes takes from the bath alone: B modes and roots each by index, and
a box per outer root, near every box, so alpha_0 and alpha_N are always
summed exactly.  Other boxes that lie close are summed exactly, n_near ~ 3 B
columns per mode on an even bath; the rest goes through the tree of the
middle boxes (_tree, _far), whose parents pair two boxes by index, each box
with p proxies.  Charges go up the tree, meet at each level the far boxes
whose parents are near (at most 3 per box on an even bath), and come back
down: O(N p^2 / B) per row.  The secular solve (_secular_parts) sums F and
F' in O(N (n_near + p)) per pass, not O(N^2): its boxes are the bath's,
so the far field of g^2 is taken once per solve.  The spectrum keeps the
boxes and tree for the node-time kernels (the row-0 population kernel in
evolution, the moments in langevin), which take a run's rows root box by
root box, or group by group (_box_rows): through a few Chebyshev proxy
frequencies of their own, exact to rounding, or the box's own rows where
those cost no more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidValue, RootNotBracketed, ToleranceNotReached
from .model import DiscretizedBath, _frequency, _reals

_EPS = float(np.finfo(float).eps)

_TINY = 1e-308  # g^2 below this underflows: its root cannot leave the pole
_BOX = 128  # modes and roots per box of the boxed Cauchy sums
_PROXIES = 20  # Chebyshev proxies per box for the far field
_MAX_ITER = 100
# K = c + 12 c^(1/3) + 4 nodes: 4 sum_{k>=K} |J_k(c)| < 1e-17 bounds the
# Chebyshev tail of exp(-i beta u), |beta| <= c, on [-1, 1]
_NODE_MARGIN = (12.0, 4.0)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues and oscillator weights of a diagonalized model.

    alphas[nu] is the nu-th eigenvalue (ascending), weights[nu] the squared
    overlap of its eigenvector with the distinguished oscillator.  The bath
    that produced the spectrum is kept so downstream evolution routines are
    self-contained.
    """

    alphas: np.ndarray
    weights: np.ndarray
    omega0: float
    bath: DiscretizedBath

    def __post_init__(self) -> None:
        al, w = _reals(self.alphas, "eigenvalues").copy(), _reals(self.weights, "weights").copy()
        _frequency(self.omega0)
        if w.shape != al.shape:
            raise InvalidValue("alphas and weights must be 1-d arrays of equal length")
        if al.size != self.bath.n + 1:
            raise InvalidValue("spectrum must hold exactly N+1 eigenvalues")
        if np.any(np.diff(al) <= 0.0):
            raise RootNotBracketed("eigenvalues not strictly increasing")
        om = self.bath.omegas
        if not (
            np.all(al[:-1] < om) and np.all(om < al[1:])
        ):  # alpha_nu < omega_{nu+1} < alpha_{nu+1}
            raise RootNotBracketed("eigenvalues do not interlace the bath grid")
        if np.any(w <= 0.0) or np.any(w > 1.0 + 1e-12):
            raise InvalidValue("weights must lie in (0, 1]")
        al.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "weights", w)

    @property
    def n_levels(self) -> int:
        return self.alphas.size

    @property
    def tau_omega(self) -> float:
        """Bare oscillator period 2*pi/omega0."""
        return 2.0 * np.pi / self.omega0

    @cached_property
    def boxes(self) -> tuple:  # _boxes of the bath: the solve's, or built here on first use
        return _boxes(self.bath.omegas)


def _chebyshev(lo, hi, k):
    """k >= 2 Chebyshev points of the second kind on [lo, hi] (broadcast over
    arrays of intervals), from hi down to lo with both ends exact, and their
    barycentric weights (-1)^j, halved at the ends."""
    x = lo / 2 + hi / 2 + (hi / 2 - lo / 2) * np.cos(np.arange(k) * (np.pi / (k - 1)))
    x[..., :1], x[..., -1:] = hi, lo
    w = (-1.0) ** np.arange(k)
    w[[0, -1]] /= 2
    return x, w


def _nodes(c):
    """Chebyshev points that carry exp(-i beta u), |beta| <= c, on [-1, 1]."""
    return np.ceil(c + _NODE_MARGIN[0] * np.cbrt(c) + _NODE_MARGIN[1])


def _barycentric(t, x, w):
    """Matrix (len(t), K) that carries values at the K nodes x to the points
    t by the second barycentric form with weights w (Berrut & Trefethen);
    a point equal to a node takes its value.  Leading axes of t and x are
    a stack of such matrices."""
    d = t[..., :, None] - x[..., None, :]
    if (hit := d == 0.0).any():
        d[hit] = 1.0
        b = np.divide(w, d, out=d)
        on_node = hit.any(axis=-1)
        b[on_node] = hit[on_node]
    else:
        b = np.divide(w, d, out=d)
    b /= b.sum(axis=-1, keepdims=True)
    return b


def _near(lo, hi):
    """Which boxes [lo, hi] (in order) are near: neighbours, or the gap
    between two falls short of the wider one's width by more than a relative
    1e-9 (on an even bath boxes two apart are one width apart to rounding)."""
    gap, k, wide = np.subtract.outer(lo, hi), np.arange(lo.size), (hi - lo) * (1.0 - 1e-9)
    return (np.maximum(gap, gap.T) < np.maximum.outer(wide, wide)) | (abs(k - k[:, None]) <= 1)


def _boxes(om):
    """Box geometry of the N sorted modes om and the N+1 roots al that
    interlace them: (cm, cr, near, px, pw, levels).  Box j holds the modes
    om[cm[j] : cm[j+1]] and the roots al[cr[j] : cr[j+1]]: the middle boxes
    _BOX modes and roots each by index, each spanning the pole below its
    first root to its last mode, and the first and last box only the outer
    root al[0] or al[N], near every box.  Middle boxes are near by _near (a
    root's bounding poles are always near it, being in its box or the
    next).  px[i] are middle box i + 1's _PROXIES Chebyshev proxies, pw
    their barycentric weights, and levels the _tree of the middle boxes."""
    n = om.size
    cm = np.concatenate(([0], np.arange(0, n, _BOX), [n, n]))
    cr = np.concatenate(([0, 1], np.arange(_BOX, n, _BOX), [n, n + 1]))
    lo, hi = om[cr[1:-2] - 1], om[cm[2:-1] - 1]
    near = np.pad(_near(lo, hi), 1, constant_values=True)
    px, pw = _chebyshev(lo[:, None], hi[:, None], _PROXIES)
    return cm, cr, near, px, pw, _tree(px, near[1:-1, 1:-1])


def _tree(x, near):
    """The levels of a tree over the boxes (leaves) whose proxies are x (in
    order, near as given).  Each parent pairs two boxes by index, has
    p = _PROXIES Chebyshev proxies on their span, and is near by _near or
    when two of its children are, so children of far boxes are far.  Level
    l is (a, x, m2l): a[i] the (p, p) barycentric matrix from box i's
    proxies (rows) to its parent's, x the level's proxies, and m2l the pairs
    far at l whose parents are near (at the top, all far pairs), grouped by
    box offset and parity as (targets, sources), slices of step 2; _m2l
    forms their blocks.  No level is built above the last with a far pair."""
    levels = []
    while not near.all():
        up = np.arange(len(x)) // 2
        lo, hi = x[::2, -1], x[np.minimum(np.arange(1, len(x) + 1, 2), len(x) - 1), 0]
        (x_up, w), near_up = _chebyshev(lo[:, None], hi[:, None], _PROXIES), _near(lo, hi)
        np.logical_or.at(near_up, (up[:, None], up), near)
        t, s = np.nonzero(~near & near_up[up[:, None], up])
        t, s = np.stack((t, s))[:, np.lexsort((t, t % 2, s - t))]
        cut = np.flatnonzero((np.diff(s - t) != 0) | (np.diff(t) != 2)) + 1
        ends = zip(np.concatenate(([0], cut)), np.concatenate((cut, [t.size])))
        m2l = [(slice(t[i], t[j - 1] + 1, 2), slice(s[i], s[j - 1] + 1, 2)) for i, j in ends]
        levels.append((_barycentric(x, x_up[up], w), x, m2l))
        x, near = x_up, near_up
    return levels


def _m2l(levels):
    """_tree's levels as _far sweeps them, (a, m2l), each group of m2l with
    its blocks k[i] = 1/(x - y), sources' proxies y (rows) to targets' x."""
    return [
        (a, [(ts, ss, 1.0 / (x[ts][:, None, :] - x[ss][:, :, None])) for ts, ss in m2l])
        for a, x, m2l in levels
    ]


def _far(levels, q, square=False):
    """Far-field potentials sum' q/(x - y), or sum' q/(x - y)^2 with square,
    at the leaves' proxies x from the charges q at their proxies y, both
    (leaves, rows, p), on _m2l's levels (None without levels): the charges
    go up the tree, meet through each level's m2l blocks, and come back
    down as potentials, each level one (boxes, rows, p) batch."""
    qs = [q]
    for a, _ in levels[:-1]:
        q = qs[-1]
        q_up = np.matmul(q[::2], a[::2])
        q_up[: len(q) // 2] += np.matmul(q[1::2], a[1::2])
        qs.append(q_up)
    phi = None
    for a, m2l in levels[::-1]:
        q = qs.pop()
        f = np.empty_like(q)
        if phi is None:
            f[:] = 0.0
        else:  # the parent's potentials to its children's proxies
            np.matmul(phi, a[::2].transpose(0, 2, 1), out=f[::2])
            np.matmul(phi[: len(q) // 2], a[1::2].transpose(0, 2, 1), out=f[1::2])
        phi = f  # the parent's are freed before the m2l products
        for ts, ss, k in m2l:
            phi[ts] += q[ss] @ (np.square(k) if square else k)
    return phi


def _phase_rows(x, z, scratch=np.empty):
    """The cos and then the sin rows of x z, the K times x by the B
    frequencies z, (2 K, B) in scratch(cells)."""
    k = x.size
    e = scratch(2 * k * z.size).reshape(2 * k, z.size)
    np.cos(a := np.multiply.outer(x, z, out=e[k:]), out=e[:k])
    np.sin(a, out=a)
    return e


def _box_rows(x, bary=0.0, scratch=np.empty):
    """rows(z): y -> the cos and sin rows at the K times x of a box of roots,
    their frequencies less the band centre z (ascending), times y.  A box
    of half-width d meets the x, within h of their centre tc, through
    P = _nodes(h d) proxy frequencies zp (one butterfly level: Candes,
    Demanet & Ying, Multiscale Model. Simul. 7, 2009) as [[C, -S], [S, C]]
    [L^T cos(tc z); L^T sin(tc z)], C and S the cos and sin of (x - tc) zp,
    L its barycentric matrix to zp, the sin rows at x = 0 zeroed (exact);
    where P (K + bary B) >= K B (P = 0 for no roots) through its own
    (_phase_rows); both in arrays of scratch(cells), a buffer only for
    callers done with each box before the next."""
    lo, hi, k = x.min(), x.max(), x.size
    tc, h = lo / 2 + hi / 2, hi / 2 - lo / 2

    def proxies(z):  # P, or 0 where the box takes its own rows
        p = int(_nodes(h * (z[-1] - z[0]) / 2)) if z.size else 0
        return 0 if p * (k + bary * z.size) >= k * z.size else p

    def rows(z):
        if not (p := proxies(z)):
            return _phase_rows(x, z, scratch).__matmul__
        zp, zw = _chebyshev(z[0], z[-1], p)
        rot = np.stack((np.cos(tc * z), np.sin(tc * z)))  # before C, S: no heap growth per box
        rp = (_barycentric(z, zp, zw).T * rot[:, None]).reshape(2 * p, -1)
        c, s = np.cos(a := np.multiply.outer(x - tc, zp)), np.sin(a)
        ep = scratch(4 * k * p).reshape(2 * k, -1)
        ep[:k, :p], ep[:k, p:], ep[k:, :p], ep[k:, p:] = c, -s, s, c
        ep[k:][x == 0.0] = 0.0  # their exact value, sin(0 z) = 0: Gamma(0) and Im S_k(0) exact
        return lambda y: ep @ (rp @ y)

    return rows


def _secular_parts(om, g2, omega0, origin, tau, act, boxes, far):
    """h = alpha - omega0 - sum' g_n^2/(alpha - omega_n) and
    h' = 1 + sum' g_n^2/(alpha - omega_n)^2 for the roots act (ascending),
    alpha = omega_o + tau from each root's origin pole o, the sums skipping
    the origin's term.  The solve's boxes (cm, cr, near, px, pw) split the
    sums: near modes are summed exactly, alpha - omega_n formed as
    (omega_o - omega_n) + tau; the far field is interpolated to alpha from
    far, the potentials sum' q/(x - y) and sum' q/(x - y)^2 of _far at the
    proxies x of each middle box, q the g_n^2 of each box anterpolated onto
    its proxies y."""
    cm, cr, near, px, pw = boxes
    o, t = origin[act], tau[act]
    h, hp = om[o] - omega0 + t, np.ones(act.size)
    rows, sizes = np.searchsorted(act, cr), np.diff(cm)
    for j, (r0, r1) in enumerate(zip(rows, rows[1:])):
        if r0 == r1:
            continue
        src = np.flatnonzero(np.repeat(near[j], sizes))
        d = np.subtract.outer(om[o[r0:r1]], om[src])
        d[np.arange(r1 - r0), np.searchsorted(src, o[r0:r1])] = np.inf  # the origin's own term
        d += t[r0:r1, None]
        r = np.divide(1.0, d, out=d)
        h[r0:r1] -= r @ g2[src]
        hp[r0:r1] += np.square(r, out=r) @ g2[src]
        if not near[j].all():
            phi, phi2 = far[0][j - 1, 0], far[1][j - 1, 0]
            b = _barycentric(om[o[r0:r1]] + t[r0:r1], px[j - 1], pw)
            h[r0:r1] -= b @ phi
            hp[r0:r1] += b @ phi2
    return h, hp


def solve_spectrum(bath: DiscretizedBath, omega0: float) -> Spectrum:
    """Locate all N+1 secular roots together, each as alpha = omega_o + tau.

    The origin pole omega_o is the nearer bounding pole of the root's
    interval (by the sign of F at its midpoint), or the outermost pole for
    the roots outside the band, whose far ends come from the Gershgorin
    bound [min(Omega, omega_1) - sum|g|, max(Omega, omega_N) + sum|g|]; an
    end that rounds onto its pole (sum|g| below half an ulp of it) raises
    RootNotBracketed.  Each step solves the two-pole model
    C - S/(tau - q) - g_o^2/tau = 0: the origin's term exact, the rest
    matched in value and slope by a pole at the interval's far end q (for
    outer roots, twice the Gershgorin distance).  Steps leaving the sign
    bracket F(lo) < 0 < F(hi) bisect.  Each iterate is rounded onto the
    representable roots, tau = fl(omega_o + tau) - omega_o, unless that is a
    pole.  Roots leave the active set once a step moves alpha by about a
    rounding unit, alpha = omega_o + step, or rounds back onto the tau
    before, where rounding cycles them.  The boxes and tree of _boxes are
    the bath's, built once; the outer roots, the only ones that move across
    the boxes, are near every box and sum all modes exactly.  g^2 is
    anterpolated onto the middle boxes' proxies and its far field taken at
    them once per solve, on the tree, and every pass sums F and F' on these
    boxes (_secular_parts).  The weights w = 1/F'(alpha) = 1/(h' +
    g_o^2/tau^2) come from the pass at a root's fixed point, where its step
    rounds back onto the tau just evaluated, or else from a closing pass
    over the roots that stopped off one.  A non-finite or non-positive
    omega0, or one whose period 2 pi/omega0 overflows, raises InvalidValue."""
    omega0 = _frequency(omega0)
    om, g = bath.omegas, bath.couplings
    g2 = g * g
    n = bath.n
    if np.any(g2 < _TINY):
        raise RootNotBracketed("a coupling below 1e-154 leaves its root on its pole")
    spread = float(np.sum(np.abs(g)))
    outer = (min(omega0, om[0]) - spread - om[0], max(omega0, om[-1]) + spread - om[-1])
    if 0.0 in outer:
        raise RootNotBracketed("sum|g| rounds away beside an outer pole: its root starts on it")
    gaps = np.diff(om)

    # outer roots start at their Gershgorin ends, inner ones at midpoints
    origin = np.concatenate(([0], np.arange(n)))
    q = np.concatenate(([2.0 * outer[0]], gaps, [2.0 * outer[1]]))

    def rounded(o, t, q):  # tau rounded onto the representable roots, but not onto a pole
        r = (om[o] + t) - om[o]
        return np.where((r == 0.0) | (r == q), t, r)

    tau = rounded(origin, np.concatenate(([outer[0]], 0.5 * gaps, [outer[1]])), q)
    lo = np.concatenate((tau[:1], np.zeros(n)))
    hi = np.concatenate(([0.0], tau[1:]))
    act = np.arange(n + 1)
    *boxes, levels = geometry = _boxes(om)
    cm, _, _, px, pw = boxes
    anterp = (g2[m0:m1] @ _barycentric(om[m0:m1], p, pw) for m0, m1, p in zip(cm[1:], cm[2:], px))
    g2_px = np.stack(list(anterp))[:, None]
    tree = _m2l(levels)  # one set of m2l blocks for both sweeps, freed after them
    far = _far(tree, g2_px), _far(tree, g2_px, square=True)
    del tree
    h, hp = _secular_parts(om, g2, omega0, origin, tau, act, boxes, far)

    # interior roots with F(mid) < 0 lie in the upper half: rebase them on
    # the upper pole, where F(mid) < 0 makes the midpoint the lower end
    f = h - g2[origin] / tau
    up = np.flatnonzero(f[1:n] < 0.0) + 1
    t_lo, t_up, g_lo, g_up = tau[up], tau[up] - q[up], g2[up - 1], g2[up]
    h[up] = f[up] + g_up / t_up
    hp[up] += g_lo / t_lo**2 - g_up / t_up**2
    origin[up], tau[up], q[up], lo[up], hi[up] = up, t_up, -q[up], t_up, 0.0

    alphas, weights, last = np.empty(n + 1), np.full(n + 1, np.nan), np.full(n + 1, np.nan)
    for _ in range(_MAX_ITER):
        o, t, qa = origin[act], tau[act], q[act]
        go2 = g2[o]
        f = h - go2 / t
        lo[act] = np.where(f < 0.0, t, lo[act])
        hi[act] = np.where(f > 0.0, t, hi[act])
        # two-pole model C - S/(tau - q) - g_o^2/tau = 0, i.e.
        # C tau^2 - b tau + g_o^2 q = 0 with b = C q + S + g_o^2
        s = hp * (t - qa) ** 2
        c = h + s / (t - qa)
        x = c * qa
        b = x + s + go2
        disc = np.where(x >= 0.0, (x - go2) ** 2 + s * (s + 2.0 * (x + go2)), b * b - 4.0 * x * go2)
        root = np.sqrt(disc)
        pos = b >= 0.0  # stable branch: neither form cancels
        step = np.where(pos, 2.0 * go2 * qa, b - root) / np.where(pos, b + root, 2.0 * c)
        a_lo, a_hi = lo[act], hi[act]
        tol = _EPS * (np.abs(om[o]) + np.abs(t))
        ok = (a_lo < step) & (step < a_hi) | (np.abs(step - t) <= tol)
        step = np.where(f == 0.0, t, np.where(ok, step, 0.5 * (a_lo + a_hi)))
        # stop within a rounding unit, or where the step rounds back onto the
        # tau before (rounding cycles it); a fixed point's h' is its root's
        r = rounded(o, step, qa)
        done = (np.abs(step - t) <= tol) | (r == last[act])
        fixed = done & (r == t)
        last[act], tau[act] = t, r
        alphas[act[done]] = om[o[done]] + step[done]
        weights[act[fixed]] = 1.0 / (hp[fixed] + go2[fixed] / t[fixed] ** 2)
        act = act[~done]
        if not act.size:
            break
        h, hp = _secular_parts(om, g2, omega0, origin, tau, act, boxes, far)
    else:
        raise ToleranceNotReached(f"{act.size} roots unconverged after {_MAX_ITER} steps")

    if not (np.all(alphas[:-1] < om) and np.all(om < alphas[1:])):
        raise RootNotBracketed("a root rounds onto its pole; its mode would need deflation")
    rest = np.flatnonzero(np.isnan(weights))  # roots that stopped off a fixed point
    tau[rest] = alphas[rest] - om[origin[rest]]
    _, hp = _secular_parts(om, g2, omega0, origin, tau, rest, boxes, far)
    weights[rest] = 1.0 / (hp + g2[origin[rest]] / tau[rest] ** 2)
    spec = Spectrum(alphas=alphas, weights=weights, omega0=omega0, bath=bath)
    vars(spec)["boxes"] = geometry  # cached_property keeps its value under its name
    return spec


def overlap_matrix(spec: Spectrum) -> np.ndarray:
    """(N+1) x (N+1) matrix C with C[nu, 0] = sqrt(w_nu) and
    C[nu, n] = g_n sqrt(w_nu) / (alpha_nu - omega_n): the orthogonal change
    of basis from site amplitudes to eigenmode amplitudes."""
    b = spec.bath
    root_w = np.sqrt(spec.weights)
    c = np.empty((spec.n_levels, spec.n_levels), dtype=float)
    c[:, 0] = root_w
    c[:, 1:] = root_w[:, None] * b.couplings[None, :] / (
        spec.alphas[:, None] - b.omegas[None, :]
    )
    return c
