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

The solve's sums over the bath are boxed Cauchy sums, a single-level fast
multipole method (Greengard & Rokhlin, J. Comput. Phys. 73, 1987) on the
boxes of _boxes, O(N (n_near + p) + (N p / B)^2) per pass, not O(N^2); the
row-0 population kernel in evolution runs the transposed product on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, RootNotBracketed, ToleranceNotReached
from .model import DiscretizedBath

_EPS = float(np.finfo(float).eps)

_TINY = 1e-308  # g^2 below this underflows: its root cannot leave the pole
_BOX = 128  # modes and roots per box of the boxed Cauchy sums
_PROXIES = 20  # Chebyshev proxies per box for the far field
_MAX_ITER = 100


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
        al = np.asarray(self.alphas, dtype=float).copy()
        w = np.asarray(self.weights, dtype=float).copy()
        if al.ndim != 1 or w.shape != al.shape:
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


def _chebyshev(lo, hi, k):
    """k >= 2 Chebyshev points of the second kind on [lo, hi] (broadcast over
    arrays of intervals), from hi down to lo with both ends exact, and their
    barycentric weights (-1)^j, halved at the ends."""
    x = lo / 2 + hi / 2 + (hi / 2 - lo / 2) * np.cos(np.arange(k) * (np.pi / (k - 1)))
    x[..., :1], x[..., -1:] = hi, lo
    w = (-1.0) ** np.arange(k)
    w[[0, -1]] /= 2
    return x, w


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


def _boxes(al, om):
    """Box geometry of the N+1 sorted roots al and the N sorted modes om that
    interlace them: (cm, cr, near, px, pw).  Box j holds the modes
    om[cm[j] : cm[j+1]] and the roots al[cr[j] : cr[j+1]]: the middle boxes
    _BOX modes and roots each by index, the first and last box only the edge
    root al[0] or al[N], so an outlying edge root widens no box of modes.  A
    middle box spans the pole below its first root to its last mode, wherever
    its roots lie; an edge box spans its root.  Two boxes are near when the
    gap between them falls short of the wider one's width by more than a
    relative 1e-9 (on an even bath boxes two apart are one width apart to
    rounding) or when they are neighbours (a root's bounding poles are always
    near it); the edge boxes, which never meet, count as near.  px[j] are
    box j's _PROXIES Chebyshev proxies, pw their barycentric weights."""
    n = om.size
    cm = np.concatenate(([0], np.arange(0, n, _BOX), [n, n]))
    cr = np.concatenate(([0, 1], np.arange(_BOX, n, _BOX), [n, n + 1]))
    lo = np.concatenate((al[:1], om[cr[1:-2] - 1], al[-1:]))
    hi = np.concatenate((al[:1], om[cm[2:-1] - 1], al[-1:]))
    gap, k, wide = np.subtract.outer(lo, hi), np.arange(lo.size), (hi - lo) * (1.0 - 1e-9)
    near = (np.maximum(gap, gap.T) < np.maximum.outer(wide, wide)) | (abs(k - k[:, None]) <= 1)
    near[0, -1] = near[-1, 0] = True
    px, pw = _chebyshev(lo[:, None], hi[:, None], _PROXIES)
    return cm, cr, near, px, pw


def _secular_parts(om, g2, omega0, origin, tau, act, q):
    """h = alpha - omega0 - sum' g_n^2/(alpha - omega_n) and
    h' = 1 + sum' g_n^2/(alpha - omega_n)^2 for the roots act (ascending),
    alpha = omega_o + tau from each root's origin pole o, the sums skipping
    the origin's term.  The boxes of _boxes (only the edge ones move with
    the roots) split the sums: near modes are summed exactly, alpha -
    omega_n formed as (omega_o - omega_n) + tau; q, the g_n^2 of each box
    anterpolated onto its proxies, meets the root box's proxies through
    1/(x - y) and 1/(x - y)^2 and is interpolated to alpha."""
    x = om[origin] + tau
    cm, cr, near, px, pw = _boxes(x, om)
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
            d = np.subtract.outer(px[j], px.ravel())
            d[:, np.repeat(near[j], _PROXIES)] = np.inf
            r = np.divide(1.0, d, out=d)
            b = _barycentric(x[act[r0:r1]], px[j], pw)
            h[r0:r1] -= b @ (r @ q)
            hp[r0:r1] += b @ (np.square(r, out=r) @ q)
    return h, hp


def solve_spectrum(bath: DiscretizedBath, omega0: float) -> Spectrum:
    """Locate all N+1 secular roots together, each as alpha = omega_o + tau.

    The origin pole omega_o is the nearer bounding pole of the root's
    interval (by the sign of F at its midpoint), or the outermost pole for
    the roots outside the band, whose far ends come from the Gershgorin
    bound [min(Omega, omega_1) - sum|g|, max(Omega, omega_N) + sum|g|].
    Each step solves the two-pole model C - S/(tau - q) - g_o^2/tau = 0:
    the origin's term exact, the rest matched in value and slope by a pole
    at the interval's far end q (for outer roots, twice the Gershgorin
    distance).  Steps leaving the sign bracket F(lo) < 0 < F(hi) bisect.
    Roots leave the active set once a step moves alpha by about a rounding
    unit.  Every pass sums F and F' over the boxes of _boxes (_secular_parts);
    g^2 is anterpolated onto the boxes' proxies once per solve.
    The weights w = 1/F'(alpha) = 1/(h' + g_o^2/tau^2) come from one more
    pass at the stored alpha, with tau = alpha - omega_o.  A non-finite or
    non-positive omega0 raises InvalidValue."""
    if not 0.0 < omega0 < np.inf:
        raise InvalidValue(f"omega0 must be finite and > 0, got {omega0}")
    om, g = bath.omegas, bath.couplings
    g2 = g * g
    n = bath.n
    if np.any(g2 < _TINY):
        raise RootNotBracketed("a coupling below 1e-154 leaves its root on its pole")
    spread = float(np.sum(np.abs(g)))
    outer = (min(omega0, om[0]) - spread - om[0], max(omega0, om[-1]) + spread - om[-1])
    gaps = np.diff(om)

    # outer roots start at their Gershgorin ends, inner ones at midpoints
    origin = np.concatenate(([0], np.arange(n)))
    tau = np.concatenate(([outer[0]], 0.5 * gaps, [outer[1]]))
    q = np.concatenate(([2.0 * outer[0]], gaps, [2.0 * outer[1]]))
    lo = np.concatenate(([outer[0]], np.zeros(n)))
    hi = np.concatenate(([0.0], 0.5 * gaps, [outer[1]]))
    act = np.arange(n + 1)
    cm, _, _, px, pw = _boxes(om[origin] + tau, om)  # the edge boxes hold no g^2
    anterp = (g2[m0:m1] @ _barycentric(om[m0:m1], p, pw) for m0, m1, p in zip(cm, cm[1:], px))
    g2_px = np.concatenate(list(anterp))
    h, hp = _secular_parts(om, g2, omega0, origin, tau, act, g2_px)

    # interior roots with F(mid) < 0 lie in the upper half: rebase them on
    # the upper pole, where F(mid) < 0 makes the midpoint the lower end
    f = h - g2[origin] / tau
    up = np.flatnonzero(f[1:n] < 0.0) + 1
    t_lo, g_lo, g_up = tau[up], g2[up - 1], g2[up]
    h[up] = f[up] - g_up / t_lo
    hp[up] += (g_lo - g_up) / t_lo**2
    origin[up], tau[up], q[up], lo[up], hi[up] = up, -t_lo, -q[up], -t_lo, 0.0

    alphas = np.empty(n + 1)
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
        done = np.abs(step - t) <= tol
        tau[act] = step
        alphas[act[done]] = om[o[done]] + step[done]
        act = act[~done]
        if not act.size:
            break
        h, hp = _secular_parts(om, g2, omega0, origin, tau, act, g2_px)
    else:
        raise ToleranceNotReached(f"{act.size} roots unconverged after {_MAX_ITER} steps")

    if not (np.all(alphas[:-1] < om) and np.all(om < alphas[1:])):
        raise RootNotBracketed("a root rounds onto its pole; its mode would need deflation")
    tau = alphas - om[origin]
    _, hp = _secular_parts(om, g2, omega0, origin, tau, np.arange(n + 1), g2_px)
    weights = 1.0 / (hp + g2[origin] / tau**2)
    return Spectrum(alphas=alphas, weights=weights, omega0=float(omega0), bath=bath)


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
