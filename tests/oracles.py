"""Cross-check oracles: slow, literal routes to what the package computes as
closed spectral sums.  The dense `hamiltonian_matrix` and its `eigh`
(`dense_diagonalize_oracle`) check the solve's roots, weights and moments;
`secular_residual` certifies roots by a sign change of F; the pair sums
`naive_transition_probabilities` and `naive_coefficients` check
`transition_probabilities` and `coefficient_series`; the explicit row-0
sum `row0_population` checks `oscillator_population`; the extended
precision sum `direct_moments` checks the moment signals; the scalar
`bose_einstein` checks `thermal_occupations`."""

import math

import numpy as np

from qbm import DiscretizedBath, Spectrum, overlap_matrix
from qbm.errors import NonPositiveFrequency
from qbm.langevin import _DENOM_RTOL


def hamiltonian_matrix(bath: DiscretizedBath, omega0: float) -> np.ndarray:
    """Dense (N+1) x (N+1) arrowhead Hamiltonian of the one-excitation sector."""
    h = np.diag(np.concatenate(([float(omega0)], bath.omegas)))
    h[0, 1:] = h[1:, 0] = bath.couplings
    return h


def dense_diagonalize_oracle(bath: DiscretizedBath, omega0: float) -> Spectrum:
    """The Spectrum from a dense symmetric eigensolve of the arrowhead
    matrix; weights are the squared first components of the eigenvectors."""
    vals, vecs = np.linalg.eigh(hamiltonian_matrix(bath, omega0))
    return Spectrum(alphas=vals, weights=vecs[0, :] ** 2, omega0=float(omega0), bath=bath)


def secular_residual(alpha: float, bath: DiscretizedBath, omega0: float) -> float:
    """F(alpha) = alpha - omega0 - sum_n g_n^2 / (alpha - omega_n); raises
    ValueError within 4*eps*max(1, |alpha|, |omega_n|) of a pole."""
    a = float(alpha)
    d = a - bath.omegas
    guard = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(abs(a), np.abs(bath.omegas)))
    if np.any(np.abs(d) < guard):
        raise ValueError(f"secular function evaluated at a pole (alpha = {a!r})")
    return a - omega0 - float(np.sum(bath.couplings**2 / d))


def naive_transition_probabilities(spec: Spectrum, t: float) -> np.ndarray:
    """P_nm = 2 sum_{mu>nu} cos((alpha_mu - alpha_nu) t) c_mu(n) c_nu(n) c_mu(m)
    c_nu(m) + sum_nu c_nu(n)^2 c_nu(m)^2, entry by entry."""
    c = overlap_matrix(spec)
    t = float(t)
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


def row0_population(spec: Spectrum, occ0, times) -> np.ndarray:
    """<N_Omega(t)> = a0^2 n_0 + sum_m g_m^2 n_m |sum_nu w_nu e^{-i alpha_nu t}
    / (omega_m - alpha_nu)|^2 at each time, with a0 = |A(t)|: the explicit
    O(N^2)-per-time row-0 sum in complex arithmetic, no eigh, the Cauchy
    matrix built in blocks of 1000 modes."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    n0 = occ0.vector
    ph = spec.weights[:, None] * np.exp(-1j * np.outer(spec.alphas, ts))
    out = np.abs(ph.sum(axis=0)) ** 2 * n0[0]
    om, g2n = spec.bath.omegas, spec.bath.couplings**2 * n0[1:]
    for m0 in range(0, om.size, 1000):
        u = (1.0 / (om[m0 : m0 + 1000, None] - spec.alphas)) @ ph
        out += g2n[m0 : m0 + 1000] @ np.abs(u) ** 2
    return out


def direct_moments(spec: Spectrum, ks, times) -> np.ndarray:
    """S_k(t) = sum_nu alpha_nu^k w_nu e^{-i alpha_nu t} for each k in ks,
    shape (len(ks), T): the direct sum over modes, phases and all, in
    np.longdouble, rounded to complex at the end."""
    ts = np.atleast_1d(np.asarray(times, dtype=np.longdouble))
    al, w = spec.alphas.astype(np.longdouble), spec.weights.astype(np.longdouble)
    ph = np.multiply.outer(ts, al)
    cos, sin = np.cos(ph), np.sin(ph)
    return np.array([cos @ (al**k * w) - 1j * (sin @ (al**k * w)) for k in ks], dtype=complex)


def naive_coefficients(spec: Spectrum, t: float) -> tuple[float, float, bool]:
    """(Omega2, Gamma, denominator_ok) at one time, term by term from
    Omega2 = sum cos(d t) a_nu a_mu^2 w_nu w_mu / D, Gamma = sum sin(d t)
    a_nu^2 w_nu w_mu / D, D = sum cos(d t) a_nu w_nu w_mu, d = a_nu - a_mu;
    a flagged denominator gives NaN values."""
    tt = float(t)
    al, w = spec.alphas, spec.weights
    delta = al[:, None] - al[None, :]
    cosd, sind = np.cos(delta * tt), np.sin(delta * tt)
    ww = np.outer(w, w)
    den = float(np.sum(cosd * al[:, None] * ww))
    num_omega2 = float(np.sum(cosd * al[:, None] * al[None, :] ** 2 * ww))
    num_gamma = float(np.sum(sind * al[:, None] ** 2 * ww))
    ok = abs(den) >= _DENOM_RTOL * float(np.sum(np.abs(al) * w))
    return (num_omega2 / den, num_gamma / den, True) if ok else (math.nan, math.nan, False)


def bose_einstein(omega: float, beta: float) -> float:
    """Scalar convenience: 1 / (exp(beta*omega) - 1)."""
    if omega <= 0.0:
        raise NonPositiveFrequency(f"omega must be positive, got {omega}")
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    try:
        return 1.0 / math.expm1(beta * omega)
    except OverflowError:  # beta*omega > ~709: n underflows to 0
        return 0.0
