"""Acceptance gate: one test per release criterion.

Each test asserts the stated tolerance and prints the measured values so a
failing line is self-explanatory.  Most criteria run on the reference bath
(N = 100, A = 0.018).  Criteria 2 and 3 pin continuum limits that bath cannot
reach, so each runs on the finer bath its reference value belongs to (see
the README's accuracy notes):

- criterion 2 (thermal plateau 1/(e - 1)) on the README plateau probe,
  N = 1000, A = 0.0018.  The plateau is the line-averaged occupation
  sum_nu w_nu n(alpha_nu), whose excess over n(Omega) shrinks with the
  oscillator linewidth 2 pi A; the 10x slower decay moves the window to
  t in [1000, 3000], before that bath's recurrence at t_r ~ 3839.
- criterion 3 (t_r ~ 37311) on the README recurrence probe, N = 10^4,
  A = 1.8e-4, since t_r = 2 pi / min gap scales as 1/A.
"""

import time

import numpy as np
import pytest

from conftest import make_random_bath
from oracles import dense_diagonalize_oracle, naive_coefficients, naive_transition_probabilities
from qbm import (
    LangevinInput,
    ModelParams,
    TimeGrid,
    build_bath,
    coefficient_series,
    estimate_gamma,
    gamma_from_survival,
    golden_rule_rate,
    mean_position,
    oscillator_population,
    parse_config,
    population_series,
    recurrence_time,
    serialize_config,
    solve_spectrum,
    survival_probability,
    thermal_occupations,
    transition_probabilities,
)
from qbm.cli import main, run


@pytest.fixture(scope="module")
def plateau_probe():
    """Spectrum and beta = 1 occupations of the README plateau probe
    (N = 1000, A = 0.0018), built outside criterion 2's timer."""
    bath = build_bath(ModelParams(n_bath=1000, step=0.0018))
    return solve_spectrum(bath, 1.0), thermal_occupations(bath, 1.0, 1.0)


@pytest.fixture(scope="module")
def recurrence_probe():
    """Spectrum of the README recurrence probe (N = 10^4, A = 1.8e-4)."""
    return solve_spectrum(build_bath(ModelParams(n_bath=10000, step=1.8e-4)), 1.0)


def test_criterion_01_spectral_correctness(ref_bath):
    t0 = time.perf_counter()
    spec = solve_spectrum(ref_bath, 1.0)
    elapsed = time.perf_counter() - t0

    om = ref_bath.omegas
    assert np.all(spec.alphas[:-1] < om)
    assert np.all(spec.alphas[1:] > om)

    r0 = abs(float(np.sum(spec.weights)) - 1.0)
    r1 = abs(float(spec.alphas @ spec.weights) - 1.0)
    m2 = 1.0 + float(np.sum(ref_bath.couplings**2))
    r2 = abs(float(spec.alphas**2 @ spec.weights) - m2) / m2
    oracle = dense_diagonalize_oracle(ref_bath, 1.0)
    dev = float(np.max(np.abs(spec.alphas - oracle.alphas)))
    print(
        f"criterion 1: sum rules {r0:.3e} / {r1:.3e} / {r2:.3e}, "
        f"max |alpha - dense| = {dev:.3e}, solve time {elapsed:.3f} s"
    )
    assert r0 <= 1e-12
    assert r1 <= 1e-10
    assert r2 <= 1e-9
    assert dev <= 1e-9
    assert elapsed < 2.0


def test_criterion_02_equilibrium_plateau(plateau_probe):
    spec, occ = plateau_probe
    t0 = time.perf_counter()
    ts = TimeGrid(t_start=1000.0, n_steps=12800).times()
    window = ts[(ts >= 1000.0) & (ts <= 3000.0)]
    mean = float(np.mean(oscillator_population(spec, occ, window)))
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 2: plateau mean = {mean:.6f}, "
        f"target 0.58198 +/- 0.02, runtime {elapsed:.3f} s"
    )
    assert elapsed < 10.0
    assert abs(mean - 0.58198) <= 0.02


def test_criterion_03_recurrence_time(recurrence_probe):
    t_r = recurrence_time(recurrence_probe)
    ratio = t_r / recurrence_probe.tau_omega
    print(
        f"criterion 3: t_r = {t_r:.2f} (target 37311 +/- 10%), "
        f"t_r / tau = {ratio:.1f} (floor 1e3)"
    )
    assert abs(t_r - 37311.0) <= 0.10 * 37311.0
    assert ratio > 1e3


def test_criterion_04_zeno_quadratic_onset(ref_spectrum, ref_bath):
    ts = np.geomspace(1e-3, 1e-2, 25)
    loss = 1.0 - survival_probability(ref_spectrum, ts)
    slope, _ = np.polyfit(np.log(ts), np.log(loss), 1)
    prefactor = float(np.median(loss / ts**2))
    g2 = float(np.sum(ref_bath.couplings**2))
    print(
        f"criterion 4: slope = {slope:.4f} (target 2.00 +/- 0.05), "
        f"prefactor = {prefactor:.6e} vs sum g^2 = {g2:.6e}"
    )
    assert abs(slope - 2.0) <= 0.05
    assert abs(prefactor - g2) <= 0.02 * g2


def test_criterion_05_exponential_regime_consistency(ref_spectrum):
    est = estimate_gamma(ref_spectrum, (1.0, 20.0))
    gamma_gr = golden_rule_rate(ref_spectrum.bath, 1.0)
    ts = np.linspace(1.0, 20.0, 256)
    _, gam, ok = coefficient_series(ref_spectrum, ts)
    assert ok.all()
    mean_big_gamma = float(np.mean(gam))
    mean_surv_gamma = float(np.mean(gamma_from_survival(ref_spectrum, ts)))
    print(
        f"criterion 5: gamma_fit = {est.gamma:.5f}, gamma_GR = {gamma_gr:.5f}, "
        f"mean Gamma = {mean_big_gamma:.5f}, mean -2Re(dA/A) = {mean_surv_gamma:.5f}"
    )
    assert abs(est.gamma - gamma_gr) <= 0.15 * gamma_gr
    assert abs(est.gamma - mean_big_gamma) <= 0.10 * mean_big_gamma
    assert abs(est.gamma - mean_surv_gamma) <= 0.10 * mean_surv_gamma


def test_criterion_06_coefficient_identities(ref_spectrum, ref_bath):
    (omega2_0,), (gamma_0,), _ = coefficient_series(ref_spectrum, [0.0])
    m2 = 1.0 + float(np.sum(ref_bath.couplings**2))
    print(
        f"criterion 6: Gamma(0) = {gamma_0!r}, "
        f"Omega^2(0) = {omega2_0:.12f} vs {m2:.12f}"
    )
    assert gamma_0 == 0.0
    assert omega2_0 == pytest.approx(m2, rel=1e-9)

    rng = np.random.default_rng(20250410)
    for n in (4, 8, 16, 32):
        spec = solve_spectrum(make_random_bath(rng, n), 1.0)
        for t in rng.uniform(0.05, 40.0, size=20):
            (omega2,), (gamma,), (ok,) = coefficient_series(spec, [float(t)])
            naive_omega2, naive_gamma, naive_ok = naive_coefficients(spec, float(t))
            assert ok == naive_ok
            if ok:
                assert omega2 == pytest.approx(naive_omega2, rel=1e-8)
                assert gamma == pytest.approx(naive_gamma, rel=1e-8, abs=1e-12)


def test_criterion_07_master_equation_structure(ref_spectrum, ref_occupations):
    for t in (0.0, 1.0, 10.0, 100.0):
        p = transition_probabilities(ref_spectrum, t)
        np.testing.assert_allclose(p, p.T, rtol=0.0, atol=1e-12)
        assert p.min() >= -1e-12 and p.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(p.sum(axis=0), 1.0, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-10)

    rng = np.random.default_rng(8)
    spec8 = solve_spectrum(make_random_bath(rng, 8), 1.0)
    for t in (0.0, 1.0, 10.0, 100.0):
        fast = transition_probabilities(spec8, t)
        naive = naive_transition_probabilities(spec8, t)
        np.testing.assert_allclose(fast, naive, rtol=0.0, atol=1e-10)

    ts = TimeGrid().times()
    totals = population_series(ref_spectrum, ref_occupations, ts).sum(axis=0)
    total0 = ref_occupations.vector.sum()
    drift = float(np.max(np.abs(totals / total0 - 1.0)))
    print(f"criterion 7: max relative drift of total occupation = {drift:.3e}")
    assert drift <= 1e-10


def test_criterion_08_revival(ref_spectrum):
    t0 = time.perf_counter()
    t_r = recurrence_time(ref_spectrum)
    base = np.arange(100.0, 1000.0, ref_spectrum.tau_omega / 8.0)
    median = float(np.median(survival_probability(ref_spectrum, base)))
    window = np.arange(0.9 * t_r, 1.1 * t_r, ref_spectrum.tau_omega / 40.0)
    peak = float(np.max(survival_probability(ref_spectrum, window)))
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 8: revival peak = {peak:.4e}, baseline median = {median:.4e}, "
        f"ratio = {peak / median:.1f}, runtime {elapsed:.3f} s"
    )
    assert peak >= 10.0 * median
    assert elapsed < 60.0


def test_criterion_09_langevin_mean_path(ref_spectrum):
    ts = np.arange(5.0, 20.0, 0.01)
    x = np.abs(mean_position(ref_spectrum, LangevinInput(), ts))
    inner = slice(1, -1)
    is_peak = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    t_peaks, v_peaks = ts[inner][is_peak], x[inner][is_peak]
    assert t_peaks.size >= 4
    slope = float(np.polyfit(t_peaks, np.log(v_peaks), 1)[0])
    gamma = estimate_gamma(ref_spectrum, (1.0, 20.0)).gamma
    print(
        f"criterion 9: envelope rate = {-slope:.5f} vs gamma/2 = {gamma / 2.0:.5f} "
        f"({abs(-slope - gamma / 2.0) / (gamma / 2.0):.1%} off)"
    )
    assert abs(-slope - gamma / 2.0) <= 0.15 * (gamma / 2.0)


def test_criterion_10_determinism_and_interfaces(tmp_path):
    text = "N = 12\nn_steps = 600\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    run(parse_config(text), out_dir=out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    for doc in (
        "",
        text,
        "coupling = explicit\nomegas = 0.5, 1.5\ncouplings = 0.1, 0.2\n"
        "outputs = spectrum, report\n",
    ):
        cfg = parse_config(doc)
        assert parse_config(serialize_config(cfg)) == cfg

    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("frequencies = 3\n")
    assert main(["run", "--config", str(bad_key), "--out", str(tmp_path / "c")]) == 2
    bad_run = tmp_path / "neg.cfg"
    bad_run.write_text(
        "coupling = explicit\nomegas = -0.5, 1.0\ncouplings = 0.1, 0.1\n"
        "outputs = population\n"
    )
    assert main(["run", "--config", str(bad_run), "--out", str(tmp_path / "d")]) == 3
