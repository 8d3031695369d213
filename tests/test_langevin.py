import warnings

import numpy as np
import pytest

from conftest import explicit_spectrum, make_random_bath
from oracles import (
    dense_diagonalize_oracle,
    direct_moments,
    hamiltonian_matrix,
    naive_coefficients,
)
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
    moment_signal,
    recurrence_time,
    solve_spectrum,
    survival_probability,
)
from qbm.errors import AmplitudeVanishes, InvalidValue


def matrix_moments(spec):
    """First and second moments of H in the oscillator state, computed from
    the dense matrix as an independent oracle."""
    h = hamiltonian_matrix(spec.bath, spec.omega0)
    return h[0, 0], (h @ h)[0, 0]


class TestMomentSignals:
    def test_order_validated(self, two_level):
        with pytest.raises(ValueError):
            moment_signal(two_level, 3, 0.0)

    def test_moment_identities_at_zero(self, ref_spectrum):
        m1, m2 = matrix_moments(ref_spectrum)
        assert moment_signal(ref_spectrum, 0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert moment_signal(ref_spectrum, 1, 0.0) == pytest.approx(m1, abs=1e-12)
        assert moment_signal(ref_spectrum, 2, 0.0) == pytest.approx(m2, rel=1e-12)

    def test_derivative_consistency(self, two_level):
        # S_1 = i dS_0/dt: check against a central difference
        t, h = 3.7, 1e-6
        ds0 = (
            moment_signal(two_level, 0, t + h) - moment_signal(two_level, 0, t - h)
        ) / (2.0 * h)
        assert moment_signal(two_level, 1, t) == pytest.approx(1j * ds0, abs=1e-7)

    def test_bounded_amplitude(self, ref_spectrum):
        ts = np.linspace(0.0, 400.0, 600)
        assert np.all(np.abs(moment_signal(ref_spectrum, 0, ts)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("probe", ["default", "plateau"])
    def test_match_extended_precision_sum(self, probe, ref_spectrum, plateau_probe):
        # the default grid on N = 100 and the plateau grid on N = 1000, taken
        # whole as the CLI does; 64 times compared per grid
        if probe == "default":
            spec, ts = ref_spectrum, TimeGrid().times()
        else:
            spec, ts = plateau_probe[0], TimeGrid(t_start=1000.0, n_steps=12800).times()
        idx = np.linspace(0, ts.size - 1, 64).astype(int)
        want = direct_moments(spec, (0, 1, 2), ts[idx])
        for k in (0, 1, 2):
            got = moment_signal(spec, k, ts)
            np.testing.assert_allclose(got[idx], want[k], rtol=0.0, atol=2e-15)

    def test_shuffled_times(self, ref_spectrum):
        ts = TimeGrid().times()[::7]
        perm = np.random.default_rng(7).permutation(ts.size)
        for k in (0, 1, 2):
            got = moment_signal(ref_spectrum, k, ts[perm])
            want = moment_signal(ref_spectrum, k, ts)[perm]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-15)


OMEGAS = [0.5, 1.0, 2.0]


class TestCoefficients:
    def test_origin_exact_on_cli_grid(self, ref_spectrum, monkeypatch):
        # on the whole default grid, as the CLI evaluates it, t = 0 ends a
        # run of node times, so Gamma(0) and Im S_k(0) are exact
        monkeypatch.setenv("QBM_THREADS", "2")
        ts = TimeGrid().times()
        assert coefficient_series(ref_spectrum, ts)[1][0] == 0.0
        for k in (0, 1, 2):
            assert moment_signal(ref_spectrum, k, ts)[0].imag == 0.0

    @pytest.mark.parametrize("omega0", OMEGAS)
    def test_gamma_zero_at_origin(self, omega0):
        _, gamma, ok = coefficient_series(explicit_spectrum(omega0), [0.0])
        assert gamma[0] == 0.0
        assert ok[0]

    @pytest.mark.parametrize("omega0", OMEGAS)
    def test_omega2_at_origin(self, omega0):
        # Omega2(0) = Omega^2 + sum g^2, the second moment of H
        spec = explicit_spectrum(omega0)
        _, m2 = matrix_moments(spec)
        assert m2 == pytest.approx(omega0**2 + np.sum(spec.bath.couplings**2), rel=1e-14)
        assert coefficient_series(spec, [0.0])[0][0] == pytest.approx(m2, rel=1e-9)

    def test_fast_vs_naive_seeded(self):
        rng = np.random.default_rng(12345)
        for n in (4, 8, 16, 32):
            spec = solve_spectrum(make_random_bath(rng, n), 1.0)
            for t in rng.uniform(0.0, 20.0, size=20):
                (omega2,), (gamma,), (ok,) = coefficient_series(spec, [float(t)])
                naive_omega2, naive_gamma, naive_ok = naive_coefficients(spec, float(t))
                assert ok == naive_ok
                if ok:
                    assert omega2 == pytest.approx(naive_omega2, rel=1e-8)
                    assert gamma == pytest.approx(
                        naive_gamma, rel=1e-8, abs=1e-12
                    )

    def test_flagged_at_denominator_zero(self, two_level):
        # for the symmetric doublet the shared denominator is
        # (1 + cos(0.2 t))/2, which vanishes at t = 5 pi
        (omega2,), (gamma,), (ok,) = coefficient_series(two_level, [5.0 * np.pi])
        assert not ok
        assert np.isnan(omega2) and np.isnan(gamma)
        assert not naive_coefficients(two_level, 5.0 * np.pi)[2]

    def test_zeno_onset_monotone_to_first_crossing(self, ref_spectrum):
        # Gamma rises monotonically from 0 until it first crosses the
        # asymptotic rate
        gamma_ref = golden_rule_rate(ref_spectrum.bath, ref_spectrum.omega0)
        ts = np.linspace(0.0, 6.0, 601)
        _, gam, ok = coefficient_series(ref_spectrum, ts)
        assert ok.all()
        assert gam.max() >= gamma_ref  # a crossing exists in the window
        crossing = int(np.argmax(gam >= gamma_ref))
        assert crossing > 0  # sits below gamma for a while
        assert np.all(np.diff(gam[: crossing + 1]) > 0.0)


class TestGammaFromSurvival:
    def test_zero_at_origin(self, ref_spectrum):
        assert gamma_from_survival(ref_spectrum, 0.0) == 0.0

    def test_vanishing_amplitude(self, two_level):
        with pytest.raises(AmplitudeVanishes):
            gamma_from_survival(two_level, 5.0 * np.pi)

    def test_tracks_coefficient_mean(self, ref_spectrum):
        ts = np.linspace(5.0, 20.0, 400)
        mean_surv = float(np.mean(gamma_from_survival(ref_spectrum, ts)))
        _, gam, ok = coefficient_series(ref_spectrum, ts)
        mean_gamma = float(np.mean(gam[ok]))
        assert mean_surv == pytest.approx(mean_gamma, rel=0.10)

    def test_two_level_closed_form(self, two_level):
        # |A|^2 = cos^2(0.1 t) gives rate 0.2 tan(0.1 t)
        t = 2.0
        assert gamma_from_survival(two_level, t) == pytest.approx(
            0.2 * np.tan(0.1 * t), rel=1e-12
        )


class TestMeanPosition:
    def test_initial_position(self, ref_spectrum):
        inp = LangevinInput(x0=1.7, p0=0.4, mass=2.0)
        assert mean_position(ref_spectrum, inp, 0.0) == pytest.approx(
            1.7, rel=1e-12
        )

    def test_two_level_closed_form(self, two_level):
        ts = np.linspace(0.0, 30.0, 100)
        inp = LangevinInput(x0=0.8, p0=0.0, mass=1.0)
        got = mean_position(two_level, inp, ts)
        want = 0.8 * np.cos(ts) * np.cos(0.1 * ts)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_two_level_momentum_term(self, two_level):
        ts = np.linspace(0.0, 30.0, 100)
        inp = LangevinInput(x0=0.0, p0=1.0, mass=2.0)
        got = mean_position(two_level, inp, ts)
        want = 0.5 * np.sin(ts) * np.cos(0.1 * ts)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linear_in_initial_conditions(self, ref_spectrum):
        rng = np.random.default_rng(99)
        ts = rng.uniform(0.0, 40.0, size=6)
        for _ in range(5):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            x0, p0, x0b, p0b = rng.uniform(-1.0, 1.0, size=4)
            mixed = LangevinInput(x0=a * x0 + b * x0b, p0=a * p0 + b * p0b)
            first = LangevinInput(x0=x0, p0=p0)
            second = LangevinInput(x0=x0b, p0=p0b)
            for t in ts:
                lhs = mean_position(ref_spectrum, mixed, float(t))
                rhs = a * mean_position(ref_spectrum, first, float(t)) + (
                    b * mean_position(ref_spectrum, second, float(t))
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
    def test_initial_position_and_velocity(self, omega0):
        # X(0) = X0 and X'(0) = P0/M for any Omega (sum_nu alpha_nu w_nu = Omega)
        bath = build_bath(
            ModelParams.explicit([0.3, 0.8, 1.4, 2.6], [0.05, 0.1, 0.08, 0.04])
        )
        spec = solve_spectrum(bath, omega0)
        inp = LangevinInput(x0=0.7, p0=1.3, mass=2.0)
        assert mean_position(spec, inp, 0.0) == pytest.approx(0.7, abs=1e-12)
        h = 1e-5
        slope = (mean_position(spec, inp, h) - mean_position(spec, inp, -h)) / (2 * h)
        assert slope == pytest.approx(1.3 / 2.0, rel=1e-7)

    @pytest.mark.parametrize("omega0", OMEGAS)
    def test_free_oscillator_momentum_scaled_by_omega(self, omega0):
        # one far, feebly coupled mode (g -> 0): the oscillator is free, so
        # survival stays 1, Gamma stays 0 and
        # X(t) = X0 cos(Omega t) + P0/(M Omega) sin(Omega t)
        bath = build_bath(ModelParams.explicit([10.0], [1e-6]))
        spec = solve_spectrum(bath, omega0)
        ts = np.linspace(0.0, 20.0, 200)
        got = mean_position(spec, LangevinInput(x0=0.6, p0=1.0, mass=1.5), ts)
        want = 0.6 * np.cos(omega0 * ts) + np.sin(omega0 * ts) / (1.5 * omega0)
        np.testing.assert_allclose(got, want, atol=1e-10)
        np.testing.assert_allclose(survival_probability(spec, ts), 1.0, atol=1e-12)
        _, gamma, ok = coefficient_series(spec, ts)
        assert ok.all()
        np.testing.assert_allclose(gamma, 0.0, atol=1e-10)

    def test_mass_validated(self):
        with pytest.raises(ValueError):
            LangevinInput(mass=0.0)


class TestEstimateGamma:
    def test_reference_fit(self, ref_spectrum):
        est = estimate_gamma(ref_spectrum, (1.0, 20.0))
        golden = golden_rule_rate(ref_spectrum.bath, ref_spectrum.omega0)
        assert golden == pytest.approx(2.0 * np.pi * 0.018, rel=1e-12)
        assert est.gamma == pytest.approx(golden, rel=0.15)
        assert est.rms_residual < 0.1

    def test_consistent_with_coefficient_plateau(self, ref_spectrum):
        est = estimate_gamma(ref_spectrum, (1.0, 20.0))
        ts = np.linspace(1.0, 20.0, 256)
        _, gam, ok = coefficient_series(ref_spectrum, ts)
        assert est.gamma == pytest.approx(float(np.mean(gam[ok])), rel=0.10)

    def test_no_exponential_regime_is_flagged_by_residual(self, two_level):
        est = estimate_gamma(two_level, (1.0, 20.0))
        assert est.rms_residual > 0.5  # meaningless fit, called out as such

    def test_empty_window(self, ref_spectrum):
        with pytest.raises(InvalidValue, match="empty fit window"):
            estimate_gamma(ref_spectrum, (5.0, 5.0))

    @pytest.mark.parametrize(
        "window", [(0.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308), (np.nan, 2.0)]
    )
    def test_non_finite_window(self, ref_spectrum, window):
        # the end points and the width are checked before any numpy arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="finite"):
                estimate_gamma(ref_spectrum, window)

    def test_vanishing_amplitude_inside_window(self):
        # engineer a symmetric doublet whose node lands on a sample point
        t_node = float(np.linspace(1.0, 20.0, 256)[128])
        g = float(np.pi / (2.0 * t_node))
        bath = build_bath(ModelParams.explicit([1.0], [g]))
        spec = solve_spectrum(bath, 1.0)
        with pytest.raises(AmplitudeVanishes):
            estimate_gamma(spec, (1.0, 20.0))


class TestRatesAndScales:
    def test_golden_rule_reference(self, ref_bath):
        assert golden_rule_rate(ref_bath, 1.0) == pytest.approx(
            0.11309733552923254, rel=1e-12
        )

    def test_golden_rule_single_mode(self):
        bath = build_bath(ModelParams.explicit([1.0], [0.1]))
        assert np.isnan(golden_rule_rate(bath, 1.0))

    def test_recurrence_two_level(self, two_level):
        assert recurrence_time(two_level) == pytest.approx(10.0 * np.pi, rel=1e-12)

    def test_recurrence_reference(self, ref_spectrum, ref_bath):
        t_r = recurrence_time(ref_spectrum)
        oracle = dense_diagonalize_oracle(ref_bath, 1.0)
        t_r_oracle = 2.0 * np.pi / float(np.diff(oracle.alphas).min())
        assert t_r == pytest.approx(t_r_oracle, rel=1e-9)
        assert t_r == pytest.approx(380.76, abs=0.01)
