import tracemalloc

import numpy as np
import pytest

from conftest import explicit_spectrum, make_random_bath
from oracles import naive_transition_probabilities
from qbm import evolution
from qbm import (
    ModelParams,
    TimeGrid,
    InitialOccupations,
    build_bath,
    oscillator_population,
    population_decomposition,
    population_series,
    solve_spectrum,
    survival_amplitude,
    survival_probability,
    thermal_occupations,
    transition_probabilities,
)


@pytest.fixture(scope="module")
def small_spec():
    rng = np.random.default_rng(12345)
    bath = make_random_bath(rng, 8)
    return solve_spectrum(bath, 1.0)


class TestSurvivalAmplitude:
    def test_two_level_closed_form(self, two_level):
        ts = np.linspace(0.0, 40.0, 200)
        got = survival_amplitude(two_level, ts)
        want = np.exp(-1j * ts) * np.cos(0.1 * ts)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_scalar_input(self, two_level):
        val = survival_amplitude(two_level, 3.0)
        assert isinstance(val, complex)
        assert val == pytest.approx(np.exp(-3j) * np.cos(0.3), abs=1e-12)

    def test_unit_at_zero(self, ref_spectrum):
        assert survival_amplitude(ref_spectrum, 0.0) == pytest.approx(
            1.0 + 0.0j, abs=1e-12
        )

    def test_modulus_bounded(self, ref_spectrum):
        ts = np.linspace(0.0, 500.0, 800)
        assert np.all(np.abs(survival_amplitude(ref_spectrum, ts)) <= 1.0 + 1e-12)

    def test_short_time_quadratic_loss(self, two_level):
        # 1 - |A|^2 = (sum g^2) t^2 + O(t^4)
        t = 1e-3
        loss = 1.0 - survival_probability(two_level, t)
        assert loss == pytest.approx(0.01 * t**2, rel=1e-3)


@pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
class TestAwayFromUnitOmega:
    def test_row0_probabilities_sum_to_one(self, omega0):
        # unit occupations everywhere: sum_m P_Omega,m(t) = 1
        spec = explicit_spectrum(omega0)
        occ = InitialOccupations(n_omega0=1.0, n_bath_modes=np.ones(spec.bath.n))
        ts = np.linspace(0.0, 200.0, 700)
        np.testing.assert_allclose(oscillator_population(spec, occ, ts), 1.0, atol=1e-12)

    def test_row0_kernel_matches_dense_reference(self, omega0):
        # thermal occupations weight each P_Omega,m(t) differently
        spec = explicit_spectrum(omega0)
        occ = thermal_occupations(spec.bath, 1.0, 1.0)
        ts = np.linspace(0.0, 200.0, 70)
        want = population_series(spec, occ, ts)[0]
        np.testing.assert_allclose(oscillator_population(spec, occ, ts), want, rtol=0.0, atol=1e-13)
        total, _, _ = population_decomposition(spec, occ, ts)
        np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-13)

    def test_zeno_slope_is_sum_g2(self, omega0):
        # 1 - |A|^2 = (sum g^2) t^2 + O(t^4) for any Omega
        spec = explicit_spectrum(omega0)
        t = 1e-3
        loss = 1.0 - survival_probability(spec, t)
        assert loss == pytest.approx(np.sum(spec.bath.couplings**2) * t**2, rel=1e-3)


class TestTransitionProbabilities:
    def test_identity_at_zero(self, small_spec):
        p = transition_probabilities(small_spec, t=0.0)
        np.testing.assert_allclose(p, np.eye(9), atol=1e-12)

    def test_fast_vs_naive(self, small_spec):
        for t in (0.7, 2.5, 13.0):
            fast = transition_probabilities(small_spec, t=t)
            naive = naive_transition_probabilities(small_spec, t=t)
            np.testing.assert_allclose(fast, naive, rtol=0.0, atol=1e-10)

    def test_doubly_stochastic(self, small_spec):
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 50.0, size=10):
            p = transition_probabilities(small_spec, float(t))
            np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-10)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(p >= -1e-12)
            assert np.all(p <= 1.0 + 1e-12)

    def test_symmetric(self, small_spec):
        p = transition_probabilities(small_spec, 4.2)
        np.testing.assert_allclose(p, p.T, atol=1e-13)

    def test_survival_consistency(self, ref_spectrum):
        # P_00(t) = |A(t)|^2
        for t in (0.5, 5.0, 50.0):
            p = transition_probabilities(ref_spectrum, t)
            assert p[0, 0] == pytest.approx(
                survival_probability(ref_spectrum, t), rel=1e-12
            )


class TestPopulations:
    def test_initial_condition(self, small_spec):
        occ0 = thermal_occupations(small_spec.bath, 1.0, 2.0)
        out = population_series(small_spec, occ0, [0.0])
        assert out.shape == (9, 1)
        np.testing.assert_allclose(out[:, 0], occ0.vector, atol=1e-12)

    def test_total_conserved(self, small_spec):
        occ0 = thermal_occupations(small_spec.bath, 1.0, 1.0)
        total0 = occ0.vector.sum()
        for values in population_series(small_spec, occ0, [0.3, 3.0, 30.0]).T:
            assert values.sum() == pytest.approx(total0, rel=1e-10)
            assert np.all(values >= -1e-12)

    def test_oscillator_population_is_row_zero(self, small_spec):
        occ0 = thermal_occupations(small_spec.bath, 1.0, 1.0)
        ts = np.array([0.4, 4.0, 14.0])
        got = oscillator_population(small_spec, occ0, ts)
        want = population_series(small_spec, occ0, ts)[0, :]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_partial_blocks_match_full_propagator(self, ref_spectrum, ref_occupations, monkeypatch):
        # blocks of 7 modes and 5 times leave a short last block of each
        monkeypatch.setattr(evolution, "_M_BLOCK", 7)
        monkeypatch.setattr(evolution, "_T_CHUNK", 5)
        grid = TimeGrid(t_start=3.0, t_step=1.7, n_steps=23)
        want = population_series(ref_spectrum, ref_occupations, grid.times())[0, :]
        got = oscillator_population(ref_spectrum, ref_occupations, grid.times())
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        total, _, _ = population_decomposition(ref_spectrum, ref_occupations, grid.times())
        np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-13)
        assert oscillator_population(ref_spectrum, ref_occupations, []).shape == (0,)


class TestPopulationDecomposition:
    def test_additivity_and_survival_term(self, ref_spectrum, ref_occupations):
        grid = TimeGrid(t_start=0.0, t_step=0.5, n_steps=80)
        total, surviving, influx = population_decomposition(
            ref_spectrum, ref_occupations, grid.times()
        )
        np.testing.assert_allclose(total, surviving + influx, atol=1e-12)
        # the surviving share is |A|^2 N_Omega(0)
        want = survival_probability(ref_spectrum, grid.times())
        np.testing.assert_allclose(surviving, want, rtol=1e-10, atol=1e-13)

    def test_initial_point(self, ref_spectrum, ref_occupations):
        grid = TimeGrid(t_start=0.0, t_step=1.0, n_steps=4)
        total, surviving, influx = population_decomposition(
            ref_spectrum, ref_occupations, grid.times()
        )
        assert total[0] == pytest.approx(1.0, abs=1e-10)
        assert surviving[0] == pytest.approx(1.0, abs=1e-10)
        assert influx[0] == pytest.approx(0.0, abs=1e-10)


def test_population_memory_does_not_grow_with_times():
    bath = build_bath(ModelParams(n_bath=1000, step=0.0018))
    spec = solve_spectrum(bath, 1.0)
    occ = thermal_occupations(bath, 1.0, 1.0)
    peaks = []
    for n_times in (2048, 12733):
        ts = 1000.0 + np.pi / 20.0 * np.arange(n_times)
        tracemalloc.start()
        try:
            oscillator_population(spec, occ, ts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)
