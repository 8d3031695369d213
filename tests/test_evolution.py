import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNEVEN_BATHS, explicit_spectrum, make_random_bath
from oracles import direct_moments, naive_transition_probabilities, row0_population
from qbm import langevin, spectrum
from qbm.errors import InvalidValue
from qbm import (
    ModelParams,
    TimeGrid,
    InitialOccupations,
    build_bath,
    moment_signal,
    oscillator_population,
    population_decomposition,
    population_series,
    solve_spectrum,
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
    # A(t) is the moment signal S_0(t)
    def test_two_level_closed_form(self, two_level):
        ts = np.linspace(0.0, 40.0, 200)
        got = moment_signal(two_level, 0, ts)
        want = np.exp(-1j * ts) * np.cos(0.1 * ts)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_scalar_input(self, two_level):
        # a scalar time is one time: a length-1 complex array
        val = moment_signal(two_level, 0, 3.0)
        assert isinstance(val, np.ndarray) and val.shape == (1,)
        assert val[0] == pytest.approx(np.exp(-3j) * np.cos(0.3), abs=1e-12)

    def test_unit_at_zero(self, ref_spectrum):
        assert moment_signal(ref_spectrum, 0, 0.0)[0] == pytest.approx(
            1.0 + 0.0j, abs=1e-12
        )

    def test_modulus_bounded(self, ref_spectrum):
        ts = np.linspace(0.0, 500.0, 800)
        assert np.all(np.abs(moment_signal(ref_spectrum, 0, ts)) <= 1.0 + 1e-12)

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
        # boxes of 7 modes and runs of 5 times leave a short last one of each;
        # 15 boxes put most box pairs of the N = 100 bath in the far field,
        # and the moments cross every run boundary of the same kernel
        monkeypatch.setattr(spectrum, "_BOX", 7)
        monkeypatch.setattr(langevin, "_T_CHUNK", 5)
        grid = TimeGrid(t_start=3.0, t_step=1.7, n_steps=23)
        want = population_series(ref_spectrum, ref_occupations, grid.times())[0, :]
        got = oscillator_population(ref_spectrum, ref_occupations, grid.times())
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        total, _, _ = population_decomposition(ref_spectrum, ref_occupations, grid.times())
        np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-13)
        assert oscillator_population(ref_spectrum, ref_occupations, []).shape == (0,)
        got = np.array([moment_signal(ref_spectrum, k, grid.times()) for k in (0, 1, 2)])
        np.testing.assert_allclose(
            got, direct_moments(ref_spectrum, (0, 1, 2), grid.times()), rtol=0.0, atol=2e-15
        )


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


class TestRow0KernelAccuracy:
    """The row-0 kernel runs its Cauchy product on Chebyshev node times and
    interpolates; the explicit row-0 sum at each time is the reference."""

    def test_recurrence_probe_report_window(self, recurrence_probe):
        # the report's plateau window at N = 10^4: 1273 times on one node set
        spec = recurrence_probe
        occ = thermal_occupations(spec.bath, 1.0, 1.0)
        ts = TimeGrid().times()
        window = ts[(ts >= 100.0) & (ts <= 300.0)]
        got = oscillator_population(spec, occ, window)
        idx = np.linspace(0, window.size - 1, 8).astype(int)
        want = row0_population(spec, occ, window[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "t_step, sizes",
        [(np.pi / 20.0, (2, 9, 64, 300, 1273, 12733)), (1.0, (64, 300, 1273))],
        ids=["default-step", "step-1"],
    )
    def test_plateau_probe_sweep(self, plateau_probe, t_step, sizes):
        # one call spans r h from ~0 (2 times) to ~900 (12733 times); the
        # node sets it is cut into reach r h ~ 45 at the default step and
        # ~ 140 at step 1, so a node count short of the band shows here
        spec, occ = plateau_probe
        for n in sizes:
            ts = 1000.0 + t_step * np.arange(n)
            got = oscillator_population(spec, occ, ts)
            idx = np.unique(np.linspace(0, n - 1, 12).astype(int))
            want = row0_population(spec, occ, ts[idx])
            np.testing.assert_allclose(got[idx], want, rtol=0.0, atol=1e-13, err_msg=f"T = {n}")

    @UNEVEN_BATHS
    def test_uneven_baths(self, omegas, omega0):
        # a box across the clusters' gap, or the last one stretched out to
        # the root near Omega = 5, is near the boxes its width reaches;
        # neighbours by index alone would send those pairs to the far field
        bath = build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))
        spec = solve_spectrum(bath, omega0)
        occ = thermal_occupations(bath, 1.0, 1.0)
        ts = 50.0 + 0.1 * np.arange(400)
        got = oscillator_population(spec, occ, ts)
        idx = np.linspace(0, ts.size - 1, 8).astype(int)
        want = row0_population(spec, occ, ts[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("groups", [False, True], ids=["one-group", "groups-of-3"])
    def test_wide_box_among_narrow_ones(self, groups):
        # three narrow 128-mode boxes, a very wide one, a narrow one: box 1 is
        # near box 4, whose width reaches it, but not box 3 between them, so
        # its near boxes are no single run; in groups of 3 target boxes the
        # second, short group starts on the all-near box 4, and box 5 in it
        # still needs the group's proxy product
        narrow = 1e-3 * np.arange(128)
        omegas = np.concatenate(
            [0.5 + narrow, 0.628 + narrow, 0.756 + narrow, np.linspace(1.0, 5.0, 128), 5.001 + narrow]
        )
        bath = build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))
        spec = solve_spectrum(bath, 1.0)
        _, _, near, px, _ = spectrum._boxes(spec.alphas, bath.omegas)
        assert near.shape == (7, 7)
        assert near[1].tolist() == [True, True, True, False, True, False, False]
        assert near[4].all() and not near[5].all()
        cells = 4 * 3 * spectrum._PROXIES * px.size if groups else spectrum._CELLS
        occ = thermal_occupations(bath, 1.0, 1.0)
        ts = 50.0 + 0.1 * np.arange(400)
        with mock.patch.object(spectrum, "_CELLS", cells):
            got = oscillator_population(spec, occ, ts)
        idx = np.linspace(0, ts.size - 1, 8).astype(int)
        want = row0_population(spec, occ, ts[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0.0, atol=1e-13)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_small_boxes_on_random_baths(self, data):
        # uneven gaps, some of them wide (clusters), Omega inside or outside
        # the band, and boxes of a few modes so most pairs are far
        n = data.draw(st.integers(2, 200), label="n")
        gaps = data.draw(st.lists(st.floats(1e-3, 0.05), min_size=n, max_size=n), label="gaps")
        jumps = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="cluster starts")
        gaps = np.array(gaps)
        gaps[jumps] += 1.0
        omegas = 0.1 + np.cumsum(gaps)
        couplings = data.draw(st.lists(st.floats(1e-3, 0.03), min_size=n, max_size=n), label="g")
        omega0 = data.draw(st.floats(0.05, omegas[-1] + 2.0), label="omega0")
        box = data.draw(st.integers(2, 16), label="box")
        t0 = data.draw(st.floats(0.0, 200.0), label="t0")
        bath = build_bath(ModelParams.explicit(omegas, couplings))
        spec = solve_spectrum(bath, omega0)
        occ = thermal_occupations(bath, 1.0, 1.0)
        ts = t0 + 0.1 * np.arange(64)
        with mock.patch.object(spectrum, "_BOX", box):
            got = oscillator_population(spec, occ, ts)
        want = row0_population(spec, occ, ts[::9])
        np.testing.assert_allclose(got[::9], want, rtol=0.0, atol=1e-13)

    # 600 fine times, one run on 173 node times, then 700 coarse ones, two
    # runs on their own times: both carry steps write into one output
    MIXED = np.concatenate([1000.0 + 0.05 * np.arange(600), 1100.0 + 3.0 * np.arange(700)])

    def test_node_and_direct_runs_in_one_call(self, plateau_probe):
        spec, occ = plateau_probe
        ts = self.MIXED
        r = spec.alphas[-1] / 2 - spec.alphas[0] / 2
        runs = [(x.size, w is None) for _, _, x, w in langevin._node_runs(ts, r, spec.n_levels)]
        assert runs == [(173, False), (512, True), (138, True)]
        want = row0_population(spec, occ, ts)
        total, surviving, influx = population_decomposition(spec, occ, ts)
        np.testing.assert_allclose(oscillator_population(spec, occ, ts), want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(surviving + influx, total, rtol=0.0, atol=1e-14)

    def test_runs_bound_the_phase_block(self, recurrence_probe):
        # 3000 steps of the recurrence preset on the N = 10^4 bath would take 442
        # nodes per run: K (N+1) <= _PHASE_CELLS caps them at 209; past
        # _PHASE_CELLS levels each run is one time of its own
        spec = recurrence_probe
        ts = spec.tau_omega / 8.0 * np.arange(3000)
        r = spec.alphas[-1] / 2 - spec.alphas[0] / 2
        runs = list(langevin._node_runs(ts, r, spec.n_levels))
        assert 0 < max(x.size for *_, x, w in runs if w is not None) <= 209
        assert np.array_equal(np.concatenate([t for _, t, _, _ in runs]), ts)
        runs = list(langevin._node_runs(ts[:20], r, langevin._PHASE_CELLS + 1))
        assert [t.size for _, t, _, w in runs if w is None] == [1] * 20

    def test_carry_blocks_match_one_block(self, plateau_probe):
        # 4096 cells cut the 173-node run into blocks of 23 times, the runs
        # on their own times into blocks of 8 and 29
        spec, occ = plateau_probe
        whole = population_decomposition(spec, occ, self.MIXED)
        with mock.patch.object(langevin, "_CELLS", 4096):
            blocked = population_decomposition(spec, occ, self.MIXED)
        np.testing.assert_allclose(blocked, whole, rtol=0.0, atol=1e-15)

    def test_coarse_grid_times_are_nodes(self, ref_spectrum, ref_occupations):
        # at t_step = 2 nodes would not be fewer than times: the times are the nodes
        ts = TimeGrid(t_step=2.0, n_steps=1500).times()
        got = oscillator_population(ref_spectrum, ref_occupations, ts)
        want = row0_population(ref_spectrum, ref_occupations, ts)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("t", [1.7e308, float("nan")], ids=["overflow", "nan"])
def test_phase_overflow_is_typed_error(two_level, t):
    # max|t| * max|alpha| = 1.7e308 * 1.1 overflows: no product evaluates it
    occ = InitialOccupations(n_omega0=1.0, n_bath_modes=np.array([0.5]))
    calls = (
        lambda: survival_probability(two_level, np.array([0.0, t])),
        lambda: oscillator_population(two_level, occ, [0.0, t]),
        lambda: population_decomposition(two_level, occ, [0.0, t]),
        lambda: transition_probabilities(two_level, t),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidValue, match="phases"):
                call()


def test_population_memory_does_not_grow_with_times():
    bath = build_bath(ModelParams(n_bath=1000, step=0.0018))
    spec = solve_spectrum(bath, 1.0)
    occ = thermal_occupations(bath, 1.0, 1.0)
    r, peaks, nodes = spec.alphas[-1] / 2 - spec.alphas[0] / 2, [], []
    # both lengths run on the same node count: the kernel's buffers scale
    # with it, so only then does a peak that grows mean it grows with times
    for n_times in (8192, 12733):
        ts = 1000.0 + np.pi / 20.0 * np.arange(n_times)
        nodes.append({x.size for *_, x, _ in langevin._node_runs(ts, r, spec.n_levels)})
        tracemalloc.start()
        try:
            oscillator_population(spec, occ, ts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert nodes[0] == nodes[1]
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)


def test_population_memory_on_report_window(recurrence_probe):
    # the N = 10^4 report window on 148 node times: the phase block is
    # 24 MB; the boxed Cauchy product, folded into the 148 x 148 Gram matrix
    # box by box, and the one (1273, 148) carry block besides are small
    spec = recurrence_probe
    occ = thermal_occupations(spec.bath, 1.0, 1.0)
    ts = TimeGrid().times()
    window = ts[(ts >= 100.0) & (ts <= 300.0)]
    tracemalloc.start()
    try:
        oscillator_population(spec, occ, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
