import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNEVEN_BATHS, explicit_spectrum, make_random_bath, row0_runs, traced_peak
from oracles import direct_moments, naive_transition_probabilities, row0_population
from qbm import evolution, langevin, spectrum
from qbm.cli import _setup
from qbm.errors import InvalidValue
from qbm import (
    ModelParams,
    TimeGrid,
    InitialOccupations,
    build_bath,
    coefficient_series,
    moment_signal,
    oscillator_population,
    parse_config,
    population_decomposition,
    population_series,
    solve_spectrum,
    survival_probability,
    thermal_occupations,
    transition_probabilities,
)


def rows_counted(spec, formed):
    """A spy for _phase_rows, as _box_rows looks it up, that counts, per run
    (its nodes x), how often each root's own rows are formed: formed[x]
    over the roots."""
    al, phase_rows = spec.alphas, spectrum._phase_rows
    z = al - (al[0] / 2 + al[-1] / 2)

    def spy(x, zs, *args):
        roots = np.searchsorted(z, zs)
        assert np.array_equal(z[roots], zs)  # each of the roots' z, as the kernel forms it
        formed.setdefault(x.tobytes(), np.zeros(al.size, int))[roots] += 1
        return phase_rows(x, zs, *args)

    return spy


def factors_counted(spec, formed):
    """A spy for _box_rows, as evolution looks it up, that counts, per run
    (its nodes x), how often each root box's factor is formed: formed[x] at
    the box's first root."""
    al, box_rows = spec.alphas, spectrum._box_rows
    z = al - (al[0] / 2 + al[-1] / 2)

    def spy(x, *args):
        rows = box_rows(x, *args)

        def counted(zs):
            formed.setdefault(x.tobytes(), np.zeros(al.size, int))[np.searchsorted(z, zs[:1])] += 1
            return rows(zs)

        return counted

    return spy


def wide_box_bath():
    """Three narrow 128-mode boxes, a very wide one and a narrow one, all
    with 0.002 couplings: the first box is near the wide one but not the
    one between them, so its near boxes are no single run."""
    narrow = 1e-3 * np.arange(128)
    omegas = np.concatenate(
        [0.5 + narrow, 0.628 + narrow, 0.756 + narrow, np.linspace(1.0, 5.0, 128), 5.001 + narrow]
    )
    return build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))


@pytest.fixture(scope="module")
def report_window(recurrence_probe):
    """The N = 10^4 recurrence probe and its report's plateau window, the
    default grid's 1273 times in [100, 300]."""
    ts = TimeGrid().times()
    return recurrence_probe, ts[(ts >= 100.0) & (ts <= 300.0)]


@pytest.fixture(scope="module")
def recurrence_grid():
    """Spectrum and times of `grid = recurrence` on the N = 2000, A = 0.0009
    bath, as `qbm run` sets them up: 11,736 times to 1.2 t_r."""
    spec, grid = _setup(parse_config("N = 2000\nA = 0.0009\ngrid = recurrence\n"))
    return spec, grid.times()


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

    def test_partial_blocks_match_full_propagator(self, ref_bath, ref_occupations, monkeypatch):
        # boxes of 7 modes and runs of 5 times leave a short last one of each;
        # 15 boxes put most box pairs of the N = 100 bath in the far field,
        # and the moments cross every run boundary of the same kernel.  The
        # solve inside the patch stores the boxes the kernel sweeps
        monkeypatch.setattr(spectrum, "_BOX", 7)
        monkeypatch.setattr(langevin, "_T_CHUNK", 5)
        spec = solve_spectrum(ref_bath, 1.0)
        *_, px, _, levels = spec.boxes
        assert px.shape[0] == 15 and len(levels) >= 2
        grid = TimeGrid(t_start=3.0, t_step=1.7, n_steps=23)
        want = population_series(spec, ref_occupations, grid.times())[0, :]
        got = oscillator_population(spec, ref_occupations, grid.times())
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        total, _, _ = population_decomposition(spec, ref_occupations, grid.times())
        np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-13)
        assert oscillator_population(spec, ref_occupations, []).shape == (0,)
        got = np.array([moment_signal(spec, k, grid.times()) for k in (0, 1, 2)])
        np.testing.assert_allclose(
            got, direct_moments(spec, (0, 1, 2), grid.times()), rtol=0.0, atol=2e-15
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

    def test_parts_are_survival_and_influx_exactly(self, ref_spectrum):
        # surviving is |A|^2 N_Omega(0) and total is surviving + influx, bit
        # for bit; influx is the row-0 kernel without the oscillator's share
        occ = thermal_occupations(ref_spectrum.bath, 1.0, 2.5)
        ts = TimeGrid(t_start=0.0, t_step=0.5, n_steps=80).times()
        total, surviving, influx = population_decomposition(ref_spectrum, occ, ts)
        np.testing.assert_array_equal(surviving, survival_probability(ref_spectrum, ts) * 2.5)
        np.testing.assert_array_equal(total, surviving + influx)
        bath_only = InitialOccupations(n_omega0=0.0, n_bath_modes=occ.n_bath_modes)
        np.testing.assert_array_equal(influx, oscillator_population(ref_spectrum, bath_only, ts))

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

    def test_report_window_swept_in_row_chunks(self, recurrence_probe):
        # the report window's run (K = 148) sweeps the tree in 8 even chunks
        # of its 296 cos and sin rows at the default budget; chunks of 2 or
        # 3 rows give its two halves' bytes, within the 1e-13 gate
        spec = recurrence_probe
        occ = thermal_occupations(spec.bath, 1.0, 1.0)
        ts = TimeGrid().times()
        window = ts[(ts >= 100.0) & (ts <= 300.0)]
        row = spec.boxes[3].shape[0] * spectrum._PROXIES  # cells of a row of charges
        got, sweeps = {}, {}
        for label, cells in (("default", evolution._SWEEP_CELLS), ("rows-3", 3 * row), ("halves", 296 * row)):
            with (
                mock.patch.object(evolution, "_SWEEP_CELLS", cells),
                mock.patch.object(evolution, "_far", wraps=spectrum._far) as far,
            ):
                got[label] = oscillator_population(spec, occ, window)
            sweeps[label] = [call.args[1].shape[1] for call in far.call_args_list]
        assert sweeps["default"] == [37] * 8
        assert sweeps["halves"] == [148] * 2
        assert set(sweeps["rows-3"]) == {2, 3} and sum(sweeps["rows-3"]) == 296
        np.testing.assert_array_equal(got["default"], got["halves"])
        np.testing.assert_array_equal(got["rows-3"], got["halves"])
        idx = np.linspace(0, window.size - 1, 8).astype(int)
        want = row0_population(spec, occ, window[idx])
        np.testing.assert_allclose(got["rows-3"][idx], want, rtol=0.0, atol=1e-13)

    def test_report_window_swept_from_level_one(self, recurrence_probe):
        # the report window's run is windowed, its 2 K (N+1) rows past
        # _PHASE_CELLS: each root box's charges go straight onto its parent,
        # so each of the 8 sweeps takes the 40 boxes of level 1 on the five
        # levels above the leaves, not the 79 leaves on all six
        spec = recurrence_probe
        occ = thermal_occupations(spec.bath, 1.0, 1.0)
        ts = TimeGrid().times()
        window = ts[(ts >= 100.0) & (ts <= 300.0)]
        with mock.patch.object(evolution, "_far", wraps=spectrum._far) as far:
            oscillator_population(spec, occ, window)
        assert [call.args[1].shape[:2] for call in far.call_args_list] == [(40, 37)] * 8
        assert all(len(call.args[0]) == len(spec.boxes[5]) - 1 == 5 for call in far.call_args_list)

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

    @UNEVEN_BATHS
    def test_windowed_runs_match_kept_ones(self, omegas, omega0):
        # every run past _PHASE_CELLS, set to K (N+1) of the largest run so
        # that the runs stay as they are: a windowed run takes each box's
        # potentials from its parent's and its leaf far pairs', which on
        # these baths are not the even bath's boxes 2 and 3 apart (or, on a
        # tree of one level, every far pair), and agrees with the kept run
        bath = build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))
        spec = solve_spectrum(bath, omega0)
        occ = thermal_occupations(bath, 1.0, 1.0)
        for ts in (50.0 + 0.1 * np.arange(400), 50.0 + 10.0 * np.arange(40)):
            cells = spec.n_levels * max(x.size for *_, x, _ in row0_runs(spec, ts))
            kept = population_decomposition(spec, occ, ts)
            with mock.patch.object(evolution, "_PHASE_CELLS", cells):
                assert all(2 * x.size * spec.n_levels > cells for *_, x, _ in row0_runs(spec, ts))
                windowed = population_decomposition(spec, occ, ts)
            np.testing.assert_allclose(windowed, kept, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("per_level", [False, True], ids=["one-group", "groups-of-3"])
    def test_wide_box_among_narrow_ones(self, per_level):
        # three narrow 128-mode boxes, a very wide one, a narrow one: box 1 is
        # near box 4, whose width reaches it, but not box 3 between them, so
        # its near boxes are no single run.  On the tree, whose leaves are
        # the middle boxes numbered one less (the outer boxes 0 and 6 are
        # near every box), the wide box 3's ancestor is near every box and
        # so in no far pair, while box 4 beside it, whose parent is box 4
        # alone, meets box 2 at the leaves and boxes 0-1 through their parent
        bath = wide_box_bath()
        spec = solve_spectrum(bath, 1.0)
        *_, near, px, _, levels = spectrum._boxes(bath.omegas)
        assert near.shape == (7, 7) and px.shape[0] == 5
        assert near[1].tolist() == [True, True, True, False, True, False, True]
        assert near[4].all() and not near[5].all()
        if per_level:
            pairs = []
            for a, _, m2l in levels:
                box = np.arange(len(a))
                pairs.append({(int(t), int(s)) for ts, ss in m2l for t, s in zip(box[ts], box[ss])})
            assert len(levels) == 2
            for level, far in enumerate(pairs):
                assert not any(3 >> level in pair for pair in far)
            assert pairs[0] == {(0, 2), (2, 0), (2, 4), (4, 2)}
            assert pairs[1] == {(0, 2), (2, 0)}
        occ = thermal_occupations(bath, 1.0, 1.0)
        ts = 50.0 + 0.1 * np.arange(400)
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
        with mock.patch.object(spectrum, "_BOX", box):  # the solve's boxes are the kernel's
            spec = solve_spectrum(bath, omega0)
        assert spec.boxes[3].shape[0] == -(-n // box)
        occ = thermal_occupations(bath, 1.0, 1.0)
        ts = t0 + 0.1 * np.arange(64)
        got = oscillator_population(spec, occ, ts)
        want = row0_population(spec, occ, ts[::9])
        np.testing.assert_allclose(got[::9], want, rtol=0.0, atol=1e-13)

    @staticmethod
    def check_proxies(spec, ts):
        # every run past _PHASE_CELLS, set to K (N+1) of the largest run so
        # that the runs stay as they are, against the explicit sum; returns
        # how many inner roots had their own rows formed (_phase_rows), in
        # root boxes of no more roots than proxies
        n = spec.n_levels
        cells = n * max(x.size for *_, x, _ in row0_runs(spec, ts))
        formed = {}
        occ = thermal_occupations(spec.bath, 1.0, 1.0)
        spy = rows_counted(spec, formed)
        with (
            mock.patch.object(evolution, "_PHASE_CELLS", cells),
            mock.patch.object(spectrum, "_phase_rows", spy),
        ):
            assert all(2 * x.size * n > cells for *_, x, _ in row0_runs(spec, ts))
            got = oscillator_population(spec, occ, ts)
        idx = np.linspace(0, ts.size - 1, 8).astype(int)
        want = row0_population(spec, occ, ts[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0.0, atol=1e-13)
        return int(np.count_nonzero(sum(formed.values())[1:-1]))

    @UNEVEN_BATHS
    def test_proxies_on_uneven_baths(self, omegas, omega0):
        # on 400 fine times (one node run) every inner root goes through its
        # box's proxies; on 40 coarse times, a run of their own, the narrow
        # boxes still do
        bath = build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))
        spec = solve_spectrum(bath, omega0)
        assert self.check_proxies(spec, 50.0 + 0.1 * np.arange(400)) == 0
        assert self.check_proxies(spec, 50.0 + 10.0 * np.arange(40)) < spec.n_levels - 2

    def test_proxies_on_wide_box_bath(self):
        # on the coarse times the wide box, 4 wide, takes its own rows
        spec = solve_spectrum(wide_box_bath(), 1.0)
        assert self.check_proxies(spec, 50.0 + 0.1 * np.arange(400)) == 0
        own = self.check_proxies(spec, 50.0 + 10.0 * np.arange(40))
        assert 0 < own < spec.n_levels - 2

    def test_run_at_origin_meets_proxies(self, ref_spectrum, ref_occupations):
        # the first 400 default-grid times make one run that holds t = 0; it
        # turns about its own centre, so the 99-root middle box meets it
        # through proxies and only alpha_0 and alpha_N have their own rows
        # formed (_phase_rows)
        formed, ts = {}, TimeGrid().times()[:400]
        assert [x.min() for *_, x, _ in row0_runs(ref_spectrum, ts)] == [0.0]
        with mock.patch.object(spectrum, "_phase_rows", rows_counted(ref_spectrum, formed)):
            oscillator_population(ref_spectrum, ref_occupations, ts)
        (counts,) = formed.values()
        assert np.flatnonzero(counts).tolist() == [0, ref_spectrum.n_levels - 1]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_proxies_on_random_baths(self, data):
        # the baths of test_small_boxes_on_random_baths, fine times or coarse
        # ones, every run past _PHASE_CELLS, on boxes of 2 to 64 roots: on
        # fine times boxes of 24 or more meet them through proxies, narrow
        # boxes and coarse times take their own rows
        n = data.draw(st.integers(2, 200), label="n")
        gaps = data.draw(st.lists(st.floats(1e-3, 0.05), min_size=n, max_size=n), label="gaps")
        jumps = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="cluster starts")
        gaps = np.array(gaps)
        gaps[jumps] += 1.0
        omegas = 0.1 + np.cumsum(gaps)
        couplings = data.draw(st.lists(st.floats(1e-3, 0.03), min_size=n, max_size=n), label="g")
        omega0 = data.draw(st.floats(0.05, omegas[-1] + 2.0), label="omega0")
        box = data.draw(st.integers(2, 64), label="box")
        t0 = data.draw(st.floats(0.0, 200.0), label="t0")
        step = data.draw(st.sampled_from([0.1, 3.0]), label="step")
        with mock.patch.object(spectrum, "_BOX", box):  # the solve's boxes are the kernel's
            spec = solve_spectrum(build_bath(ModelParams.explicit(omegas, couplings)), omega0)
            self.check_proxies(spec, t0 + step * np.arange(64))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_windowed_runs_on_few_modes(self, n):
        # one mode leaves the middle root box empty, two or three modes one
        # or two roots; node runs and runs of their own times, each past
        # _PHASE_CELLS, meet it through _box_rows' window
        omegas = 1.0 + 0.1 * (np.arange(n) - (n - 1) / 2)
        spec = solve_spectrum(build_bath(ModelParams.explicit(omegas, np.full(n, 0.05))), 1.0)
        assert spec.boxes[1].tolist()[1:3] == [1, n]  # the middle root box
        for ts in (0.5 + 0.5 * np.arange(64), 0.5 + 20.0 * np.arange(64)):
            self.check_proxies(spec, ts)

    # 600 fine times, one run on 173 node times, then 700 coarse ones, two
    # runs on their own times: both carry steps write into one output
    MIXED = np.concatenate([1000.0 + 0.05 * np.arange(600), 1100.0 + 3.0 * np.arange(700)])

    def test_node_and_direct_runs_in_one_call(self, plateau_probe):
        spec, occ = plateau_probe
        ts = self.MIXED
        runs = [(x.size, w is None) for _, _, x, w in row0_runs(spec, ts)]
        assert runs == [(173, False), (512, True), (138, True)]
        want = row0_population(spec, occ, ts)
        total, surviving, influx = population_decomposition(spec, occ, ts)
        np.testing.assert_allclose(oscillator_population(spec, occ, ts), want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(surviving + influx, total, rtol=0.0, atol=1e-14)

    def test_half_blocks_match_whole_ones(self, plateau_probe):
        # every run is kept at the default cap: one pass, its far field met
        # after the sweep; a cap between one half of the 173-node run's rows
        # and both halves keeps that run's length but takes it in two
        # passes, the root boxes anterpolated first and met again in a
        # window that slides past the target boxes, the far field in each
        # box's block; the runs on their own times, cut at 259 times by the
        # cap, take two passes too
        spec, occ = plateau_probe
        ts = self.MIXED
        cells = 259 * spec.n_levels
        assert 173 * spec.n_levels <= cells < 2 * 173 * spec.n_levels

        def runs():  # (kept, K, on its own times)
            cap = evolution._PHASE_CELLS
            return [(2 * x.size * spec.n_levels <= cap, x.size, w is None) for *_, x, w in row0_runs(spec, ts)]

        kept = population_decomposition(spec, occ, ts)
        assert runs() == [(True, 173, False), (True, 512, True), (True, 138, True)]
        with mock.patch.object(evolution, "_PHASE_CELLS", cells):
            assert runs() == [(False, 173, False), (False, 259, True), (False, 259, True), (False, 132, True)]
            windowed = population_decomposition(spec, occ, ts)
        np.testing.assert_allclose(windowed, kept, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("streamed", [False, True], ids=["whole", "streamed"])
    @pytest.mark.parametrize("probe", ["plateau", "groups-of-3"])
    def test_each_root_formed_once_per_pass(self, plateau_probe, probe, streamed):
        # a run whose cos and sin rows fit _PHASE_CELLS makes one pass: it
        # forms each middle root box's factor (_box_rows) once per run of
        # consecutive target boxes near it (once on the even plateau bath;
        # twice for the wide-box bath's box 0, near targets 0, 1 and 3),
        # alpha_0 and alpha_N in one of their own, and no root's own rows
        # (_phase_rows) twice; past it (a cap of 173 levels per node) only
        # the outer roots alpha_0 and alpha_N have their rows formed, and
        # every inner root goes through its box's frequency proxies, also
        # where the wide-box bath's box 4 wide is near every box
        if probe == "plateau":
            (spec, occ), ts = plateau_probe, self.MIXED
        else:
            spec = solve_spectrum(wide_box_bath(), 1.0)
            occ, ts = thermal_occupations(spec.bath, 1.0, 1.0), 50.0 + 0.1 * np.arange(400)
        cells = 173 * spec.n_levels if streamed else evolution._PHASE_CELLS
        formed, factors = {}, {}
        spy = rows_counted(spec, formed)
        with (
            mock.patch.object(evolution, "_PHASE_CELLS", cells),
            mock.patch.object(spectrum, "_phase_rows", spy),
            mock.patch.object(evolution, "_box_rows", factors_counted(spec, factors)),
        ):
            sizes = [x.size for *_, x, _ in row0_runs(spec, ts)]
            total = oscillator_population(spec, occ, ts)
        assert all((2 * k * spec.n_levels > cells) == streamed for k in sizes)
        assert len(formed) == len(factors) == len(sizes)
        cr, near = spec.boxes[1], spec.boxes[2][1:-1, 1:-1]
        runs = near[0] + np.count_nonzero(near[1:] & ~near[:-1], axis=0)  # of near targets, per box
        assert runs.max() == (1 if probe == "plateau" else 2)
        for counts, each in zip(formed.values(), factors.values()):
            assert counts[0] == counts[-1] == 1
            if streamed:
                assert not counts[1:-1].any()
            else:
                assert counts.max() == 1
                np.testing.assert_array_equal(each[cr[1:-2]], runs)  # each middle box, by its first root
                assert each[0] == 1 and each.sum() == runs.sum() + 1  # and the outer roots' one factor
        idx = np.linspace(0, ts.size - 1, 8).astype(int)
        np.testing.assert_allclose(total[idx], row0_population(spec, occ, ts[idx]), rtol=0.0, atol=1e-13)

    def test_worker_count_with_kept_and_windowed_runs(self, plateau_probe, monkeypatch):
        # a cap of 512 levels per node keeps the plan, and the 173-node run
        # and the 138-time run in one pass, but puts the 512-time run on the
        # window's two: either rule, the threads change no bit
        spec, occ = plateau_probe
        cells = 512 * spec.n_levels
        monkeypatch.setattr(evolution, "_PHASE_CELLS", cells)
        runs = [(2 * x.size * spec.n_levels <= cells, x.size) for *_, x, _ in row0_runs(spec, self.MIXED)]
        assert runs == [(True, 173), (False, 512), (True, 138)]
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("QBM_THREADS", workers)
            outs.append(np.stack(population_decomposition(spec, occ, self.MIXED)).tobytes())
        assert outs[0] == outs[1]

    def test_runs_bound_the_phase_block(self, recurrence_probe):
        # 3000 steps of the recurrence preset on the N = 10^4 bath would take 442
        # nodes per run: K (N+1) <= _PHASE_CELLS caps them at 209; past
        # _PHASE_CELLS levels each run is one time of its own
        spec = recurrence_probe
        ts = spec.tau_omega / 8.0 * np.arange(3000)
        r = spec.alphas[-1] / 2 - spec.alphas[0] / 2
        runs = row0_runs(spec, ts)
        assert 0 < max(x.size for *_, x, w in runs if w is not None) <= 209
        assert np.array_equal(np.concatenate([t for _, t, _, _ in runs]), ts)
        runs = list(langevin._node_runs(ts[:20], r, evolution._row0_price(evolution._PHASE_CELLS + 1)))
        assert [t.size for _, t, _, w in runs if w is None] == [1] * 20

    def test_carry_blocks_match_one_block(self, plateau_probe):
        # 4096 cells cut the 173-node run into blocks of 23 times, the runs
        # on their own times into blocks of 8 and 29
        spec, occ = plateau_probe
        whole = population_decomposition(spec, occ, self.MIXED)
        with mock.patch.object(evolution, "_CELLS", 4096):
            blocked = population_decomposition(spec, occ, self.MIXED)
        np.testing.assert_allclose(blocked, whole, rtol=0.0, atol=1e-15)

    def test_coarse_grid_times_are_nodes(self, ref_spectrum, ref_occupations):
        # at t_step = 2 nodes would not be fewer than times: the times are the nodes
        ts = TimeGrid(t_step=2.0, n_steps=1500).times()
        got = oscillator_population(ref_spectrum, ref_occupations, ts)
        want = row0_population(ref_spectrum, ref_occupations, ts)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestUnitarity:
    """Two identities that need no oracle, on the public routes, on the
    N = 10^4 report window and the N = 2000 recurrence grid, where no
    dense oracle reaches every time."""

    @pytest.mark.parametrize(
        "grid, gate", [("report_window", 1e-12), ("recurrence_grid", 4e-13)], ids=["report-window", "recurrence-grid"]
    )
    def test_unit_occupations_stay_one(self, request, grid, gate):
        # P is doubly stochastic: with every occupation 1, <N_Omega(t)> =
        # sum_m P_Omega,m(t) = 1.  The residual reads 6.7e-13 and 2.0e-13,
        # at t = 0 set by the weights, 2 (sum w - 1), later by the kernel
        spec, ts = request.getfixturevalue(grid)
        got = oscillator_population(spec, InitialOccupations(1.0, np.ones(spec.bath.n)), ts)
        np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=gate)

    @pytest.mark.parametrize("grid", ["report_window", "recurrence_grid"], ids=["report-window", "recurrence-grid"])
    def test_oscillator_alone_is_its_survival(self, request, grid):
        # one quantum on the oscillator and none in the bath: <N_Omega(t)> =
        # |A(t)|^2, which the moments reach through other runs and rows
        # (2.1e-15 and 1.8e-15 apart)
        spec, ts = request.getfixturevalue(grid)
        got = oscillator_population(spec, InitialOccupations(1.0, np.zeros(spec.bath.n)), ts)
        np.testing.assert_allclose(got, survival_probability(spec, ts), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "t", [1.7e308, 1e300, 2.0**52], ids=["overflow", "huge", "no-fraction"]
)
def test_phase_overflow_is_typed_error(two_level, t):
    # max|t| * max|alpha| = 1.7e308 * 1.1 overflows, and from 2^52 on the
    # phases keep no bits below the unit (at 1e300 the price of a run
    # would overflow): no product evaluates them, nor prices their runs
    occ = InitialOccupations(n_omega0=1.0, n_bath_modes=np.array([0.5]))
    calls = (
        lambda: survival_probability(two_level, np.array([0.0, t])),
        lambda: oscillator_population(two_level, occ, [0.0, t]),
        lambda: population_decomposition(two_level, occ, [0.0, t]),
        lambda: transition_probabilities(two_level, t),
        lambda: coefficient_series(two_level, np.array([0.0, t])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(langevin, "_node_runs") as runs:
            for call in calls:
                with pytest.raises(InvalidValue, match="phases"):
                    call()
        runs.assert_not_called()
        # just below the bound, 4e15 * 1.1 < 2^52, the phases are evaluated
        assert np.all(np.isfinite(survival_probability(two_level, np.array([0.0, 4e15]))))


@pytest.mark.parametrize("step", [5e-324, 1e-300], ids=["subnormal", "tiny"])
def test_narrow_spans_run_on_their_own_times(ref_spectrum, ref_occupations, step):
    # 17 times 5e-324 or 1e-300 apart: a run's Chebyshev nodes would round
    # together, or lie so close that t - x is subnormal and _barycentric's
    # w / d overflows; every run takes its own times, and every product is
    # its value at t = 0 to rounding
    ts = step * np.arange(17)
    assert all(w is None for *_, w in row0_runs(ref_spectrum, ts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        survival = survival_probability(ref_spectrum, ts)
        population = oscillator_population(ref_spectrum, ref_occupations, ts)
        omega2, gamma, ok = coefficient_series(ref_spectrum, ts)
    np.testing.assert_allclose(survival, 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(population, 1.0, rtol=0.0, atol=1e-13)
    assert np.all(np.isfinite(omega2[ok])) and np.all(np.isfinite(gamma[ok]))


def test_population_memory_does_not_grow_with_times():
    bath = build_bath(ModelParams(n_bath=1000, step=0.0018))
    spec = solve_spectrum(bath, 1.0)
    occ = thermal_occupations(bath, 1.0, 1.0)
    peaks, nodes = [], []
    # both lengths run on the same node count: the kernel's buffers scale
    # with it, so only then does a peak that grows mean it grows with times
    for n_times in (4096, 8192):
        ts = 1000.0 + np.pi / 20.0 * np.arange(n_times)
        nodes.append({x.size for *_, x, _ in row0_runs(spec, ts)})
        peaks.append(traced_peak(oscillator_population, spec, occ, ts))
    assert nodes[0] == nodes[1]
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)


def test_population_memory_on_plateau_grid(plateau_probe, monkeypatch):
    # the plateau grid's 12,800 times on one worker, 12 runs of K = 130: a
    # kept run forms each root box's factor once, as an array freed after
    # the last target box near it, and keeps per box with a far field only
    # X and M, (2 K, p) and (p, p) per column, until
    # the sweep gives the potentials: longer runs, no more memory than
    # 23 runs of K = 85 that keep every root box's own rows (2.97e6)
    monkeypatch.setenv("QBM_THREADS", "1")
    spec, occ = plateau_probe
    ts = TimeGrid(t_start=1000.0, n_steps=12800).times()
    assert [x.size for *_, x, _ in row0_runs(spec, ts)] == [130] * 12
    assert traced_peak(oscillator_population, spec, occ, ts) < 3.0e6


def test_population_memory_on_report_window(recurrence_probe):
    # the N = 10^4 report window on 148 node times: no inner root's phase
    # rows (24 MB for all) are formed.  Each root box is met through its
    # 18 frequency proxies, (296, 36) and (36, 128) factors at 0.12 MB a
    # box.  The run is windowed, and what it holds scales with K (N+1) / B:
    # each root box's cos and sin charges summed onto its parent's,
    # (40, 2 x 148, 20) at 1.9 MB, which the tree sweeps 37 rows at a time
    # from level 1 up, each chunk's potentials written over its charges,
    # with its m2l blocks there (0.65 MB), formed for the sweeps and freed
    # after them.  Then the window holds a root box's charges from its
    # first use (a target box near it or in a leaf far pair with it) to
    # its last, and its factor only from its first use to its last near
    # target box (at most 4 boxes at a time on this even bath), and forms
    # the leaf pairs' m2l blocks one at a time; 4.1 MB at the peak.  Then
    # the 148 x 148 Gram matrices and the one (1273, 148) carry block
    spec = recurrence_probe
    occ = thermal_occupations(spec.bath, 1.0, 1.0)
    ts = TimeGrid().times()
    window = ts[(ts >= 100.0) & (ts <= 300.0)]
    assert traced_peak(oscillator_population, spec, occ, window) < 4.4e6


@pytest.mark.parametrize(
    "a, k, keep, gate", [(0.0015, 200, False, 9e6), (0.0003, 67, True, 4.3e6)], ids=["windowed", "kept"]
)
def test_population_memory_on_uneven_run(a, k, keep, gate):
    # 20 boxes of 128 modes a apart, one box 30 times wider, then 20 more.
    # At a = 0.0015 the wide box's sibling forms leaf far pairs with nearly
    # every box, so a windowed run (K = 200 past _PHASE_CELLS) uses each
    # root box at target boxes far apart.  A factor is held only across
    # each run of consecutive target boxes that use it, up to the last that
    # needs it, and formed again after a gap; each box's charges are held
    # from its first use to its last (14.1 MB when every factor was held as
    # long).  At a = 0.0003 one kept run (K = 67) holds each factor as an
    # array of its own box's size (4.05e6; 4.51e6 when every factor took a
    # slot of the widest box's size)
    omegas = 0.2 + np.cumsum(np.concatenate([[0.0], np.full(2560, a), np.full(128, 30 * a), np.full(2559, a)]))
    bath = build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))
    spec, occ = solve_spectrum(bath, float(np.median(omegas))), thermal_occupations(bath, 1.0, 1.0)
    ts = 50.0 + 0.1 * np.arange(400)
    assert [x.size for *_, x, _ in row0_runs(spec, ts)] == [k]
    assert (2 * k * spec.n_levels <= evolution._PHASE_CELLS) == keep
    assert traced_peak(oscillator_population, spec, occ, ts) < gate
    got = oscillator_population(spec, occ, ts)
    idx = np.linspace(0, ts.size - 1, 8).astype(int)
    np.testing.assert_allclose(got[idx], row0_population(spec, occ, ts[idx]), rtol=0.0, atol=1e-13)
