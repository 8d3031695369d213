import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit_spectrum, make_random_bath, row0_runs, traced_peak
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
from qbm import evolution, langevin, spectrum
from qbm.errors import AmplitudeVanishes, InvalidValue


def recurrence_grid(spec):
    """The times of grid = recurrence on spec: tau_Omega / 8 apart, over 1.2 t_r."""
    step = spec.tau_omega / 8.0
    return TimeGrid(t_step=step, n_steps=int(np.ceil(1.2 * recurrence_time(spec) / step)) + 1).times()


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

    @pytest.mark.parametrize("probe", ["default", "plateau", "fit-window"])
    def test_match_extended_precision_sum(self, probe, ref_spectrum, plateau_probe, recurrence_probe):
        # the default grid on N = 100, the plateau grid on N = 1000 and the
        # report's fit window on N = 10^4 (its root boxes met through proxy
        # frequencies), taken whole as the CLI does; 64 times compared each
        if probe == "default":
            spec, ts = ref_spectrum, TimeGrid().times()
        elif probe == "plateau":
            spec, ts = plateau_probe[0], TimeGrid(t_start=1000.0, n_steps=12800).times()
        else:
            spec, ts = recurrence_probe, np.linspace(1.0, 20.0, 256)
        idx = np.linspace(0, ts.size - 1, 64).astype(int)
        want = direct_moments(spec, (0, 1, 2), ts[idx])
        for k in (0, 1, 2):
            got = moment_signal(spec, k, ts)
            np.testing.assert_allclose(got[idx], want[k], rtol=0.0, atol=2e-15)

    def test_runs_form_one_box_of_rows_at_most(self, recurrence_probe):
        # a run meets the outer roots and each root box of spec.boxes, on
        # proxy frequencies or, where those cost no less (always for the
        # outer roots), on the box's own phase rows, which
        # spectrum._phase_rows forms for the roots it is given
        spec, phase_rows, widths = recurrence_probe, spectrum._phase_rows, []

        def spy(x, z, *args):
            widths.append(z.size)
            return phase_rows(x, z, *args)

        with mock.patch.object(spectrum, "_phase_rows", spy):
            estimate_gamma(spec, (1.0, 20.0))
            coefficient_series(spec, TimeGrid().times()[:100])
        assert widths and max(widths) <= np.diff(spec.boxes[1]).max()

    def test_whole_band_group_on_own_rows(self):
        # on the N = 300 bath's recurrence grid one group of all three middle
        # boxes, on its own phase rows, costs least: S_k keep the gate of
        # test_random_baths_on_small_boxes
        spec = solve_spectrum(build_bath(ModelParams(n_bath=300, step=0.006)), 1.0)
        ts, phase_rows, widths = recurrence_grid(spec), spectrum._phase_rows, []

        def spy(x, z, *args):
            widths.append(z.size)
            return phase_rows(x, z, *args)

        with mock.patch.object(spectrum, "_phase_rows", spy):
            got = langevin._moments(spec, (0, 1, 2), ts)
        assert max(widths) == spec.n_levels - 2 > np.diff(spec.boxes[1]).max()
        err = got - direct_moments(spec, (0, 1, 2), ts)
        bound = np.abs(spec.alphas) ** np.arange(3)[:, None] @ spec.weights
        gate = (2e-15 + np.finfo(float).eps * ts[-1] * np.abs(spec.alphas).max()) * bound
        assert np.all(np.abs(err) <= gate[:, None]), np.abs(err).max(axis=1) / gate

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_random_baths_on_small_boxes(self, data):
        # uneven gaps, some wide (clusters), Omega inside or outside the
        # band, boxes of 2 to 64 roots (solved inside the _BOX patch: the
        # spectrum keeps the solve's boxes) in proxy groups of 1 to 8 boxes,
        # fine or coarse times.  The gate
        # is 2e-15 and the rounding of the largest phase t alpha, relative
        # to sum_nu w_nu |alpha_nu|^k, which bounds |S_k|
        n = data.draw(st.integers(2, 200), label="n")
        gaps = np.array(data.draw(st.lists(st.floats(1e-3, 0.05), min_size=n, max_size=n), label="gaps"))
        gaps[data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="cluster starts")] += 1.0
        omegas = 0.1 + np.cumsum(gaps)
        couplings = data.draw(st.lists(st.floats(1e-3, 0.03), min_size=n, max_size=n), label="g")
        omega0 = data.draw(st.floats(0.05, omegas[-1] + 2.0), label="omega0")
        box = data.draw(st.integers(2, 64), label="box")
        t0 = data.draw(st.floats(0.0, 200.0), label="t0")
        ts = t0 + data.draw(st.sampled_from([0.1, 3.0]), label="step") * np.arange(64)
        group = data.draw(st.integers(1, 8), label="boxes per group")  # the last one partial or not
        with mock.patch.object(spectrum, "_BOX", box):
            spec = solve_spectrum(build_bath(ModelParams.explicit(omegas, couplings)), omega0)
        with mock.patch.object(langevin, "_GROUPS", (group,)):
            got = langevin._moments(spec, (0, 1, 2), ts)
        err = got[:, ::9] - direct_moments(spec, (0, 1, 2), ts[::9])
        bound = np.abs(spec.alphas) ** np.arange(3)[:, None] @ spec.weights
        gate = (2e-15 + np.finfo(float).eps * ts[-1] * np.abs(spec.alphas).max()) * bound
        assert np.all(np.abs(err) <= gate[:, None]), np.abs(err).max(axis=1) / gate

    def test_shuffled_times(self, ref_spectrum):
        ts = TimeGrid().times()[::7]
        perm = np.random.default_rng(7).permutation(ts.size)
        for k in (0, 1, 2):
            got = moment_signal(ref_spectrum, k, ts[perm])
            want = moment_signal(ref_spectrum, k, ts)[perm]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-15)


class TestRunPlans:
    """_node_runs under the row-0 kernel's price, which population.csv's
    bytes rest on, and under the moments' own."""

    def test_row0_plans(self, ref_spectrum, plateau_probe, recurrence_probe):
        ts = TimeGrid().times()
        window = ts[(ts >= 100.0) & (ts <= 300.0)]
        # the price counts a run's Gram fold (K^2 N) and carry (K^2 a time):
        # the default grid takes 5 runs of K = 69, plateau's 12,800 times
        # 12 runs of K = 130
        runs = row0_runs(ref_spectrum, ts)
        assert [(t.size > x.size, x.size) for _, t, x, _ in runs] == [(True, 69)] * 5
        assert [x.size for *_, x, _ in row0_runs(ref_spectrum, window)] == [71] * 3
        plateau = TimeGrid(t_start=1000.0, n_steps=12800).times()
        sizes = [x.size for *_, x, _ in row0_runs(plateau_probe[0], plateau)]
        assert sizes == [130] * 12
        assert [x.size for *_, x, _ in row0_runs(recurrence_probe, window)] == [148]

    def test_moment_runs_are_priced_by_their_kernel(self, ref_spectrum):
        # the row-0 price cuts the default grid into 5 runs of K = 69; the
        # moments' carry is cheap beside their phase rows, so their runs are long
        plans, node_runs = [], langevin._node_runs

        def spy(*args):
            plans.append(list(node_runs(*args)))
            return plans[-1]

        with mock.patch.object(langevin, "_node_runs", spy):
            coefficient_series(ref_spectrum, TimeGrid().times())
        assert 1 <= len(plans[0]) <= 4

    def test_lengths_priced_on_plateau_grid(self, plateau_probe):
        # the row-0 price, counted: a few lengths a run, not 8192 each
        spec, ts = plateau_probe[0], TimeGrid(t_start=1000.0, n_steps=12800).times()
        priced, price = [], evolution._row0_price(spec.n_levels)

        def cost(k, h):
            priced.append(k.size)
            return price[0](k, h)

        r = spec.alphas[-1] / 2 - spec.alphas[0] / 2
        runs, counted = row0_runs(spec, ts), list(langevin._node_runs(ts, r, (cost, *price[1:])))
        assert [(i0, x.tobytes()) for i0, _, x, _ in counted] == [
            (i0, x.tobytes()) for i0, _, x, _ in runs
        ]
        assert sum(priced) <= 2 * ts.size

    def test_moment_lengths_priced_on_recurrence_grid(self, recurrence_probe):
        # the moments' price, counted: node counts past the chunk are one,
        # so a window prices a few lengths, none past chunk + 1
        ts, plans, node_runs = recurrence_grid(recurrence_probe)[:12000], [], langevin._node_runs

        def spy(ts, r, price):
            priced = []

            def cost(k, h):
                priced.append(k)
                return price[0](k, h)

            plans.append((list(node_runs(ts, r, (cost, *price[1:]))), list(node_runs(ts, r, price)), priced))
            return plans[-1][0]

        with mock.patch.object(langevin, "_node_runs", spy):
            langevin._moments(recurrence_probe, (0, 1, 2), ts)
        ((counted, runs, priced),) = plans
        assert [(i0, x.tobytes()) for i0, _, x, _ in counted] == [(i0, x.tobytes()) for i0, _, x, _ in runs]
        assert sum(k.size for k in priced) <= 6000
        assert max(k.max() for k in priced) <= langevin._T_CHUNK // 2 + 1

    @pytest.mark.parametrize("probe", ["default", "plateau", "fit-window", "recurrence"])
    def test_moment_groups_on_benchmark_baths(self, probe, ref_spectrum, plateau_probe, recurrence_probe):
        # the roots of each run's middle groups, which every moments CSV's
        # bytes rest on, between the two outer roots: the default bath's 99
        # in one group, the plateau and recurrence baths' in groups of
        # _GROUPS[-1] boxes
        if probe == "default":
            spec, ts, mid = ref_spectrum, TimeGrid().times(), [99]
        elif probe == "plateau":
            spec, ts, mid = plateau_probe[0], TimeGrid(t_start=1000.0, n_steps=12800).times(), [255, 256, 256, 232]
        else:
            spec, mid = recurrence_probe, [511, *[512] * 18, 272]
            ts = np.linspace(1.0, 20.0, 256) if probe == "fit-window" else recurrence_grid(spec)[:12000]
        runs, box_rows = [], langevin._box_rows

        def rows_spy(x, *args):
            rows, sizes = box_rows(x, *args), []
            runs.append(sizes)

            def spy(z):
                sizes.append(z.size)
                return rows(z)

            return spy

        with mock.patch.object(langevin, "_box_rows", rows_spy):
            langevin._moments(spec, (0, 1, 2), ts)
        assert runs and all(sizes == [1, *mid, 1] for sizes in runs)

    def test_windows_stay_short_where_no_node_run_fits(self):
        # a chunk below _nodes(0) = 4 (the row-0 price past 2^19 levels)
        # leaves no node count to price: each window then takes one time as
        # its best length and stops, rather than growing over the times left
        ts, sizes, nodes = 0.05 * np.arange(3000.0), [], langevin._nodes

        def spy(c):
            sizes.append(c.size)
            return nodes(c)

        with mock.patch.object(langevin, "_nodes", spy):
            runs = list(langevin._node_runs(ts, 0.9, evolution._row0_price(10**6)))
        assert [(t.size, w) for _, t, _, w in runs] == [(2, None)] * 1500
        assert max(sizes) <= 2048

    def test_run_at_origin_formed_at_its_priced_width(self, recurrence_probe, monkeypatch):
        # the first moment run of the N = 10^4 probe's recurrence grid holds
        # t = 0 and turns about its own centre: each group of root boxes
        # meets it through P = _nodes(h d) proxies (spectrum._chebyshev), h
        # the run's half-width, which _node_runs priced, d the group's
        spec, step = recurrence_probe, recurrence_probe.tau_omega / 8.0
        ts = TimeGrid(t_step=step, n_steps=int(np.ceil(1.2 * recurrence_time(spec) / step)) + 1).times()
        runs, proxies, box_rows, chebyshev = [], [], langevin._box_rows, spectrum._chebyshev

        class FirstRunDone(Exception):
            pass

        def rows_spy(x, *args):  # one worker: runs come in order
            if runs:
                raise FirstRunDone
            runs.append(x)
            return box_rows(x, *args)

        def chebyshev_spy(lo, hi, p):
            proxies.append((hi - lo, p))
            return chebyshev(lo, hi, p)

        monkeypatch.delenv("QBM_THREADS", raising=False)
        with (
            mock.patch.object(langevin, "_box_rows", rows_spy),
            mock.patch.object(spectrum, "_chebyshev", chebyshev_spy),
            pytest.raises(FirstRunDone),
        ):
            moment_signal(spec, 0, ts)
        (x,) = runs
        h = x.max() / 2 - x.min() / 2
        assert x.min() == 0.0 and proxies
        assert [p for _, p in proxies] == [spectrum._nodes(h * d / 2) for d, _ in proxies]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.data())
    def test_runs_partition_the_times(self, data):
        n = data.draw(st.integers(1, 3000), label="T")
        steps = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n), label="steps")
        ts = data.draw(st.floats(-100.0, 100.0), label="t0") + np.cumsum(steps)
        if data.draw(st.booleans(), label="shuffled"):
            ts = np.random.default_rng(data.draw(st.integers(0, 99), label="seed")).permutation(ts)
        r = data.draw(st.floats(0.01, 3.0), label="r")
        levels = data.draw(st.sampled_from([2, 101, 10001]), label="levels")
        synthetic = (lambda k, h: 50.0 * k + 400.0 * h + 3000.0, (0.3, 0.001), 1 << 13, langevin._T_CHUNK // 2)
        price = data.draw(st.sampled_from([evolution._row0_price(levels), synthetic]), label="price")
        runs, i0 = list(langevin._node_runs(ts, r, price)), 0
        for start, t, x, w in runs:
            assert start == i0 and np.array_equal(t, ts[i0 : i0 + t.size])
            if w is None:
                assert x is t and t.size <= langevin._T_CHUNK
            else:
                assert x.size < t.size and x.size <= langevin._T_CHUNK
                assert (x[0], x[-1]) == (t.max(), t.min())
            i0 += t.size
        assert i0 == ts.size


@pytest.mark.parametrize("cdll", [{"side_effect": OSError}, {"return_value": object()}], ids=["no-library", "no-symbols"])
def test_blas_left_alone_without_openblas(cdll, ref_spectrum, monkeypatch):
    # where numpy's core extension cannot be loaded, or holds no
    # scipy_openblas_* symbols, the runs leave BLAS as it is
    monkeypatch.setenv("QBM_THREADS", "1")
    ts = TimeGrid().times()
    want, loader = survival_probability(ref_spectrum, ts).tobytes(), mock.Mock(**cdll)
    with mock.patch.object(langevin.ctypes, "CDLL", loader):
        got = survival_probability(ref_spectrum, ts)
    assert loader.called and got.tobytes() == want


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

    @pytest.mark.parametrize(
        "probe, grid",
        [("plateau", "default"), ("recurrence", "default"), ("plateau", "ends-at-0"), ("recurrence", "ends-at-0")],
        ids=["plateau", "recurrence", "plateau-ends-at-0", "recurrence-ends-at-0"],
    )
    def test_origin_exact_on_many_boxes(self, probe, grid, plateau_probe, recurrence_probe):
        # on baths of 8 and 79 middle boxes the first 400 default-grid times
        # make a run whose lowest node is t = 0, and 2001 times from 0 down
        # to -100 one whose highest is: each box's proxies turn about the
        # run's centre and the sin rows at the node t = 0 are zeroed, so
        # Gamma(0) and Im S_k(0) are exact, and the run forms no inner
        # root's own rows (spectrum._phase_rows), only the outer roots'
        spec = plateau_probe[0] if probe == "plateau" else recurrence_probe
        ts = TimeGrid().times()[:400] if grid == "default" else np.linspace(0.0, -100.0, 2001)
        al, phase_rows, formed = spec.alphas, spectrum._phase_rows, []

        def spy(x, z, *args):
            if not x.all():
                formed.extend(np.searchsorted(al - (al[0] / 2 + al[-1] / 2), z).tolist())
            return phase_rows(x, z, *args)

        with mock.patch.object(spectrum, "_phase_rows", spy):
            assert coefficient_series(spec, ts)[1][0] == 0.0
            for k in (0, 1, 2):
                assert moment_signal(spec, k, ts)[0].imag == 0.0
        assert sorted(set(formed)) == [0, spec.n_levels - 1]

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

    @pytest.mark.parametrize(
        "inp, omega0",
        [
            (LangevinInput(p0=1.0, mass=1e-320), 1.0),
            (LangevinInput(x0=1.5e308, p0=-1.5e308), 1.0),
            (LangevinInput(p0=1.0, mass=5e-324), 0.5),  # M Omega rounds to 0
        ],
        ids=["tiny-mass", "wide-span", "mass-omega-underflow"],
    )
    def test_unrepresentable_position_rejected(self, inp, omega0):
        # P0/(M Omega), or |X0| + |P0/(M Omega)|, is not finite
        bath = build_bath(ModelParams.explicit([0.3, 0.8, 1.4], [0.05, 0.1, 0.08]))
        spec = solve_spectrum(bath, omega0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="not representable"):
                mean_position(spec, inp, np.linspace(0.0, 1.0, 6))


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

    def test_recurrence_probe_fit_window_memory(self, recurrence_probe):
        # the report's fit window on the N = 10^4 bath is one run of 38 node
        # times, whose (2, 38, 10001) phase block would take 6.1 MB; each
        # root box meets them through 10 proxy frequencies instead, and the
        # whole fit peaks at 0.39 MB traced
        spec = recurrence_probe
        runs = row0_runs(spec, np.linspace(1.0, 20.0, 256))
        assert [x.size for *_, x, _ in runs] == [38]
        assert traced_peak(estimate_gamma, spec, (1.0, 20.0)) < 6e5
        # the 79 middle boxes in proxy groups of several: fewer factors than
        # the 81 of box by box with the two outer roots'
        factors, box_rows = [], langevin._box_rows

        def counted(*args):
            rows = box_rows(*args)
            return lambda *group: factors.append(group) or rows(*group)

        with mock.patch.object(langevin, "_box_rows", counted):
            estimate_gamma(spec, (1.0, 20.0))
        assert len(factors) < 81

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
