import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import UNEVEN_BATHS, make_random_bath, traced_peak
from oracles import dense_diagonalize_oracle, hamiltonian_matrix, secular_residual, secular_values
from qbm import (
    DiscretizedBath,
    ModelParams,
    Spectrum,
    build_bath,
    evolution,
    langevin,
    overlap_matrix,
    population_decomposition,
    solve_spectrum,
    spectrum,
    thermal_occupations,
)
from qbm.errors import InvalidValue, QbmError, RootNotBracketed


def moment_residuals(spec):
    """(|sum w - 1|, |sum a w - Omega|, relative second-moment residual)."""
    m2 = spec.omega0**2 + float(np.sum(spec.bath.couplings**2))
    return (
        abs(float(np.sum(spec.weights)) - 1.0),
        abs(float(spec.alphas @ spec.weights) - spec.omega0),
        abs(float(spec.alphas**2 @ spec.weights) - m2) / m2,
    )


class TestSecularResidual:
    def test_hand_value(self):
        bath = build_bath(ModelParams.explicit([1.0], [0.1]))
        # F(1.2) = 0.2 - 0.01/0.2
        assert secular_residual(1.2, bath, 1.0) == pytest.approx(0.15, rel=1e-15)

    def test_monotone_between_poles(self, ref_bath):
        xs = np.linspace(1.0006, 1.0174, 40)  # inside (omega_50, omega_51)
        vals = [secular_residual(x, ref_bath, 1.0) for x in xs]
        assert np.all(np.diff(vals) > 0.0)

    def test_pole_rejected(self, ref_bath):
        with pytest.raises(ValueError):
            secular_residual(float(ref_bath.omegas[10]), ref_bath, 1.0)


class TestTwoLevel:
    def test_symmetric_splitting(self, two_level):
        # resonant mode, g = 0.1: alpha = Omega -+ g, weights 1/2 each
        np.testing.assert_allclose(two_level.alphas, [0.9, 1.1], atol=1e-13)
        np.testing.assert_allclose(two_level.weights, [0.5, 0.5], atol=1e-13)

    def test_detuned_golden_ratio(self):
        # omega0 = 1, omega = 2, g = 1: x = alpha - 1 solves x^2 - x - 1 = 0
        bath = build_bath(ModelParams.explicit([2.0], [1.0]))
        spec = solve_spectrum(bath, 1.0)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(
            spec.alphas, [2.0 - golden, 1.0 + golden], rtol=1e-14
        )
        # w = 1/(1 + 1/(alpha-2)^2) evaluated at the analytic roots
        want_w = 1.0 / (1.0 + 1.0 / (spec.alphas - 2.0) ** 2)
        np.testing.assert_allclose(spec.weights, want_w, rtol=1e-12)
        assert spec.weights[0] == pytest.approx(0.7236067977499789, rel=1e-12)

    def test_overlap_component(self):
        bath = build_bath(ModelParams.explicit([2.0], [1.0]))
        spec = solve_spectrum(bath, 1.0)
        assert overlap_matrix(spec)[0, 1] == pytest.approx(
            -0.5257311121191336, rel=1e-12
        )


class TestReferenceSpectrum:
    def test_interlacing(self, ref_spectrum, ref_bath):
        al = ref_spectrum.alphas
        om = ref_bath.omegas
        assert np.all(np.diff(al) > 0.0)
        assert np.all(al[:-1] < om)
        assert np.all(om < al[1:])

    def test_moment_sum_rules(self, ref_spectrum):
        r0, r1, r2 = moment_residuals(ref_spectrum)
        assert r0 <= 1e-12
        assert r1 <= 1e-10
        assert r2 <= 1e-9

    def test_against_dense_oracle(self, ref_spectrum, ref_bath):
        oracle = dense_diagonalize_oracle(ref_bath, 1.0)
        np.testing.assert_allclose(
            ref_spectrum.alphas, oracle.alphas, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            ref_spectrum.weights, oracle.weights, rtol=0.0, atol=1e-10
        )

    def test_roots_certified_by_sign_change(self, ref_spectrum, ref_bath):
        # each root carries a sign change of F in its immediate vicinity
        for a in ref_spectrum.alphas:
            h = 1e-9 * max(1.0, abs(a))
            assert secular_residual(a - h, ref_bath, 1.0) < 0.0
            assert secular_residual(a + h, ref_bath, 1.0) > 0.0

    def test_weights_in_range(self, ref_spectrum):
        assert np.all(ref_spectrum.weights > 0.0)
        assert np.all(ref_spectrum.weights <= 1.0)

    def test_tau_omega(self, ref_spectrum):
        assert ref_spectrum.tau_omega == pytest.approx(2.0 * np.pi, rel=1e-15)


class TestOverlapMatrix:
    def test_orthonormal_rows(self, ref_spectrum):
        c = overlap_matrix(ref_spectrum)
        gram = c @ c.T
        np.testing.assert_allclose(gram, np.eye(101), atol=1e-10)

    def test_column_zero_is_root_weight(self, ref_spectrum):
        c = overlap_matrix(ref_spectrum)
        np.testing.assert_allclose(
            c[:, 0], np.sqrt(ref_spectrum.weights), rtol=1e-15
        )

    def test_completeness_of_columns(self, ref_spectrum):
        c = overlap_matrix(ref_spectrum)
        np.testing.assert_allclose(c.T @ c, np.eye(101), atol=1e-10)


class TestRandomBaths:
    def test_properties_over_seeded_draws(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            bath = make_random_bath(rng, n)
            omega0 = float(rng.uniform(0.5, 1.5))
            spec = solve_spectrum(bath, omega0)

            al, om = spec.alphas, bath.omegas
            assert np.all(np.diff(al) > 0.0)
            assert np.all(al[:-1] < om) and np.all(om < al[1:])

            r0, r1, r2 = moment_residuals(spec)
            assert max(r0, r1, r2) <= 1e-10

            oracle = dense_diagonalize_oracle(bath, omega0)
            np.testing.assert_allclose(al, oracle.alphas, atol=1e-9)
            np.testing.assert_allclose(
                spec.weights, oracle.weights, rtol=0.0, atol=1e-9
            )

    def test_far_detuned_outer_root(self):
        # system level far above the band: top root must still be found
        bath = build_bath(ModelParams.explicit([0.2, 0.3, 0.4], [0.05, 0.05, 0.05]))
        spec = solve_spectrum(bath, 5.0)
        assert spec.alphas[-1] > 4.9
        r0, _, _ = moment_residuals(spec)
        assert r0 <= 1e-12

    def test_strong_coupling_single_mode(self):
        bath = build_bath(ModelParams.explicit([1.0], [5.0]))
        spec = solve_spectrum(bath, 1.0)
        np.testing.assert_allclose(spec.alphas, [-4.0, 6.0], rtol=1e-13)
        np.testing.assert_allclose(spec.weights, [0.5, 0.5], rtol=1e-13)


class TestSpectrumValidation:
    def test_reordered_eigenvalues_rejected(self, ref_bath):
        spec = solve_spectrum(ref_bath, 1.0)
        with pytest.raises(RootNotBracketed):
            Spectrum(
                alphas=spec.alphas[::-1],
                weights=spec.weights,
                omega0=1.0,
                bath=ref_bath,
            )

    def test_non_interlacing_rejected(self, two_level):
        with pytest.raises(RootNotBracketed):
            Spectrum(
                alphas=np.array([1.05, 1.1]),  # both above the single pole
                weights=np.array([0.5, 0.5]),
                omega0=1.0,
                bath=two_level.bath,
            )

    @pytest.mark.parametrize("omega0", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_omega0_rejected(self, two_level, omega0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue):
                solve_spectrum(two_level.bath, omega0)


class TestDenseOracle:
    def test_matches_matrix_eigensystem(self, two_level):
        oracle = dense_diagonalize_oracle(two_level.bath, 1.0)
        h = hamiltonian_matrix(two_level.bath, 1.0)
        vals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(oracle.alphas, vals, rtol=1e-15)
        np.testing.assert_allclose(oracle.weights, [0.5, 0.5], atol=1e-14)


@st.composite
def adversarial_baths(draw):
    """Up to 200 poles spread over [0.2, 3], any of which may sit a relative
    gap of 1e-6 to 1e-3 above its lower neighbour; couplings of either sign
    from 1e-4 to 1; Omega below, inside or above the band."""
    n = draw(st.integers(1, 200))
    omegas = np.linspace(0.2, 3.0, n)
    close = draw(arrays(bool, n))
    log_gaps = draw(arrays(float, n, elements=st.floats(-6.0, -3.0)))
    for k in np.flatnonzero(close[1:]) + 1:
        omegas[k] = omegas[k - 1] * (1.0 + 10.0 ** log_gaps[k])
    log_g = draw(arrays(float, n, elements=st.floats(-4.0, 0.0)))
    signs = draw(arrays(bool, n))
    couplings = np.where(signs, 1.0, -1.0) * 10.0**log_g
    omega0 = 0.2 + 2.8 * draw(st.floats(-0.05, 1.3))
    return build_bath(ModelParams.explicit(omegas, couplings)), omega0


class TestAgainstDenseOracle:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(adversarial_baths(), st.integers(2, 16))
    def test_adversarial_baths(self, case, box):
        # boxes of a few modes put most pairs of the secular sums in the far field
        bath, omega0 = case
        with mock.patch.object(spectrum, "_BOX", box):
            spec = solve_spectrum(bath, omega0)
        al, om = spec.alphas, bath.omegas
        assert np.all(al[:-1] < om) and np.all(om < al[1:])
        m2 = omega0**2 + float(np.sum(bath.couplings**2))
        assert abs(float(np.sum(spec.weights)) - 1.0) <= 1e-10
        assert abs(float(al @ spec.weights) - omega0) <= 1e-10 * max(1.0, omega0)
        assert abs(float(al**2 @ spec.weights) - m2) <= 1e-10 * m2
        oracle = dense_diagonalize_oracle(bath, omega0)
        np.testing.assert_allclose(al, oracle.alphas, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(spec.weights, oracle.weights, rtol=0.0, atol=1e-9)

    def test_plateau_probe_bath(self):
        # the N = 1000 bath of acceptance criterion 2
        bath = build_bath(ModelParams(n_bath=1000, step=0.0018))
        spec = solve_spectrum(bath, 1.0)
        oracle = dense_diagonalize_oracle(bath, 1.0)
        np.testing.assert_allclose(spec.alphas, oracle.alphas, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(spec.weights, oracle.weights, rtol=0.0, atol=1e-10)

    @UNEVEN_BATHS
    def test_uneven_baths(self, omegas, omega0):
        bath = build_bath(ModelParams.explicit(omegas, np.full(omegas.size, 0.002)))
        spec = solve_spectrum(bath, omega0)
        oracle = dense_diagonalize_oracle(bath, omega0)
        np.testing.assert_allclose(spec.alphas, oracle.alphas, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(spec.weights, oracle.weights, rtol=0.0, atol=1e-10)

    def test_poles_1e15_apart_resolved(self, ref_bath):
        # about five rounding units apart: the root between them is placed
        # inside the gap and the spectrum matches the dense eigensystem
        om = ref_bath.omegas.copy()
        om[51] = om[50] + 1e-15
        bath = DiscretizedBath(om, ref_bath.couplings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = solve_spectrum(bath, 1.0)
        vals, vecs = np.linalg.eigh(hamiltonian_matrix(bath, 1.0))
        np.testing.assert_allclose(spec.alphas, vals, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(spec.weights, vecs[0] ** 2, rtol=0.0, atol=1e-14)


class TestNeedsDeflation:
    """Baths whose roots sit closer to a pole than rounding resolves.  Until
    modes are deflated these must fail with a typed error, not a numpy
    warning or a silently wrong spectrum."""

    @staticmethod
    def solve(omegas, couplings, omega0=1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QbmError) as err:
                solve_spectrum(DiscretizedBath(omegas, couplings), omega0)
        return err.value

    def test_one_coupling_scaled_by_1e9(self, ref_bath):
        g = ref_bath.couplings.copy()
        g[50] *= 1e-9
        self.solve(ref_bath.omegas, g)

    def test_coupling_1e200(self, ref_bath):
        g = ref_bath.couplings.copy()
        g[50] = 1e-200
        self.solve(ref_bath.omegas, g)

    def test_poles_one_rounding_unit_apart(self, ref_bath):
        om = ref_bath.omegas.copy()
        om[51] = np.nextafter(om[50], np.inf)
        self.solve(om, ref_bath.couplings)

    @pytest.mark.parametrize("omega0", [1.0, 2.0])
    def test_outer_root_starts_on_its_pole(self, omega0):
        # sum|g| is below half an ulp of omega_1, so the Gershgorin end of
        # the root below it rounds onto the pole
        assert isinstance(self.solve([1.0], [1e-150], omega0), RootNotBracketed)


def test_solver_memory_stays_below_one_dense_array():
    # one (N+1) x N float array at N = 2000 is 32 MB
    bath = build_bath(ModelParams(n_bath=2000, step=0.0009))
    assert traced_peak(solve_spectrum, bath, 1.0) < 2001 * 2000 * 8


def test_recurrence_probe_weights_are_inverse_slopes(recurrence_probe):
    # the band-edge roots sit about 9e-9 from their poles, so a far-field
    # error in the weights shows here first
    al, w = recurrence_probe.alphas, recurrence_probe.weights
    f, fp = secular_values(al, recurrence_probe.bath, 1.0)
    assert np.max(np.abs(w * fp - 1.0)) <= 1e-12
    assert np.max(np.abs(f / fp) / np.maximum(1.0, np.abs(al))) <= 1e-14


def test_recurrence_probe_solve_memory(recurrence_probe):
    # the boxed sums keep every work array near one box's near block, and
    # each far field's m2l blocks live only through its sweep
    assert traced_peak(solve_spectrum, recurrence_probe.bath, 1.0) < 5e6


def test_recurrence_probe_keeps_no_m2l_blocks(recurrence_probe):
    # the spectrum keeps the geometry and each level's transfers, proxies
    # and pair slices; the 1.4 MB of m2l blocks are formed for each call
    def nbytes(obj):
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        return sum(map(nbytes, obj)) if isinstance(obj, (tuple, list)) else 0

    assert nbytes(recurrence_probe.boxes) < 1e6


def test_one_box_geometry_and_far_field_per_solve(recurrence_probe):
    # the geometry is the bath's, so no pass rebuilds the boxes or the tree;
    # the spectrum keeps the solve's, so the row-0 kernel builds neither
    bath = recurrence_probe.bath
    with (
        mock.patch.object(spectrum, "_boxes", wraps=spectrum._boxes) as boxes,
        mock.patch.object(spectrum, "_tree", wraps=spectrum._tree) as trees,
    ):
        spec = solve_spectrum(bath, 1.0)
        assert boxes.call_count == 1
        assert trees.call_count == 1
        ts = 100.0 + 5.0 * np.arange(300)
        r = spec.alphas[-1] / 2 - spec.alphas[0] / 2
        assert len(list(langevin._node_runs(ts, r, spec.n_levels))) == 2
        population_decomposition(spec, thermal_occupations(bath, 1.0, 1.0), ts)
    assert boxes.call_count == 1
    assert trees.call_count == 1


@pytest.mark.parametrize("square", [False, True], ids=["plain", "squared"])
@pytest.mark.parametrize("probe", ["recurrence", "small-boxes"])
def test_chunked_sweeps_match_one_sweep(recurrence_probe, probe, square):
    # rows do not mix in the tree, so a stack swept in uneven row chunks
    # gives the one sweep's potentials; a one-row chunk is a matrix-vector
    # product whose sums round in another order, so the whole agrees to
    # 1e-15 of the largest potential, not bit for bit
    if probe == "recurrence":
        levels = recurrence_probe.boxes[5]
    else:  # 30 leaves of 5 modes
        with mock.patch.object(spectrum, "_BOX", 5):
            levels = spectrum._boxes(make_random_bath(np.random.default_rng(7), 150).omegas)[5]
    assert len(levels) >= 2
    tree = spectrum._m2l(levels)
    q = np.random.default_rng(3).standard_normal((len(levels[0][0]), 37, spectrum._PROXIES))
    whole = spectrum._far(tree, q, square)
    cuts = [0, 13, 17, 36, 37]
    chunks = [spectrum._far(tree, q[:, r0:r1], square) for r0, r1 in zip(cuts, cuts[1:])]
    np.testing.assert_allclose(
        np.concatenate(chunks, axis=1), whole, rtol=0.0, atol=1e-15 * np.abs(whole).max()
    )


def test_solve_and_kernel_share_one_tree(recurrence_probe):
    # both boxed sums take their boxes, near relation and tree from the bath
    # alone: 79 middle boxes of modes at N = 10^4, none of zero width, with
    # the outer roots near every box and in no tree.  The solve's geometry
    # is the spectrum's, and the kernel sweeps that very one.  A level
    # keeps its proxies and far pairs, which the m2l blocks are formed
    # from where they are used, so equal proxies and pairs mean equal blocks
    built, boxes = [], spectrum._boxes

    def record(*args):
        built.append(boxes(*args))
        return built[-1]

    occ = thermal_occupations(recurrence_probe.bath, 1.0, 1.0)
    with (
        mock.patch.object(spectrum, "_boxes", record),
        mock.patch.object(evolution, "_cauchy", wraps=spectrum._cauchy) as cauchy,
    ):
        spec = solve_spectrum(recurrence_probe.bath, 1.0)
        population_decomposition(spec, occ, 100.0 + 5.0 * np.arange(300))
    assert len(built) == 1 and spec.boxes is built[0]
    assert cauchy.call_count == 2  # one per run: 209 times streamed, 91 whole
    assert all(call.args[2].boxes is built[0] for call in cauchy.call_args_list)
    _, _, near, px, _, levels = spec.boxes
    assert px.shape[0] == 79
    assert np.all(px[:, 0] > px[:, -1])
    assert near[[0, -1]].all() and near[:, [0, -1]].all()
    assert [len(x) for _, x, _ in levels] == [79, 40, 20, 10, 5, 3]
    # a spectrum made directly builds the same geometry on first use
    direct = Spectrum(spec.alphas, spec.weights, spec.omega0, spec.bath)
    for got, want in zip(direct.boxes[:5], spec.boxes[:5]):
        np.testing.assert_array_equal(got, want)
    assert len(direct.boxes[5]) == len(levels)
    for (a_d, x_d, m2l_d), (a, x, m2l) in zip(direct.boxes[5], levels):
        np.testing.assert_array_equal(a_d, a)
        np.testing.assert_array_equal(x_d, x)
        assert m2l_d == m2l
    assert direct.boxes is direct.boxes
