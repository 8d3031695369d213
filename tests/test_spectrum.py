import operator
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import UNEVEN_BATHS, make_random_bath, row0_runs, traced_peak
from oracles import dense_diagonalize_oracle, hamiltonian_matrix, secular_residual, secular_values
from qbm import (
    DiscretizedBath,
    ModelParams,
    Spectrum,
    build_bath,
    evolution,
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


def fresh_weights(spec):
    """1/F'(alpha) from one _secular_parts pass over all N+1 roots at
    tau = alpha - omega_o, omega_o the root's nearer bounding pole, on the
    spectrum's boxes and the far field of g^2 taken as the solve takes it."""
    om, g2, al = spec.bath.omegas, spec.bath.couplings**2, spec.alphas
    *boxes, levels = spec.boxes
    cm, _, _, px, pw = boxes
    anterp = [g2[m0:m1] @ spectrum._barycentric(om[m0:m1], p, pw) for m0, m1, p in zip(cm[1:], cm[2:], px)]
    q = np.stack(anterp)[:, None]
    tree = spectrum._m2l(levels)
    far = spectrum._far(tree, q), spectrum._far(tree, q, square=True)
    below, above = np.append(0, np.arange(om.size)), np.append(np.arange(om.size), om.size - 1)
    o = np.where(al - om[below] > om[above] - al, above, below)
    tau = al - om[o]
    _, hp = spectrum._secular_parts(om, g2, spec.omega0, o, tau, np.arange(al.size), boxes, far)
    return 1.0 / (hp + g2[o] / tau**2)


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

    # the last two have no finite period 2 pi / omega0 (the last a numpy scalar)
    @pytest.mark.parametrize("omega0", [np.nan, np.inf, -np.inf, 0.0, -1.0, 5e-324, np.float64(1e-308)])
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
        np.testing.assert_array_max_ulp(fresh_weights(spec), spec.weights, maxulp=1)

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


def test_three_full_passes_per_solve(recurrence_probe):
    # the first pass and two steps see every root; a root whose rounded
    # step returns the tau just evaluated takes its weight from that pass,
    # so the closing pass sums only the roots that stopped off that point
    n = recurrence_probe.n_levels
    with mock.patch.object(spectrum, "_secular_parts", wraps=spectrum._secular_parts) as parts:
        solve_spectrum(recurrence_probe.bath, 1.0)
    sizes = [call.args[5].size for call in parts.call_args_list]
    assert sizes.count(n) == 3
    assert sizes[-1] <= 0.01 * n


@pytest.mark.parametrize("probe", ["reference", "plateau", "recurrence"])
def test_weights_match_one_fresh_pass(probe, ref_spectrum, plateau_probe, recurrence_probe):
    # the weights taken at fixed points in the solve's passes and those of
    # the closing pass are one pass's at the stored roots, to rounding
    spec = {"reference": ref_spectrum, "plateau": plateau_probe[0], "recurrence": recurrence_probe}
    np.testing.assert_array_max_ulp(fresh_weights(spec[probe]), spec[probe].weights, maxulp=1)


# a 60-mode bath drawn by TestRow0KernelAccuracy.test_proxies_on_random_baths
# (Omega = 3.3075, boxes of 40 modes): alpha_N's rounded steps alternate
# between two taus two ulps of alpha apart, so it never reaches a fixed point
CYCLING_OMEGAS = [
    0.10979676267199621, 0.14854383524550596, 0.15655928252389778, 0.19165341269832803,
    0.21483521053213467, 0.2391092152172736, 0.24775828549499496, 0.26703689475096626,
    0.30267265509588226, 0.3192146901256584, 0.3676654294121784, 0.36879743647164553,
    0.38679743647164555, 0.43478600256538913, 0.4406554048988409, 0.47664927773169063,
    0.5081804251706477, 0.5515574544815555, 0.5695574544815555, 0.6095850640456846,
    0.6123641729478335, 0.6323023893926601, 0.6523884409940812, 0.700358983219845,
    0.7503589832198451, 0.7798652180348855, 0.7808652180348855, 1.8181834414156535,
    1.8313921568416849, 1.8765138501322438, 1.9119006204706803, 1.9299006204706803,
    1.9621473229289, 1.998373053630679, 2.0207563145394483, 2.0386184456488214,
    2.0886184456488213, 2.105104264235756, 2.1231042642357556, 2.1411042642357554,
    2.1731435943475357, 2.1741435943475356, 2.2197084145251913, 2.2620811446517397,
    2.300646886275219, 2.324894128255383, 2.374177394318718, 2.37926062944303,
    2.425409575297065, 2.454905845454445, 2.4559286056379177, 2.5033817565998717,
    2.5269599295327763, 2.536667469847596, 2.5690319401132204, 2.5870319401132202,
    2.6091223193429087, 2.6209008086729604, 2.6252553527666325, 2.6278456359069846,
]
CYCLING_COUPLINGS = [
    0.027848955381921597, 0.013883863458916231, 0.006499241688826758, 0.0038820434854296925,
    0.02846201824602455, 0.029150000719000736, 0.00897077509110476, 0.011622846806296421,
    0.002103276155900196, 0.018, 0.018240799628763512, 0.0010000000000000002,
    0.007011307405812123, 0.029858950302555046, 0.013953662994643474, 0.007622413850770116,
    0.018, 0.025918409852755148, 0.017884102490774392, 0.027092104843085895,
    0.00966906146946309, 0.004781188462006432, 0.0010000000000000002, 0.02036612644471022,
    0.018, 0.018, 0.028241099622802614, 0.02994454229048347, 0.023012670421320856,
    0.026026753194738107, 0.004061805568572049, 0.017333055415307504, 0.018, 0.0280738506836376,
    0.022401410954405343, 0.02204421051478181, 0.011589895965481045, 0.01227191303569251,
    0.01637539558177165, 0.01943514120545082, 0.0150384226992452, 0.022248129338678774, 0.018,
    0.022894345877876875, 0.008027517213344196, 0.023017963154841427, 0.0072289175330572265,
    0.018, 0.01220283165288447, 0.008628104960550873, 0.029203944745996274,
    0.020786164702054577, 0.00795364232084678, 0.013110536831439094, 0.0054303590946190635,
    0.018, 0.009044080031922582, 0.020080569848186635, 0.01414036192760991, 0.004164942427843085,
]


def two_cycle_bath():
    """An adversarial draw of TestAgainstDenseOracle (two poles 1e-6 above
    their neighbours, three couplings of 1, Omega = 3.7 above the band)
    whose alpha_N steps back and forth between two taus, whatever the
    boxes: each one's rounded step is the other."""
    omegas = np.linspace(0.2, 3.0, 56)
    omegas[[5, 15]] = 0.40363676727272724, 0.9127281854545453
    couplings = np.full(56, -0.01)
    couplings[[0, 7, 21, 34]] = -0.1, -1.0, -1.0, -1.0
    return DiscretizedBath(omegas, couplings)


@pytest.mark.parametrize(
    "bath, omega0, box",
    [
        (DiscretizedBath(CYCLING_OMEGAS, CYCLING_COUPLINGS), 3.307520647389594, 40),
        (two_cycle_bath(), 3.7, spectrum._BOX),
    ],
    ids=["alternating", "two-cycle"],
)
def test_root_off_a_fixed_point_takes_the_closing_pass(bath, omega0, box):
    # alpha_N stops with alpha = omega_o + step, not looping to
    # ToleranceNotReached, and its weight comes from the closing pass
    with (
        mock.patch.object(spectrum, "_BOX", box),
        mock.patch.object(spectrum, "_secular_parts", wraps=spectrum._secular_parts) as parts,
    ):
        spec = solve_spectrum(bath, omega0)
    al, om = spec.alphas, bath.omegas
    assert bath.n in parts.call_args_list[-1].args[5]
    assert np.all(al[:-1] < om) and np.all(om < al[1:])
    np.testing.assert_array_max_ulp(fresh_weights(spec), spec.weights, maxulp=1)
    oracle = dense_diagonalize_oracle(bath, omega0)
    np.testing.assert_allclose(al, oracle.alphas, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(spec.weights, oracle.weights, rtol=0.0, atol=1e-10)


def test_recurrence_probe_solve_memory(recurrence_probe):
    # the boxed sums keep every work array near one box's near block, and
    # the m2l blocks live only through the two far-field sweeps
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
        assert len(row0_runs(spec, ts)) == 2
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


def test_barycentric_point_on_a_node_takes_its_value():
    # a point equal to a node takes that node's value, its row a unit
    # vector; a point off every node takes the second form, the same row
    # whether or not another point hits a node
    x, w = spectrum._chebyshev(-1.0, 2.0, 9)
    t = np.array([x[3], 0.123, x[0], x[-1]])
    b = spectrum._barycentric(t, x, w)
    np.testing.assert_array_equal(b[[0, 2, 3]], np.eye(9)[[3, 0, 8]])
    np.testing.assert_array_equal(spectrum._barycentric(t[1:2], x, w), b[1:2])
    np.testing.assert_allclose(b[1] @ np.cos(x), np.cos(0.123), rtol=0.0, atol=1e-6)


def test_solve_and_kernel_share_one_tree(recurrence_probe):
    # both boxed sums take their boxes, near relation and tree from the bath
    # alone: 79 middle boxes of modes at N = 10^4, none of zero width, with
    # the outer roots near every box and in no tree.  The solve's geometry
    # is the spectrum's, and the kernel sweeps that very one: a kept run
    # all its levels, a windowed one those above the leaves.  A level
    # keeps its proxies and far pairs, which the m2l blocks are formed
    # from where they are used, so equal proxies and pairs mean equal blocks
    built, boxes = [], spectrum._boxes

    def record(*args):
        built.append(boxes(*args))
        return built[-1]

    occ = thermal_occupations(recurrence_probe.bath, 1.0, 1.0)
    with (
        mock.patch.object(spectrum, "_boxes", record),
        mock.patch.object(evolution, "_m2l", wraps=spectrum._m2l) as m2l,
    ):
        spec = solve_spectrum(recurrence_probe.bath, 1.0)
        population_decomposition(spec, occ, 100.0 + 5.0 * np.arange(300))
    assert len(built) == 1 and spec.boxes is built[0]
    assert m2l.call_count == 2  # one sweep per run: 209 times windowed, 91 kept
    windowed, kept = sorted((call.args[0] for call in m2l.call_args_list), key=len)
    assert kept is built[0][5]
    assert len(windowed) == len(kept) - 1 and all(map(operator.is_, windowed, kept[1:]))
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
