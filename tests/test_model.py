import math
import warnings

import numpy as np
import pytest

from oracles import bose_einstein, hamiltonian_matrix
from qbm import (
    DiscretizedBath,
    InitialOccupations,
    LangevinInput,
    ModelParams,
    RunConfig,
    Spectrum,
    TimeGrid,
    build_bath,
    estimate_gamma,
    golden_rule_rate,
    moment_signal,
    oscillator_population,
    solve_spectrum,
    thermal_occupations,
    transition_probabilities,
)
from qbm.errors import InvalidValue, NonPositiveFrequency


class TestLorentzianBath:
    def test_reference_values(self, ref_bath):
        # N=100, A=0.018: a = A(N-2)/2 = 0.882, grid 0.118 .. 1.9
        assert ref_bath.n == 100
        assert ref_bath.omegas[0] == pytest.approx(0.118, rel=1e-12)
        assert ref_bath.omegas[49] == 1.0  # mode N/2 sits exactly at Omega
        assert ref_bath.omegas[-1] == pytest.approx(1.9, rel=1e-12)
        assert ref_bath.couplings[49] == pytest.approx(0.018, rel=1e-15)

    def test_grid_spacing(self, ref_bath):
        np.testing.assert_allclose(np.diff(ref_bath.omegas), 0.018, rtol=1e-12)

    def test_couplings_positive_and_peaked(self, ref_bath):
        g = ref_bath.couplings
        assert np.all(g > 0.0)
        assert np.argmax(g) == 49
        # wings: g at detuning a = 0.882 is a^2/(a^2 + a^2) = half the peak,
        # at the bottom mode and at its mirror
        assert g[0] == pytest.approx(0.009, rel=1e-12)
        assert g[98] == pytest.approx(0.009, rel=1e-12)

    def test_profile_symmetric_about_resonance(self, ref_bath):
        # modes n and N-n mirror each other; the top mode has no partner
        g = ref_bath.couplings
        np.testing.assert_allclose(g[:99], g[98::-1], rtol=1e-14)

    def test_top_mode_unmirrored(self, ref_bath):
        # the grid runs Omega - 49A .. Omega + 50A: asymmetric by one step
        assert 2.0 - ref_bath.omegas[-1] != pytest.approx(
            ref_bath.omegas[0], abs=1e-3
        )

    def test_degenerate_width_rejected(self):
        with pytest.raises(InvalidValue, match="n_bath >= 3"):
            build_bath(ModelParams(n_bath=2, step=1.0))

    def test_small_valid_bath(self):
        # a = 0.25; the bottom mode sits at detuning -a, so g = step / 2
        bath = build_bath(ModelParams(n_bath=3, step=0.5))
        assert bath.couplings[0] == pytest.approx(0.25)
        assert bath.n == 3


class TestExplicitBath:
    def test_verbatim_lists(self):
        bath = build_bath(ModelParams.explicit([0.5, 1.0, 1.5], [0.1, -0.2, 0.3]))
        np.testing.assert_array_equal(bath.omegas, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(bath.couplings, [0.1, -0.2, 0.3])

    def test_non_monotonic_rejected(self):
        with pytest.raises(InvalidValue, match="strictly increasing"):
            build_bath(ModelParams.explicit([1.0, 1.0], [0.1, 0.1]))
        with pytest.raises(InvalidValue, match="strictly increasing"):
            build_bath(ModelParams.explicit([1.0, 0.5], [0.1, 0.1]))

    def test_zero_coupling_rejected(self):
        with pytest.raises(InvalidValue, match="nonzero"):
            build_bath(ModelParams.explicit([0.5, 1.0], [0.1, 0.0]))

    def test_single_mode_allowed(self):
        bath = build_bath(ModelParams.explicit([2.0], [0.5]))
        assert bath.n == 1

    def test_missing_lists_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(n_bath=8, coupling="explicit")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(
                n_bath=3,
                coupling="explicit",
                omegas=(0.5, 1.0),
                couplings=(0.1, 0.2),
            )

    def test_arrays_frozen(self):
        bath = build_bath(ModelParams.explicit([0.5, 1.0], [0.1, 0.2]))
        with pytest.raises(ValueError):
            bath.omegas[0] = 99.0


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bath": 0},
            {"step": 0.0},
            {"step": -0.1},
            {"omega0": 0.0},
            {"beta": -1.0},
            {"coupling": "gaussian"},
        ],
    )
    def test_bad_scalars(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidValue):
            ModelParams.explicit([0.5, bad, 1.5], [0.1, 0.1, 0.1])
        with pytest.raises(InvalidValue):
            ModelParams.explicit([0.5, 1.0, 1.5], [0.1, bad, 0.1])
        with pytest.raises(InvalidValue):
            ModelParams.explicit([0.5, 1.0, 1.5], [0.1] * 3, omega0=bad)
        with pytest.raises(InvalidValue):
            ModelParams.explicit([0.5, 1.0, 1.5], [0.1] * 3, beta=bad)
        with pytest.raises(InvalidValue):
            ModelParams(step=bad)
        with pytest.raises(InvalidValue):
            DiscretizedBath([0.5, bad, 1.5], [0.1, 0.1, 0.1])
        with pytest.raises(InvalidValue):
            DiscretizedBath([0.5, 1.0, 1.5], [0.1, bad, 0.1])

    def test_lorentzian_rejects_lists(self):
        with pytest.raises(ValueError):
            ModelParams(n_bath=3, omegas=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "omegas, couplings",
        [([-1e308, 1e308], [0.1, 0.1]), ([1.0], [1e200]), ([0.5, 1.0], [1e154, 1e154])],
        ids=["span", "g2", "g2-sum"],
    )
    def test_overflowing_bath_rejected(self, omegas, couplings):
        # a span or sum of g^2 beyond float range, caught without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="must be finite"):
                build_bath(ModelParams.explicit(omegas, couplings))

    @pytest.mark.parametrize("n_bath, step", [(4, 1e-200), (100, 1e-170)])
    def test_underflowing_half_width_rejected(self, n_bath, step):
        # a^2 = 0 would make the coupling of the mode on Omega 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="step = .* too small"):
                ModelParams(n_bath=n_bath, step=step)

    def test_wide_monotonic_check_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="strictly increasing"):
                DiscretizedBath([1e308, -1e308], [0.1, 0.1])


class TestThermalOccupations:
    def test_resonant_value(self, ref_bath):
        # n(Omega=1) at beta=1 is 1/(e-1)
        occ = thermal_occupations(ref_bath, 1.0)
        assert occ.n_bath_modes[49] == pytest.approx(
            0.5819767068693265, rel=1e-15
        )
        assert occ.n_bath_modes[49] == pytest.approx(1.0 / math.expm1(1.0))

    def test_monotone_in_frequency(self, ref_bath):
        occ = thermal_occupations(ref_bath, 1.0)
        assert np.all(np.diff(occ.n_bath_modes) < 0.0)

    def test_oscillator_override(self, ref_bath):
        occ = thermal_occupations(ref_bath, 1.0, n_omega0=2.5)
        assert occ.n_omega0 == 2.5
        vec = occ.vector
        assert vec.shape == (101,)
        assert vec[0] == 2.5
        np.testing.assert_array_equal(vec[1:], occ.n_bath_modes)

    def test_beta_dependence(self, ref_bath):
        hot = thermal_occupations(ref_bath, 0.5)
        cold = thermal_occupations(ref_bath, 2.0)
        assert np.all(hot.n_bath_modes > cold.n_bath_modes)

    def test_nonpositive_frequency_rejected(self):
        bath = build_bath(ModelParams.explicit([-0.5, 1.0], [0.1, 0.1]))
        with pytest.raises(NonPositiveFrequency):
            thermal_occupations(bath, 1.0)

    def test_bad_beta(self, ref_bath):
        with pytest.raises(ValueError):
            thermal_occupations(ref_bath, 0.0)

    def test_scalar_helper_matches(self, ref_bath):
        occ = thermal_occupations(ref_bath, 1.3)
        want = [bose_einstein(w, 1.3) for w in ref_bath.omegas[:5]]
        np.testing.assert_allclose(occ.n_bath_modes[:5], want, rtol=1e-15)

    def test_cold_bath_without_overflow_warning(self, ref_bath):
        # beta*omega runs past ~709, where expm1 overflows: n = 0, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            occ = thermal_occupations(ref_bath, 1000.0)
            want = [bose_einstein(w, 1000.0) for w in ref_bath.omegas]
        assert np.all(np.isfinite(occ.n_bath_modes))
        assert occ.n_bath_modes[-1] == 0.0
        np.testing.assert_allclose(occ.n_bath_modes, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("beta", [5e-324, 1e-310], ids=["rounds-to-0", "denormal"])
    def test_tiny_beta_rejected_without_warning(self, ref_bath, beta):
        # beta * omega rounds to 0 for some modes, or to a denormal whose
        # inverse overflows: no occupation is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match=f"beta = {beta} is too small"):
                thermal_occupations(ref_bath, beta)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            InitialOccupations(n_omega0=-0.1, n_bath_modes=np.array([0.5]))

    @pytest.mark.parametrize("n0, bath", [(1e291, 0.5), (1.0, 1.7e308)], ids=["oscillator", "bath"])
    def test_huge_occupation_rejected(self, n0, bath):
        # 2^60 times, the most a TimeGrid holds, of an occupation above
        # 1e290 need not sum to a finite mean; 1e290 itself is accepted
        with pytest.raises(InvalidValue, match="at most 1e\\+290"):
            InitialOccupations(n_omega0=n0, n_bath_modes=np.array([bath]))
        InitialOccupations(n_omega0=1e290, n_bath_modes=np.array([1e290]))


class TestHamiltonianMatrix:
    def test_arrowhead_structure(self, ref_bath):
        h = hamiltonian_matrix(ref_bath, 1.0)
        assert h.shape == (101, 101)
        np.testing.assert_array_equal(h, h.T)
        assert h[0, 0] == 1.0
        np.testing.assert_array_equal(h[0, 1:], ref_bath.couplings)
        np.testing.assert_array_equal(np.diag(h)[1:], ref_bath.omegas)
        # off-diagonal bath block vanishes
        bath_block = h[1:, 1:].copy()
        np.fill_diagonal(bath_block, 0.0)
        assert np.all(bath_block == 0.0)


def _two_level():
    return solve_spectrum(build_bath(ModelParams.explicit([1.0], [0.1])), 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModelParams(n_bath=0),
        lambda: ModelParams(n_bath=10**20),
        lambda: ModelParams(step=1e300),
        lambda: ModelParams(step=-0.1),
        lambda: ModelParams(omega0=0.0),
        lambda: ModelParams(omega0=5e-324),  # its period 2 pi / omega0 overflows
        lambda: ModelParams(beta=-1.0),
        lambda: ModelParams(coupling="gaussian"),
        lambda: ModelParams(n_bath=3, omegas=(1.0, 2.0, 3.0)),
        lambda: ModelParams(n_bath=8, coupling="explicit"),
        lambda: ModelParams(n_bath=3, coupling="explicit", omegas=(0.5, 1.0), couplings=(0.1, 0.2)),
        lambda: DiscretizedBath([0.5, 1.0], [0.1]),
        lambda: DiscretizedBath([], []),
        lambda: InitialOccupations(n_omega0=-0.1, n_bath_modes=np.array([0.5])),
        lambda: InitialOccupations(n_omega0=1.0, n_bath_modes=np.array([-0.5])),
        lambda: TimeGrid(t_step=-1.0),
        lambda: TimeGrid(t_start=-1.0),
        lambda: TimeGrid(n_steps=0),
        lambda: TimeGrid(n_steps=10**20),
        lambda: LangevinInput(mass=0.0),
        lambda: RunConfig(outputs=()),
        lambda: RunConfig(outputs=("spectra",)),
        lambda: RunConfig(grid_preset="long"),
        lambda: RunConfig(grid_preset="recurrence", grid=TimeGrid(t_start=50.0)),
        lambda: RunConfig(n_omega0=-1.0),
        lambda: thermal_occupations(build_bath(ModelParams()), -1.0),
        lambda: moment_signal(_two_level(), 3, 0.0),
        lambda: ModelParams(n_bath=2),
        lambda: DiscretizedBath([1.0, 0.5], [0.1, 0.1]),
        lambda: DiscretizedBath([0.5, 1.0], [0.1, 0.0]),
        lambda: estimate_gamma(_two_level(), (20.0, 1.0)),
        lambda: moment_signal(_two_level(), 0, [[0.0, 1.0]]),
        lambda: moment_signal(_two_level(), 0, [[0.0, 1.0], [2.0]]),
        lambda: oscillator_population(
            _two_level(), InitialOccupations(1.0, np.array([0.5])), np.zeros((2, 2))
        ),
        lambda: Spectrum(np.array([0.9]), np.array([1.0]), 1.0, _two_level().bath),
        lambda: Spectrum(np.array([0.9, 1.1]), np.array([0.0, 1.0]), 1.0, _two_level().bath),
        lambda: Spectrum(np.array([0.9, 1.1]), np.array([1.0]), 1.0, _two_level().bath),
        lambda: moment_signal(_two_level(), 0, ["a"]),
        lambda: moment_signal(_two_level(), 0, [1j]),
        lambda: transition_probabilities(_two_level(), [1.0, 2.0]),
        lambda: transition_probabilities(_two_level(), None),
        lambda: transition_probabilities(_two_level(), "a"),
        lambda: DiscretizedBath([0.5 + 1e-3j, 1.0], [0.1, 0.1]),
        lambda: InitialOccupations(1.0, np.array([0.5 + 0j])),
        lambda: Spectrum(np.array([0.9, 1.1]) + 0j, np.array([0.5, 0.5]), 1.0, _two_level().bath),
        lambda: InitialOccupations(1.0, np.ones((10, 10))),
        lambda: ModelParams(n_bath=math.inf),
        lambda: ModelParams(n_bath=math.nan),
        lambda: ModelParams(n_bath="5"),
        lambda: ModelParams(n_bath=None),
        lambda: TimeGrid(n_steps=math.inf),
        lambda: TimeGrid(n_steps=math.nan),
        lambda: TimeGrid(n_steps="3"),
        lambda: TimeGrid(n_steps=2.5),
        lambda: golden_rule_rate(build_bath(ModelParams()), math.nan),
        lambda: golden_rule_rate(build_bath(ModelParams()), math.inf),
        lambda: golden_rule_rate(build_bath(ModelParams()), 0.0),
        lambda: estimate_gamma(_two_level(), (1.0,)),
        lambda: estimate_gamma(_two_level(), None),
        lambda: estimate_gamma(_two_level(), ("a", 2.0)),
        lambda: ModelParams(step="0.1"),
        lambda: ModelParams(beta=1j),
        lambda: ModelParams(omega0=None),
        lambda: ModelParams.explicit(["a"], [1.0]),
        lambda: TimeGrid(t_step="1"),
        lambda: TimeGrid(t_start=1j),
        lambda: InitialOccupations(1j, [0.5]),
        lambda: InitialOccupations("1", [0.5]),
        lambda: LangevinInput(mass="1"),
        lambda: LangevinInput(x0=1j),
        lambda: thermal_occupations(build_bath(ModelParams()), "1"),
        lambda: thermal_occupations(build_bath(ModelParams()), 1.0, "x"),
        lambda: solve_spectrum(build_bath(ModelParams()), "1"),
        lambda: golden_rule_rate(build_bath(ModelParams()), "1"),
        lambda: Spectrum(np.array([0.9, 1.1]), np.array([0.5, 0.5]), -1.0, _two_level().bath),
        lambda: Spectrum(np.array([0.9, 1.1]), np.array([0.5, 0.5]), math.nan, _two_level().bath),
        lambda: Spectrum(np.array([0.9, 1.1]), np.array([0.5, 0.5]), "1", _two_level().bath),
    ],
    ids=[
        "n_bath", "n_bath-huge", "step-huge", "step", "omega0", "omega0-period", "beta", "coupling",
        "lorentzian-lists", "explicit-no-lists", "explicit-lengths", "bath-shapes", "bath-empty",
        "n_omega0", "bath-occupation", "t_step", "t_start", "n_steps", "n_steps-huge", "mass",
        "no-outputs", "unknown-product", "preset", "preset-grid", "run-n_omega0",
        "thermal-beta", "moment-order", "lorentzian-n_bath", "bath-order",
        "zero-coupling", "fit-window", "times-2d", "times-ragged", "population-times-2d",
        "spectrum-size", "spectrum-weights", "spectrum-weights-length", "times-text", "times-complex",
        "transition-two-times", "transition-none", "transition-text", "bath-complex",
        "occupations-complex", "spectrum-complex", "occupations-2d", "n_bath-inf", "n_bath-nan",
        "n_bath-text", "n_bath-none", "n_steps-inf", "n_steps-nan", "n_steps-text", "n_steps-fraction",
        "golden-rule-nan", "golden-rule-inf", "golden-rule-zero", "fit-window-short", "fit-window-none",
        "fit-window-text", "step-text", "beta-complex", "omega0-none", "explicit-text", "t_step-text",
        "t_start-complex", "n_omega0-complex", "n_omega0-text", "mass-text", "x0-complex", "thermal-beta-text",
        "thermal-n_omega0-text", "solve-omega0-text", "golden-rule-text", "spectrum-omega0-negative",
        "spectrum-omega0-nan", "spectrum-omega0-text",
    ],
)
def test_bad_argument_is_typed_error(make):
    with pytest.raises(InvalidValue):
        make()
