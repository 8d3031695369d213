import numpy as np
import pytest

from qbm import ModelParams, RunConfig, build_bath, parse_config, serialize_config
from qbm.config import explicit_params_for
from qbm.errors import InvalidValue, ParseError, UnknownKey
from qbm.langevin import LangevinInput
from qbm.series import TimeGrid


class TestDefaults:
    def test_empty_document(self):
        cfg = parse_config("")
        assert cfg.model == ModelParams()
        assert cfg.grid == TimeGrid()
        assert cfg.grid.t_step == pytest.approx(2.0 * np.pi / 40.0, rel=1e-15)
        assert cfg.n_omega0 == 1.0
        assert cfg.langevin_input == LangevinInput()
        assert cfg.grid_preset == "default"
        assert "report" in cfg.outputs
        assert cfg.out_dir == "out"

    def test_restating_defaults_is_idempotent(self):
        cfg = parse_config("N = 100\nA = 0.018\n# comment\n")
        assert cfg == parse_config("")

    def test_comments_and_blank_lines(self):
        text = "\n# full line comment\nN = 10   # trailing comment\n\nbeta = 2.0\n"
        cfg = parse_config(text)
        assert cfg.model.n_bath == 10
        assert cfg.model.beta == 2.0

    def test_last_assignment_wins(self):
        cfg = parse_config("N = 8\nN = 12\n")
        assert cfg.model.n_bath == 12


class TestErrors:
    def test_unknown_key(self):
        with pytest.raises(UnknownKey, match="line 1"):
            parse_config("bogus = 3\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("N = 4\njust some words\n")

    @pytest.mark.parametrize(
        "text",
        [
            "N = 2.5\n",
            "N = 0\n",
            "A = 0\n",
            "A = spam\n",
            "beta = -1\n",
            "Omega = 0\n",
            "t_step = 0\n",
            "t_start = -1\n",
            "n_steps = 0\n",
            "M = 0\n",
            "N_Omega0 = -0.5\n",
            "coupling = gaussian\n",
            "grid = shortest\n",
            "outputs = everything\n",
            "outputs = ,\n",
            "N = \n",
        ],
    )
    def test_invalid_values(self, text):
        with pytest.raises(InvalidValue):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "template",
        [
            "Omega = {}\n",
            "A = {}\n",
            "beta = {}\n",
            "coupling = explicit\nomegas = 0.5, {}, 1.5\ncouplings = 0.1, 0.1, 0.1\n",
            "coupling = explicit\nomegas = 0.5, 1.0, 1.5\ncouplings = 0.1, {}, 0.1\n",
        ],
    )
    def test_non_finite_values(self, template, raw):
        with pytest.raises(InvalidValue, match="must be finite"):
            parse_config(template.format(raw))

    def test_explicit_without_lists(self):
        with pytest.raises(InvalidValue):
            parse_config("N = 8\ncoupling = explicit\n")

    def test_explicit_list_length_mismatch(self):
        with pytest.raises(InvalidValue):
            parse_config(
                "coupling = explicit\nomegas = 1.0, 2.0\ncouplings = 0.1\n"
            )

    def test_explicit_n_mismatch(self):
        with pytest.raises(InvalidValue):
            parse_config(
                "N = 3\ncoupling = explicit\nomegas = 1.0, 2.0\n"
                "couplings = 0.1, 0.1\n"
            )

    def test_lists_require_explicit(self):
        with pytest.raises(InvalidValue):
            parse_config("omegas = 1.0, 2.0\n")

    def test_lorentzian_too_small(self):
        # model invariants surfacing at parse time are config errors
        with pytest.raises(InvalidValue):
            parse_config("N = 2\n")

    def test_explicit_zero_coupling(self):
        with pytest.raises(InvalidValue):
            parse_config(
                "coupling = explicit\nomegas = 1.0, 2.0\ncouplings = 0.1, 0.0\n"
            )


class TestExplicitConfigs:
    def test_small_bath(self):
        cfg = parse_config(
            "coupling = explicit\nomegas = 0.5, 1.0, 1.5\n"
            "couplings = 0.1, 0.2, 0.1\nOmega = 0.9\n"
        )
        assert cfg.model.n_bath == 3
        assert cfg.model.omegas == (0.5, 1.0, 1.5)
        assert cfg.model.omega0 == 0.9
        bath = build_bath(cfg.model)
        np.testing.assert_array_equal(bath.omegas, [0.5, 1.0, 1.5])

    def test_outputs_selection(self):
        cfg = parse_config("outputs = spectrum, report\n")
        assert cfg.outputs == ("spectrum", "report")

    def test_grid_preset(self):
        cfg = parse_config("grid = recurrence\n")
        assert cfg.grid_preset == "recurrence"


class TestRoundTrip:
    def test_default_config(self):
        cfg = parse_config("")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_nontrivial_floats(self):
        text = (
            f"A = {np.pi / 173.0!r}\nbeta = {1.0 / 3.0!r}\nN = 17\n"
            f"t_step = {np.e / 7.0!r}\nX0 = -0.125\nP0 = 0.7\nM = 2.5\n"
            "outputs = survival, coefficients\ngrid = recurrence\n"
            "out_dir = results/deep\n"
        )
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_explicit_roundtrip(self):
        text = (
            "coupling = explicit\n"
            f"omegas = {1.0 / 7.0!r}, {np.pi!r}, 4.5\n"
            f"couplings = {float(-np.sqrt(2.0) / 100.0)!r}, 0.02, 0.03\n"
        )
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_bath_rebuild_bit_identical(self):
        rng = np.random.default_rng(4242)
        omegas = np.sort(rng.uniform(0.2, 3.0, size=12))
        couplings = rng.uniform(0.001, 0.1, size=12)
        bath = build_bath(ModelParams.explicit(omegas, couplings))
        params = explicit_params_for(bath, omega0=1.0)
        cfg = RunConfig(model=params)
        rebuilt = build_bath(parse_config(serialize_config(cfg)).model)
        np.testing.assert_array_equal(rebuilt.omegas, bath.omegas)
        np.testing.assert_array_equal(rebuilt.couplings, bath.couplings)


class TestRunConfigValidation:
    def test_no_outputs_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(outputs=())

    def test_unknown_product_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(outputs=("spectra",))

    def test_bad_preset_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(grid_preset="long")
