import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import ModelParams, RunConfig, build_bath, parse_config, serialize_config
from qbm.config import _KEYS, GRID_PRESETS, PRODUCTS
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
            "N_Omega0 = 1.7e308\n",
            "coupling = gaussian\n",
            "grid = shortest\n",
            "outputs = everything\n",
            "outputs = ,\n",
            "N = \n",
        ],
    )
    def test_invalid_values(self, text):
        with pytest.raises(InvalidValue, match="line 1"):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "template",
        [
            "Omega = {}\n",
            "A = {}\n",
            "beta = {}\n",
            "t_start = {}\n",
            "t_step = {}\n",
            "X0 = {}\n",
            "P0 = {}\n",
            "M = {}\n",
            "N_Omega0 = {}\n",
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
            "outputs = survival, coefficients\nout_dir = results/deep\n"
        )
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_recurrence_preset(self):
        cfg = parse_config(f"grid = recurrence\nbeta = {1.0 / 3.0!r}\nN = 17\n")
        text = serialize_config(cfg)
        assert "t_step" not in text  # the preset sets its own grid
        assert parse_config(text) == cfg

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
        params = ModelParams.explicit(bath.omegas.tolist(), bath.couplings.tolist())
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

    def test_recurrence_preset_with_grid_rejected(self):
        with pytest.raises(ValueError, match="recurrence"):
            RunConfig(grid_preset="recurrence", grid=TimeGrid(t_start=50.0))

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_step": 1e308, "n_steps": 3}, {"t_start": 1e308, "t_step": 1e308}, {"n_steps": 10**400}],
    )
    def test_overflowing_last_time_rejected(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="last grid time"):
                TimeGrid(**kwargs)

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: TimeGrid(t_start=x),
            lambda x: TimeGrid(t_step=x),
            lambda x: LangevinInput(x0=x),
            lambda x: LangevinInput(p0=x),
            lambda x: LangevinInput(mass=x),
            lambda x: RunConfig(n_omega0=x),
        ],
        ids=["t_start", "t_step", "x0", "p0", "mass", "n_omega0"],
    )
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parts_rejected(self, make, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="must be finite"):
                make(x)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    """Valid RunConfigs: both coupling rules, both grid presets, floats
    of full precision and any non-empty subset of the products."""
    omega0 = draw(st.floats(min_value=0.01, max_value=100.0))
    beta = draw(_positive)
    if draw(st.booleans()):
        model = ModelParams(
            n_bath=draw(st.integers(3, 300)),
            step=draw(st.floats(min_value=1e-4, max_value=1.0)),
            omega0=omega0,
            beta=beta,
        )
    else:
        n = draw(st.integers(1, 8))
        # bounded so that the bath's frequency differences cannot overflow
        modes = st.floats(min_value=-1e6, max_value=1e6)
        omegas = draw(st.lists(modes, min_size=n, max_size=n, unique=True))
        # |g| <= 1e150 keeps the sum of g^2 over 8 modes finite
        coupling = st.floats(min_value=-1e150, max_value=1e150).filter(bool)
        couplings = draw(st.lists(coupling, min_size=n, max_size=n))
        model = ModelParams(
            n_bath=n,
            step=draw(_positive),
            omega0=omega0,
            beta=beta,
            coupling="explicit",
            omegas=tuple(sorted(omegas)),
            couplings=tuple(couplings),
        )
    preset = draw(st.sampled_from(GRID_PRESETS))
    grid = TimeGrid()
    if preset == "default":
        # bounded so that the last grid time, below 1e300 + 1e296, is finite
        grid = TimeGrid(
            t_start=draw(st.floats(min_value=0.0, max_value=1e300)),
            t_step=draw(st.floats(min_value=0.0, max_value=1e290, exclude_min=True)),
            n_steps=draw(st.integers(1, 10**6)),
        )
    outputs = draw(st.lists(st.sampled_from(PRODUCTS), min_size=1, unique=True))
    return RunConfig(
        model=model,
        n_omega0=draw(st.floats(min_value=0.0, max_value=1e290)),
        grid=grid,
        grid_preset=preset,
        langevin_input=LangevinInput(
            x0=draw(_finite), p0=draw(_finite), mass=draw(_positive)
        ),
        outputs=tuple(outputs),
        out_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
    )


class TestRoundTripProperty:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(run_configs())
    def test_parse_inverts_serialize(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


def test_readme_key_table_matches_parser():
    # the first column of README's `| key | default | meaning |` table
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = readme.read_text(encoding="utf-8").split("| key | default | meaning |")[1]
    keys = []
    for line in rows.splitlines()[2:]:
        if not line.startswith("|"):
            break
        keys += re.findall(r"`([^`]+)`", line.split("|")[1])
    assert keys == list(_KEYS)
