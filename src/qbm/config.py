"""Line-oriented run configuration: `key = value`, `#` comments.

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to a default.  The defaults reproduce the reference setup
(N=100 Lorentzian bath, A=0.018, Omega=1, beta=1) on a grid of 2000
steps of 2*pi/40, a fixed step that equals tau_Omega/40 only at Omega = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InvalidValue, ParseError, QbmError, UnknownKey
from .langevin import LangevinInput
from .model import ModelParams, build_bath
from .series import TimeGrid

PRODUCTS = ("spectrum", "population", "survival", "position", "coefficients", "report")
GRID_PRESETS = ("default", "recurrence")

_DEFAULT_OUTPUTS = ("population", "survival", "position", "coefficients", "report")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=ModelParams)
    n_omega0: float = 1.0
    grid: TimeGrid = field(default_factory=TimeGrid)
    grid_preset: str = "default"
    langevin_input: LangevinInput = field(default_factory=LangevinInput)
    outputs: tuple[str, ...] = _DEFAULT_OUTPUTS
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError("at least one output product must be requested")
        for p in self.outputs:
            if p not in PRODUCTS:
                raise ValueError(f"unknown output product {p!r}")
        if self.grid_preset not in GRID_PRESETS:
            raise ValueError(f"grid preset must be one of {GRID_PRESETS}")
        if not (self.n_omega0 >= 0.0):
            raise ValueError(f"N_Omega0 must be >= 0, got {self.n_omega0}")


_SCALAR_KEYS = {
    # key: (kind, minimum); the minimum applies to the int kinds only
    "N": ("int", 1),
    "A": ("float_pos", None),
    "Omega": ("float_pos", None),
    "beta": ("float_pos", None),
    "N_Omega0": ("float_nonneg", None),
    "X0": ("float", None),
    "P0": ("float", None),
    "M": ("float_pos", None),
    "t_start": ("float_nonneg", None),
    "t_step": ("float_pos", None),
    "n_steps": ("int", 1),
}

_ALL_KEYS = tuple(_SCALAR_KEYS) + (
    "coupling",
    "omegas",
    "couplings",
    "grid",
    "outputs",
    "out_dir",
)


def _to_int(key: str, raw: str, line_no: int, minimum: int) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise InvalidValue(f"line {line_no}: {key} must be an integer, got {raw!r}")
    if val < minimum:
        raise InvalidValue(f"line {line_no}: {key} must be >= {minimum}, got {val}")
    return val


def _to_float(key: str, raw: str, line_no: int) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise InvalidValue(f"line {line_no}: {key} must be a number, got {raw!r}")
    if not abs(val) < float("inf"):  # nan fails the comparison too
        raise InvalidValue(f"line {line_no}: {key} must be finite, got {raw!r}")
    return val


def _to_float_list(key: str, raw: str, line_no: int) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise InvalidValue(f"line {line_no}: {key} must be a comma-separated list")
    return tuple(_to_float(key, p, line_no) for p in parts)


def parse_config(text: str) -> RunConfig:
    """Parse a config document into a RunConfig.

    Later assignments override earlier ones; an empty document yields the
    full default configuration.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _ALL_KEYS:
            raise UnknownKey(f"line {line_no}: unknown key {key!r}")
        if not raw:
            raise InvalidValue(f"line {line_no}: empty value for {key!r}")
        lines[key] = line_no
        if key in _SCALAR_KEYS:
            kind, arg = _SCALAR_KEYS[key]
            if kind == "int":
                values[key] = _to_int(key, raw, line_no, arg)
            else:
                v = _to_float(key, raw, line_no)
                if kind == "float_pos" and not (v > 0.0):
                    raise InvalidValue(f"line {line_no}: {key} must be > 0, got {v}")
                if kind == "float_nonneg" and v < 0.0:
                    raise InvalidValue(f"line {line_no}: {key} must be >= 0, got {v}")
                values[key] = v
        elif key in ("omegas", "couplings"):
            values[key] = _to_float_list(key, raw, line_no)
        elif key == "coupling":
            if raw not in ("lorentzian", "explicit"):
                raise InvalidValue(
                    f"line {line_no}: coupling must be lorentzian or explicit"
                )
            values[key] = raw
        elif key == "grid":
            if raw not in GRID_PRESETS:
                raise InvalidValue(
                    f"line {line_no}: grid must be one of {GRID_PRESETS}"
                )
            values[key] = raw
        elif key == "outputs":
            prods = tuple(p.strip() for p in raw.split(",") if p.strip())
            if not prods:
                raise InvalidValue(f"line {line_no}: outputs must name a product")
            for p in prods:
                if p not in PRODUCTS:
                    raise InvalidValue(f"line {line_no}: unknown product {p!r}")
            values[key] = prods
        else:  # out_dir
            values[key] = raw

    coupling = values.get("coupling", "lorentzian")
    try:
        if coupling == "explicit":
            if "omegas" not in values or "couplings" not in values:
                raise InvalidValue(
                    "explicit coupling requires both omegas and couplings"
                )
            omegas = values["omegas"]
            couplings = values["couplings"]
            if len(omegas) != len(couplings):
                raise InvalidValue(
                    f"omegas has {len(omegas)} entries, couplings {len(couplings)}"
                )
            if "N" in values and values["N"] != len(omegas):
                raise InvalidValue(
                    f"N = {values['N']} disagrees with {len(omegas)} explicit modes"
                )
            model = ModelParams(
                n_bath=len(omegas),
                step=values.get("A", 0.018),
                omega0=values.get("Omega", 1.0),
                beta=values.get("beta", 1.0),
                coupling="explicit",
                omegas=omegas,
                couplings=couplings,
            )
        else:
            if "omegas" in values or "couplings" in values:
                raise InvalidValue(
                    f"line {lines.get('omegas', lines.get('couplings'))}: "
                    "explicit mode lists require coupling = explicit"
                )
            model = ModelParams(
                n_bath=values.get("N", 100),
                step=values.get("A", 0.018),
                omega0=values.get("Omega", 1.0),
                beta=values.get("beta", 1.0),
                coupling="lorentzian",
            )
        build_bath(model)  # surface bad mode lists (zeros, ordering) here
        grid = TimeGrid(
            t_start=values.get("t_start", 0.0),
            t_step=values.get("t_step", 0.15707963267948966),
            n_steps=values.get("n_steps", 2000),
        )
        inp = LangevinInput(
            x0=values.get("X0", 1.0),
            p0=values.get("P0", 0.0),
            mass=values.get("M", 1.0),
        )
        return RunConfig(
            model=model,
            n_omega0=values.get("N_Omega0", 1.0),
            grid=grid,
            grid_preset=values.get("grid", "default"),
            langevin_input=inp,
            outputs=values.get("outputs", _DEFAULT_OUTPUTS),
            out_dir=values.get("out_dir", "out"),
        )
    except InvalidValue:
        raise
    except (ValueError, QbmError) as exc:
        # model/grid invariants surfaced during assembly are config errors
        raise InvalidValue(str(exc)) from exc


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Floats are written with repr so the round trip is bit-exact.
    """
    m = config.model
    lines = [
        f"coupling = {m.coupling}",
        f"Omega = {m.omega0!r}",
        f"beta = {m.beta!r}",
    ]
    if m.coupling == "lorentzian":
        lines.append(f"N = {m.n_bath}")
        lines.append(f"A = {m.step!r}")
    else:
        lines.append(f"A = {m.step!r}")
        lines.append("omegas = " + ", ".join(repr(w) for w in m.omegas))
        lines.append("couplings = " + ", ".join(repr(g) for g in m.couplings))
    lines += [
        f"N_Omega0 = {config.n_omega0!r}",
        f"X0 = {config.langevin_input.x0!r}",
        f"P0 = {config.langevin_input.p0!r}",
        f"M = {config.langevin_input.mass!r}",
        f"t_start = {config.grid.t_start!r}",
        f"t_step = {config.grid.t_step!r}",
        f"n_steps = {config.grid.n_steps}",
        f"grid = {config.grid_preset}",
        "outputs = " + ", ".join(config.outputs),
        f"out_dir = {config.out_dir}",
    ]
    return "\n".join(lines) + "\n"
