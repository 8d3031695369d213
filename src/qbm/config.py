"""Line-oriented run configuration: `key = value`, `#` comments.

Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to a default.  The defaults reproduce the reference setup
(N=100 Lorentzian bath, A=0.018, Omega=1, beta=1) on a grid of 2000
steps of 2*pi/40, a fixed step that equals tau_Omega/40 only at Omega = 1.
Each key fills one field of a part of RunConfig; the part constructors own
every default and every range check, and the parser adds the line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
            raise InvalidValue("at least one output product must be requested")
        for p in self.outputs:
            if p not in PRODUCTS:
                raise InvalidValue(f"unknown output product {p!r}")
        if self.grid_preset not in GRID_PRESETS:
            raise InvalidValue(f"grid preset must be one of {GRID_PRESETS}")
        if self.grid_preset == "recurrence" and self.grid != TimeGrid():
            raise InvalidValue(
                "grid = recurrence sets its own time grid; "
                "t_start, t_step and n_steps must be left at their defaults"
            )
        if not math.isfinite(self.n_omega0):
            raise InvalidValue(f"N_Omega0 must be finite, got {self.n_omega0}")
        if self.n_omega0 < 0.0:
            raise InvalidValue(f"N_Omega0 must be >= 0, got {self.n_omega0}")


def _items(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(float, _items(raw)))


# key: (converter, RunConfig part it fills, field of that part), in
# serialized order; part None is RunConfig itself.  Converters check the
# format only.
_KEYS = {
    "N": (int, "model", "n_bath"),
    "A": (float, "model", "step"),
    "Omega": (float, "model", "omega0"),
    "beta": (float, "model", "beta"),
    "N_Omega0": (float, None, "n_omega0"),
    "coupling": (str, "model", "coupling"),
    "omegas": (_floats, "model", "omegas"),
    "couplings": (_floats, "model", "couplings"),
    "X0": (float, "langevin_input", "x0"),
    "P0": (float, "langevin_input", "p0"),
    "M": (float, "langevin_input", "mass"),
    "t_start": (float, "grid", "t_start"),
    "t_step": (float, "grid", "t_step"),
    "n_steps": (int, "grid", "n_steps"),
    "grid": (str, None, "grid_preset"),
    "outputs": (_items, None, "outputs"),
    "out_dir": (str, None, "out_dir"),
}


def _checked_model(**kwargs) -> ModelParams:
    model = ModelParams(**kwargs)
    build_bath(model)  # surface bad mode lists (zeros, ordering) here
    return model


def parse_config(text: str) -> RunConfig:
    """Parse a config document into a RunConfig.

    Later assignments override earlier ones; an empty document yields the
    full default configuration.
    """
    kwargs: dict[str | None, dict[str, object]] = {
        part: {} for part in ("model", "grid", "langevin_input", None)
    }
    line_of: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise UnknownKey(f"line {line_no}: unknown key {key!r}")
        if not raw:
            raise InvalidValue(f"line {line_no}: empty value for {key!r}")
        convert, part, name = _KEYS[key]
        try:
            kwargs[part][name] = convert(raw)
        except ValueError as exc:
            raise InvalidValue(f"line {line_no}: {key}: {exc}") from None
        line_of[key] = line_no

    model = kwargs["model"]  # under the explicit rule N defaults to the list length
    if model.get("coupling") == "explicit" and "omegas" in model:
        model.setdefault("n_bath", len(model["omegas"]))

    def build(part, make, **parts):
        try:
            return make(**kwargs[part], **parts)
        except QbmError as exc:
            lines = sorted(n for k, n in line_of.items() if _KEYS[k][1] == part)
            raise InvalidValue(f"line {', '.join(map(str, lines))}: {exc}") from exc

    return build(
        None,
        RunConfig,
        model=build("model", _checked_model),
        grid=build("grid", TimeGrid),
        langevin_input=build("langevin_input", LangevinInput),
    )


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(_text, value))
    return value if isinstance(value, str) else repr(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Floats are written with repr so the round trip is bit-exact.  Unset
    mode lists are left out, and so is the time grid under the recurrence
    preset, which sets its own.
    """
    lines = []
    for key, (_, part, name) in _KEYS.items():
        if part == "grid" and config.grid_preset == "recurrence":
            continue
        value = getattr(config if part is None else getattr(config, part), name)
        if value is not None:
            lines.append(f"{key} = {_text(value)}")
    return "\n".join(lines) + "\n"
