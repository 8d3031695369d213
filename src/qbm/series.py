"""The uniform time grid that every product is sampled on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue
from .model import _real, _whole


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start + t_step * {0, 1, ..., n_steps-1}."""

    t_start: float = 0.0
    t_step: float = 0.15707963267948966  # fixed 2*pi/40; tau_Omega/40 only at Omega = 1
    n_steps: int = 2000

    def __post_init__(self) -> None:
        t_start, t_step = _real(self.t_start, "t_start"), _real(self.t_step, "t_step")
        if not (t_step > 0.0):
            raise InvalidValue(f"t_step must be positive, got {self.t_step}")
        if t_start < 0.0:
            raise InvalidValue(f"t_start must be >= 0, got {self.t_start}")
        if not _whole(self.n_steps) or self.n_steps < 1:
            raise InvalidValue(f"n_steps must be a positive integer, got {self.n_steps}")
        try:  # in Python floats: an overflow gives inf, not a numpy warning
            last = t_start + t_step * (int(self.n_steps) - 1)
        except OverflowError:  # n_steps beyond float range
            last = math.inf
        if not math.isfinite(last):
            raise InvalidValue(f"last grid time must be finite, got {last}")
        # past max_intp // 8 steps numpy cannot size the grid
        if self.n_steps > np.iinfo(np.intp).max // 8:
            raise InvalidValue(f"n_steps = {self.n_steps} is more than numpy can size")

    def times(self) -> np.ndarray:
        return self.t_start + self.t_step * np.arange(self.n_steps, dtype=float)
