"""Uniform time grids and named time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start + t_step * {0, 1, ..., n_steps-1}."""

    t_start: float = 0.0
    t_step: float = 0.15707963267948966  # fixed 2*pi/40; tau_Omega/40 only at Omega = 1
    n_steps: int = 2000

    def __post_init__(self) -> None:
        if not (self.t_step > 0.0):
            raise ValueError(f"t_step must be positive, got {self.t_step}")
        if self.t_start < 0.0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    def times(self) -> np.ndarray:
        return self.t_start + self.t_step * np.arange(self.n_steps, dtype=float)

    @property
    def t_end(self) -> float:
        return self.t_start + self.t_step * (self.n_steps - 1)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled scalar series.  `flag` is True on samples that downstream
    writers must mark as unusable (coefficient samples whose shared
    denominator crossed zero); it is all-False for every other product."""

    name: str
    t: np.ndarray
    value: np.ndarray
    flag: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.asarray(self.t, dtype=float)).copy()
        v = np.atleast_1d(np.asarray(self.value, dtype=float)).copy()
        if t.shape != v.shape:
            raise ValueError("t and value must have the same shape")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("t must be strictly increasing")
        if self.flag is None:
            fl = np.zeros(t.shape, dtype=bool)
        else:
            fl = np.atleast_1d(np.asarray(self.flag, dtype=bool)).copy()
            if fl.shape != t.shape:
                raise ValueError("flag must match t in shape")
        for arr in (t, v, fl):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "flag", fl)

    def __len__(self) -> int:
        return self.t.size
