"""The benchmark's workloads: one fixed qbm config each, jittered by the seed.

Seed 0 is the exact config.  Any other seed scales the bath spacing A (and
t_start where the workload sets one) by a factor within 0.5% of 1, so the
problem size, the grid and the products never change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# qbm's documented defaults; the checks rebuild every quantity from these
DEFAULTS = {
    "N": 100,
    "A": 0.018,
    "Omega": 1.0,
    "beta": 1.0,
    "N_Omega0": 1.0,
    "X0": 1.0,
    "P0": 0.0,
    "M": 1.0,
    "t_start": 0.0,
    "t_step": math.pi / 20.0,
    "n_steps": 2000,
    "outputs": ("population", "survival", "position", "coefficients", "report"),
}

_JITTER = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the qbm subcommand: "run" writes files, "report" prints
    threads: int  # QBM_THREADS for the child
    overrides: tuple[tuple[str, object], ...]  # config lines beyond the defaults
    jittered: tuple[str, ...]  # keys the seed scales

    def inputs(self, seed: int) -> dict:
        """The full parameter set for one seed (defaults included)."""
        values = dict(DEFAULTS, **dict(self.overrides))
        if seed:
            rng = random.Random(seed)
            for key in self.jittered:
                values[key] = values[key] * (1.0 + rng.uniform(-_JITTER, _JITTER))
        return values

    def config_text(self, seed: int) -> str:
        """The config file the child reads: only keys that differ from the
        defaults, floats written with repr so the child parses the exact
        values the checks use."""
        values = self.inputs(seed)
        lines = []
        for key, value in values.items():
            if value == DEFAULTS[key]:
                continue
            if key == "outputs":
                lines.append("outputs = " + ", ".join(value))
            else:
                lines.append(f"{key} = {value!r}")
        return "".join(line + "\n" for line in lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reference",
            command="run",
            threads=1,
            overrides=(),
            jittered=("A",),
        ),
        Workload(
            name="plateau",
            command="run",
            threads=2,
            overrides=(
                ("N", 1000),
                ("A", 0.0018),
                ("t_start", 1000.0),
                ("n_steps", 12800),
                ("outputs", ("population",)),
            ),
            jittered=("A", "t_start"),
        ),
        Workload(
            name="recurrence",
            command="report",
            threads=1,
            overrides=(("N", 10000), ("A", 0.00018)),
            jittered=("A",),
        ),
    )
}
