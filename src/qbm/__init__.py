"""Exactly soluble quantum Brownian motion of a harmonic oscillator
coupled to a discretized bath, in the one-excitation sector.

The workflow is: build a bath (`build_bath`), diagonalize it through the
secular equation (`solve_spectrum`), then evaluate dynamics — survival
amplitude, transition probabilities, mean occupations, mean position and
the time-local Langevin coefficients — as spectral sums over the result.
"""

from . import errors
from .config import RunConfig, parse_config, serialize_config
from .evolution import (
    oscillator_population,
    population_decomposition,
    population_series,
    survival_probability,
    transition_probabilities,
)
from .langevin import (
    GammaEstimate,
    LangevinInput,
    coefficient_series,
    estimate_gamma,
    gamma_from_survival,
    golden_rule_rate,
    mean_position,
    moment_signal,
    recurrence_time,
)
from .model import (
    DiscretizedBath,
    InitialOccupations,
    ModelParams,
    build_bath,
    thermal_occupations,
)
from .series import TimeGrid
from .spectrum import (
    Spectrum,
    overlap_matrix,
    solve_spectrum,
)

__version__ = "0.1.0"
