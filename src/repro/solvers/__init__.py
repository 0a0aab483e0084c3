"""Solver definitions: shared options, the method constants the batched
integrators use, the SciPy LSODA/VODE baselines and stiffness probes."""

from .base import (DEFAULT_OPTIONS, FAILED, MAX_STEPS, SUCCESS, SolveResult,
                   SolverOptions, SolverStats, validate_time_grid)
from .radau5 import (MU_COMPLEX, MU_REAL, RADAU_A, RADAU_C, RADAU_E,
                     RADAU_T, RADAU_TI)
from .scipy_backends import ScipyLSODA, ScipyVODE, make_cpu_baseline
from .stiffness import (StiffnessEstimate, classify_stiffness,
                        power_iteration, spectral_radius, stiffness_ratio)
from .tableaus import DOPRI5, ButcherTableau

__all__ = [
    "DEFAULT_OPTIONS", "FAILED", "MAX_STEPS", "SUCCESS",
    "SolveResult", "SolverOptions", "SolverStats", "validate_time_grid",
    "MU_COMPLEX", "MU_REAL", "RADAU_A", "RADAU_C", "RADAU_E", "RADAU_T",
    "RADAU_TI",
    "ScipyLSODA", "ScipyVODE", "make_cpu_baseline",
    "StiffnessEstimate", "classify_stiffness", "power_iteration",
    "spectral_radius", "stiffness_ratio",
    "DOPRI5", "ButcherTableau",
]
