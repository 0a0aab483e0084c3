"""CPU reference ODE solvers: explicit RK family, Radau IIA, baselines."""

from .bdf import BDF
from .base import (DEFAULT_OPTIONS, FAILED, MAX_STEPS, SUCCESS, SolveResult,
                   SolverOptions, SolverStats, StepController, error_norm,
                   initial_step_size, validate_time_grid)
from .explicit import Dopri5Interpolant, ExplicitRungeKutta
from .radau5 import (MU_COMPLEX, MU_REAL, RADAU_A, RADAU_C, RADAU_E,
                     RADAU_T, RADAU_TI, Radau5)
from .scipy_backends import ScipyLSODA, ScipyVODE, make_cpu_baseline
from .stiffness import (StiffnessEstimate, classify_stiffness,
                        power_iteration, spectral_radius, stiffness_ratio)
from .tableaus import (BOGACKI_SHAMPINE_23, CASH_KARP_45, DOPRI5,
                       FEHLBERG_45, TABLEAUS, ButcherTableau)

__all__ = [
    "BDF",
    "DEFAULT_OPTIONS", "FAILED", "MAX_STEPS", "SUCCESS",
    "SolveResult", "SolverOptions", "SolverStats", "StepController",
    "error_norm", "initial_step_size", "validate_time_grid",
    "Dopri5Interpolant", "ExplicitRungeKutta",
    "MU_COMPLEX", "MU_REAL", "RADAU_A", "RADAU_C", "RADAU_E", "RADAU_T",
    "RADAU_TI", "Radau5",
    "ScipyLSODA", "ScipyVODE", "make_cpu_baseline",
    "StiffnessEstimate", "classify_stiffness", "power_iteration",
    "spectral_radius", "stiffness_ratio",
    "BOGACKI_SHAMPINE_23", "CASH_KARP_45", "DOPRI5", "FEHLBERG_45",
    "TABLEAUS", "ButcherTableau",
]
