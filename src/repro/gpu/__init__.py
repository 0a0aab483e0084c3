"""GPU-style batched execution substrate (see DESIGN.md for the
hardware substitution rationale)."""

from .batch_bdf import BatchBDF
from .batch_dopri5 import BatchDopri5
from .batch_radau5 import BatchRadau5
from .batch_result import (BROKEN, EXHAUSTED, GUARD, METHOD_DOPRI5,
                           METHOD_RADAU5, METHOD_NAMES, OK, RUNNING,
                           STATUS_NAMES, STIFF, BatchSolveResult,
                           allocate_result)
from .batched_ode import BatchedODEProblem, KernelCounters
from .device import DEVICES, GTX_1650, TITAN_X, VirtualDevice
from .engine import METHODS, BatchSimulator, EngineReport
from .perfmodel import (DeviceTimeEstimate, estimate_device_time,
                        fits_device, memory_footprint_doubles, occupancy)
from .router import RoutingDecision, StiffnessRouter

__all__ = [
    "BatchBDF", "BatchDopri5", "BatchRadau5",
    "BROKEN", "EXHAUSTED", "GUARD", "METHOD_DOPRI5", "METHOD_RADAU5",
    "METHOD_NAMES", "OK", "RUNNING", "STATUS_NAMES", "STIFF",
    "BatchSolveResult", "allocate_result",
    "BatchedODEProblem", "KernelCounters",
    "DEVICES", "GTX_1650", "TITAN_X", "VirtualDevice",
    "METHODS", "BatchSimulator", "EngineReport",
    "DeviceTimeEstimate", "estimate_device_time", "fits_device",
    "memory_footprint_doubles", "occupancy",
    "RoutingDecision", "StiffnessRouter",
]
