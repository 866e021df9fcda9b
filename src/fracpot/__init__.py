"""Recovery of a space-dependent potential in (sub)diffusion equations.

A Q1 finite element / backward Euler convolution-quadrature solver for the
time-fractional diffusion initial-boundary value problem, plus the clamped
fixed-point iteration that reconstructs the potential from noisy terminal
observations, with experiment drivers and a CLI.
"""

from .expressions import parse_field_expr
from .fem import build_mesh, interpolate_nodal
from .forward import InadmissiblePotential, ProblemSpec, solve_forward
from .inverse import DataFloorError, ObservationData, compute_psi_h, reconstruct
from .experiments import make_observation, rate_sweep, relative_error
from .sparselin import SolveFailure

__all__ = [
    "DataFloorError",
    "InadmissiblePotential",
    "ObservationData",
    "ProblemSpec",
    "SolveFailure",
    "build_mesh",
    "compute_psi_h",
    "interpolate_nodal",
    "make_observation",
    "parse_field_expr",
    "rate_sweep",
    "reconstruct",
    "relative_error",
    "solve_forward",
]

__version__ = "0.1.0"
