"""Potential reconstruction from terminal data by a clamped fixed-point map.

The map sends q to clamp((f - dbar^alpha u^N(q) + psi_h) / g_delta), where
psi_h is a data-regularized discrete Laplacian of the observation.  Iterating
from the upper-bound initial guess clamp((f + psi_h) / g_delta) converges
linearly once the final time is large enough.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fem import Mesh, NodalField, evaluate_at, interpolate_nodal, mass_norm
from .forward import ProblemSpec, solve_forward
from .sparselin import SolveFailure, prepare_spd, solve_spd

logger = logging.getLogger(__name__)


class DataFloorError(RuntimeError):
    """Terminal data dipped below the admissible positive floor."""


@dataclass(frozen=True)
class ObservationData:
    """Noisy terminal data on the reconstruction mesh, with psi_boundary, the
    known boundary trace q*b - f of the data Laplacian."""

    g_delta: NodalField
    psi_boundary: np.ndarray

    def __post_init__(self) -> None:
        psi_b = np.asarray(self.psi_boundary, dtype=float)
        object.__setattr__(self, "psi_boundary", psi_b)
        if psi_b.shape != self.g_delta.mesh.boundary_nodes.shape:
            raise ValueError("psi_boundary must carry one value per boundary node")


def boundary_psi(spec: ProblemSpec, q) -> np.ndarray:
    """Boundary trace q*b - f of the data Laplacian, one value per boundary node.

    q is any field expression that holds the potential's boundary values.
    """
    coords = spec.mesh.node_coords[spec.mesh.boundary_nodes]
    q_b, b_b, f_b = (evaluate_at(g, coords) for g in (q, spec.b_expr, spec.f_expr))
    return q_b * b_b - f_b


@dataclass(frozen=True)
class ReconstructionResult:
    q_star: NodalField
    increments: np.ndarray  # one increment per iteration
    errors_vs_truth: np.ndarray | None
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.increments)


def compute_psi_h(mesh: Mesh, obs: ObservationData) -> NodalField:
    """Data-regularized discrete Laplacian of the terminal observation.

    Interior values solve the mass system (psi, phi) = -(grad I_h g, grad phi)
    over interior test functions; boundary values are prescribed.  (S g)_i and
    M_ib psi_b are mesh products, on g and on psi_b padded with 0 inside, read
    at the interior nodes; the mass system is cut by its interior block.
    """
    if not obs.g_delta.mesh.matches(mesh):
        raise ValueError("data is not aligned with the mesh")
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    mass = mesh.mass
    full = np.zeros(mesh.n_nodes)
    full[bb] = obs.psi_boundary
    with np.errstate(over="ignore"):
        rhs = -mesh.product(mesh.stiffness, obs.g_delta.values)[ii]
        rhs -= mesh.product(mass, full)[ii]
        system = prepare_spd(*mesh.interior_block(mass))
        try:
            interior, _ = solve_spd(system, rhs)
        except SolveFailure as exc:
            raise SolveFailure(f"mass solve for the data Laplacian: {exc}") from None
    full[ii] = interior
    return NodalField(full, mesh)


def fixed_point_update(
    f_values: np.ndarray,
    frac_deriv: np.ndarray,
    psi_values: np.ndarray,
    data_values: np.ndarray,
    m1: float,
) -> np.ndarray:
    """Nodal quotient clamp((f - dbar^alpha u^N + psi_h) / g_delta)."""
    return np.clip((f_values - frac_deriv + psi_values) / data_values, 0.0, m1)


def _check_floor(obs: ObservationData, spec: ProblemSpec) -> None:
    low = float(obs.g_delta.values.min())
    if low < spec.M2_floor:
        raise DataFloorError(
            f"terminal data reaches {low:.3e}, below the admissible floor {spec.M2_floor:g}"
        )


def reconstruct(
    spec: ProblemSpec,
    obs: ObservationData,
    q_true=None,
    q0=None,
) -> ReconstructionResult:
    """Fixed-point iteration from the upper-bound start until the increment
    drops below fp_tol or max_iter is reached.

    When q_true (an expression or callable) is supplied, the absolute error
    ||q_k - I_h q_true|| is traced per iteration, including the initial guess.
    A custom q0 (an expression or callable) replaces the default upper-bound start.
    """
    mesh = spec.mesh
    _check_floor(obs, spec)
    psi_h = compute_psi_h(mesh, obs)
    f_nodes = spec.discretization.f_nodes
    if q0 is None:
        q_vals = fixed_point_update(f_nodes, 0.0, psi_h.values, obs.g_delta.values, spec.M1)
    else:
        q_vals = np.clip(interpolate_nodal(q0, mesh).values, 0.0, spec.M1)
    truth = interpolate_nodal(q_true, mesh).values if q_true is not None else None
    errors = [mass_norm(q_vals - truth, mesh)] if truth is not None else None

    increments = []
    converged = False
    for k in range(spec.max_iter):
        forward = solve_forward(spec, NodalField(q_vals, mesh))
        q_next = fixed_point_update(
            f_nodes,
            forward.frac_deriv_terminal.values,
            psi_h.values,
            obs.g_delta.values,
            spec.M1,
        )
        increment = mass_norm(q_next - q_vals, mesh)
        increments.append(increment)
        if logger.isEnabledFor(logging.DEBUG):
            uphill = float(np.mean(q_next > q_vals + mesh.h))
            logger.debug(
                "iteration %d: increment %.3e, uphill fraction %.3f", k + 1, increment, uphill
            )
        q_vals = q_next
        if truth is not None:
            errors.append(mass_norm(q_vals - truth, mesh))
        if increment <= spec.fp_tol:
            converged = True
            break
    return ReconstructionResult(
        q_star=NodalField(q_vals, mesh),
        increments=np.asarray(increments),
        errors_vs_truth=np.asarray(errors) if errors is not None else None,
        converged=converged,
    )
