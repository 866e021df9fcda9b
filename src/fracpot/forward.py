"""Fully discrete solver for the (sub)diffusion problem with a potential.

The scheme marches dbar^alpha u^n - Delta_h u^n + q u^n = f in weak form:
the interior system (b_0 tau^{-alpha} M + S + M_q) u^n = rhs is prepared once
per march and solved by CG at every step, where the right-hand side carries
the convolution-quadrature history.  Boundary nodes are pinned to the
interpolated boundary data.

The Q1 stencil layout, M, S and the interior stencil depend on the mesh
alone and are kept by the mesh.  Everything else that does not depend on the
potential (tau^{-alpha} b_0 M + S, the load, nodal f, u^0 pinned to the
boundary data, and the CQ weights) is built once per ProblemSpec, on first
use, as its `discretization`; tau^{-alpha} itself is `spec.scale`.  A
forward solve scatters only M_q, adds its data to that of the
potential-independent part and gathers the interior block for the solver;
every other product is `mesh.product` at every node into one preallocated
buffer, read at the interior nodes, with no sparse-matrix operator in the
march.  A march holds exactly (N+1) * n_nodes * 8 bytes of history and no
second copy of it; the history is local to the march, which returns u^N and
dbar^alpha u^N alone.  A history larger than the memory the
process may use is a MemoryError before anything of it is allocated.
The terminal derivative dbar^alpha u^N comes from the last step itself: that
step already forms the history part of the convolution, so
dbar^alpha u^N = tau^{-alpha} (u^N + past_N) on interior nodes, and it is
exactly zero on the boundary, whose trace is constant in time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .cq import cq_weights
from .fem import (
    Mesh,
    NodalField,
    assemble_load,
    evaluate_at,
    grid_index,
    interpolate_nodal,
    memory_budget,
    weighted_mass_matrix,
)
from .sparselin import SolveFailure, prepare_spd, solve_spd

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one forward/inverse problem instance.

    v_expr, b_expr and f_expr are callables of the space variables (a parsed
    field expression or any vectorized function); v must agree with b at the
    boundary nodes.  M1 bounds the admissible potential, M2_floor guards the
    division by terminal data, fp_tol ends the fixed-point iteration, and seed
    draws the noise of synthetic observations.
    """

    alpha: float
    T: float
    num_steps: int
    mesh: Mesh
    v_expr: Callable
    b_expr: Callable
    f_expr: Callable
    M1: float
    M2_floor: float = 1e-6
    fp_tol: float = 1e-10
    max_iter: int = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        for name in ("num_steps", "max_iter", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.num_steps < 1:
            raise ValueError(f"need at least one time step, got {self.num_steps}")
        if not self.tau > 0.0:
            raise ValueError(f"time step tau = T/num_steps underflows to {self.tau}")
        if not math.isfinite(self.scale):
            raise ValueError(f"tau^-alpha overflows for the time step tau = {self.tau:g}")
        if not 0.0 < self.M1 < math.inf:
            raise ValueError(f"potential bound M1 must be positive and finite, got {self.M1}")
        if not self.M2_floor > 0.0:
            raise ValueError(f"data floor M2_floor must be positive, got {self.M2_floor}")
        if not self.fp_tol > 0.0:
            raise ValueError(f"fixed-point tolerance must be positive, got {self.fp_tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        boundary = self.mesh.node_coords[self.mesh.boundary_nodes]
        v_b, b_b = evaluate_at(self.v_expr, boundary), evaluate_at(self.b_expr, boundary)
        if not np.allclose(v_b, b_b, rtol=1e-12, atol=1e-12):
            raise ValueError("initial value must match the boundary value on the boundary")

    @property
    def tau(self) -> float:
        return self.T / self.num_steps

    @cached_property
    def scale(self) -> float:
        """tau^-alpha, inf where it overflows."""
        try:
            return self.tau ** (-self.alpha)
        except OverflowError:
            return math.inf

    @cached_property
    def discretization(self) -> Discretization:
        """The potential-independent part of the scheme, built on first use.

        It lives in the instance, so `dataclasses.replace` gives a new spec
        with a setup of its own, which shares the mesh's layout, M and S.
        """
        mesh = self.mesh
        ii, bb = mesh.interior_nodes, mesh.boundary_nodes
        w = cq_weights(self.alpha, self.num_steps)
        u0 = interpolate_nodal(self.v_expr, mesh).values
        u0[bb] = interpolate_nodal(self.b_expr, mesh).values[bb]
        return Discretization(
            weights_reversed=np.ascontiguousarray(w[::-1]),
            partial=np.cumsum(w),
            # (s M) + S entry by entry, as scipy adds them, except that an
            # entry that cancels to exactly 0 stays in the data.
            base_data=(self.scale * w[0]) * mesh.mass + mesh.stiffness,
            load_int=assemble_load(mesh, self.f_expr)[ii],
            f_nodes=interpolate_nodal(self.f_expr, mesh).values,
            u0=u0,
        )


@dataclass(frozen=True)
class Discretization:
    """Operators and data of a ProblemSpec that do not depend on the potential,
    beyond the layout, M and S, which its mesh keeps.

    weights_reversed holds b_N, ..., b_1, b_0 in one contiguous array, so the
    history convolution of step n is the BLAS product of its slice
    [N - n, N) with the first n history rows.  partial[n] = b_0 + ... + b_n.
    """

    weights_reversed: np.ndarray
    partial: np.ndarray
    base_data: np.ndarray  # DIA data of tau^{-alpha} b_0 M + S on the mesh
    load_int: np.ndarray  # interior entries of the load (f, phi_i)
    f_nodes: np.ndarray  # nodal interpolant of f
    u0: np.ndarray  # initial state, pinned to b on the boundary, where every state keeps it


@dataclass(frozen=True)
class ForwardSolution:
    """Terminal state u^N and its discrete fractional time derivative."""

    terminal: NodalField
    frac_deriv_terminal: NodalField


class InadmissiblePotential(ValueError):
    """A potential entering a march leaves the admissible range [0, M1]."""


def _check_potential(spec: ProblemSpec, q: NodalField) -> None:
    if q.values.min() < -_BOUND_SLACK or q.values.max() > spec.M1 + _BOUND_SLACK:
        raise InadmissiblePotential(
            f"potential values [{q.values.min():.3g}, {q.values.max():.3g}] "
            f"leave the admissible range [0, {spec.M1:g}]"
        )


def solve_forward(spec: ProblemSpec, q: NodalField) -> ForwardSolution:
    """March the fully discrete scheme to the final time for a given potential."""
    _check_potential(spec, q)
    mesh = spec.mesh
    n_steps = spec.num_steps
    history_bytes, budget = (n_steps + 1) * mesh.n_nodes * 8, memory_budget()
    if history_bytes > budget:
        raise MemoryError(
            f"Unable to allocate {history_bytes / 2**30:.3g} GiB for the march history "
            f"({n_steps + 1} x {mesh.n_nodes} float64) within {budget / 2**30:.3g} GiB"
        )
    setup = spec.discretization
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    # The data of base + M_q, entry by entry as scipy's sparse sum adds them.
    data = setup.base_data + weighted_mass_matrix(mesh, q)
    system_ii = prepare_spd(*mesh.interior_block(data))
    history = np.zeros((n_steps + 1, mesh.n_nodes))
    history[0] = setup.u0
    history[1:, bb] = setup.u0[bb]
    u0 = history[0]
    product = np.empty(mesh.n_nodes)  # every node of one product; the interior is read
    # Until step 1 writes it, history[1] is b on the boundary and 0 inside.
    rhs_base = setup.load_int - mesh.product(data, history[1], product)[ii]
    rhs, mass_past = np.empty(ii.size), np.empty(ii.size)
    scale, weights_reversed, partial = spec.scale, setup.weights_reversed, setup.partial
    mass = mesh.mass

    x = setup.u0[ii]
    # Data that overflow at this time step are reported below, by name.
    with np.errstate(over="ignore"):
        for n in range(1, n_steps + 1):
            # past = sum_{j>=1} b_j u^{n-j} - (b_0 + ... + b_n) u^0
            past = weights_reversed[n_steps - n : n_steps] @ history[:n]
            past -= partial[n] * u0
            # The method, not np.take: its dispatch costs more than this read.
            mesh.product(mass, past, product).take(ii, out=mass_past)
            mass_past *= scale
            np.subtract(rhs_base, mass_past, out=rhs)
            try:
                x, _ = solve_spd(system_ii, rhs, x0=x)
            except SolveFailure as exc:
                raise SolveFailure(f"time step {n}/{n_steps}: {exc}") from None
            history[n, ii] = x
    frac = np.zeros(mesh.n_nodes)
    frac[ii] = scale * (x + past[ii])
    return ForwardSolution(NodalField(history[-1].copy(), mesh), NodalField(frac, mesh))


def restrict_to_mesh(field: NodalField, coarse: Mesh) -> NodalField:
    """Sample a fine-mesh field at the nodes of a nested coarser mesh."""
    fine = field.mesh
    if fine.dim != coarse.dim or fine.bounds != coarse.bounds:
        raise ValueError("meshes cover different domains")
    factor, remainder = divmod(fine.cells_per_axis, coarse.cells_per_axis)
    if remainder != 0:
        raise ValueError(
            f"meshes are not nested: {fine.cells_per_axis} cells over {coarse.cells_per_axis}"
        )
    stride = (fine.cells_per_axis + 1) ** np.arange(coarse.dim)
    idx = stride @ (factor * grid_index(coarse.cells_per_axis + 1, coarse.dim))
    return NodalField(field.values[idx].copy(), coarse)
