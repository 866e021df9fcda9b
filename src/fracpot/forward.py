"""Fully discrete solver for the (sub)diffusion problem with a potential.

The scheme marches dbar^alpha u^n - Delta_h u^n + q u^n = f in weak form:
the interior system (b_0 tau^{-alpha} M + S + M_q) u^n = rhs is prepared once
per march and solved by CG at every step, where the right-hand side carries
the convolution-quadrature history.  Boundary nodes are pinned to the
interpolated boundary data.

Everything that does not depend on the potential (M, S, the load, nodal f,
boundary data, u^0, the CQ weights, and the maps that cut the interior blocks
out of the Q1 sparsity pattern) is built once per ProblemSpec, on first use,
as its `discretization`.  A forward solve assembles only M_q, adds its data to
that of the potential-independent part and gathers the two blocks it needs;
every product then runs scipy's CSR kernel on preallocated buffers, with no
sparse-matrix operator in the march.  A march holds exactly
(N+1) * n_nodes * 8 bytes of history and no second copy of it.  The terminal
derivative dbar^alpha u^N comes from the last step itself: that step already
forms the history part of the convolution, so
dbar^alpha u^N = tau^{-alpha} (u^N + past_N) on interior nodes, and it is
exactly zero on the boundary, whose trace is constant in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .cq import cq_weights
from .fem import (
    Mesh,
    NodalField,
    assemble_load,
    interpolate_nodal,
    mass_matrix,
    stiffness_matrix,
    weighted_mass_matrix,
)
from .sparselin import REL_TOL, SolveFailure, csr_matvec, prepare_spd, solve_spd

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
        if self.num_steps < 1:
            raise ValueError(f"need at least one time step, got {self.num_steps}")
        if not self.tau > 0.0:
            raise ValueError(f"time step tau = T/num_steps underflows to {self.tau}")
        try:
            scale = self.tau ** (-self.alpha)
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
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
        bb = self.mesh.boundary_nodes
        v_b = interpolate_nodal(self.v_expr, self.mesh).values[bb]
        b_b = interpolate_nodal(self.b_expr, self.mesh).values[bb]
        if not np.allclose(v_b, b_b, rtol=1e-12, atol=1e-12):
            raise ValueError("initial value must match the boundary value on the boundary")

    @property
    def tau(self) -> float:
        return self.T / self.num_steps

    @cached_property
    def discretization(self) -> Discretization:
        """The potential-independent part of the scheme, built on first use.

        It lives in the instance, so `dataclasses.replace` gives a new spec
        with a setup of its own.
        """
        mesh = self.mesh
        ii, bb = mesh.interior_nodes, mesh.boundary_nodes
        scale = self.tau ** (-self.alpha)
        w = cq_weights(self.alpha, self.num_steps, self.tau).weights
        mass = mass_matrix(mesh)
        # M, S and every M_q come from fem's scatter over the same elements, so
        # they share one canonical pattern.  base is (s M) + S entry by entry,
        # as scipy adds them, except that an entry that cancels to exactly 0
        # stays in the pattern instead of being dropped.
        base = sp.csr_matrix(
            ((scale * w[0]) * mass.data + stiffness_matrix(mesh).data, mass.indices, mass.indptr),
            shape=mass.shape,
        )
        boundary = interpolate_nodal(self.b_expr, mesh).values[bb]
        u0 = interpolate_nodal(self.v_expr, mesh).values
        u0[bb] = boundary
        return Discretization(
            scale=scale,
            weights_reversed=np.ascontiguousarray(w[::-1]),
            partial=np.cumsum(w),
            base=base,
            interior_block=BlockMap.cut(base, ii, ii),
            boundary_block=BlockMap.cut(base, ii, bb),
            mass=mass,
            mass_int=mass[ii],
            load_int=assemble_load(mesh, self.f_expr)[ii],
            f_nodes=interpolate_nodal(self.f_expr, mesh).values,
            boundary_values=boundary,
            u0=u0,
        )


@dataclass(frozen=True, eq=False)
class BlockMap:
    """The CSR structure of the block rows x cols of the matrices of one
    pattern, and the positions in the pattern's data its entries come from.

    rows and cols are sorted node lists, so for a matrix `a` of the pattern
    with data `data`, `matrix(data)` holds the same arrays as scipy's
    `a[np.ix_(rows, cols)]`, and `matvec` computes its product bit for bit.
    """

    shape: tuple[int, int]
    indptr: np.ndarray  # int32
    indices: np.ndarray  # int32 block column numbers
    take: np.ndarray  # int32 positions in the pattern's data, in block order

    @classmethod
    def cut(cls, pattern: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> BlockMap:
        n = pattern.shape[0]
        number = np.full(n, -1, dtype=np.int32)  # block column number, -1 outside cols
        number[cols] = np.arange(cols.size, dtype=np.int32)
        in_rows = np.zeros(n, dtype=bool)
        in_rows[rows] = True
        keep = np.repeat(in_rows, np.diff(pattern.indptr))
        keep &= number[pattern.indices] >= 0
        # Kept entries up to the end of each row; no row of a Q1 pattern is empty.
        indptr = np.zeros(rows.size + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(keep, dtype=np.int32)[pattern.indptr[rows + 1] - 1]
        take = np.flatnonzero(keep).astype(np.int32)
        return cls((rows.size, cols.size), indptr, number[pattern.indices[take]], take)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The block of the pattern's matrix with data `data`."""
        return sp.csr_matrix((data[self.take], self.indices, self.indptr), shape=self.shape)

    def matvec(self, data: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = (the block of the matrix with data `data`) v."""
        return csr_matvec(self.indptr, self.indices, data[self.take], v, out)


@dataclass(frozen=True)
class Discretization:
    """Operators and data of a ProblemSpec that do not depend on the potential.

    weights_reversed holds b_N, ..., b_1, b_0 in one contiguous array, so the
    history convolution of step n is the BLAS product of its slice
    [N - n, N) with the first n history rows.  partial[n] = b_0 + ... + b_n.
    """

    scale: float  # tau^{-alpha}
    weights_reversed: np.ndarray
    partial: np.ndarray
    base: sp.csr_matrix  # tau^{-alpha} b_0 M + S, in the Q1 pattern
    interior_block: BlockMap  # interior rows and columns of the pattern
    boundary_block: BlockMap  # interior rows, boundary columns
    mass: sp.csr_matrix  # M
    mass_int: sp.csr_matrix  # interior rows of M
    load_int: np.ndarray  # interior entries of the load (f, phi_i)
    f_nodes: np.ndarray  # nodal interpolant of f
    boundary_values: np.ndarray  # b at the boundary nodes
    u0: np.ndarray  # initial state, pinned to b on the boundary


@dataclass(frozen=True)
class ForwardSolution:
    """Terminal state, its discrete fractional time derivative, and history.

    `history` has shape (num_steps + 1, n_nodes), row n holding u^n.
    """

    terminal: NodalField
    frac_deriv_terminal: NodalField
    history: np.ndarray


def _check_potential(spec: ProblemSpec, q: NodalField) -> None:
    if not q.mesh.matches(spec.mesh):
        raise ValueError("potential is not aligned with the problem mesh")
    if q.values.min() < -_BOUND_SLACK or q.values.max() > spec.M1 + _BOUND_SLACK:
        raise ValueError(
            f"potential values [{q.values.min():.3g}, {q.values.max():.3g}] "
            f"leave the admissible range [0, {spec.M1:g}]"
        )


def solve_forward(spec: ProblemSpec, q: NodalField) -> ForwardSolution:
    """March the fully discrete scheme to the final time for a given potential."""
    _check_potential(spec, q)
    setup = spec.discretization
    mesh = spec.mesh
    n_steps = spec.num_steps
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    # The data of base + M_q, entry by entry as scipy's CSR sum adds them.
    data = setup.base.data + weighted_mass_matrix(mesh, q).data
    system_ii = prepare_spd(setup.interior_block.matrix(data))
    rhs = np.empty(ii.size)  # holds A_ib b, then each step's right-hand side
    rhs_base = setup.load_int - setup.boundary_block.matvec(data, setup.boundary_values, rhs)
    mass_past = np.empty(ii.size)
    scale, weights_reversed, partial = setup.scale, setup.weights_reversed, setup.partial
    mass_int = setup.mass_int
    mass_arrays = mass_int.indptr, mass_int.indices, mass_int.data

    history = np.empty((n_steps + 1, mesh.n_nodes))
    history[0] = setup.u0
    history[1:, bb] = setup.boundary_values
    u0 = history[0]
    x = setup.u0[ii]
    # Data that overflow at this time step are reported below, by name.
    with np.errstate(over="ignore"):
        for n in range(1, n_steps + 1):
            # past = sum_{j>=1} b_j u^{n-j} - (b_0 + ... + b_n) u^0
            past = weights_reversed[n_steps - n : n_steps] @ history[:n]
            past -= partial[n] * u0
            csr_matvec(*mass_arrays, past, mass_past)
            mass_past *= scale
            np.subtract(rhs_base, mass_past, out=rhs)
            x, report = solve_spd(system_ii, rhs, x0=x)
            if not report.converged:
                if not math.isfinite(rhs.dot(rhs)):
                    raise SolveFailure(
                        f"time step {n}/{n_steps}: the right-hand side has a non-finite norm"
                    )
                raise SolveFailure(
                    f"time step {n}/{n_steps}: CG stalled at relative residual "
                    f"{report.final_residual:.3e} (target {REL_TOL:g})"
                )
            history[n, ii] = x
    frac = np.zeros(mesh.n_nodes)
    frac[ii] = scale * (x + past[ii])
    terminal = NodalField(history[-1].copy(), mesh)
    return ForwardSolution(terminal, NodalField(frac, mesh), history)


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
    axis_idx = factor * np.arange(coarse.cells_per_axis + 1)
    if coarse.dim == 1:
        idx = axis_idx
    else:
        idx = (axis_idx[:, None] * (fine.cells_per_axis + 1) + axis_idx[None, :]).ravel()
    return NodalField(field.values[idx].copy(), coarse)
