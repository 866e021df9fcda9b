"""Sparse SPD kernel: a Jacobi-preconditioned conjugate gradient solver.

A system matrix is prepared once from its CSR arrays (`prepare_spd`) and then
solved for one right-hand side per call (`solve_spd`), so the checks and the
inverse diagonal are not rebuilt at every time step.  Every product runs
`fem.csr_matvec`, the one entry point to scipy's CSR product kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import csr_matvec

REL_TOL = 1e-12  # the one target of every solve in the pipeline
# A residual within FLOOR_FACTOR eps || |A| |x| + |b| || is as small as forming
# A x - b in floating point allows, so no iterate can do better.
FLOOR_FACTOR = 10.0


@dataclass(frozen=True)
class SolveReport:
    # solve_spd returns converged solves only; perfbench's tracer reads both fields.
    iterations: int
    converged: bool


class SolveFailure(RuntimeError):
    """A linear solve missed its tolerance: non-finite data or the iteration cap."""


@dataclass(frozen=True, eq=False)
class SpdSystem:
    """A checked SPD matrix in CSR form, with its inverse diagonal."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    inv_diag: np.ndarray


def prepare_spd(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> SpdSystem:
    """Check the CSR arrays of a square SPD matrix once; keep them, not copies, and
    the inverse diagonal.  A diagonal entry sums its row's entries in its column,
    0 if none, as scipy's `diagonal()` does.  Raises SolveFailure for a non-finite
    entry and ValueError for a non-positive diagonal entry."""
    if not np.isfinite(data).all():
        raise SolveFailure("system matrix has a non-finite entry")
    n = indptr.size - 1
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    on = np.flatnonzero(indices == rows)  # the diagonal entries, in row order
    diag = np.bincount(indices[on], weights=data[on], minlength=n)
    if np.any(diag <= 0.0):
        raise ValueError("matrix has a non-positive diagonal entry; not SPD")
    return SpdSystem(indptr, indices, data, 1.0 / diag)


def solve_spd(
    system: SpdSystem,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = rhs for a prepared SPD matrix A by preconditioned CG.

    Convergence means ||A x - rhs|| <= REL_TOL * ||rhs|| in the true residual,
    which is recomputed whenever the recurrence residual passes.  Where that
    target lies below rounding, as on fine 1D meshes, a residual recomputed
    after CG steps that misses it still converges if it is at the rounding
    floor, ||A x - rhs|| <= FLOOR_FACTOR * eps * || |A| |x| + |rhs| ||;
    |A| |x| is formed only then.  Only a converged solve returns: a
    right-hand side of non-finite norm, and hitting the iteration cap of 10
    times the dimension, raise SolveFailure naming the cause.  An optional
    x0 warm-starts the iteration.

    x sits next to -r in one buffer and p next to A p in another, so one
    multiply and one add update both.  Negation is exact, so -r + s A p rounds
    as r - s A p does, -z = D^-1 (-r), p - (-z) = p + z, and the dot products
    of negated pairs are the same sums: the iterates equal those of the plain
    x, r, z, p loop bit for bit, up to the sign of exact zeros.  `v.dot(w)` is
    the BLAS product that `v @ w` runs on vectors, without the ufunc dispatch.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = system.inv_diag.size
    if rhs.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix is {(n, n)}, rhs has shape {rhs.shape}")
    rhs_norm = math.sqrt(rhs.dot(rhs))
    if not math.isfinite(rhs_norm):
        raise SolveFailure("the right-hand side has a non-finite norm")
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, True)
    xr = np.zeros((2, n))  # [x, -r]
    x, neg_r = xr
    if x0 is not None:
        x[:] = x0
    pa = np.empty((2, n))  # [p, A p]
    p, ap = pa
    neg_z, scaled = np.empty(n), np.empty((2, n))
    # Names bound once: the loop body is a dozen calls on short vectors, so
    # attribute lookups are a visible part of its cost.
    indptr, indices, data, inv_diag = system.indptr, system.indices, system.data, system.inv_diag
    multiply, r_dot, p_dot = np.multiply, neg_r.dot, p.dot

    cap = 10 * n
    iterations = 0
    # Outer loop restarts from the true residual, so recurrence drift can
    # never fake convergence.
    while True:
        np.subtract(csr_matvec(indptr, indices, data, x, ap), rhs, out=neg_r)
        res = math.sqrt(r_dot(neg_r)) / rhs_norm
        converged = res <= REL_TOL or (iterations > 0 and _at_rounding_floor(system, x, rhs, res))
        if converged or iterations >= cap:
            break
        multiply(inv_diag, neg_r, out=neg_z)
        np.negative(neg_z, out=p)
        rz = float(r_dot(neg_z))
        inner_target = 0.5 * REL_TOL * rhs_norm
        while iterations < cap:
            csr_matvec(indptr, indices, data, p, ap)
            pap = float(p_dot(ap))
            if pap <= 0.0:
                raise ValueError("matrix is not positive definite")
            xr += multiply(rz / pap, pa, out=scaled)
            iterations += 1
            if math.sqrt(r_dot(neg_r)) <= inner_target:
                break
            multiply(inv_diag, neg_r, out=neg_z)
            rz_next = float(r_dot(neg_z))
            p *= rz_next / rz
            p -= neg_z
            rz = rz_next
    if not converged:
        raise SolveFailure(f"CG stalled at relative residual {res:.3e} (target {REL_TOL:g})")
    return x, SolveReport(iterations, True)


def _at_rounding_floor(system: SpdSystem, x: np.ndarray, rhs: np.ndarray, res: float) -> bool:
    """Whether the relative residual `res` of x is within FLOOR_FACTOR eps of
    || |A| |x| + |rhs| || / ||rhs||, the most that rounding leaves of A x - rhs."""
    abs_data = np.abs(system.data)
    bound = csr_matvec(system.indptr, system.indices, abs_data, np.abs(x), np.empty_like(x))
    bound += np.abs(rhs)
    floor = FLOOR_FACTOR * math.ulp(1.0) * math.sqrt(bound.dot(bound) / rhs.dot(rhs))
    return res <= floor < math.inf
