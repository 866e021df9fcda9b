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


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
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


def solve_failure(context: str, report: SolveReport, rhs: np.ndarray) -> SolveFailure:
    """The error for an unconverged solve of `rhs`: `context`, then the cause."""
    if not math.isfinite(rhs.dot(rhs)):
        return SolveFailure(f"{context}: the right-hand side has a non-finite norm")
    stall = f"CG stalled at relative residual {report.final_residual:.3e} (target {REL_TOL:g})"
    return SolveFailure(f"{context}: {stall}")


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
    which is recomputed whenever the recurrence residual passes.  The iteration
    cap is 10 times the dimension; hitting it is reported through the returned
    SolveReport, never hidden.  A right-hand side of non-finite norm is
    reported as not converged after 0 iterations.  An optional x0 warm-starts
    the iteration.

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
    xr = np.zeros((2, n))  # [x, -r]
    x, neg_r = xr
    if x0 is not None:
        x[:] = x0
    rhs_norm = math.sqrt(rhs.dot(rhs))
    if not math.isfinite(rhs_norm):
        return x, SolveReport(0, math.nan, False)
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
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
        if res <= REL_TOL or iterations >= cap:
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
    return x, SolveReport(iterations, res, bool(res <= REL_TOL))
