"""Sparse SPD kernel: a Jacobi-preconditioned conjugate gradient solver.

A system matrix is prepared once (`prepare_spd`) and then solved for one
right-hand side per call (`solve_spd`), so the checks, the CSR arrays and the
inverse diagonal are not rebuilt at every time step.  `csr_matvec` is the one
entry point to scipy's CSR product kernel, for this module and its callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# The kernel that `csr @ vector` runs after scipy's operator dispatch (in scipy
# 1.17, `_cs_matrix._matmul_vector` is np.zeros plus this call).  Calling it
# directly gives bitwise-identical products without the dispatch, which costs
# more than the product itself on the small systems of a short march.
from scipy.sparse import _sparsetools

_CSR_MATVEC = _sparsetools.csr_matvec
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

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    inv_diag: np.ndarray


def csr_matvec(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, v: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out = A v for the CSR arrays of A (len(out) rows, len(v) columns).

    Bitwise the product `csr @ v`: the same kernel on a zeroed output.
    """
    out.fill(0.0)
    _CSR_MATVEC(len(out), len(v), indptr, indices, data, v, out)
    return out


def solve_failure(context: str, report: SolveReport, rhs: np.ndarray) -> SolveFailure:
    """The error for an unconverged solve of `rhs`: `context`, then the cause."""
    if not math.isfinite(rhs.dot(rhs)):
        return SolveFailure(f"{context}: the right-hand side has a non-finite norm")
    stall = f"CG stalled at relative residual {report.final_residual:.3e} (target {REL_TOL:g})"
    return SolveFailure(f"{context}: {stall}")


def prepare_spd(a: sp.spmatrix) -> SpdSystem:
    """Check a symmetric positive definite matrix once and keep what CG needs.

    Raises ValueError for a non-square matrix or a non-positive diagonal
    entry, and SolveFailure for a non-finite entry.
    """
    a = sp.csr_matrix(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    data = np.array(a.data, dtype=float)
    if not np.isfinite(data).all():
        raise SolveFailure("system matrix has a non-finite entry")
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix has a non-positive diagonal entry; not SPD")
    return SpdSystem(n, a.indptr.copy(), a.indices.copy(), data, 1.0 / diag)


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
    n = system.n
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
