"""Sparse SPD kernel: a Jacobi-preconditioned conjugate gradient solver.

A system matrix is prepared once (`prepare_spd`) and then solved for one
right-hand side per call (`solve_spd`), so the checks, the CSR arrays and the
inverse diagonal are not rebuilt at every time step.
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

    def matvec(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = A v, the same arithmetic as `csr @ v`."""
        out.fill(0.0)
        _sparsetools.csr_matvec(self.n, self.n, self.indptr, self.indices, self.data, v, out)
        return out


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
    """
    rhs = np.asarray(rhs, dtype=float)
    n = system.n
    if rhs.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix is {(n, n)}, rhs has shape {rhs.shape}")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    rhs_norm = math.sqrt(rhs.dot(rhs))
    if not math.isfinite(rhs_norm):
        return x, SolveReport(0, math.nan, False)
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    inv_diag = system.inv_diag
    ax, ap, z, scaled = np.empty(n), np.empty(n), np.empty(n), np.empty(n)

    cap = 10 * n
    iterations = 0
    # Outer loop restarts from the true residual, so recurrence drift can
    # never fake convergence.
    while True:
        r = rhs - system.matvec(x, ax)
        res = math.sqrt(r.dot(r)) / rhs_norm
        if res <= REL_TOL or iterations >= cap:
            break
        np.multiply(inv_diag, r, out=z)
        p = z.copy()
        rz = float(r @ z)
        inner_target = 0.5 * REL_TOL * rhs_norm
        while iterations < cap:
            system.matvec(p, ap)
            pap = float(p @ ap)
            if pap <= 0.0:
                raise ValueError("matrix is not positive definite")
            step = rz / pap
            x += np.multiply(step, p, out=scaled)
            r -= np.multiply(step, ap, out=scaled)
            iterations += 1
            if math.sqrt(r.dot(r)) <= inner_target:
                break
            np.multiply(inv_diag, r, out=z)
            rz_next = float(r @ z)
            p *= rz_next / rz
            p += z
            rz = rz_next
    return x, SolveReport(iterations, res, bool(res <= REL_TOL))
