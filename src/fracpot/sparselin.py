"""Sparse SPD kernel: a Jacobi-preconditioned conjugate gradient solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

REL_TOL = 1e-12  # the one target of every solve in the pipeline


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool


class SolveFailure(RuntimeError):
    """A linear solve missed its tolerance within the iteration cap."""


def solve_spd(
    a: sp.csr_matrix,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = rhs for symmetric positive definite A by preconditioned CG.

    Convergence means ||A x - rhs|| <= REL_TOL * ||rhs|| in the true residual,
    which is recomputed whenever the recurrence residual passes.  The iteration
    cap is 10 times the dimension; hitting it is reported through the returned
    SolveReport, never hidden.  An optional x0 warm-starts the iteration.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"dimension mismatch: matrix is {a.shape}, rhs has {n}")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix has a non-positive diagonal entry; not SPD")
    inv_diag = 1.0 / diag

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    cap = 10 * n
    iterations = 0
    # Outer loop restarts from the true residual, so recurrence drift can
    # never fake convergence.
    while True:
        r = rhs - a @ x
        res = float(np.linalg.norm(r)) / rhs_norm
        if res <= REL_TOL or iterations >= cap:
            break
        z = inv_diag * r
        p = z.copy()
        rz = float(r @ z)
        inner_target = 0.5 * REL_TOL * rhs_norm
        while iterations < cap:
            ap = a @ p
            pap = float(p @ ap)
            if pap <= 0.0:
                raise ValueError("matrix is not positive definite")
            step = rz / pap
            x += step * p
            r -= step * ap
            iterations += 1
            if np.linalg.norm(r) <= inner_target:
                break
            z = inv_diag * r
            rz_next = float(r @ z)
            p = z + (rz_next / rz) * p
            rz = rz_next
    return x, SolveReport(iterations, res, bool(res <= REL_TOL))
