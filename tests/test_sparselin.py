"""Tests for the sparse SPD kernel.

The Laplacian fixture below is the classic dual-route check: the same
3x3 eliminated system is solved once by the package CG and once by a
dense direct solve, and both must match the hand-frozen nodal values of
x(1-x)/2 (Q1 nodal exactness for -u'' = 1 with constant load).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from fracpot.sparselin import REL_TOL, SolveReport, solve_spd

# Nodal values of x(1-x)/2 at x = 0.25, 0.5, 0.75 (exact binary fractions).
POISSON_M4_SOLUTION = np.array([0.09375, 0.125, 0.09375])


def eliminated_laplacian_m4():
    """Interior system of -u''=1 on (0,1) with M=4 cells: (1/h) tridiag(-1,2,-1)."""
    h = 0.25
    a = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1]).tocsr() / h
    rhs = np.full(3, h)  # load of f=1 against interior hats
    return a, rhs


class TestSolveSpd:
    def test_identity_single_iteration(self):
        e1 = np.array([1.0, 0.0, 0.0])
        x, report = solve_spd(sp.identity(3, format="csr"), e1)
        np.testing.assert_allclose(x, e1, atol=1e-15)
        assert report.iterations == 1
        assert report.converged

    def test_diagonal_system(self):
        a = sp.diags([2.0, 2.0, 2.0, 2.0]).tocsr()
        x, report = solve_spd(a, np.ones(4))
        np.testing.assert_allclose(x, 0.5, atol=1e-14)
        assert report.converged

    def test_poisson_m4_vs_frozen(self):
        a, rhs = eliminated_laplacian_m4()
        x, report = solve_spd(a, rhs)
        assert report.converged
        np.testing.assert_allclose(x, POISSON_M4_SOLUTION, atol=1e-10)

    def test_poisson_m4_dense_oracle(self):
        # Independent route: dense direct solve of the same system.
        a, rhs = eliminated_laplacian_m4()
        direct = np.linalg.solve(a.toarray(), rhs)
        np.testing.assert_allclose(direct, POISSON_M4_SOLUTION, atol=1e-14)

    def test_zero_rhs_short_circuits(self):
        a = sp.identity(5, format="csr")
        x, report = solve_spd(a, np.zeros(5))
        np.testing.assert_array_equal(x, np.zeros(5))
        assert report == SolveReport(0, 0.0, True)

    def test_warm_start_with_exact_solution(self):
        a, rhs = eliminated_laplacian_m4()
        exact, _ = solve_spd(a, rhs)
        x, report = solve_spd(a, rhs, x0=exact)
        assert report.iterations == 0
        np.testing.assert_array_equal(x, exact)

    def test_residual_contract_on_random_spd(self):
        # Spec invariant: 50 random SPD systems B^T B + I up to dimension 200.
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            b = rng.standard_normal((n, n))
            a = sp.csr_matrix(b.T @ b + np.eye(n))
            rhs = rng.standard_normal(n)
            x, report = solve_spd(a, rhs)
            res = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
            assert report.converged
            assert res <= 1e-12

    def test_laplacian_chain_converges_within_cap(self):
        n = 99
        h = 1.0 / (n + 1)
        a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr() / h
        rhs = np.full(n, h)
        x, report = solve_spd(a, rhs)
        assert report.converged
        assert report.iterations <= 10 * n
        xs = np.linspace(h, 1.0 - h, n)
        np.testing.assert_allclose(x, xs * (1.0 - xs) / 2.0, atol=1e-10)

    def test_converged_implies_residual_within_tolerance(self):
        rng = np.random.default_rng(23)
        b = rng.standard_normal((40, 40))
        a = sp.csr_matrix(b.T @ b + np.eye(40))
        _, report = solve_spd(a, rng.standard_normal(40))
        assert report.converged
        assert report.final_residual <= REL_TOL

    def test_nonpositive_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            solve_spd(a, np.ones(2))

    def test_indefinite_matrix_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="positive definite"):
            solve_spd(a, np.array([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            solve_spd(sp.identity(3, format="csr"), np.ones(2))
