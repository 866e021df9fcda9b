"""Tests for the sparse SPD kernel.

The Laplacian fixture below is the classic dual-route check: the same
3x3 eliminated system is solved once by the package CG and once by a
dense direct solve, and both must match the hand-frozen nodal values of
x(1-x)/2 (Q1 nodal exactness for -u'' = 1 with constant load).

`reference_pcg` is the solver as it was before systems were prepared once:
`a @ v` products, fresh temporaries and np.linalg.norm.  The prepared solver
must reproduce it bit for bit, on the benchmark's systems and on random ones.

prepare_spd takes CSR arrays; `prepare` hands it those of a scipy matrix.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from fracpot import forward
from fracpot.fem import csr_matvec
from fracpot.sparselin import (
    REL_TOL,
    SolveFailure,
    SolveReport,
    SpdSystem,
    prepare_spd,
    solve_failure,
    solve_spd,
)
from conftest import recon_1d_small_t, small_2d

# Nodal values of x(1-x)/2 at x = 0.25, 0.5, 0.75 (exact binary fractions).
POISSON_M4_SOLUTION = np.array([0.09375, 0.125, 0.09375])


def reference_pcg(a, rhs, x0=None):
    """The Jacobi-PCG loop on a raw CSR matrix, kept verbatim as the oracle."""
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


def prepare(a):
    """prepare_spd on the CSR arrays of a scipy matrix."""
    a = sp.csr_matrix(a)
    return prepare_spd(a.indptr, a.indices, a.data)


def eliminated_laplacian_m4():
    """Interior system of -u''=1 on (0,1) with M=4 cells: (1/h) tridiag(-1,2,-1)."""
    h = 0.25
    a = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1]).tocsr() / h
    rhs = np.full(3, h)  # load of f=1 against interior hats
    return a, rhs


def random_spd_systems(count=50):
    """(A, rhs) for random SPD systems B^T B + I up to dimension 200."""
    rng = np.random.default_rng(17)
    for _ in range(count):
        n = int(rng.integers(2, 201))
        b = rng.standard_normal((n, n))
        yield sp.csr_matrix(b.T @ b + np.eye(n)), rng.standard_normal(n)


def march_solves(monkeypatch, spec, q):
    """The interior matrix and every (rhs, x0) of one forward march."""
    matrices, solves = [], []

    def recording_prepare(*arrays):
        matrices.append(arrays)
        return prepare_spd(*arrays)

    def recording_solve(system, rhs, x0=None):
        solves.append((rhs.copy(), x0.copy()))
        return solve_spd(system, rhs, x0)

    monkeypatch.setattr(forward, "prepare_spd", recording_prepare)
    monkeypatch.setattr(forward, "solve_spd", recording_solve)
    forward.solve_forward(spec, q)
    monkeypatch.undo()
    ((indptr, indices, data),) = matrices
    n = indptr.size - 1
    return sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=True), solves


def assert_bitwise_like_reference(a, rhs, x0=None):
    x, report = solve_spd(prepare(a), rhs, x0)
    x_ref, report_ref = reference_pcg(a, rhs, x0)
    np.testing.assert_array_equal(x, x_ref)
    assert report == report_ref


class TestBitwiseOracle:
    @pytest.mark.parametrize("problem", [recon_1d_small_t, small_2d], ids=["1d_small_T", "2d"])
    def test_interior_systems_of_a_march(self, monkeypatch, problem):
        spec, q = problem()
        a, solves = march_solves(monkeypatch, spec, q)
        assert len(solves) == spec.num_steps
        for rhs, x0 in solves:
            assert_bitwise_like_reference(a, rhs, x0)
            assert_bitwise_like_reference(a, rhs)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_random_spd_systems(self, warm):
        rng = np.random.default_rng(5)
        for a, rhs in random_spd_systems():
            x0 = rng.standard_normal(rhs.shape[0]) if warm else None
            assert_bitwise_like_reference(a, rhs, x0)

    @pytest.mark.parametrize("problem", [recon_1d_small_t, small_2d], ids=["1d_small_T", "2d"])
    def test_kernel_matvec_is_the_operator_product(self, monkeypatch, problem):
        # Guards the private scipy kernel: an upgrade that changes it fails here.
        a, _ = march_solves(monkeypatch, *problem())
        system = prepare(a)
        v = np.random.default_rng(3).standard_normal(a.shape[0])
        out = np.full(a.shape[0], np.nan)
        product = csr_matvec(system.indptr, system.indices, system.data, v, out)
        np.testing.assert_array_equal(product, a @ v)
        np.testing.assert_array_equal(out, a @ v)


class TestPrepareSpd:
    def test_keeps_the_arrays_it_is_given(self):
        a, _ = eliminated_laplacian_m4()
        system = prepare_spd(a.indptr, a.indices, a.data)
        assert isinstance(system, SpdSystem) and system.inv_diag.shape == (3,)
        assert system.indptr is a.indptr and system.indices is a.indices
        assert system.data is a.data
        np.testing.assert_array_equal(system.inv_diag, 1.0 / a.diagonal())

    def test_diagonal_is_read_as_scipy_reads_it(self):
        # Unsorted columns and a diagonal entry split in two, as a CSR matrix
        # with duplicates holds them: the two parts add up.
        indptr = np.array([0, 3, 5, 6], dtype=np.int32)
        indices = np.array([1, 0, 0, 1, 0, 2], dtype=np.int32)
        data = np.array([-1.0, 1.5, 2.5, 3.0, -1.0, 5.0])
        a = sp.csr_matrix((data, indices, indptr), shape=(3, 3), copy=True)
        system = prepare_spd(indptr, indices, data)
        np.testing.assert_array_equal(system.inv_diag, 1.0 / a.diagonal())
        np.testing.assert_array_equal(system.inv_diag, [0.25, 1.0 / 3.0, 0.2])

    def test_row_without_a_diagonal_entry_rejected(self):
        indptr = np.array([0, 1, 2], dtype=np.int32)
        with pytest.raises(ValueError, match="diagonal"):
            prepare_spd(indptr, np.array([0, 0], dtype=np.int32), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_entry_rejected(self, bad):
        a = sp.csr_matrix(np.array([[2.0, bad], [bad, 2.0]]))
        with pytest.raises(SolveFailure, match="non-finite"):
            prepare(a)


class TestSolveSpd:
    def test_identity_single_iteration(self):
        e1 = np.array([1.0, 0.0, 0.0])
        x, report = solve_spd(prepare(sp.identity(3, format="csr")), e1)
        np.testing.assert_allclose(x, e1, atol=1e-15)
        assert report.iterations == 1
        assert report.converged

    def test_diagonal_system(self):
        a = sp.diags([2.0, 2.0, 2.0, 2.0]).tocsr()
        x, report = solve_spd(prepare(a), np.ones(4))
        np.testing.assert_allclose(x, 0.5, atol=1e-14)
        assert report.converged

    def test_poisson_m4_vs_frozen(self):
        a, rhs = eliminated_laplacian_m4()
        x, report = solve_spd(prepare(a), rhs)
        assert report.converged
        np.testing.assert_allclose(x, POISSON_M4_SOLUTION, atol=1e-10)

    def test_poisson_m4_dense_oracle(self):
        # Independent route: dense direct solve of the same system.
        a, rhs = eliminated_laplacian_m4()
        direct = np.linalg.solve(a.toarray(), rhs)
        np.testing.assert_allclose(direct, POISSON_M4_SOLUTION, atol=1e-14)

    def test_zero_rhs_short_circuits(self):
        system = prepare(sp.identity(5, format="csr"))
        x, report = solve_spd(system, np.zeros(5))
        np.testing.assert_array_equal(x, np.zeros(5))
        assert report == SolveReport(0, 0.0, True)

    def test_warm_start_with_exact_solution(self):
        a, rhs = eliminated_laplacian_m4()
        system = prepare(a)
        exact, _ = solve_spd(system, rhs)
        x, report = solve_spd(system, rhs, x0=exact)
        assert report.iterations == 0
        np.testing.assert_array_equal(x, exact)

    def test_residual_contract_on_random_spd(self):
        # Spec invariant: 50 random SPD systems B^T B + I up to dimension 200.
        for a, rhs in random_spd_systems():
            x, report = solve_spd(prepare(a), rhs)
            res = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
            assert report.converged
            assert res <= 1e-12

    def test_laplacian_chain_converges_within_cap(self):
        n = 99
        h = 1.0 / (n + 1)
        a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr() / h
        rhs = np.full(n, h)
        x, report = solve_spd(prepare(a), rhs)
        assert report.converged
        assert report.iterations <= 10 * n
        xs = np.linspace(h, 1.0 - h, n)
        np.testing.assert_allclose(x, xs * (1.0 - xs) / 2.0, atol=1e-10)

    def test_converged_implies_residual_within_tolerance(self):
        rng = np.random.default_rng(23)
        b = rng.standard_normal((40, 40))
        a = sp.csr_matrix(b.T @ b + np.eye(40))
        _, report = solve_spd(prepare(a), rng.standard_normal(40))
        assert report.converged
        assert report.final_residual <= REL_TOL

    def test_nonpositive_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            prepare(a)

    def test_indefinite_matrix_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="positive definite"):
            solve_spd(prepare(a), np.array([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            solve_spd(prepare(sp.identity(3, format="csr")), np.ones(2))

    @pytest.mark.parametrize(
        "rhs",
        [[np.nan, 1.0, 1.0], [1.0, np.inf, 1.0], [1e200, 1e200, 1e200]],
        ids=["nan", "inf", "norm-overflows"],
    )
    @pytest.mark.parametrize("x0", [None, np.ones(3)], ids=["cold", "warm"])
    def test_nonfinite_rhs_fails_after_zero_iterations(self, rhs, x0):
        a, _ = eliminated_laplacian_m4()
        with np.errstate(over="ignore"):
            x, report = solve_spd(prepare(a), np.array(rhs), x0)
        assert report.iterations == 0 and not report.converged
        assert math.isnan(report.final_residual)
        np.testing.assert_array_equal(x, np.zeros(3) if x0 is None else x0)


class TestSolveFailure:
    """The one error path of an unconverged solve names the caller's context
    and the cause."""

    def test_nonfinite_rhs(self):
        with np.errstate(over="ignore"):
            rhs = np.full(3, 1e200)
            _, report = solve_spd(prepare(eliminated_laplacian_m4()[0]), rhs)
            failure = solve_failure("step 2/5", report, rhs)
        assert isinstance(failure, SolveFailure)
        assert str(failure) == "step 2/5: the right-hand side has a non-finite norm"

    def test_stall_names_residual_and_target(self):
        failure = solve_failure("step 2/5", SolveReport(30, 6.947e-12, False), np.ones(3))
        assert str(failure) == (
            f"step 2/5: CG stalled at relative residual 6.947e-12 (target {REL_TOL:g})"
        )
