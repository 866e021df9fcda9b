"""Tests for the sparse SPD kernel.

The Laplacian fixture below is the classic dual-route check: the same
3x3 eliminated system is solved once by the package CG and once by a
dense direct solve, and both must match the hand-frozen nodal values of
x(1-x)/2 (Q1 nodal exactness for -u'' = 1 with constant load).

`reference_pcg` is the solver as it was before systems were prepared once:
`a @ v` products, fresh temporaries and np.linalg.norm.  The prepared solver
must reproduce it bit for bit, on the benchmark's systems and on random ones.

prepare_spd takes DIA arrays; `prepare` hands it those of a scipy matrix
(conftest.dia_arrays), and conftest.dia_csr rebuilds a recorded system.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from fracpot import forward, sparselin
from fracpot.cli import main
from fracpot.fem import dia_matvec
from fracpot.sparselin import (
    FLOOR_FACTOR,
    REL_TOL,
    SolveFailure,
    SolveReport,
    SpdSystem,
    prepare_spd,
    solve_spd,
)
from conftest import dia_arrays, dia_csr, recon_1d_small_t, small_2d

# Nodal values of x(1-x)/2 at x = 0.25, 0.5, 0.75 (exact binary fractions).
POISSON_M4_SOLUTION = np.array([0.09375, 0.125, 0.09375])
NONFINITE = r"^the right-hand side has a non-finite norm$"


def reference_pcg(a, rhs, x0=None):
    """The Jacobi-PCG loop on a raw CSR matrix, kept verbatim as the oracle."""
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"dimension mismatch: matrix is {a.shape}, rhs has {n}")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, True)
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
    return x, SolveReport(iterations, bool(res <= REL_TOL))


def prepare(a):
    """prepare_spd on the DIA arrays of a scipy matrix."""
    return prepare_spd(*dia_arrays(a))


def eliminated_laplacian_m4():
    """Interior system of -u''=1 on (0,1) with M=4 cells: (1/h) tridiag(-1,2,-1)."""
    h = 0.25
    a = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1]).tocsr() / h
    rhs = np.full(3, h)  # load of f=1 against interior hats
    return a, rhs


def laplacian_chain(n):
    """(A, rhs, nodes) of -u'' = 1 on (0, 1) with n interior nodes: (1/h) tridiag(-1, 2, -1)."""
    h = 1.0 / (n + 1)
    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr() / h
    return a, np.full(n, h), np.linspace(h, 1.0 - h, n)


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
    ((offsets, data),) = matrices
    return dia_csr(offsets, data), solves


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
        product = dia_matvec(system.offsets, system.data, v, out)
        np.testing.assert_array_equal(product, a @ v)
        np.testing.assert_array_equal(out, a @ v)
        np.testing.assert_array_equal(out, sp.dia_matrix(a) @ v)


class TestPrepareSpd:
    def test_keeps_the_arrays_it_is_given(self):
        a, _ = eliminated_laplacian_m4()
        offsets, data = dia_arrays(a)
        system = prepare_spd(offsets, data)
        assert isinstance(system, SpdSystem) and system.inv_diag.shape == (3,)
        assert system.offsets is offsets and system.data is data
        np.testing.assert_array_equal(system.inv_diag, 1.0 / a.diagonal())

    def test_diagonal_is_read_as_scipy_reads_it(self):
        # Offset 0 twice (the interior block of a 2D mesh of 2 cells per axis
        # holds it three times): the rows add up, as in the matrix whose
        # diagonal scipy reads.
        offsets = np.array([-1, 0, 0, 1])
        data = np.array([[0.0, 1.5, 9.0], [2.5, 0.0, 5.0], [1.5, 3.0, 0.0], [0.0, -1.0, 7.0]])
        system = prepare_spd(offsets, data)
        np.testing.assert_array_equal(system.inv_diag, 1.0 / dia_csr(offsets, data).diagonal())
        np.testing.assert_array_equal(system.inv_diag, [0.25, 1.0 / 3.0, 0.2])

    def test_row_without_a_diagonal_entry_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            prepare_spd(np.array([-1, 1]), np.array([[0.0, 2.0], [1.0, 0.0]]))

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
        assert report == SolveReport(0, True)

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
        a, rhs, xs = laplacian_chain(99)
        x, report = solve_spd(prepare(a), rhs)
        assert report.converged
        assert report.iterations <= 10 * rhs.size
        np.testing.assert_allclose(x, xs * (1.0 - xs) / 2.0, atol=1e-10)

    def test_converged_implies_residual_within_tolerance(self):
        rng = np.random.default_rng(23)
        b = rng.standard_normal((40, 40))
        a = sp.csr_matrix(b.T @ b + np.eye(40))
        rhs = rng.standard_normal(40)
        x, report = solve_spd(prepare(a), rhs)
        assert report.converged
        assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) <= REL_TOL

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
    def test_nonfinite_rhs_fails_after_zero_iterations(self, monkeypatch, rhs, x0):
        # No product is formed, so not one CG step runs.
        system = prepare(eliminated_laplacian_m4()[0])
        monkeypatch.setattr(sparselin, "dia_matvec", None)
        with pytest.raises(SolveFailure, match=NONFINITE):
            solve_spd(system, np.array(rhs), x0)


class TestSolveFailure:
    """solve_spd raises its own failures, each naming its cause; only a
    converged solve returns."""

    def test_nonfinite_rhs(self):
        system = prepare(eliminated_laplacian_m4()[0])
        with pytest.raises(SolveFailure, match=NONFINITE):
            solve_spd(system, np.full(3, 1e200))

    def test_stall_names_residual_and_target(self, monkeypatch):
        # Without the floor rule, the 299-unknown chain misses the target.
        monkeypatch.setattr(sparselin, "FLOOR_FACTOR", 0.0)
        a, rhs, _ = laplacian_chain(299)
        stall = rf"^CG stalled at relative residual \d\.\d{{3}}e-\d\d \(target {REL_TOL:g}\)$"
        with pytest.raises(SolveFailure, match=stall):
            solve_spd(prepare(a), rhs)


class TestRoundingFloor:
    """On the 299-unknown chain (1/h) tridiag(-1, 2, -1), rounding keeps
    ||A x - b|| above REL_TOL ||b||: without the floor rule the CG runs to its
    cap of 2990 iterations and stalls at 1.18e-12."""

    def test_a_residual_at_the_floor_converges(self):
        a, rhs, xs = laplacian_chain(299)
        x, report = solve_spd(prepare(a), rhs)
        assert report.converged
        assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) > REL_TOL
        assert report.iterations < 10 * rhs.size
        floor = FLOOR_FACTOR * np.finfo(float).eps * np.linalg.norm(abs(a) @ abs(x) + rhs)
        assert np.linalg.norm(a @ x - rhs) <= floor
        np.testing.assert_allclose(x, xs * (1.0 - xs) / 2.0, atol=1e-10)  # Q1 is nodally exact

    def test_a_residual_above_the_floor_still_stalls(self, monkeypatch):
        monkeypatch.setattr(sparselin, "FLOOR_FACTOR", 0.0)
        a, rhs, _ = laplacian_chain(299)
        products = []

        def counting_matvec(*args):
            products.append(1)
            return dia_matvec(*args)

        monkeypatch.setattr(sparselin, "dia_matvec", counting_matvec)
        stall = r"^CG stalled at relative residual 1\.182e-12 \(target 1e-12\)$"
        with pytest.raises(SolveFailure, match=stall):
            solve_spd(prepare(a), rhs)
        assert len(products) > 10 * rhs.size  # one per CG step, and the residuals


def run_fine_mesh_forward(tmp_path) -> int:
    """`fracpot forward` on 300 cells, where the CG's 1e-12 target lies below rounding."""
    config = tmp_path / "fine.json"
    config.write_text(json.dumps({
        "alpha": 0.5, "T": 1.0, "num_steps": 25, "domain": {"a": 0.0, "b": 1.0, "cells": 300},
        "fields": {"v": "sin(pi*x)", "b": "0", "f": "0", "q_true": "1"},
    }))
    return main(["forward", "--config", str(config), "--out", str(tmp_path)])


def test_a_fine_mesh_forward_run_exits_0(tmp_path, capsys):
    assert run_fine_mesh_forward(tmp_path) == 0
    assert capsys.readouterr().err == ""


def test_without_the_floor_rule_the_fine_mesh_march_stalls_at_its_first_step(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(sparselin, "FLOOR_FACTOR", 0.0)
    assert run_fine_mesh_forward(tmp_path) == 3
    assert capsys.readouterr().err == (
        "numerical failure: time step 1/25: "
        "CG stalled at relative residual 6.947e-12 (target 1e-12)\n"
    )
