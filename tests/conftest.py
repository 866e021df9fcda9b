"""Shared test configuration and the paper's benchmark problems.

Property-based tests use a deterministic hypothesis profile so the suite
is reproducible and free of per-example deadlines (several properties
assemble meshes or run short solves, whose first call can be slow).

The benchmark problems come from the example configs, which are their one
definition: the 1D problem on (0, 10) from configs/sweep_smooth.json and the
2D problem on (0, 3)^2 from configs/sweep_2d.json.

`coo_scatter` is the Q1 scatter as fem ran it before the mesh kept its
pattern, scipy's COO to CSR conversion; it is the oracle of fem's scatter.
`csr` rebuilds the scipy matrix of an operator, which fem keeps as its data
in the mesh's pattern, for the oracles that index or multiply with scipy.
`use_dense_solver` swaps the CG of forward and inverse for a dense direct
solve, so that an oracle can show that it follows whatever solve the program
uses.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import settings

from fracpot import forward, inverse
from fracpot.cli import load_config
from fracpot.expressions import parse_field_expr
from fracpot.fem import build_mesh, interpolate_nodal
from fracpot.sparselin import SolveReport

settings.register_profile(
    "fracpot",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
settings.load_profile("fracpot")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RECON_1D_SMALL_T = CONFIGS.parent / "perfbench" / "workloads" / "recon_1d_small_T.json"

# The paper's reference potentials; test_cli checks that the configs hold them.
SMOOTH_POTENTIAL = parse_field_expr("3+cos(0.6*pi*x)")
TRIANGLE_POTENTIAL = parse_field_expr("4-tri(x)")
INDICATOR_POTENTIAL = parse_field_expr("4-chi(2,4,x)-chi(6,8,x)")
SMOOTH_POTENTIAL_2D = parse_field_expr("3-cos(pi*x)*cos(pi*y)")


def config_problem(name, cells=None, **changes):
    """The ProblemSpec of configs/<name>, on `cells` cells per axis if given,
    with the other spec fields in `changes` replaced."""
    spec = load_config(CONFIGS / name).spec
    if cells is not None:
        changes["mesh"] = build_mesh(spec.mesh.bounds, cells, spec.mesh.dim)
    return replace(spec, **changes)


def benchmark_problem_1d(**changes):
    """The 1D benchmark problem (100 cells, 100 steps, alpha 0.5, T 1)."""
    return config_problem("sweep_smooth.json", **changes)


def benchmark_problem_2d(**changes):
    """The 2D benchmark problem (30^2 cells, 100 steps, alpha 0.5, T 1)."""
    return config_problem("sweep_2d.json", **changes)


def recon_1d_small_t():
    """The spec and true potential of the recon_1d_small_T benchmark workload."""
    cfg = load_config(RECON_1D_SMALL_T)
    return cfg.spec, interpolate_nodal(cfg.q_true, cfg.spec.mesh)


def small_2d():
    """The 2D benchmark problem on 12^2 cells x 8 steps, with its true potential."""
    spec = benchmark_problem_2d(cells=12, num_steps=8)
    return spec, interpolate_nodal(SMOOTH_POTENTIAL_2D, spec.mesh)


def csr(mesh, data):
    """The scipy CSR matrix with data `data` in the mesh's Q1 pattern (copies)."""
    pattern, n = mesh.pattern, mesh.n_nodes
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(n, n), copy=True)


def coo_scatter(local, elements, n):
    """Accumulate per-element (ne, nsh, nsh) blocks into a CSR matrix."""
    nsh = elements.shape[1]
    rows = np.repeat(elements, nsh, axis=1).ravel()
    cols = np.tile(elements, (1, nsh)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def use_dense_solver(monkeypatch):
    """Replace prepare_spd/solve_spd in forward and inverse by np.linalg.solve on
    the densified CSR block, reported as converged."""

    def prepare(indptr, indices, data):
        n = indptr.size - 1
        dense = np.zeros((n, n))
        dense[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
        return dense

    def solve(dense, rhs, x0=None):
        return np.linalg.solve(dense, rhs), SolveReport(0, True)

    for module in (forward, inverse):
        monkeypatch.setattr(module, "prepare_spd", prepare)
        monkeypatch.setattr(module, "solve_spd", solve)
