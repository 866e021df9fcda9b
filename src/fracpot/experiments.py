"""Synthetic observations, rate sweeps and CSV IO.

The paper's benchmark problems are defined once, by the JSON configs in
`configs/`.  Sweeps couple the discretization to the noise level through
h = delta^(1/3) and tau = delta^(1/3) * T / 10, snapping cell and step
counts to integers and reporting the values actually used.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .fem import NodalField, Mesh, build_mesh, interpolate_nodal, mass_norm
from .forward import ProblemSpec, restrict_to_mesh, solve_forward
from .inverse import DataFloorError, ObservationData, boundary_psi, reconstruct
from .sparselin import SolveFailure

logger = logging.getLogger(__name__)


def make_observation(
    spec: ProblemSpec,
    q_true,
    fine_factor: int,
    delta: float,
    fine_step_factor: int | None = None,
) -> ObservationData:
    """Generate terminal data: fine forward solve, restriction, Gaussian noise.

    The fine mesh has fine_factor times the cells of the reconstruction mesh
    (nested by construction) and fine_step_factor times its steps (defaulting
    to fine_factor).  Noise delta * N(0,1), drawn from spec.seed, is added at
    interior nodes only, so the boundary trace of the data stays exact.  The
    data floor is checked by `reconstruct`.
    """
    check_observation_settings(delta, fine_factor, fine_step_factor)
    step_factor = fine_factor if fine_step_factor is None else fine_step_factor
    mesh = spec.mesh
    if fine_factor == 1:
        fine_mesh = mesh
    else:
        fine_mesh = build_mesh(mesh.bounds, mesh.cells_per_axis * fine_factor, mesh.dim)
    fine_spec = replace(spec, mesh=fine_mesh, num_steps=spec.num_steps * step_factor)
    q_fine = interpolate_nodal(q_true, fine_mesh)
    solution = solve_forward(fine_spec, q_fine)
    data = restrict_to_mesh(solution.terminal, mesh)
    values = data.values.copy()
    if delta > 0.0:
        rng = np.random.default_rng(spec.seed)
        noise = rng.standard_normal(mesh.interior_nodes.size)
        values[mesh.interior_nodes] += delta * noise
    return ObservationData(NodalField(values, mesh), boundary_psi(spec, q_true))


def check_observation_settings(
    delta: float, fine_factor: int | None, fine_step_factor: int | None
) -> None:
    """Reject a negative or NaN noise level and a fine factor below 1.

    A factor of None stands for the caller's default and passes.
    """
    if not delta >= 0.0:
        raise ValueError(f"noise level must be nonnegative, got {delta}")
    for name, factor in (("fine_factor", fine_factor), ("fine_step_factor", fine_step_factor)):
        if factor is not None and factor < 1:
            raise ValueError(f"{name} must be at least 1, got {factor}")


def relative_error(q_star: NodalField, q_true, mesh: Mesh) -> float:
    """Relative FE L2 error of a reconstruction against the true potential."""
    if not q_star.mesh.matches(mesh):
        raise ValueError("reconstruction is not aligned with the mesh")
    truth = interpolate_nodal(q_true, mesh).values
    denom = mass_norm(truth, mesh)
    if denom == 0.0:
        raise ValueError("true potential has zero norm")
    return mass_norm(q_star.values - truth, mesh) / denom


@dataclass(frozen=True)
class RateRow:
    delta: float
    h: float
    tau: float
    alpha: float
    e_q: float
    iterations: int
    runtime_s: float
    failure: str | None = None


@dataclass(frozen=True)
class RateTable:
    rows: list
    slopes: dict


def descending_noise_levels(deltas) -> list[float]:
    """The noise levels of a sweep as floats; there must be at least one, and
    they must be positive and strictly descending."""
    levels = [float(d) for d in deltas]
    if not levels:
        raise ValueError("a sweep needs at least one noise level")
    if not all(d > 0 for d in levels) or not all(
        d2 < d1 for d1, d2 in zip(levels, levels[1:])
    ):
        raise ValueError("noise levels must be positive and strictly descending")
    return levels


def _auto_fine_factor(count: int, dim: int) -> int:
    # 1D data generation targets roughly 1000 cells/steps, mirroring the
    # benchmark reference resolution; 2D uses a flat factor of 10.
    if dim == 1:
        return max(1, round(1000 / count))
    return 10


def rate_sweep(
    template: ProblemSpec,
    q_true,
    deltas,
    alphas,
    fine_factor: int | None = None,
    fine_step_factor: int | None = None,
) -> RateTable:
    """Reconstruction error against noise level under the coupled refinement.

    Per (alpha, delta): cells = round((b-a)/delta^(1/3)), steps =
    round(10/delta^(1/3)), data from make_observation, then reconstruct and
    record the relative error.  Row i draws its noise from seed
    template.seed + i.  A failed row names its failure and logs a warning; it
    keeps e_q if it exhausts max_iter, and has e_q = nan otherwise.  The table
    carries one log-log slope per alpha, fitted to the rows with finite e_q.
    """
    deltas = descending_noise_levels(deltas)
    a, b = template.mesh.bounds
    dim = template.mesh.dim
    rows = []
    for alpha in alphas:
        for delta in deltas:
            index = len(rows)
            width = delta ** (1.0 / 3.0)
            cells = max(2, round((b - a) / width))
            steps = max(1, round(10.0 / width))
            factor = _auto_fine_factor(cells, dim) if fine_factor is None else fine_factor
            step_factor = (
                _auto_fine_factor(steps, dim) if fine_step_factor is None else fine_step_factor
            )
            start = time.perf_counter()
            failure = None
            try:
                mesh = build_mesh((a, b), cells, dim)
                spec = replace(
                    template, alpha=alpha, mesh=mesh, num_steps=steps, seed=template.seed + index
                )
                obs = make_observation(spec, q_true, factor, delta, fine_step_factor=step_factor)
                result = reconstruct(spec, obs)
                e_q, iterations = relative_error(result.q_star, q_true, mesh), result.iterations
                if not result.converged:
                    failure = f"iteration budget of {iterations} exhausted before the tolerance"
            except (SolveFailure, DataFloorError, MemoryError) as exc:
                e_q, iterations = float("nan"), 0
                failure = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
            runtime = time.perf_counter() - start
            if failure is not None:
                logger.warning("sweep row (alpha=%g, delta=%g) failed: %s", alpha, delta, failure)
            h, tau = (b - a) / cells, template.T / steps  # as the row's mesh and spec hold them
            rows.append(RateRow(delta, h, tau, alpha, e_q, iterations, runtime, failure))
            logger.info(
                "sweep row alpha=%g delta=%g: e_q=%.4e after %d iterations (%.1fs)",
                alpha, delta, rows[-1].e_q, rows[-1].iterations, rows[-1].runtime_s,
            )
    slopes = {}
    for alpha in alphas:
        pts = [(r.delta, r.e_q) for r in rows if r.alpha == alpha and math.isfinite(r.e_q)]
        if len(pts) >= 2:
            log_d = np.log([p[0] for p in pts])
            log_e = np.log([p[1] for p in pts])
            slopes[alpha] = float(np.polyfit(log_d, log_e, 1)[0])
        else:
            slopes[alpha] = float("nan")
    return RateTable(rows, slopes)


def write_field_csv(path, field: NodalField) -> None:
    """Dump a nodal field as node_index,x[,y],value with full precision."""
    mesh = field.mesh
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node_index", *"xy"[: mesh.dim], "value"])
        for i in range(mesh.n_nodes):
            coords = [f"{c:.17g}" for c in mesh.node_coords[i]]
            writer.writerow([i, *coords, f"{field.values[i]:.17g}"])


def read_field_csv(path, mesh: Mesh) -> NodalField:
    """Read a field dump and check it against the expected mesh."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = 2 + mesh.dim
        if header is None or len(header) != expected:
            raise ValueError(f"field dump must have {expected} columns for a {mesh.dim}D mesh")
        values = np.full(mesh.n_nodes, np.nan)
        count = 0
        for row in reader:
            if not row:
                continue
            if len(row) != expected:
                raise ValueError(f"row {row!r} has {len(row)} columns, the header has {expected}")
            index = int(row[0])
            if not 0 <= index < mesh.n_nodes:
                raise ValueError(f"node index {index} outside the mesh (0..{mesh.n_nodes - 1})")
            coords = np.array([float(c) for c in row[1:-1]])
            if not np.allclose(coords, mesh.node_coords[index], rtol=1e-9, atol=1e-12):
                raise ValueError(f"node {index} coordinates do not match the mesh")
            values[index] = float(row[-1])
            count += 1
    if count != mesh.n_nodes or not np.all(np.isfinite(values)):
        raise ValueError(f"field dump covers {count} of {mesh.n_nodes} nodes")
    return NodalField(values, mesh)


def write_history_csv(path, errors, increments) -> None:
    """Dump k,e_k,increment rows; increment at k is ||q_k - q_{k-1}||."""
    n_rows = max(len(increments) + 1, len(errors) if errors is not None else 0)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "e_k", "increment"])
        for k in range(n_rows):
            e_k = errors[k] if errors is not None and k < len(errors) else float("nan")
            inc = increments[k - 1] if 1 <= k <= len(increments) else float("nan")
            writer.writerow([k, f"{e_k:.17g}", f"{inc:.17g}"])


def write_sweep_csv(path, table: RateTable) -> None:
    """Dump delta,h,tau,alpha,e_q,iterations,runtime_s,failure rows; failure is
    empty for a good row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["delta", "h", "tau", "alpha", "e_q", "iterations", "runtime_s", "failure"])
        for r in table.rows:
            writer.writerow(
                [
                    f"{r.delta:.17g}", f"{r.h:.17g}", f"{r.tau:.17g}", f"{r.alpha:.17g}",
                    f"{r.e_q:.17g}", r.iterations, f"{r.runtime_s:.17g}", r.failure or "",
                ]
            )
