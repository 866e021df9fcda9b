"""Q1 finite elements on uniform tensor-product grids in one and two dimensions.

Nodes are ordered lexicographically (x fastest, then y), so the node at grid
position (ix, iy) has flat index iy*(M+1) + ix.  All element integrals use a
2-point Gauss rule per axis, which is exact for every integrand assembled
here (the weighted mass integrand is at most cubic per axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

# 2-point Gauss rule on the reference interval [0, 1], exact for cubics.
_GAUSS_PTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_WTS = np.array([0.5, 0.5])


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform grid over the box (a, b)^dim.

    Attributes
    ----------
    dim : 1 or 2
    bounds : (a, b), the same interval on every axis
    cells_per_axis : number of cells M per axis
    h : cell width (b - a) / M
    node_coords : (n_nodes, dim) array of node coordinates
    elements : (n_elements, 2**dim) corner node indices per cell, ordered
        (0,0), (1,0), (0,1), (1,1) in local x-fastest convention
    boundary_nodes, interior_nodes : sorted index arrays partitioning nodes
    """

    dim: int
    bounds: tuple[float, float]
    cells_per_axis: int
    h: float
    node_coords: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray
    interior_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    def matches(self, other: "Mesh") -> bool:
        """Structural compatibility: same box, resolution and dimension."""
        return self is other or (
            self.dim == other.dim
            and self.cells_per_axis == other.cells_per_axis
            and self.bounds == other.bounds
        )


@dataclass(frozen=True)
class NodalField:
    """Nodal values of a Q1 function, aligned with the mesh node ordering."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"field has shape {vals.shape}, mesh has {self.mesh.n_nodes} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")


def build_mesh(bounds: tuple[float, float], cells: int, dim: int = 1) -> Mesh:
    """Build a uniform mesh with `cells` cells per axis on the box bounds^dim."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    a, b = float(bounds[0]), float(bounds[1])
    if not b > a:
        raise ValueError(f"bounds must be increasing, got ({a}, {b})")
    m = int(cells)
    if m < 2:
        raise ValueError(f"need at least 2 cells per axis, got {cells}")
    h = (b - a) / m
    axis = a + h * np.arange(m + 1)
    axis[-1] = b
    if dim == 1:
        coords = axis[:, None]
        cell = np.arange(m)
        elements = np.column_stack([cell, cell + 1])
        on_boundary = np.zeros(m + 1, dtype=bool)
        on_boundary[[0, m]] = True
    else:
        xs, ys = np.meshgrid(axis, axis, indexing="xy")
        coords = np.column_stack([xs.ravel(), ys.ravel()])
        ex, ey = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
        n00 = (ey * (m + 1) + ex).ravel()
        elements = np.column_stack([n00, n00 + 1, n00 + m + 1, n00 + m + 2])
        ix, iy = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="xy")
        on_boundary = ((ix == 0) | (ix == m) | (iy == 0) | (iy == m)).ravel()
    return Mesh(
        dim=dim,
        bounds=(a, b),
        cells_per_axis=m,
        h=h,
        node_coords=coords,
        elements=elements.astype(np.int64),
        boundary_nodes=np.flatnonzero(on_boundary),
        interior_nodes=np.flatnonzero(~on_boundary),
    )


def evaluate_at(func: Callable, coords: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function of space at the rows of an (n, dim) point array."""
    x = coords[:, 0]
    raw = func(x) if coords.shape[1] == 1 else func(x, coords[:, 1])
    return np.array(np.broadcast_to(np.asarray(raw, dtype=float), x.shape))


def interpolate_nodal(func: Callable, mesh: Mesh) -> NodalField:
    """Sample a scalar function of space at every node (Lagrange interpolant)."""
    vals = evaluate_at(func, mesh.node_coords)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        where = tuple(mesh.node_coords[bad[0]])
        raise ValueError(f"field evaluates to a non-finite value at node {where}")
    return NodalField(vals, mesh)


def _reference_arrays(dim: int, h: float):
    """Shape values/physical gradients at tensor Gauss points, plus weights.

    Returns (phi, dphi, wq, ref_pts): phi is (n_shapes, n_pts), dphi is
    (dim, n_shapes, n_pts), wq the quadrature weights scaled by cell volume,
    ref_pts the (n_pts, dim) point coordinates on the reference cell [0,1]^dim.
    """
    g, w = _GAUSS_PTS, _GAUSS_WTS
    vals1 = np.stack([1.0 - g, g])
    ders1 = np.stack([-np.ones_like(g), np.ones_like(g)])
    if dim == 1:
        return vals1, (ders1 / h)[None], h * w, g[:, None]
    ax = np.array([0, 1, 0, 1])
    ay = np.array([0, 0, 1, 1])
    px, py = [idx.ravel() for idx in np.meshgrid([0, 1], [0, 1], indexing="xy")]
    phi = vals1[ax][:, px] * vals1[ay][:, py]
    dx = (ders1 / h)[ax][:, px] * vals1[ay][:, py]
    dy = vals1[ax][:, px] * (ders1 / h)[ay][:, py]
    wq = (h * w)[px] * (h * w)[py]
    ref_pts = np.column_stack([g[px], g[py]])
    return phi, np.stack([dx, dy]), wq, ref_pts


def _scatter(local: np.ndarray, elements: np.ndarray, n: int) -> sp.csr_matrix:
    """Accumulate per-element (ne, nsh, nsh) blocks into a CSR matrix."""
    nsh = elements.shape[1]
    rows = np.repeat(elements, nsh, axis=1).ravel()
    cols = np.tile(elements, (1, nsh)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_operators(
    mesh: Mesh, q: NodalField
) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Assemble the mass, stiffness and q-weighted mass matrices."""
    wmass = weighted_mass_matrix(mesh, q)
    return mass_matrix(mesh), stiffness_matrix(mesh), wmass


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Assemble the mass matrix alone."""
    phi, _, wq, _ = _reference_arrays(mesh.dim, mesh.h)
    mass_loc = np.einsum("ip,jp,p->ij", phi, phi, wq)
    return _scatter(np.tile(mass_loc.ravel(), mesh.elements.shape[0]), mesh.elements, mesh.n_nodes)


def stiffness_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Assemble the stiffness matrix alone."""
    _, dphi, wq, _ = _reference_arrays(mesh.dim, mesh.h)
    stiff_loc = np.einsum("cip,cjp,p->ij", dphi, dphi, wq)
    return _scatter(np.tile(stiff_loc.ravel(), mesh.elements.shape[0]), mesh.elements, mesh.n_nodes)


def weighted_mass_matrix(mesh: Mesh, q: NodalField) -> sp.csr_matrix:
    """Assemble the q-weighted mass matrix (q u, phi_i).

    The potential enters through its nodal interpolant, so the weighted mass
    integrand is polynomial on every cell and the Gauss rule is exact.
    """
    if not q.mesh.matches(mesh):
        raise ValueError("potential field is not aligned with the mesh")
    phi, _, wq, _ = _reference_arrays(mesh.dim, mesh.h)
    q_at_gauss = q.values[mesh.elements] @ phi
    wmass_loc = np.einsum("ep,ip,jp,p->eij", q_at_gauss, phi, phi, wq)
    return _scatter(wmass_loc, mesh.elements, mesh.n_nodes)


def assemble_load(mesh: Mesh, f: Callable) -> np.ndarray:
    """Assemble the load vector (f, phi_i) with f evaluated at Gauss points."""
    phi, _, wq, ref_pts = _reference_arrays(mesh.dim, mesh.h)
    corners = mesh.node_coords[mesh.elements[:, 0]]
    points = corners[:, None, :] + mesh.h * ref_pts[None, :, :]
    fq = evaluate_at(f, points.reshape(-1, mesh.dim)).reshape(points.shape[:2])
    if not np.all(np.isfinite(fq)):
        raise ValueError("source evaluates to a non-finite value at a quadrature point")
    local = fq @ (phi * wq).T
    return np.bincount(mesh.elements.ravel(), weights=local.ravel(), minlength=mesh.n_nodes)


def mass_norm(values: np.ndarray, mass: sp.csr_matrix) -> float:
    """FE L2 norm sqrt(v^T M v) of nodal values against an assembled mass matrix."""
    return float(np.sqrt(max(values @ (mass @ values), 0.0)))
