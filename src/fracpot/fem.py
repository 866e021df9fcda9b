"""Q1 finite elements on uniform tensor-product grids in one and two dimensions.

Nodes are ordered lexicographically (x fastest, then y), so the node at grid
position (ix, iy) has flat index iy*(M+1) + ix.  All element integrals use a
2-point Gauss rule per axis, which is exact for every integrand assembled
here (the weighted mass integrand is at most cubic per axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .sparselin import csr_matvec

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
    mass : the mass matrix M
    interior_block, boundary_block : BlockMaps of the interior x interior and
        the interior x boundary blocks of the Q1 pattern

    The last three depend on the mesh alone; each is built on first use and
    kept with the mesh.  M, S and every M_q come from one scatter over the
    same elements, so they share one Q1 pattern, and the maps cut each of them.
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

    @cached_property
    def mass(self) -> sp.csr_matrix:
        return mass_matrix(self)

    @cached_property
    def interior_block(self) -> BlockMap:
        return BlockMap.cut(self.mass, self.interior_nodes, self.interior_nodes)

    @cached_property
    def boundary_block(self) -> BlockMap:
        return BlockMap.cut(self.mass, self.interior_nodes, self.boundary_nodes)


@dataclass(frozen=True, eq=False)
class BlockMap:
    """The CSR structure of the block rows x cols of the matrices of one
    pattern, and the positions in the pattern's data its entries come from.

    rows and cols are sorted node lists, so for a matrix `a` of the pattern
    with data `data`, `matrix(data)` holds the same arrays as scipy's
    fancy-indexed block `a[rows][:, cols]`, and `matvec` computes its product
    bit for bit.
    """

    shape: tuple[int, int]
    indptr: np.ndarray  # int32
    indices: np.ndarray  # int32 block column numbers
    take: np.ndarray  # int32 positions in the pattern's data, in block order

    @classmethod
    def cut(cls, pattern: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> BlockMap:
        n = pattern.shape[0]
        number = np.full(n, -1, dtype=np.int32)  # block column number, -1 outside cols
        number[cols] = np.arange(cols.size, dtype=np.int32)
        in_rows = np.zeros(n, dtype=bool)
        in_rows[rows] = True
        keep = np.repeat(in_rows, np.diff(pattern.indptr))
        keep &= number[pattern.indices] >= 0
        # Kept entries up to the end of each row; no row of a Q1 pattern is empty.
        indptr = np.zeros(rows.size + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(keep, dtype=np.int32)[pattern.indptr[rows + 1] - 1]
        take = np.flatnonzero(keep).astype(np.int32)
        return cls((rows.size, cols.size), indptr, number[pattern.indices[take]], take)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The block of the pattern's matrix with data `data`."""
        return sp.csr_matrix((data[self.take], self.indices, self.indptr), shape=self.shape)

    def matvec(self, data: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = (the block of the matrix with data `data`) v."""
        return csr_matvec(self.indptr, self.indices, data[self.take], v, out)


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
