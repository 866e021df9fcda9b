"""Q1 finite elements on uniform tensor-product grids in one and two dimensions.

`grid_index` lists every grid x fastest: the nodes (the node at grid position
(ix, iy) has flat index iy*(M+1) + ix), the cells, the corners of a cell, the
Gauss points and the nodes a restriction keeps, so 1D and 2D share one path.
Element integrals use a 2-point Gauss rule per axis, exact for every integrand
assembled here (the weighted mass integrand is at most cubic per axis).

An operator (M, S, every M_q, the solver's interior block) is stored by its
3**dim stencil diagonals in scipy's DIA layout: a (3**dim, n) array indexed
[direction, column], data[k, col] the entry in row col - offsets[k], 0 where no
element couples the two nodes.  The kernel adds each row's entries in offset
order; offsets ascend, so that is column order and products are CSR's bitwise.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import numbers
import os
import resource
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np
import scipy

from .expressions import ExprError


def _load_sparsetools():
    """scipy's compiled `scipy.sparse._sparsetools`, loaded from its file.

    `from scipy.sparse import _sparsetools` would run the scipy.sparse package
    init, whose array-API layer loads numpy.f2py, numpy.testing, numpy.ma,
    unittest and email: ~300 modules, ~0.2 s and ~20 MB of resident memory
    in every process.  fracpot needs only the DIA product kernel, so it loads
    the extension file alone.  The spec keeps the full module name, so a later
    `import scipy.sparse` in the same process reuses this extension.
    """
    where = f"{scipy.__path__[0]}/sparse"
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [where])
    if spec is None:
        raise ImportError(f"no _sparsetools extension in {where} (scipy {scipy.__version__})")
    spec.name = "scipy.sparse._sparsetools"
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The kernel that `dia @ vector` runs after scipy's operator dispatch (in scipy
# 1.17, `_dia_base._matmul_vector` is np.zeros plus this call).  Calling it
# directly gives bitwise-identical products without the dispatch, which costs
# more than the product itself on the small systems of a short march.
_DIA_MATVEC = _load_sparsetools().dia_matvec

# 2-point Gauss rule on the reference interval [0, 1], exact for cubics.
_GAUSS_PTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_WTS = np.array([0.5, 0.5])


@dataclass(frozen=True)
class Mesh:
    """Uniform grid over the box (a, b)^dim.

    Attributes
    ----------
    dim : 1 or 2
    bounds : (a, b), the same interval on every axis
    cells_per_axis : number of cells M per axis
    node_coords : (n_nodes, dim) array of node coordinates
    elements : (n_elements, 2**dim) corner node indices per cell, ordered
        (0,0), (1,0), (0,1), (1,1) in local x-fastest convention
    boundary_nodes, interior_nodes : sorted index arrays partitioning nodes
    reference : (phi, dphi, wq, ref_pts), the Gauss tables of the reference cell
    offsets, slot : the ascending offsets col - row of the 3**dim stencil
        directions, and the flat data position of each (element, i, j) entry
    mass, stiffness : the data of M and S
    interior_stencil : (offsets, zero) of the interior x interior block

    A mesh compares and hashes by (dim, bounds, cells_per_axis) alone, so two
    meshes built alike are equal.  The cell width h = (b - a) / M is read
    from the bounds and M.  The last six depend on the mesh alone; each is
    built on first use and kept with the mesh.  Every array a mesh holds is
    read-only.  `product` multiplies by an operator's data, and the solver's
    interior block is its one cut.
    """

    dim: int
    bounds: tuple[float, float]
    cells_per_axis: int
    node_coords: np.ndarray = field(compare=False)
    elements: np.ndarray = field(compare=False)
    boundary_nodes: np.ndarray = field(compare=False)
    interior_nodes: np.ndarray = field(compare=False)

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def h(self) -> float:
        return (self.bounds[1] - self.bounds[0]) / self.cells_per_axis

    @cached_property
    def reference(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shape values/physical gradients at tensor Gauss points, plus weights.

        (phi, dphi, wq, ref_pts): phi is (n_shapes, n_pts), dphi is
        (dim, n_shapes, n_pts), wq the quadrature weights scaled by cell volume,
        ref_pts the (n_pts, dim) point coordinates on the reference cell
        [0,1]^dim.  Shapes and points are both listed by grid_index(2, dim), and
        each array is the product over the axes of its 1D factors, x first.
        """
        g, w, h, dim = _GAUSS_PTS, _GAUSS_WTS, self.h, self.dim
        vals = np.stack([1.0 - g, g])
        ders = np.stack([-np.ones_like(g), np.ones_like(g)]) / h
        local = grid_index(2, dim)

        def product(factors):
            # f[b][:, b], not f[np.ix_(b, b)]: einsum's sum order follows the layout
            return reduce(np.multiply, [f[b][:, b] for f, b in zip(factors, local)])

        phi = product([vals] * dim)
        dphi = np.stack([product([ders if j == k else vals for j in range(dim)]) for k in range(dim)])
        wq = reduce(np.multiply, [(h * w)[b] for b in local])
        return _read_only(phi, dphi, wq, g[local.T])

    @cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(_stencil_offsets(self.cells_per_axis + 1, self.dim))[0]

    @cached_property
    def slot(self) -> np.ndarray:
        # The diagonal of entry (i, j) of every element is that of element 0.
        e = self.elements
        direction = np.searchsorted(self.offsets, e[0] - e[0, :, None])
        return _read_only((direction * self.n_nodes + e[:, None, :]).ravel())[0]

    @cached_property
    def mass(self) -> np.ndarray:
        return _read_only(mass_matrix(self))[0]

    @cached_property
    def stiffness(self) -> np.ndarray:
        _, dphi, wq, _ = self.reference
        return _read_only(_scatter(np.einsum("cip,cjp,p->ij", dphi, dphi, wq), self))[0]

    @cached_property
    def interior_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, zero): the stencil's offsets on the (M-1)**dim interior grid,
        some equal at M = 2 and 3 in 2D, and the flat positions in the interior
        columns of an operator's data of the entries of boundary rows."""
        boundary = np.zeros(self.n_nodes, dtype=bool)
        boundary[self.boundary_nodes] = True
        rows = self.interior_nodes - self.offsets[:, None]
        offsets = _stencil_offsets(self.cells_per_axis - 1, self.dim)
        return _read_only(offsets, np.flatnonzero(boundary[rows]))

    def interior_block(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The DIA arrays (offsets, data) of the interior x interior block of the
        operator with data `data`: a new array of its interior columns, with
        the entries of boundary rows set to 0."""
        offsets, zero = self.interior_stencil
        # C-ordered, unlike data[:, nodes], so the kernel makes no copy of it
        block = data.take(self.interior_nodes, axis=1)
        np.put(block, zero, 0.0)
        return offsets, block

    def product(self, data: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(the operator with data `data`) v at every node, into `out` if given.
        Read at some nodes, it is bitwise the product of those rows alone."""
        out = np.empty(self.n_nodes) if out is None else out
        return dia_matvec(self.offsets, data, v, out)


def _stencil_offsets(width: int, dim: int) -> np.ndarray:
    """Offsets col - row of the grid_index(3, dim) steps, `width` points an axis."""
    return width ** np.arange(dim) @ (grid_index(3, dim) - 1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, write-protected: the operators and maps of a mesh share them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def dia_matvec(offsets: np.ndarray, data: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = A v for DIA arrays: bitwise `dia @ v`, the same kernel on a zeroed `out`."""
    out.fill(0.0)
    _DIA_MATVEC(len(out), len(v), len(offsets), data.shape[1], offsets, data, v, out)
    return out


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


def grid_index(count: int, dim: int) -> np.ndarray:
    """The (dim, count**dim) per-axis indices of a grid with `count` points per
    axis, listed x fastest: column k holds the axis indices of point k."""
    return np.indices((count,) * dim).reshape(dim, -1)[::-1]


def memory_budget() -> int:
    """Bytes this process may use: physical memory, or the address-space soft
    limit (RLIMIT_AS) where that is finite and smaller."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


def _mesh_bytes(m: int, dim: int) -> int:
    """An upper bound of the bytes build_mesh allocates for m cells per axis:
    every array it makes, temporaries included, counted at 8 bytes an entry
    and as if none were freed."""
    nodes, cells = (m + 1) ** dim, m**dim
    # axis and its 2 temporaries; the node grid, its 3 dim-row masks, the
    # any() and ~ masks, the coordinates and both node lists; the cell grid,
    # its first corners and the corner table.
    return 8 * (3 * (m + 1) + (5 * dim + 3) * nodes + (dim + 1 + 2**dim) * cells)


def _operator_bytes(m: int, dim: int) -> int:
    """An upper bound of the bytes a mesh of m cells per axis allocates for its
    operators, counted as _mesh_bytes counts: the slot table, M and S with
    the flattened element blocks of each scatter, and the interior stencil
    with one interior block."""
    nodes, cells, inner, stencil = (m + 1) ** dim, m**dim, (m - 1) ** dim, 3**dim
    # The slot table and two blocks of 4**dim entries a cell; M and S; the
    # boundary mask; the stencil's rows, their mask and its zero positions;
    # one block.
    return 8 * (3 * 4**dim * cells + (2 * stencil + 1) * nodes + 4 * stencil * inner)


def build_mesh(bounds: tuple[float, float], cells: int, dim: int = 1) -> Mesh:
    """Build a uniform mesh with `cells` cells per axis on the box bounds^dim.

    A mesh whose arrays, or the operators it builds on first use, could
    exceed the memory budget is a MemoryError before any of them is
    allocated."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim not in (1, 2):
        raise ValueError(f"dim must be the integer 1 or 2, got {dim!r}")
    a, b = float(bounds[0]), float(bounds[1])
    if not np.isfinite([a, b, b - a]).all():
        raise ValueError(f"bounds and their length b - a must be finite, got ({a}, {b})")
    if not b > a:
        raise ValueError(f"bounds must be increasing, got ({a}, {b})")
    if not isinstance(cells, numbers.Integral):
        raise ValueError(f"cells per axis must be an integer, got {cells!r}")
    m = int(cells)
    if m < 2:
        raise ValueError(f"need at least 2 cells per axis, got {cells}")
    need, budget = _mesh_bytes(m, dim) + _operator_bytes(m, dim), memory_budget()
    if need > budget:
        raise MemoryError(
            f"Unable to allocate {need / 2**30:.3g} GiB for the mesh "
            f"({m} cells per axis in {dim}D) within {budget / 2**30:.3g} GiB"
        )
    axis = a + (b - a) / m * np.arange(m + 1)
    axis[-1] = b
    nodes = grid_index(m + 1, dim)
    stride = (m + 1) ** np.arange(dim)
    elements = (stride @ grid_index(m, dim))[:, None] + stride @ grid_index(2, dim)
    on_boundary = ((nodes == 0) | (nodes == m)).any(axis=0)
    coords, elements, boundary, interior = _read_only(
        axis[nodes.T], elements, np.flatnonzero(on_boundary), np.flatnonzero(~on_boundary)
    )
    return Mesh(int(dim), (a, b), m, coords, elements, boundary, interior)


def evaluate_at(func: Callable, coords: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function of space at the rows of an (n, dim) point array.

    The function is called once with one coordinate array per axis,
    `func(x)` in 1D and `func(x, y)` in 2D.  This is the one place that calls
    a field: a constant result is broadcast to every point, and a non-finite
    value is an ExprError naming the field and the first point where it occurs.
    """
    raw = func(*coords.T)
    vals = np.array(np.broadcast_to(np.asarray(raw, dtype=float), coords.shape[:1]))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        where = tuple(coords[bad[0]].tolist())
        raise ExprError(f"{str(func)!r} evaluates to a non-finite value at {where}")
    return vals


def interpolate_nodal(func: Callable, mesh: Mesh) -> NodalField:
    """Sample a scalar function of space at every node (Lagrange interpolant)."""
    return NodalField(evaluate_at(func, mesh.node_coords), mesh)


def _scatter(local: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Sum element blocks (ne, nsh, nsh), or one (nsh, nsh) block of all, into
    an operator's DIA data, in element order, as scipy's COO to CSR
    conversion sums duplicates."""
    local = np.broadcast_to(local, (*mesh.elements.shape, local.shape[-1]))
    n = mesh.offsets.size
    return np.bincount(mesh.slot, weights=local.ravel(), minlength=n * mesh.n_nodes).reshape(n, -1)


def assemble_operators(mesh: Mesh, q: NodalField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the data of the mass, stiffness and q-weighted mass matrices."""
    return mass_matrix(mesh), mesh.stiffness, weighted_mass_matrix(mesh, q)


def mass_matrix(mesh: Mesh) -> np.ndarray:
    """Assemble the data of the mass matrix alone."""
    phi, _, wq, _ = mesh.reference
    return _scatter(np.einsum("ip,jp,p->ij", phi, phi, wq), mesh)


def weighted_mass_matrix(mesh: Mesh, q: NodalField) -> np.ndarray:
    """Assemble the data of the q-weighted mass matrix (q u, phi_i).

    The potential enters through its nodal interpolant, so the weighted mass
    integrand is polynomial on every cell and the Gauss rule is exact.
    """
    if q.mesh != mesh:
        raise ValueError("potential field is not aligned with the mesh")
    phi, _, wq, _ = mesh.reference
    q_at_gauss = q.values[mesh.elements] @ phi
    return _scatter(np.einsum("ep,ip,jp,p->eij", q_at_gauss, phi, phi, wq), mesh)


def assemble_load(mesh: Mesh, f: Callable) -> np.ndarray:
    """Assemble the load vector (f, phi_i) with f evaluated at Gauss points."""
    phi, _, wq, ref_pts = mesh.reference
    corners = mesh.node_coords[mesh.elements[:, 0]]
    points = corners[:, None, :] + mesh.h * ref_pts[None, :, :]
    fq = evaluate_at(f, points.reshape(-1, mesh.dim)).reshape(points.shape[:2])
    local = fq @ (phi * wq).T
    return np.bincount(mesh.elements.ravel(), weights=local.ravel(), minlength=mesh.n_nodes)


def mass_norm(values: np.ndarray, mesh: Mesh) -> float:
    """FE L2 norm sqrt(v^T M v) of nodal values, with the mesh's mass matrix M."""
    return float(np.sqrt(max(values @ mesh.product(mesh.mass, values), 0.0)))
