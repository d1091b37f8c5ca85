"""Channel-with-obstacle domain, triangulation, and P1 discrete calculus.

The domain is the rectangle [-L, L] x [0, H] with a circular-arc bump of
chord c and height h_b centered on the bottom wall; the fluid fills the
region above the bump.  The grid is structured: vertical mesh lines are
kept and each column is graded between the bump surface and the lid, then
every quad is split into two triangles.  Boundary edges carry one of two
tags: OBSTACLE on the bump arc, FARFIELD everywhere else; the FARFIELD
nodes are the Dirichlet set (`Mesh.dirichlet_nodes`).

Orientation contract: `build_mesh` lists every boundary edge (a, b) with
the fluid on its left, so the boundary runs counterclockwise around the
fluid and the unit normal into the fluid is the edge tangent b - a turned
by +90 degrees, which is how `Mesh` computes it.

The P1 cell operators derive from two sparse primitives built once per
mesh, the cell gradient G and the cell mean: `gradient` is G f, the
stiffness matrix G^T diag(|T|) G and the divergence load operator
G^T diag(|T|) (cell mean x I_2).

Importing this module loads numpy only.  Each function that builds a
sparse matrix imports scipy.sparse itself, so a process loads scipy at
its first operator build: `cavlab solve`, `sweep` and `check` do.  The
other commands use only `DomainSpec` (through the config) and
`write_rows`, and never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

OBSTACLE = 1
FARFIELD = 2


@dataclass(frozen=True)
class DomainSpec:
    """Geometry: channel half-length, height, bump chord/height, target h."""
    half_length: float = 2.0
    height: float = 1.0
    chord: float = 1.0
    bump_height: float = 0.05
    h_mesh: float = 1.0 / 32.0

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (
                self.half_length, self.height, self.chord, self.h_mesh)):
            raise ValueError("all lengths must be finite and positive")
        if not 0.0 <= self.bump_height < self.height / 2:
            raise ValueError("bump height must lie in [0, height/2)")
        if self.chord / 2 >= self.half_length:
            raise ValueError("bump endpoints must lie on the bottom wall")

    @property
    def arc_radius(self) -> float:
        if self.bump_height == 0:
            return math.inf
        c, h = self.chord, self.bump_height
        return (c * c / 4.0 + h * h) / (2.0 * h)

    def bump_profile(self, x):
        """Bottom-wall elevation y_b(x)."""
        x = np.asarray(x, dtype=float)
        if self.bump_height == 0:
            return np.zeros_like(x)
        R = self.arc_radius
        yc = self.bump_height - R
        inside = np.abs(x) < self.chord / 2.0
        y = np.where(inside,
                     yc + np.sqrt(np.clip(R * R - x * x, 0.0, None)), 0.0)
        return np.clip(y, 0.0, None)


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary and P1 operators,
    each built on first use and kept, so that the solver and the
    diagnostics share one copy per mesh.

    Each boundary edge (a, b) has the fluid on its left, as `build_mesh`
    lists them: `edge_normals_in` is the unit tangent (t_x, t_y) of
    b - a turned to (-t_y, t_x), the normal into the fluid, and nothing
    checks an edge list given in another orientation."""

    vertices: np.ndarray       # (n, 2)
    triangles: np.ndarray      # (m, 3) positively oriented
    boundary_edges: np.ndarray  # (b, 2) vertex pairs, fluid on the left
    boundary_tags: np.ndarray   # (b,) OBSTACLE | FARFIELD
    spec: DomainSpec

    def __post_init__(self):
        v, t = self.vertices, self.triangles
        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        d1, d2 = p1 - p0, p2 - p0
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0):
            raise ValueError("triangulation contains degenerate/flipped cells")
        # the fluid lies left of each boundary edge: the inward normal is
        # the tangent turned by +90 degrees
        be = self.boundary_edges
        tang = v[be[:, 1]] - v[be[:, 0]]
        self.edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
        self.edge_normals_in = np.stack([-tang[:, 1], tang[:, 0]], axis=1) \
            / self.edge_lengths[:, None]

    # ---- topology ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def boundary_nodes(self, tag: int) -> np.ndarray:
        mask = self.boundary_tags == tag
        return np.unique(self.boundary_edges[mask].ravel())

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """The FARFIELD nodes, where sigma and theta are prescribed and
        every test function vanishes."""
        return self.boundary_nodes(FARFIELD)

    # ---- P1 calculus -----------------------------------------------------

    @cached_property
    def cell_gradient(self) -> sp.csr_matrix:
        """G (2m x n): row 2c + d holds d lambda_i / dx_d on cell c in the
        columns of its vertices i, so (G f)[2c + d] is d f / dx_d there."""
        x, y = np.moveaxis(self.vertices[self.triangles], 2, 0)  # (m, 3)
        nxt, prv = [1, 2, 0], [2, 0, 1]
        # grad lambda_i = (y_{i+1} - y_{i+2}, x_{i+2} - x_{i+1}) / 2|T|
        grads = np.stack([y[:, nxt] - y[:, prv], x[:, prv] - x[:, nxt]],
                         axis=1) * (1.0 / (2.0 * self.areas))[:, None, None]
        return _three_per_row(grads.ravel(),
                              np.repeat(self.triangles, 2, axis=0).ravel(),
                              self.n_vertices)

    @cached_property
    def cell_mean(self) -> sp.csr_matrix:
        """(m x n), 1/3 at each vertex of a cell: cell means of fields."""
        return self._cell_mean_per_component(1)

    def _cell_mean_per_component(self, k: int) -> sp.csr_matrix:
        """cell_mean x I_k: row kc + d averages component d over cell c."""
        cols = k * self.triangles[:, None, :] + np.arange(k)[:, None]
        return _three_per_row(np.full(cols.size, 1.0 / 3.0), cols.ravel(),
                              k * self.n_vertices)

    def gradient(self, field: np.ndarray) -> np.ndarray:
        """Cell gradients G f, (m, 2), or (m, 2, k) for k fields (n, k)."""
        grads = self.cell_gradient @ field
        return grads.reshape(-1, 2, *grads.shape[1:])

    def _area_weighted_gradient_t(self) -> sp.csr_matrix:
        """G^T diag(|T|) (n x 2m), a transient of building K and D."""
        import scipy.sparse as sp
        G = self.cell_gradient
        return sp.csr_matrix((np.repeat(self.areas, 6) * G.data, G.indices,
                              G.indptr), shape=G.shape).T.tocsr()

    def integrate(self, cell_values: np.ndarray) -> float:
        """Integral of a per-triangle quantity."""
        return float(np.sum(self.areas * np.asarray(cell_values)))

    def l2_norm(self, field: np.ndarray) -> float:
        """Lumped-mass L2 norm of a nodal field."""
        acc = self.areas @ (self.cell_mean @ np.square(field))
        return math.sqrt(max(acc, 0.0))

    @cached_property
    def _obstacle(self):
        """Ends, inward unit normals and lengths of the OBSTACLE edges."""
        mask = self.boundary_tags == OBSTACLE
        return (self.boundary_edges[mask], self.edge_normals_in[mask],
                self.edge_lengths[mask])

    def obstacle_normal_flux(self, vector_nodal: np.ndarray) -> np.ndarray:
        """Edge-mean normal component F.n of a nodal field on each
        OBSTACLE edge (n into the fluid), one entry per column of
        `obstacle_scatter`.  F is (n, 2), or (k, n, 2) for k fields at
        once, which gives (k, n_obstacle_edges)."""
        e, nrm, _ = self._obstacle
        F = vector_nodal
        mid = 0.5 * (F[..., e[:, 0], :] + F[..., e[:, 1], :])
        return np.sum(mid * nrm, axis=-1)

    @cached_property
    def obstacle_scatter(self) -> sp.csr_matrix:
        """(n, n_obstacle_edges) trapezoid scatter of per-edge values g
        onto both edge endpoints, |e| g_e / 2 each: psi . (S g) is the
        trapezoid rule for int psi_h g dH over the obstacle."""
        import scipy.sparse as sp
        e, _, lengths = self._obstacle
        half = 0.5 * lengths
        edge = np.arange(len(half))
        return sp.csr_matrix(
            (np.concatenate([half, half]),
             (e.T.ravel(), np.concatenate([edge, edge]))),
            shape=(self.n_vertices, len(half)))

    def stiffness_matrix(self) -> sp.csr_matrix:
        """P1 Laplacian K = G^T diag(|T|) G, no boundary conditions and
        no stored zeros; built once per mesh."""
        return self._stiffness

    def divergence_rhs(self, vector_nodal: np.ndarray) -> np.ndarray:
        """Load vector b_i = int F . grad(lambda_i) dx for P1 F."""
        return self.divergence_operator \
            @ np.asarray(vector_nodal, dtype=float).reshape(-1)

    @cached_property
    def divergence_operator(self) -> sp.csr_matrix:
        """D = G^T diag(|T|) (cell_mean x I_2) (n x 2n), of transient
        factors: maps a nodal field F, flattened row-major (F[j, d] in
        column 2j + d), to the load vector of `divergence_rhs`."""
        return self._area_weighted_gradient_t() \
            @ self._cell_mean_per_component(2)

    @cached_property
    def _stiffness(self) -> sp.csr_matrix:
        return self._area_weighted_gradient_t() @ self.cell_gradient


def _three_per_row(data, columns, n_columns) -> sp.csr_matrix:
    """CSR matrix with data[3r:3r + 3] in columns[3r:3r + 3] of row r."""
    import scipy.sparse as sp
    return sp.csr_matrix(
        (data, np.asarray(columns, dtype=np.int32),
         np.arange(0, len(data) + 1, 3, dtype=np.int32)),
        shape=(len(data) // 3, n_columns))


def build_mesh(spec: DomainSpec) -> Mesh:
    """Structured graded triangulation of the channel with the bump."""
    L, H, c = spec.half_length, spec.height, spec.chord
    h = spec.h_mesh
    # x-nodes: uniform segments snapped to the bump endpoints
    n_left = max(int(round((L - c / 2) / h)), 2)
    n_mid = max(int(round(c / h)), 32 if spec.bump_height > 0 else 2)
    xs = np.concatenate([
        np.linspace(-L, -c / 2, n_left + 1)[:-1],
        np.linspace(-c / 2, c / 2, n_mid + 1)[:-1],
        np.linspace(c / 2, L, n_left + 1),
    ])
    ny = max(int(round(H / h)), 4)
    nx = len(xs) - 1
    yb = spec.bump_profile(xs)
    frac = np.arange(ny + 1) / ny
    Y = yb[:, None] + (H - yb[:, None]) * frac[None, :]
    X = np.repeat(xs[:, None], ny + 1, axis=1)
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    # quad (i, j) -> triangles (v00, v10, v11), (v00, v11, v01), in
    # i-major then j order
    v00 = vid(np.arange(nx, dtype=np.int64)[:, None], np.arange(ny)[None, :])
    v10, v01, v11 = v00 + (ny + 1), v00 + 1, v00 + (ny + 2)
    triangles = np.stack([np.stack([v00, v10, v11], axis=-1),
                          np.stack([v00, v11, v01], axis=-1)],
                         axis=2).reshape(-1, 3)

    # boundary edges, fluid on the left: bottom, top of each column; then
    # inlet, outlet of each row
    i, j = np.arange(nx, dtype=np.int64), np.arange(ny, dtype=np.int64)
    edges = np.concatenate([
        np.stack([vid(i, 0), vid(i + 1, 0), vid(i + 1, ny), vid(i, ny)], 1),
        np.stack([vid(0, j + 1), vid(0, j), vid(nx, j), vid(nx, j + 1)], 1),
    ]).reshape(-1, 2)
    on_bump = (spec.bump_height > 0) & (np.abs(0.5 * (xs[:-1] + xs[1:]))
                                        < c / 2)
    tags = np.full(len(edges), FARFIELD, dtype=np.int64)
    tags[0:2 * nx:2][on_bump] = OBSTACLE
    return Mesh(vertices, triangles, edges, tags, spec)


# rows formatted per string operation by `write_rows`
ROW_BLOCK = 4096


def write_rows(fh, row_format: str, rows) -> None:
    """Write the rows of an array through the %-format `row_format` (one
    conversion per column; a 1-D array is one value per row).

    Each block of ROW_BLOCK rows is formatted by one string operation, so
    memory is bounded by the block, not by the file.  "%.17g" gives the
    same text as f"{float(x):.17g}", and "%d" the same as f"{i}".
    """
    rows = np.asarray(rows)
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def write_vtk(path: str, mesh: Mesh, point_fields: dict) -> None:
    """Legacy ASCII VTK polydata export (POINTS/POLYGONS + data sections).

    Rows are written by `write_rows`, so no copy of the file is held in
    memory.
    """
    v, t = mesh.vertices, mesh.triangles

    def scalars(fh, name, vals):
        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        write_rows(fh, "%.17g\n", np.asarray(vals, dtype=float))

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ncavlab mesh\nASCII\n"
                 f"DATASET POLYDATA\nPOINTS {len(v)} double\n")
        write_rows(fh, "%.17g %.17g 0.0\n", v)
        fh.write(f"POLYGONS {len(t)} {4 * len(t)}\n")
        write_rows(fh, "3 %d %d %d\n", t)
        fh.write(f"POINT_DATA {len(v)}\n")
        for name, vals in point_fields.items():
            scalars(fh, name, vals)
        fh.write(f"CELL_DATA {len(t)}\n")
        scalars(fh, "area", mesh.areas)
