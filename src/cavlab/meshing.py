"""Channel-with-obstacle domain, triangulation, and P1 discrete calculus.

The domain is the rectangle [-L, L] x [0, H] with a circular-arc bump of
chord c and height h_b centered on the bottom wall; the fluid fills the
region above the bump.  The grid is structured: vertical mesh lines are
kept and each column is graded between the bump surface and the lid, then
every quad is split into two triangles.  Boundary edges carry one of two
tags: OBSTACLE on the bump arc, FARFIELD everywhere else, with unit
normals pointing into the fluid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
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
        if min(self.half_length, self.height, self.chord, self.h_mesh) <= 0:
            raise ValueError("all lengths must be positive")
        if self.bump_height < 0 or self.bump_height >= self.height / 2:
            raise ValueError("bump height must lie in [0, height/2)")
        if self.chord / 2 >= self.half_length:
            raise ValueError("bump endpoints must lie on the bottom wall")

    @property
    def arc_radius(self) -> float:
        if self.bump_height == 0:
            return math.inf
        c, h = self.chord, self.bump_height
        return (c * c / 4.0 + h * h) / (2.0 * h)

    @property
    def arc_length(self) -> float:
        if self.bump_height == 0:
            return self.chord
        R = self.arc_radius
        return 2.0 * R * math.asin(self.chord / (2.0 * R))

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

    def boundary_length(self) -> float:
        """Perimeter: rectangle with the chord replaced by the arc."""
        return (2.0 * (2.0 * self.half_length) + 2.0 * self.height
                + (self.arc_length - self.chord))


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary and P1 operators.

    The sparse P1 operators (stiffness, consistent mass and the
    divergence load operator) are assembled on first use and then kept,
    so the solver and the diagnostics share one copy of each per mesh.
    """

    vertices: np.ndarray       # (n, 2)
    triangles: np.ndarray      # (m, 3) positively oriented
    boundary_edges: np.ndarray  # (b, 2) vertex pairs
    boundary_tags: np.ndarray   # (b,) OBSTACLE | FARFIELD
    spec: DomainSpec

    def __post_init__(self):
        v, t = self.vertices, self.triangles
        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        d1, d2 = p1 - p0, p2 - p0
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0):
            raise ValueError("triangulation contains degenerate/flipped cells")
        # P1 basis gradients per triangle: grads[m, i, :] for local node i
        inv2A = 1.0 / (2.0 * self.areas)
        g0 = np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], axis=1)
        g1 = np.stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]], axis=1)
        g2 = np.stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]], axis=1)
        self.grads = np.stack([g0, g1, g2], axis=1) * inv2A[:, None, None]
        # boundary edge geometry with inward normals (into the fluid)
        be, v = self.boundary_edges, self.vertices
        tang = v[be[:, 1]] - v[be[:, 0]]
        self.edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
        nrm = np.stack([-tang[:, 1], tang[:, 0]], axis=1) \
            / self.edge_lengths[:, None]
        self.edge_midpoints = 0.5 * (v[be[:, 0]] + v[be[:, 1]])
        # orient towards the domain interior using the centroid of an
        # adjacent triangle
        adj = self._adjacent_triangle_centroids()
        flip = np.sum(nrm * (adj - self.edge_midpoints), axis=1) < 0
        nrm[flip] *= -1.0
        self.edge_normals_in = nrm

    def _edge_keys(self, a, b):
        """Key lo * n + hi of each edge (a[i], b[i]), lo < hi its ends."""
        return np.minimum(a, b) * self.n_vertices + np.maximum(a, b)

    def _triangle_edge_keys(self):
        """Keys of the three edges of every triangle, in triangle order."""
        t = self.triangles
        return self._edge_keys(t.ravel(), t[:, [1, 2, 0]].ravel())

    def _adjacent_triangle_centroids(self):
        # a boundary edge lies on exactly one triangle
        keys = self._triangle_edge_keys()
        order = np.argsort(keys)
        be = self.boundary_edges
        bkeys = self._edge_keys(be[:, 0], be[:, 1])
        pos = np.minimum(np.searchsorted(keys, bkeys, sorter=order),
                         len(keys) - 1)
        hit = order[pos]
        if not np.array_equal(keys[hit], bkeys):
            raise ValueError("boundary edge on no triangle")
        cents = self.vertices[self.triangles].mean(axis=1)
        return cents[hit // 3]

    # ---- topology ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return len(np.unique(self._triangle_edge_keys()))

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.edge_count() + len(self.triangles)

    def min_angle_degrees(self) -> float:
        v, t = self.vertices, self.triangles
        worst = 180.0
        p = v[t]  # (m, 3, 2)
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosang = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            ang = np.degrees(np.arccos(np.clip(cosang, -1, 1)))
            worst = min(worst, float(ang.min()))
        return worst

    def boundary_nodes(self, tag: int) -> np.ndarray:
        mask = self.boundary_tags == tag
        return np.unique(self.boundary_edges[mask].ravel())

    # ---- P1 calculus -----------------------------------------------------

    def gradient(self, field: np.ndarray) -> np.ndarray:
        """Per-triangle gradient of a nodal field; exact for affine fields."""
        field = np.asarray(field, dtype=float)
        return np.einsum("mi,mid->md", field[self.triangles], self.grads)

    def integrate(self, cell_values: np.ndarray) -> float:
        """Integral of a per-triangle quantity."""
        return float(np.sum(self.areas * np.asarray(cell_values)))

    def l2_norm(self, field: np.ndarray) -> float:
        """Lumped-mass L2 norm of a nodal field."""
        field = np.asarray(field, dtype=float)
        acc = np.sum(self.areas * (field[self.triangles] ** 2).mean(axis=1))
        return math.sqrt(max(acc, 0.0))

    def boundary_flux(self, vector_nodal: np.ndarray, tag: int,
                      inward: bool = True) -> float:
        """Edge-midpoint quadrature of the normal flux over tagged edges."""
        vec = np.asarray(vector_nodal, dtype=float)
        mask = self.boundary_tags == tag
        be = self.boundary_edges[mask]
        mid = 0.5 * (vec[be[:, 0]] + vec[be[:, 1]])
        nrm = self.edge_normals_in[mask]
        sgn = 1.0 if inward else -1.0
        return sgn * float(np.sum(np.sum(mid * nrm, axis=1)
                                  * self.edge_lengths[mask]))

    @cached_property
    def _obstacle(self):
        """Vertex pairs, inward unit normals and lengths of the OBSTACLE
        edges."""
        mask = self.boundary_tags == OBSTACLE
        return (self.boundary_edges[mask], self.edge_normals_in[mask],
                self.edge_lengths[mask])

    def obstacle_normal_flux(self, vector_nodal: np.ndarray) -> np.ndarray:
        """Edge-mean normal component F.n of a nodal field on each
        OBSTACLE edge (n into the fluid), one entry per column of
        `obstacle_scatter`."""
        e, nrm, _ = self._obstacle
        F = vector_nodal
        return np.sum(0.5 * (F[e[:, 0]] + F[e[:, 1]]) * nrm, axis=1)

    @cached_property
    def obstacle_scatter(self) -> sp.csr_matrix:
        """(n, n_obstacle_edges) trapezoid scatter of per-edge values g
        onto both edge endpoints, |e| g_e / 2 each: psi . (S g) is the
        trapezoid rule for int psi_h g dH over the obstacle."""
        e, _, lengths = self._obstacle
        half = 0.5 * lengths
        edge = np.arange(len(half))
        return sp.csr_matrix(
            (np.concatenate([half, half]),
             (e.T.ravel(), np.concatenate([edge, edge]))),
            shape=(self.n_vertices, len(half)))

    def weak_divergence(self, vector_nodal: np.ndarray, test_nodal) -> float:
        """int psi div F := boundary term - int F . grad psi (P1 weak form)."""
        vec = np.asarray(vector_nodal, dtype=float)
        psi = np.asarray(test_nodal, dtype=float)
        gpsi = self.gradient(psi)
        mean_vec = vec[self.triangles].mean(axis=1)
        interior = np.sum(self.areas * np.sum(mean_vec * gpsi, axis=1))
        bnd = 0.0
        for tag in (OBSTACLE, FARFIELD):
            mask = self.boundary_tags == tag
            be = self.boundary_edges[mask]
            midv = 0.5 * (vec[be[:, 0]] + vec[be[:, 1]])
            midp = 0.5 * (psi[be[:, 0]] + psi[be[:, 1]])
            flux_out = -np.sum(midv * self.edge_normals_in[mask], axis=1)
            bnd += np.sum(midp * flux_out * self.edge_lengths[mask])
        return float(bnd - interior)

    def stiffness_matrix(self) -> sp.csr_matrix:
        """Assembled P1 Laplacian (no boundary conditions applied).

        Built once per mesh; every call returns the same matrix.
        """
        return self._stiffness

    def mass_matrix(self) -> sp.csr_matrix:
        """Consistent P1 mass matrix; built once per mesh."""
        return self._mass

    def divergence_rhs(self, vector_nodal: np.ndarray) -> np.ndarray:
        """Load vector b_i = int F . grad(lambda_i) dx for P1 F."""
        vec = np.asarray(vector_nodal, dtype=float)
        return self.divergence_operator @ vec.reshape(-1)

    @cached_property
    def divergence_operator(self) -> sp.csr_matrix:
        """(n, 2n) map from a nodal field F, flattened row-major (F[j, d]
        in column 2j + d), to the load vector of `divergence_rhs`.

        Formed as S @ A: A (2m x 2n) takes each component's cell mean of
        F, S (n x 2m) scatters |T| grad(lambda_i) of each cell into row i.
        Rows 2c + d of A and of S^T hold one entry per vertex of cell c,
        so both are built directly in CSR form, with no COO index
        broadcast.  S^T is transposed and dropped before A is allocated,
        which keeps the build's transient memory below the solver's.
        """
        n, m = self.n_vertices, len(self.triangles)
        tri = self.triangles.astype(np.int32)
        row_ptr = np.arange(0, 6 * m + 1, 3, dtype=np.int32)
        scatter = sp.csr_matrix(
            ((self.areas[:, None, None]
              * self.grads.transpose(0, 2, 1)).ravel(),
             np.repeat(tri, 2, axis=0).ravel(), row_ptr),
            shape=(2 * m, n)).T.tocsr()
        comp = np.arange(2, dtype=np.int32)[:, None]
        mean = sp.csr_matrix(
            (np.full(6 * m, 1.0 / 3.0), (2 * tri[:, None, :] + comp).ravel(),
             row_ptr), shape=(2 * m, 2 * n))
        return scatter @ mean

    @cached_property
    def _stiffness(self) -> sp.csr_matrix:
        m = len(self.triangles)
        local = np.einsum("mid,mjd->mij", self.grads, self.grads) \
            * self.areas[:, None, None]
        rows = np.repeat(self.triangles, 3, axis=1).reshape(m, 3, 3)
        cols = np.tile(self.triangles, 3).reshape(m, 3, 3)
        K = sp.coo_matrix((local.ravel(),
                           (rows.ravel(), cols.ravel())),
                          shape=(self.n_vertices, self.n_vertices))
        return K.tocsr()

    @cached_property
    def _mass(self) -> sp.csr_matrix:
        tris, a = self.triangles, self.areas
        rows, cols, vals = [], [], []
        for i in range(3):
            for j in range(3):
                rows.append(tris[:, i])
                cols.append(tris[:, j])
                vals.append(a / 12.0 * (2.0 if i == j else 1.0))
        return sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_vertices,) * 2).tocsr()


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

    edges, tags = [], []
    for i in range(nx):  # bottom and top walls
        edges.append((vid(i, 0), vid(i + 1, 0)))
        xm = 0.5 * (xs[i] + xs[i + 1])
        on_bump = spec.bump_height > 0 and abs(xm) < c / 2
        tags.append(OBSTACLE if on_bump else FARFIELD)
        edges.append((vid(i, ny), vid(i + 1, ny)))
        tags.append(FARFIELD)
    for j in range(ny):  # inlet and outlet
        edges.append((vid(0, j), vid(0, j + 1)))
        tags.append(FARFIELD)
        edges.append((vid(nx, j), vid(nx, j + 1)))
        tags.append(FARFIELD)
    return Mesh(vertices, triangles, np.asarray(edges, dtype=np.int64),
                np.asarray(tags, dtype=np.int64), spec)


def write_vtk(path: str, mesh: Mesh, point_fields: dict | None = None,
              cell_fields: dict | None = None) -> None:
    """Legacy ASCII VTK polydata export (POINTS/POLYGONS + data sections).

    Lines are written as they are formatted, so no copy of the file is
    held in memory.
    """
    v, t = mesh.vertices, mesh.triangles

    def scalars(fh, name, vals):
        fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        fh.writelines(f"{float(x):.17g}\n" for x in vals)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ncavlab mesh\nASCII\n"
                 f"DATASET POLYDATA\nPOINTS {len(v)} double\n")
        fh.writelines(f"{x:.17g} {y:.17g} 0.0\n" for x, y in v)
        fh.write(f"POLYGONS {len(t)} {4 * len(t)}\n")
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in t)
        if point_fields:
            fh.write(f"POINT_DATA {len(v)}\n")
            for name, vals in point_fields.items():
                scalars(fh, name, vals)
        fh.write(f"CELL_DATA {len(t)}\n")
        scalars(fh, "area", mesh.areas)
        if cell_fields:
            for name, vals in cell_fields.items():
                scalars(fh, name, vals)
