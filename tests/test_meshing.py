"""Mesh construction and P1 discrete calculus."""

import math

import numpy as np
import pytest

from cavlab import meshing as mh


@pytest.fixture(scope="module")
def spec():
    return mh.DomainSpec()


@pytest.fixture(scope="module")
def mesh(spec):
    return mh.build_mesh(spec)


def test_no_bump_is_rectangle():
    spec = mh.DomainSpec(bump_height=0.0)
    mesh = mh.build_mesh(spec)
    assert np.sum(mesh.boundary_tags == mh.OBSTACLE) == 0
    assert mesh.areas.sum() == pytest.approx(
        2.0 * spec.half_length * spec.height, rel=1e-12)


def test_euler_characteristic(mesh):
    assert mesh.euler_characteristic() == 1


def test_min_angle(mesh):
    assert mesh.min_angle_degrees() >= 20.0


def test_bump_resolution(mesh):
    assert np.sum(mesh.boundary_tags == mh.OBSTACLE) >= 32


def test_boundary_length(mesh, spec):
    total = mesh.edge_lengths.sum()
    # straight edges are exact; the polyline under-resolves the arc at O(h^2)
    assert total == pytest.approx(spec.boundary_length(), rel=1e-3)


def test_area_excludes_bump(mesh, spec):
    R = spec.arc_radius
    half_angle = math.asin(spec.chord / (2 * R))
    seg = R * R * half_angle - 0.5 * spec.chord * (R - spec.bump_height)
    expected = 2 * spec.half_length * spec.height - seg
    assert mesh.areas.sum() == pytest.approx(expected, rel=1e-4)


def test_gradient_exact_for_affine(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    g = mesh.gradient(x)
    assert np.allclose(g[:, 0], 1.0, atol=1e-12)
    assert np.allclose(g[:, 1], 0.0, atol=1e-12)
    g = mesh.gradient(2.0 * x - 3.0 * y + 1.0)
    assert np.allclose(g, [2.0, -3.0], atol=1e-12)


def test_weak_divergence_identity(mesh):
    # F = (x, y): int psi div F with psi = 1 equals 2 * area
    F = mesh.vertices.copy()
    ones = np.ones(mesh.n_vertices)
    val = mesh.weak_divergence(F, ones)
    assert val == pytest.approx(2.0 * mesh.areas.sum(), rel=1e-12)


def test_divergence_theorem(mesh):
    # constant field: boundary fluxes cancel, interior term vanishes
    F = np.tile([1.0, 0.0], (mesh.n_vertices, 1))
    ones = np.ones(mesh.n_vertices)
    assert mesh.weak_divergence(F, ones) == pytest.approx(0.0, abs=1e-12)
    # flux of (1,0) over FARFIELD equals the x-projection sum of its edges
    flux = mesh.boundary_flux(F, mh.FARFIELD, inward=False)
    mask = mesh.boundary_tags == mh.FARFIELD
    proj = -np.sum(mesh.edge_normals_in[mask][:, 0]
                   * mesh.edge_lengths[mask])
    assert flux == pytest.approx(proj, rel=1e-12)


def test_obstacle_wall_quadrature(mesh):
    # the scatter puts half of each edge length on either end, and the
    # per-edge flux is the edge-mean F.n of the midpoint rule
    mask = mesh.boundary_tags == mh.OBSTACLE
    S = mesh.obstacle_scatter
    assert S.shape == (mesh.n_vertices, int(mask.sum()))
    assert np.allclose(np.asarray(S.sum(axis=0)).ravel(),
                       mesh.edge_lengths[mask], rtol=1e-15)
    assert np.all(S.getnnz(axis=0) == 2)
    assert S.sum() == pytest.approx(mesh.spec.arc_length, rel=1e-3)
    F = np.stack([np.sin(mesh.vertices[:, 0]), mesh.vertices[:, 1] ** 2],
                 axis=1)
    Fn = mesh.obstacle_normal_flux(F)
    assert float(np.sum(Fn * mesh.edge_lengths[mask])) == pytest.approx(
        mesh.boundary_flux(F, mh.OBSTACLE), rel=1e-12)


def test_normals_point_inward(mesh):
    spec = mesh.spec
    mids = mesh.edge_midpoints
    n = mesh.edge_normals_in
    bottom = np.abs(mids[:, 1] - spec.bump_profile(mids[:, 0])) < 1e-3
    top = mids[:, 1] > spec.height - 1e-12
    left = mids[:, 0] < -spec.half_length + 1e-12
    right = mids[:, 0] > spec.half_length - 1e-12
    assert np.all(n[bottom, 1] > 0.5)
    assert np.all(n[top, 1] < -0.99)
    assert np.all(n[left, 0] > 0.99)
    assert np.all(n[right, 0] < -0.99)


def test_refinement_quadruples(spec):
    coarse = mh.build_mesh(spec)
    fine = mh.build_mesh(mh.DomainSpec(
        half_length=spec.half_length, height=spec.height, chord=spec.chord,
        bump_height=spec.bump_height, h_mesh=spec.h_mesh / 2))
    assert len(fine.triangles) >= 4 * len(coarse.triangles)
    # geometric defect (polyline vs arc area) decreases at order >= 1
    R = spec.arc_radius
    half_angle = math.asin(spec.chord / (2 * R))
    seg = R * R * half_angle - 0.5 * spec.chord * (R - spec.bump_height)
    exact = 2 * spec.half_length * spec.height - seg
    assert abs(fine.areas.sum() - exact) < 0.6 * abs(
        coarse.areas.sum() - exact)


def test_stiffness_matrix_properties(mesh):
    K = mesh.stiffness_matrix()
    ones = np.ones(mesh.n_vertices)
    assert np.abs(K @ ones).max() < 1e-12  # constants in the kernel
    x = mesh.vertices[:, 0]
    # K x equals the weak Laplacian of an affine field: boundary terms only
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            np.unique(mesh.boundary_edges))
    assert np.abs((K @ x)[interior]).max() < 1e-12


def _divergence_reference(mesh, F):
    """b_i = sum_T |T| grad(lambda_i) . mean_T(F), assembled per triangle."""
    mean = F[mesh.triangles].mean(axis=1)
    contrib = np.einsum("md,mid->mi", mean, mesh.grads) * mesh.areas[:, None]
    b = np.zeros(mesh.n_vertices)
    np.add.at(b, mesh.triangles, contrib)
    return b


@pytest.mark.parametrize("bump_height", [0.05, 0.0])
def test_divergence_rhs_matches_per_triangle_formula(bump_height):
    mesh = mh.build_mesh(mh.DomainSpec(bump_height=bump_height,
                                       h_mesh=1 / 16))
    F = np.random.default_rng(7).standard_normal((mesh.n_vertices, 2))
    ref = _divergence_reference(mesh, F)
    assert np.abs(mesh.divergence_rhs(F) - ref).max() \
        <= 1e-13 * np.abs(ref).max()


def test_operators_built_once(mesh):
    assert mesh.stiffness_matrix() is mesh.stiffness_matrix()
    assert mesh.mass_matrix() is mesh.mass_matrix()
    assert mesh.divergence_operator is mesh.divergence_operator
    ones = np.ones(mesh.n_vertices)
    assert ones @ (mesh.mass_matrix() @ ones) == pytest.approx(
        mesh.areas.sum(), rel=1e-13)


def _loop_triangles(mesh):
    """Triangle list built one quad at a time, as a reference."""
    nx = len(np.unique(mesh.vertices[:, 0])) - 1
    ny = mesh.n_vertices // (nx + 1) - 1
    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            v01, v11 = v00 + 1, v10 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.asarray(tris, dtype=np.int64)


def _loop_edges(mesh):
    """Triangle index of every edge, one frozenset per edge."""
    edge_map = {}
    for it, tri in enumerate(mesh.triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edge_map[frozenset((tri[a], tri[b]))] = it
    return edge_map


def _loop_adjacent_centroids(mesh):
    edge_map = _loop_edges(mesh)
    cents = mesh.vertices[mesh.triangles].mean(axis=1)
    return np.array([cents[edge_map[frozenset((a, b))]]
                     for a, b in mesh.boundary_edges])


def test_vectorised_build_matches_loops(monkeypatch):
    spec = mh.DomainSpec(h_mesh=1 / 32)
    mesh = mh.build_mesh(spec)
    assert np.array_equal(mesh._adjacent_triangle_centroids(),
                          _loop_adjacent_centroids(mesh))
    monkeypatch.setattr(mh.Mesh, "_adjacent_triangle_centroids",
                        _loop_adjacent_centroids)
    ref = mh.Mesh(mesh.vertices.copy(), _loop_triangles(mesh),
                  mesh.boundary_edges.copy(), mesh.boundary_tags.copy(),
                  spec)
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags",
                 "edge_normals_in"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.edge_count() == len(_loop_edges(mesh))


def test_vtk_export(mesh, tmp_path):
    path = tmp_path / "mesh.vtk"
    mh.write_vtk(str(path), mesh, point_fields={"one": np.ones(
        mesh.n_vertices)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    for section in ("POINTS", "POLYGONS", "POINT_DATA", "CELL_DATA"):
        assert section in text


def test_vtk_export_text(tmp_path):
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 4))
    rho = np.linspace(0.1, 0.5, mesh.n_vertices)
    cell = np.arange(len(mesh.triangles)) / 7.0
    path = tmp_path / "mesh.vtk"
    mh.write_vtk(str(path), mesh, point_fields={"rho": rho},
                 cell_fields={"c": cell})
    nv, nt = mesh.n_vertices, len(mesh.triangles)
    lines = ["# vtk DataFile Version 3.0", "cavlab mesh", "ASCII",
             "DATASET POLYDATA", f"POINTS {nv} double"]
    lines += [f"{x:.17g} {y:.17g} 0.0" for x, y in mesh.vertices]
    lines.append(f"POLYGONS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    for section, name, vals in ((f"POINT_DATA {nv}", "rho", rho),
                                (f"CELL_DATA {nt}", "area", mesh.areas),
                                (None, "c", cell)):
        if section:
            lines.append(section)
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{float(x):.17g}" for x in vals]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_spec_validation():
    with pytest.raises(ValueError):
        mh.DomainSpec(bump_height=0.6, height=1.0)
    with pytest.raises(ValueError):
        mh.DomainSpec(chord=5.0, half_length=2.0)
    with pytest.raises(ValueError):
        mh.DomainSpec(h_mesh=-1.0)
