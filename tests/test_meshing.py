"""Mesh construction and P1 discrete calculus."""

import io
import math

import numpy as np
import pytest
import scipy.sparse as sp

from cavlab import meshing as mh


@pytest.fixture(scope="module")
def spec():
    return mh.DomainSpec()


@pytest.fixture(scope="module")
def mesh(spec):
    return mh.build_mesh(spec)


def _edge_keys(mesh, a, b):
    """Key lo * n + hi of each edge (a[i], b[i]), lo < hi its ends."""
    return np.minimum(a, b) * mesh.n_vertices + np.maximum(a, b)


def _triangle_edge_keys(mesh):
    """Keys of the three edges of every triangle: entry 3c + k is the edge
    from vertex k to vertex k + 1 (mod 3) of triangle c."""
    t = mesh.triangles
    return _edge_keys(mesh, t.ravel(), t[:, [1, 2, 0]].ravel())


def edge_count(mesh):
    return len(np.unique(_triangle_edge_keys(mesh)))


def euler_characteristic(mesh):
    return mesh.n_vertices - edge_count(mesh) + len(mesh.triangles)


def min_angle_degrees(mesh):
    p = mesh.vertices[mesh.triangles]  # (m, 3, 2)
    a, b = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    cosang = np.sum(a * b, axis=2) / (
        np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2))
    return float(np.degrees(np.arccos(np.clip(cosang, -1, 1))).min())


def arc_length(spec):
    """Length of the bump's circular arc (the chord when it is flat)."""
    if spec.bump_height == 0:
        return spec.chord
    R = spec.arc_radius
    return 2.0 * R * math.asin(spec.chord / (2.0 * R))


def boundary_length(spec):
    """Perimeter: rectangle with the chord replaced by the arc."""
    return (2.0 * (2.0 * spec.half_length) + 2.0 * spec.height
            + (arc_length(spec) - spec.chord))


def test_no_bump_is_rectangle():
    spec = mh.DomainSpec(bump_height=0.0)
    mesh = mh.build_mesh(spec)
    assert np.sum(mesh.boundary_tags == mh.OBSTACLE) == 0
    assert mesh.areas.sum() == pytest.approx(
        2.0 * spec.half_length * spec.height, rel=1e-12)


def test_euler_characteristic(mesh):
    assert euler_characteristic(mesh) == 1


def test_min_angle(mesh):
    assert min_angle_degrees(mesh) >= 20.0


def test_bump_resolution(mesh):
    assert np.sum(mesh.boundary_tags == mh.OBSTACLE) >= 32


def test_boundary_length(mesh, spec):
    total = mesh.edge_lengths.sum()
    # straight edges are exact; the polyline under-resolves the arc at O(h^2)
    assert total == pytest.approx(boundary_length(spec), rel=1e-3)


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
    # a stack of fields, (n, k) -> (m, 2, k), one column per field
    g = mesh.gradient(np.column_stack([x, 2.0 * x - 3.0 * y + 1.0]))
    assert g.shape == (len(mesh.triangles), 2, 2)
    assert np.allclose(g, [[1.0, 2.0], [0.0, -3.0]], atol=1e-12)


def _affine_pair(p):
    """F = (x - 2y + 0.5, 3x + y), whose divergence is 2, and
    psi = 0.7x - 1.3y + 0.4, whose gradient is (0.7, -1.3), at points p."""
    x, y = p[..., 0], p[..., 1]
    return (np.stack([x - 2.0 * y + 0.5, 3.0 * x + y], axis=-1),
            0.7 * x - 1.3 * y + 0.4)


def test_weak_divergence_identity(mesh):
    # for affine F and psi, psi^T D F is the exact int F . grad(psi):
    # the cell mean of F is its centroid value
    F, psi = _affine_pair(mesh.vertices)
    F_c, _ = _affine_pair(mesh.vertices[mesh.triangles].mean(axis=1))
    exact = np.sum(mesh.areas * (F_c @ np.array([0.7, -1.3])))
    assert psi @ mesh.divergence_rhs(F) == pytest.approx(exact, rel=1e-12)


def test_divergence_theorem(mesh):
    # int F . grad(psi) = int_bdry psi F . n_out - int psi div F for
    # affine F and psi; psi F . n is quadratic on each boundary edge, so
    # Simpson's rule there is exact
    F, psi = _affine_pair(mesh.vertices)
    v, be = mesh.vertices, mesh.boundary_edges
    a, b = v[be[:, 0]], v[be[:, 1]]
    n_out = -mesh.edge_normals_in

    def flux(p):
        Fp, psi_p = _affine_pair(p)
        return psi_p * np.sum(Fp * n_out, axis=1)
    boundary = np.sum(mesh.edge_lengths * (
        flux(a) + 4.0 * flux(0.5 * (a + b)) + flux(b)) / 6.0)
    _, psi_c = _affine_pair(v[mesh.triangles].mean(axis=1))
    volume = 2.0 * np.sum(mesh.areas * psi_c)
    assert psi @ mesh.divergence_rhs(F) == pytest.approx(
        boundary - volume, rel=1e-12)
    # a constant field: psi = 1 sees no flux, and neither does an interior
    # basis function, whose gradient integrates to zero
    b = mesh.divergence_rhs(np.tile([1.0, -0.5], (mesh.n_vertices, 1)))
    interior = np.setdiff1d(np.arange(mesh.n_vertices), be)
    assert abs(b.sum()) < 1e-12 and np.abs(b[interior]).max() < 1e-12


def test_obstacle_wall_quadrature(mesh):
    # the scatter puts half of each edge length on either end, and the
    # per-edge flux is the edge-mean F.n of the midpoint rule
    mask = mesh.boundary_tags == mh.OBSTACLE
    S = mesh.obstacle_scatter
    assert S.shape == (mesh.n_vertices, int(mask.sum()))
    assert np.allclose(np.asarray(S.sum(axis=0)).ravel(),
                       mesh.edge_lengths[mask], rtol=1e-15)
    assert np.all(S.getnnz(axis=0) == 2)
    assert S.sum() == pytest.approx(arc_length(mesh.spec), rel=1e-3)
    F = np.stack([np.sin(mesh.vertices[:, 0]), mesh.vertices[:, 1] ** 2],
                 axis=1)
    Fn = mesh.obstacle_normal_flux(F)
    direct = 0.0
    for (i, j), n, length in zip(mesh.boundary_edges[mask],
                                 mesh.edge_normals_in[mask],
                                 mesh.edge_lengths[mask]):
        direct += float(0.5 * (F[i] + F[j]) @ n) * length
    assert float(np.sum(Fn * mesh.edge_lengths[mask])) == pytest.approx(
        direct, rel=1e-12)


def test_normals_point_inward(mesh):
    spec = mesh.spec
    v, be = mesh.vertices, mesh.boundary_edges
    mids = 0.5 * (v[be[:, 0]] + v[be[:, 1]])
    n = mesh.edge_normals_in
    bottom = np.abs(mids[:, 1] - spec.bump_profile(mids[:, 0])) < 1e-3
    top = mids[:, 1] > spec.height - 1e-12
    left = mids[:, 0] < -spec.half_length + 1e-12
    right = mids[:, 0] > spec.half_length - 1e-12
    assert np.all(n[bottom, 1] > 0.5)
    assert np.all(n[top, 1] < -0.99)
    assert np.all(n[left, 0] > 0.99)
    assert np.all(n[right, 0] < -0.99)


@pytest.mark.parametrize("bump_height", [0.05, 0.0])
@pytest.mark.parametrize("cells_per_unit", [4, 32, 96])
def test_boundary_edges_have_the_fluid_on_their_left(cells_per_unit,
                                                     bump_height):
    # the orientation contract of build_mesh: the third vertex of the
    # triangle a boundary edge (a, b) lies on is strictly left of a -> b,
    # and the inward normal is the unit tangent turned by +90 degrees
    mesh = mh.build_mesh(mh.DomainSpec(bump_height=bump_height,
                                       h_mesh=1 / cells_per_unit))
    v, be = mesh.vertices, mesh.boundary_edges
    keys = _triangle_edge_keys(mesh)
    order = np.argsort(keys)
    bkeys = _edge_keys(mesh, be[:, 0], be[:, 1])
    hit = order[np.minimum(np.searchsorted(keys, bkeys, sorter=order),
                           len(keys) - 1)]
    assert np.array_equal(keys[hit], bkeys)
    third = mesh.triangles[hit // 3, (hit % 3 + 2) % 3]
    a, b, c = v[be[:, 0]], v[be[:, 1]], v[third]
    t, r = b - a, c - a
    assert np.all(t[:, 0] * r[:, 1] - t[:, 1] * r[:, 0] > 0.0)
    length = np.hypot(t[:, 0], t[:, 1])
    rotated = np.stack([-t[:, 1], t[:, 0]], axis=1) / length[:, None]
    assert mesh.edge_normals_in.dtype == rotated.dtype
    assert mesh.edge_normals_in.tobytes() == rotated.tobytes()
    assert mesh.edge_lengths.tobytes() == length.tobytes()


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


def _basis_gradients(mesh):
    """grad(lambda_i) of every triangle, (m, 3, 2), from its vertices."""
    p = mesh.vertices[mesh.triangles]
    grads = np.empty((len(p), 3, 2))
    for i in range(3):
        a, b = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
        grads[:, i, 0] = a[:, 1] - b[:, 1]
        grads[:, i, 1] = b[:, 0] - a[:, 0]
    return grads / (2.0 * mesh.areas)[:, None, None]


def _divergence_reference(mesh, F):
    """b_i = sum_T |T| grad(lambda_i) . mean_T(F), assembled per triangle."""
    mean = F[mesh.triangles].mean(axis=1)
    contrib = np.einsum("md,mid->mi", mean, _basis_gradients(mesh)) \
        * mesh.areas[:, None]
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


@pytest.mark.parametrize("bump_height", [0.05, 0.0])
def test_stiffness_matches_per_triangle_assembly(bump_height):
    # K = G^T diag(|T|) G against the element-by-element COO assembly;
    # the product stores no zeros, such as the coupling across the
    # diagonal of a rectangular cell
    mesh = mh.build_mesh(mh.DomainSpec(bump_height=bump_height,
                                       h_mesh=1 / 16))
    g, t = _basis_gradients(mesh), mesh.triangles
    local = np.einsum("mid,mjd->mij", g, g) * mesh.areas[:, None, None]
    ref = sp.coo_matrix((local.ravel(), (np.repeat(t, 3, axis=1).ravel(),
                                         np.tile(t, 3).ravel())),
                        shape=(mesh.n_vertices,) * 2).tocsr()
    K = mesh.stiffness_matrix()
    assert np.all(K.data != 0.0)
    assert abs(K - ref).max() <= 1e-15 * abs(ref).max()


def test_operators_built_once(mesh):
    assert mesh.stiffness_matrix() is mesh.stiffness_matrix()
    assert mesh.divergence_operator is mesh.divergence_operator
    assert mesh.dirichlet_nodes is mesh.dirichlet_nodes
    assert np.array_equal(mesh.dirichlet_nodes,
                          mesh.boundary_nodes(mh.FARFIELD))


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


def _loop_inward_normals(mesh):
    """Unit normal of every boundary edge, turned towards the centroid of
    the triangle the edge lies on (found by `_loop_edges`): inward
    whatever the edge's orientation."""
    edge_map = _loop_edges(mesh)
    cents = mesh.vertices[mesh.triangles].mean(axis=1)
    normals = []
    for a, b in mesh.boundary_edges:
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        t = pb - pa
        n = np.array([-t[1], t[0]]) / np.hypot(t[0], t[1])
        if n @ (cents[edge_map[frozenset((a, b))]] - 0.5 * (pa + pb)) < 0:
            n = -n
        normals.append(n)
    return np.array(normals)


def test_vectorised_build_matches_loops():
    spec = mh.DomainSpec(h_mesh=1 / 32)
    mesh = mh.build_mesh(spec)
    ref = mh.Mesh(mesh.vertices.copy(), _loop_triangles(mesh),
                  mesh.boundary_edges.copy(), mesh.boundary_tags.copy(),
                  spec)
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags",
                 "edge_normals_in"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    normals = _loop_inward_normals(mesh)
    assert normals.dtype == mesh.edge_normals_in.dtype
    assert np.array_equal(mesh.edge_normals_in, normals)
    assert edge_count(mesh) == len(_loop_edges(mesh))


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
    theta = np.arange(mesh.n_vertices) / 7.0
    path = tmp_path / "mesh.vtk"
    mh.write_vtk(str(path), mesh, point_fields={"rho": rho, "theta": theta})
    nv, nt = mesh.n_vertices, len(mesh.triangles)
    lines = ["# vtk DataFile Version 3.0", "cavlab mesh", "ASCII",
             "DATASET POLYDATA", f"POINTS {nv} double"]
    lines += [f"{x:.17g} {y:.17g} 0.0" for x, y in mesh.vertices]
    lines.append(f"POLYGONS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    for section, name, vals in ((f"POINT_DATA {nv}", "rho", rho),
                                (None, "theta", theta),
                                (f"CELL_DATA {nt}", "area", mesh.areas)):
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


@pytest.mark.parametrize("n_rows", [0, 7, 2 * mh.ROW_BLOCK + 5])
def test_write_rows_matches_per_number_text(n_rows):
    rng = np.random.default_rng(n_rows)
    vals = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(
        -300, 300, (n_rows, 2))
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0, 1e16, 0.1]
    flat = vals.ravel()
    flat[:len(special)] = special[:len(flat)]
    ints = rng.integers(0, 2 ** 40, (n_rows, 3))
    for fmt, rows, line in (
            ("%.17g %.17g\n", vals,
             lambda r: f"{float(r[0]):.17g} {float(r[1]):.17g}\n"),
            ("%.17g\n", vals[:, 0], lambda x: f"{float(x):.17g}\n"),
            ("3 %d %d %d\n", ints, lambda r: f"3 {r[0]} {r[1]} {r[2]}\n")):
        fh = io.StringIO()
        mh.write_rows(fh, fmt, rows)
        assert fh.getvalue() == "".join(line(r) for r in rows)


def _per_number_vtk(path, mesh, point_fields):
    """The VTK writer as one f-string per number, for byte comparison."""
    v, t = mesh.vertices, mesh.triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ncavlab mesh\nASCII\n"
                 f"DATASET POLYDATA\nPOINTS {len(v)} double\n")
        fh.writelines(f"{x:.17g} {y:.17g} 0.0\n" for x, y in v)
        fh.write(f"POLYGONS {len(t)} {4 * len(t)}\n")
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in t)
        fh.write(f"POINT_DATA {len(v)}\n")
        for name, vals in point_fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.writelines(f"{float(x):.17g}\n" for x in vals)
        fh.write(f"CELL_DATA {len(t)}\n")
        fh.write("SCALARS area double 1\nLOOKUP_TABLE default\n")
        fh.writelines(f"{float(x):.17g}\n" for x in mesh.areas)


def test_vtk_export_matches_per_number_writer(monkeypatch, tmp_path):
    # blocks of 11 rows split every section and leave a partial last
    # block (test_vtk_export_text covers a mesh within one block)
    monkeypatch.setattr(mh, "ROW_BLOCK", 11)
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 8))
    assert mesh.n_vertices % 11 and len(mesh.triangles) % 11
    x = mesh.vertices[:, 0]
    point = {"rho": np.exp(x) / 3.0, "theta": np.sin(7.0 * x)}
    got, ref = tmp_path / "got.vtk", tmp_path / "ref.vtk"
    mh.write_vtk(str(got), mesh, point_fields=point)
    _per_number_vtk(str(ref), mesh, point)
    assert got.read_bytes() == ref.read_bytes()
