"""Newton-Krylov solver: fixed points, manufactured convergence,
invariant regions, the load Jacobian and GMRES."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cavlab.gaschart as gc
from cavlab import meshing as mh
from cavlab import solver as sv


def test_config_validation():
    with pytest.raises(ValueError):
        sv.SolverConfig(q_inf=0.5)  # subsonic far field rejected
    with pytest.raises(ValueError):
        sv.SolverConfig(q_inf=1.1)
    with pytest.raises(ValueError):
        sv.SolverConfig(epsilons=(0.1, 0.2))  # must decrease


def test_constant_flow_exact_fixed_point():
    mesh = mh.build_mesh(mh.DomainSpec(bump_height=0.0, h_mesh=0.1))
    cfg = sv.SolverConfig(epsilons=(0.2,), max_iters=5)
    sol = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    # the far-field start is the fixed point: no Newton step is taken
    assert (sol.iterations, sol.krylov_steps) == (0, 0)
    assert sol.update_history[0] < 1e-14
    assert np.abs(sol.sigma - cfg.sigma_inf).max() < 1e-13
    assert np.abs(sol.theta).max() < 1e-13


def _manufactured_fields(cfg):
    """Far-field constants plus interior bumps with analytic derivatives."""
    s0 = cfg.sigma_inf
    a_s, a_t = 0.05, 0.08

    def shape(x, y):
        # sin^2 vanishes with its gradient on the rectangle boundary
        sx = np.sin(np.pi * (x + 2.0) / 4.0) ** 2
        sy = np.sin(np.pi * y) ** 2
        return sx * sy

    def d_shape(x, y):
        sx = np.sin(np.pi * (x + 2.0) / 4.0) ** 2
        sy = np.sin(np.pi * y) ** 2
        dsx = 2 * np.sin(np.pi * (x + 2) / 4) * np.cos(
            np.pi * (x + 2) / 4) * np.pi / 4
        dsy = 2 * np.sin(np.pi * y) * np.cos(np.pi * y) * np.pi
        return dsx * sy, sx * dsy

    def lap_shape(x, y):
        sx = np.sin(np.pi * (x + 2.0) / 4.0) ** 2
        sy = np.sin(np.pi * y) ** 2
        d2sx = (np.pi / 4) ** 2 * 2 * np.cos(np.pi * (x + 2) / 2)
        d2sy = np.pi ** 2 * 2 * np.cos(2 * np.pi * y)
        return d2sx * sy + sx * d2sy

    sigma_ex = lambda x, y: s0 + a_s * shape(x, y)
    theta_ex = lambda x, y: a_t * shape(x, y)
    return sigma_ex, theta_ex, a_s, a_t, shape, d_shape, lap_shape


def _manufactured_sources(mesh, cfg, eps):
    """Move the residual of the exact fields into volume sources."""
    sigma_ex, theta_ex, a_s, a_t, shape, d_shape, lap_shape = \
        _manufactured_fields(cfg)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    dshx, dshy = d_shape(x, y)
    sig = sigma_ex(x, y)
    th = theta_ex(x, y)
    sig_x, sig_y = a_s * dshx, a_s * dshy
    th_x, th_y = a_t * dshx, a_t * dshy
    lap_sig = a_s * lap_shape(x, y)
    lap_th = a_t * lap_shape(x, y)
    rho = np.asarray(gc.rho_of_sigma(sig))
    q = np.sqrt(1 - rho * rho)
    # div(rho q e(theta)) with d(rho q)/d sigma = (1 - rho^2)/q
    drhoq = (1 - rho * rho) / q
    divF = drhoq * (sig_x * np.cos(th) + sig_y * np.sin(th)) \
        + rho * q * (th_y * np.cos(th) - th_x * np.sin(th))
    # div(q e(theta - pi/2)) with dq/dsigma = -rho(1-rho^2)/(q(1-2rho^2))
    dq = -rho * (1 - rho * rho) / (q * (1 - 2 * rho * rho))
    divG = dq * (sig_x * np.sin(th) - sig_y * np.cos(th)) \
        + q * (th_x * np.cos(th) + th_y * np.sin(th))
    s_sigma = lap_sig - divF / eps
    s_theta = lap_th - divG / eps
    return (sigma_ex(x, y), theta_ex(x, y)), (s_sigma, s_theta)


def _mass_matrix(mesh):
    """Consistent P1 mass matrix, |T| (1 + delta_ij) / 12 on each cell."""
    tris, a = mesh.triangles, mesh.areas
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            vals.append(a / 12.0 * (2.0 if i == j else 1.0))
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_vertices,) * 2).tocsr()
    ones = np.ones(mesh.n_vertices)
    assert ones @ (M @ ones) == pytest.approx(mesh.areas.sum(), rel=1e-13)
    return M


class _SourcedSolver(sv.PicardSolver):
    """PicardSolver for lap(u) = (1/eps) div(flux) + s: its loads subtract
    the consistent-mass load M s of the volume sources s = (s_sigma,
    s_theta)."""

    def __init__(self, mesh, config, sources):
        super().__init__(mesh, config)
        M = _mass_matrix(mesh)
        self.source_loads = np.stack([M @ np.asarray(s) for s in sources])

    def rhs(self, sigma, theta, eps):
        loads, jacobian = super().rhs(sigma, theta, eps)
        loads -= self.source_loads
        return loads, jacobian


@pytest.mark.parametrize("eps", [0.1])
def test_manufactured_convergence_order(eps):
    cfg = sv.SolverConfig(epsilons=(eps,), picard_tol=1e-11,
                          residual_tol=1e-10)
    errors = []
    for h in (1 / 16, 1 / 32):
        mesh = mh.build_mesh(mh.DomainSpec(bump_height=0.0, h_mesh=h))
        exact, sources = _manufactured_sources(mesh, cfg, eps)
        sol = _SourcedSolver(mesh, cfg, sources).solve_epsilon(eps)
        err = math.sqrt(mesh.l2_norm(sol.sigma - exact[0]) ** 2
                        + mesh.l2_norm(sol.theta - exact[1]) ** 2)
        errors.append(err)
    order = math.log2(errors[0] / errors[1])
    assert order >= 1.8, (errors, order)


@pytest.fixture(scope="module")
def obstacle_solution():
    mesh = mh.build_mesh(mh.DomainSpec())
    cfg = sv.SolverConfig(epsilons=(0.2,))
    sol = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    return mesh, cfg, sol


def test_obstacle_convergence(obstacle_solution):
    mesh, cfg, sol = obstacle_solution
    assert sol.residual_history[-1] < cfg.residual_tol
    # monotone residual tail
    tail = sol.residual_history[-10:]
    assert all(b <= a * 1.001 for a, b in zip(tail, tail[1:]))


def test_invariant_region(obstacle_solution):
    mesh, cfg, sol = obstacle_solution
    assert sol.q.min() >= cfg.q_inf - cfg.tol_inv
    assert np.abs(sol.theta).max() <= cfg.k_inf + cfg.tol_inv
    assert sol.rho.min() > 0.0


def test_riemann_extreme_principle(obstacle_solution):
    mesh, cfg, sol = obstacle_solution
    # boundary values of the invariants are +/- k(q_inf)
    assert sol.W_plus.max() <= cfg.k_inf + cfg.tol_inv
    assert sol.W_minus.min() >= -cfg.k_inf - cfg.tol_inv


def test_clipped_speed_consistency(obstacle_solution):
    # at convergence the clipped speed |G| of the nodal fluxes equals the
    # Bernoulli speed
    mesh, cfg, sol = obstacle_solution
    G = sv.nodal_fluxes(sol.rho, sol.theta)[1]
    assert np.allclose(np.hypot(G[:, 0], G[:, 1]), sol.q, atol=1e-14)


def test_solution_determinism():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    a = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    b = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.theta, b.theta)


def test_nonconvergence_reports_history():
    # max_iters is a budget of two-column solves: Picard-map evaluations
    # and Krylov steps together
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.05,), max_iters=3)
    solver = sv.PicardSolver(mesh, cfg)
    calls = []
    solve = solver._solve
    solver._solve = lambda b: calls.append(1) or solve(b)
    with pytest.raises(sv.ConvergenceError) as exc:
        solver.solve_epsilon(0.05)
    assert len(calls) == 3
    history = exc.value.history
    # one update per iterate: the start and one per Newton step
    assert len(history["updates"]) == len(history["krylov_steps"]) + 1


def _free_blocks(solver):
    """Free nodes, K_ff and K_fd of the Laplacian with the Dirichlet
    rows and columns taken out: the elimination the solver replaces by
    identity rows."""
    K = solver.mesh.stiffness_matrix()
    free = np.flatnonzero(solver.keep)
    return free, K[free][:, free].tocsc(), K[free][:, solver.dirichlet]


def test_picard_step_matches_free_node_solve(monkeypatch):
    # g(x) - x = -K_D^-1 r equals the free-node solve with the far-field
    # values lifted into the load, K_ff^-1 (b_f - K_fd x_d) - x_f
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    solver = sv.PicardSolver(mesh, cfg)
    assert solver.K is mesh.stiffness_matrix()
    assert solver.dirichlet is mesh.dirichlet_nodes
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, mesh.n_vertices))
    x[0, solver.dirichlet] = cfg.sigma_inf
    x[1, solver.dirichlet] = 0.0
    b = rng.standard_normal((2, mesh.n_vertices))
    monkeypatch.setattr(solver, "rhs", lambda *args: (b.copy(), None))
    _, residual, _ = solver.residual_norms(x[0], x[1], 0.2)
    step = solver.picard_step(residual).reshape(2, -1)
    free, K_ff, K_fd = _free_blocks(solver)
    for got, x_k, b_k, scale in zip(step, x, b, solver.scale[:, 0]):
        ref = spla.spsolve(K_ff, b_k[free] - K_fd @ x_k[solver.dirichlet]) \
            - x_k[free]
        assert np.abs(got[free] - ref / scale).max() \
            <= 1e-12 * np.abs(ref / scale).max()
        assert np.all(got[solver.dirichlet] == 0.0)


def test_newton_operator_keeps_the_dirichlet_entries_zero():
    # (I - K_D^-1 J_b) v for v zero on the far field is zero there, and
    # on the free nodes it is v_f - K_ff^-1 (J_b v)_f
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    solver = sv.PicardSolver(mesh, cfg)
    x, y = mesh.vertices.T
    _, jacobian = solver.rhs(cfg.sigma_inf + 0.02 * np.sin(3.0 * x) * y,
                             0.1 * np.cos(2.0 * x) * y, 0.2)
    v = np.random.default_rng(5).standard_normal((2, mesh.n_vertices))
    v *= solver.keep
    w = solver._newton_operator(jacobian)(v.ravel()).reshape(2, -1)
    assert np.all(w[:, solver.dirichlet] == 0.0)
    free, K_ff, _ = _free_blocks(solver)
    load = jacobian(*(v * solver.scale))
    for got, v_k, load_k, scale in zip(w, v, load, solver.scale[:, 0]):
        ref = v_k[free] - spla.spsolve(K_ff, load_k[free]) / scale
        assert np.abs(got[free] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_stiffness_band_is_one_mesh_column_wide():
    # build_mesh numbers vertices column by column, ny + 1 per column, so
    # a node's farthest neighbour is ny + 2 vertices away, across the
    # diagonal of a cell.  K stores no zeros, the identity rows of K_D
    # add none, and on a flat mesh the coupling across the diagonal of a
    # rectangular cell is zero: there the band ends at the neighbour in
    # the next column, ny + 1 away
    for h in (1 / 16, 1 / 32):
        spec = mh.DomainSpec(h_mesh=h)
        ny = round(spec.height / h)
        mesh = mh.build_mesh(spec)
        solver = sv.PicardSolver(mesh, sv.SolverConfig())
        # the factor keeps the band's storage: one row per subdiagonal,
        # over all vertices
        assert solver.factor.shape == (ny + 3, mesh.n_vertices)
        flat = mh.build_mesh(mh.DomainSpec(bump_height=0.0, h_mesh=h))
        assert sv.PicardSolver(flat, sv.SolverConfig()).factor.shape[0] \
            == ny + 2


def test_banded_cholesky_rejects_matrix_not_positive_definite(monkeypatch):
    A = sp.diags([[-1.0] * 5, [2.0] * 6, [-1.0] * 5], [-1, 0, 1])
    band = sv._lower_band(A)
    assert band.flags.f_contiguous
    assert np.array_equal(band, [[2.0] * 6, [-1.0] * 5 + [0.0]])
    # the solver factors K_D through that band, and one that is not
    # positive definite is refused when it is built
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 4))
    K = mesh.stiffness_matrix()
    solver = sv.PicardSolver(mesh, sv.SolverConfig())
    free, K_ff, _ = _free_blocks(solver)
    assert np.allclose(K_ff @ solver._solve(solver.keep)[free], 1.0)
    monkeypatch.setattr(mesh, "stiffness_matrix", lambda: -K)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        sv.PicardSolver(mesh, sv.SolverConfig())
    # the identity rows of the far field come first; the first free row
    # is the 7th
    indefinite = K - 2.0 * K.diagonal().max() * sp.eye(mesh.n_vertices)
    monkeypatch.setattr(mesh, "stiffness_matrix", lambda: indefinite)
    with pytest.raises(np.linalg.LinAlgError, match="7-th leading minor"):
        sv.PicardSolver(mesh, sv.SolverConfig())


def test_one_rhs_evaluation_per_iteration(monkeypatch):
    calls = {"rhs": 0, "picard_step": 0}

    def counting(name):
        method = getattr(sv.PicardSolver, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(sv.PicardSolver, name, counting(name))
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2, 0.1))
    solutions = sv.sweep(cfg, mesh)
    # each iterate tried has its loads evaluated once, and turned into
    # g(x) - x once; Krylov steps evaluate neither
    assert calls["rhs"] == calls["picard_step"]
    assert calls["rhs"] >= sum(sol.iterations + 1 for sol in solutions)


@pytest.fixture(scope="module")
def coarse_sweep():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2, 0.1, 0.05))
    return mesh, cfg, sv.sweep(cfg, mesh)


def test_coarse_sweep_converges(coarse_sweep):
    mesh, cfg, solutions = coarse_sweep
    assert [s.epsilon for s in solutions] == list(cfg.epsilons)
    for sol in solutions:
        assert sol.update_history[-1] < cfg.picard_tol
        assert sol.residual_history[-1] < cfg.residual_tol


def test_iteration_count(coarse_sweep):
    # the sweep (0.2, 0.1) is the first two solves of the fixture's sweep:
    # 3 + 4 Newton steps and 21 + 39 Krylov steps when last measured
    mesh, cfg, solutions = coarse_sweep
    assert sum(sol.iterations for sol in solutions[:2]) <= 9
    assert sum(sol.krylov_steps for sol in solutions[:2]) <= 80


def test_fixed_point_matches_tight_reference(coarse_sweep):
    mesh, cfg, solutions = coarse_sweep
    tight = sv.SolverConfig(epsilons=cfg.epsilons, picard_tol=1e-12,
                            residual_tol=1e-11)
    for sol, ref in zip(solutions, sv.sweep(tight, mesh)):
        assert np.abs(sol.sigma - ref.sigma).max() <= 1e-7
        assert np.abs(sol.theta - ref.theta).max() <= 1e-7


def test_no_state_carried_between_solves():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.1,))
    solver = sv.PicardSolver(mesh, cfg)
    first = solver.solve_epsilon(0.1)
    solver.solve_epsilon(0.015)  # a harder solve in between
    again = solver.solve_epsilon(0.1)
    assert again.iterations == first.iterations
    assert np.array_equal(again.sigma, first.sigma)
    assert np.array_equal(again.theta, first.theta)


def test_newton_step_is_halved_into_the_invertible_range(monkeypatch):
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    solver = sv.PicardSolver(mesh, cfg)
    gmres = sv.gmres

    def overshooting(*args):
        delta, steps = gmres(*args)
        return 64.0 * delta, steps

    monkeypatch.setattr(sv, "gmres", overshooting)
    checked, evaluated = [], []
    in_range, rhs = solver._in_range, solver.rhs
    monkeypatch.setattr(solver, "_in_range",
                        lambda s: checked.append(in_range(s)) or checked[-1])
    monkeypatch.setattr(solver, "rhs",
                        lambda s, *args: evaluated.append(s) or rhs(s, *args))
    sol = solver.solve_epsilon(0.2)
    assert sol.residual_history[-1] < cfg.residual_tol
    assert not all(checked)  # some steps left the range and were halved
    assert all(in_range(s) for s in evaluated)


def test_blind_spot_converges():
    # down to eps = 0.00625, h/eps = 5 (6 + 5 + 6 Newton steps and
    # 152 + 182 + 361 Krylov steps when last measured)
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 32))
    cfg = sv.SolverConfig(epsilons=(0.025, 0.0125, 0.00625))
    solutions = sv.sweep(cfg, mesh)
    for sol in solutions:
        assert sol.update_history[-1] < cfg.picard_tol
        assert sol.residual_history[-1] < cfg.residual_tol
    assert sum(sol.iterations for sol in solutions) <= 21
    assert sum(sol.krylov_steps for sol in solutions) <= 900


@pytest.mark.parametrize("state", ["cold", "converged"])
def test_load_jacobian_matches_central_differences(state):
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    solver = sv.PicardSolver(mesh, cfg)
    if state == "cold":
        sigma = np.full(mesh.n_vertices, cfg.sigma_inf)
        theta = np.zeros(mesh.n_vertices)
    else:
        sol = solver.solve_epsilon(0.2)
        sigma, theta = sol.sigma, sol.theta
    x, y = mesh.vertices.T
    # smooth, and nonzero on the obstacle, so the wall term is exercised
    d_sig = 0.05 * (1.5 + np.cos(2.0 * x)) * (1.0 + y)
    d_the = 0.05 * (1.5 + np.sin(3.0 * x + 1.0)) * (1.0 + y)
    assert np.all(d_sig[mesh.boundary_nodes(mh.OBSTACLE)] > 0.0)
    _, jacobian = solver.rhs(sigma, theta, 0.2)
    step = 1e-5
    central = (solver.rhs(sigma + step * d_sig, theta + step * d_the, 0.2)[0]
               - solver.rhs(sigma - step * d_sig, theta - step * d_the,
                            0.2)[0]) / (2.0 * step)
    err = np.abs(jacobian(d_sig, d_the) - central).max()
    assert err <= 1e-6 * np.abs(central).max()


def test_gmres_matches_dense_solve():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 8)) + 6.0 * np.eye(8)  # nonsymmetric
    b = rng.standard_normal(8)
    x, steps = sv.gmres(lambda v: A @ v, b, 1e-13, np.empty((9, 8)))
    assert steps <= 8
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-11


def test_gmres_basis_grows_only_as_needed():
    # a diagonal matrix with 5 distinct eigenvalues has a Krylov space of
    # dimension 5: the solve stops after 5 steps and writes 5 basis rows
    n = 40
    diag = np.repeat([1.0, 2.0, 3.0, 5.0, 8.0], n // 5)
    b = np.random.default_rng(2).standard_normal(n)
    basis = np.full((n + 1, n), np.nan)
    x, steps = sv.gmres(lambda v: diag * v, b, 1e-10, basis)
    assert steps == 5
    assert np.abs(diag * x - b).max() <= 1e-9
    assert not np.isnan(basis[:5]).any() and np.isnan(basis[5:]).all()
    # capped at 2 steps, it returns the least-squares solution in the
    # Krylov space span(b, A b)
    x2, steps = sv.gmres(lambda v: diag * v, b, 1e-10, np.empty((3, n)))
    K = np.column_stack([b, diag * b])
    coef = np.linalg.lstsq(diag[:, None] * K, b, rcond=None)[0]
    assert steps == 2
    assert np.abs(x2 - K @ coef).max() <= 1e-10 * np.abs(x2).max()
