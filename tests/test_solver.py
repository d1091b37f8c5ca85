"""Picard solver: fixed points, manufactured convergence, invariant regions."""

import math

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        sv.SolverConfig(omega=1.5)


def test_constant_flow_exact_fixed_point():
    mesh = mh.build_mesh(mh.DomainSpec(bump_height=0.0, h_mesh=0.1))
    cfg = sv.SolverConfig(epsilons=(0.2,), max_iters=5)
    sol = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    assert sol.iterations == 1
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


@pytest.mark.parametrize("eps", [0.1])
def test_manufactured_convergence_order(eps):
    cfg = sv.SolverConfig(epsilons=(eps,), picard_tol=1e-11,
                          residual_tol=1e-10)
    errors = []
    for h in (1 / 16, 1 / 32):
        mesh = mh.build_mesh(mh.DomainSpec(bump_height=0.0, h_mesh=h))
        exact, sources = _manufactured_sources(mesh, cfg, eps)
        solver = sv.PicardSolver(mesh, cfg)
        sol = solver.solve_epsilon(eps, source_sigma=sources[0],
                                   source_theta=sources[1])
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
    assert sol.projection_count == 0


def test_riemann_extreme_principle(obstacle_solution):
    mesh, cfg, sol = obstacle_solution
    # boundary values of the invariants are +/- k(q_inf)
    assert sol.W_plus.max() <= cfg.k_inf + cfg.tol_inv
    assert sol.W_minus.min() >= -cfg.k_inf - cfg.tol_inv


def test_clipped_speed_consistency(obstacle_solution):
    # at convergence the clipped speed equals the Bernoulli speed
    mesh, cfg, sol = obstacle_solution
    assert np.allclose(sv.clipped_speed(sol.rho), sol.q, atol=1e-14)


def test_solution_determinism():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    a = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    b = sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.theta, b.theta)


def test_nonconvergence_reports_history():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.05,), max_iters=3)
    with pytest.raises(sv.ConvergenceError) as exc:
        sv.PicardSolver(mesh, cfg).solve_epsilon(0.05)
    assert "updates" in exc.value.history
    assert len(exc.value.history["updates"]) == 3


def test_solve_pair_matches_single_solves():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    solver = sv.PicardSolver(mesh, cfg)
    assert solver.K is mesh.stiffness_matrix()
    b_sig, b_the = np.random.default_rng(3).standard_normal(
        (2, mesh.n_vertices))
    K_fd = mesh.stiffness_matrix()[solver.free][:, solver.dirichlet]
    n_d = len(solver.dirichlet)
    K_ff = mesh.stiffness_matrix()[solver.free][:, solver.free]
    pair = solver._solve_pair(b_sig, b_the)
    for got, b, bdry in zip(pair, (b_sig, b_the),
                            (np.full(n_d, cfg.sigma_inf), np.zeros(n_d))):
        rhs = b[solver.free] - K_fd @ bdry
        ref = solver.chol.solve(rhs)  # one column through the same factor
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(K_ff @ got - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_stiffness_band_is_one_mesh_column_wide():
    # build_mesh numbers vertices column by column, ny + 1 per column;
    # without the far-field rows a free node's farthest neighbour is ny
    # free nodes away, or ny + 1 where the column's bottom node lies on
    # the obstacle
    for h in (1 / 16, 1 / 32):
        spec = mh.DomainSpec(h_mesh=h)
        ny = round(spec.height / h)
        solver = sv.PicardSolver(mh.build_mesh(spec), sv.SolverConfig())
        assert solver.chol.bandwidth == ny + 1
        flat = mh.build_mesh(mh.DomainSpec(bump_height=0.0, h_mesh=h))
        assert sv.PicardSolver(flat, sv.SolverConfig()).chol.bandwidth == ny


def test_banded_cholesky_rejects_matrix_not_positive_definite():
    import scipy.sparse as sp
    A = sp.diags([[-1.0] * 5, [2.0] * 6, [-1.0] * 5], [-1, 0, 1])
    assert np.allclose(A @ sv.BandedCholesky(A).solve(np.ones(6)), 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        sv.BandedCholesky(-A)
    indefinite = A - 3.0 * sp.eye(6)
    with pytest.raises(np.linalg.LinAlgError, match="leading minor 1"):
        sv.BandedCholesky(indefinite)


def test_one_rhs_evaluation_per_iteration(monkeypatch):
    calls = []
    rhs = sv.PicardSolver.rhs

    def counting_rhs(self, *args, **kwargs):
        calls.append(1)
        return rhs(self, *args, **kwargs)

    monkeypatch.setattr(sv.PicardSolver, "rhs", counting_rhs)
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2, 0.1))
    solutions = sv.sweep(cfg, mesh)
    iterations = sum(sol.iterations for sol in solutions)
    # one evaluation per iteration plus one per attempt; an attempt is
    # aborted no earlier than its 30th iteration
    attempts_max = len(cfg.epsilons) + iterations // 30
    assert len(calls) <= iterations + attempts_max


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
        assert sol.projection_count == 0


def test_iteration_count(coarse_sweep):
    # the sweep (0.2, 0.1) is the first two solves of the fixture's sweep
    mesh, cfg, solutions = coarse_sweep
    assert sum(sol.iterations for sol in solutions[:2]) <= 150


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
    harder = solver.solve_epsilon(0.015)
    assert harder.omega_final < cfg.omega  # the harder solve halved beta
    again = solver.solve_epsilon(0.1)
    assert again.iterations == first.iterations
    assert np.array_equal(again.sigma, first.sigma)
    assert np.array_equal(again.theta, first.theta)


class _OutOfRangeHistory:
    """Anderson history whose candidates leave the invertible range."""

    def __init__(self):
        self.cleared = 0

    def mix(self, x, f, beta):
        return x + 1e3

    def clear(self):
        self.cleared += 1


def test_out_of_range_candidate_falls_back_to_damped_step():
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 16))
    cfg = sv.SolverConfig(epsilons=(0.2,))
    solver = sv.PicardSolver(mesh, cfg)
    sigma = np.full(mesh.n_vertices, cfg.sigma_inf)
    theta = np.zeros(mesh.n_vertices)
    loads = solver.rhs(sigma, theta, 0.2)
    history = _OutOfRangeHistory()
    new_s, new_t, _, w, proj = solver.picard_step(
        sigma, theta, *loads, cfg.omega, history)
    assert history.cleared == 1
    assert (w, proj) == (cfg.omega, 0)
    sig_f, the_f = solver._solve_pair(*loads)
    free = solver.free
    assert np.allclose(new_s[free], sigma[free] + w * (sig_f - sigma[free]),
                       rtol=0, atol=1e-14)
    assert np.allclose(new_t[free], w * the_f, rtol=0, atol=1e-14)
    assert np.array_equal(new_s[solver.dirichlet],
                          sigma[solver.dirichlet])


def test_blind_spot_converges():
    # at eps = 0.00625 the residual stalls near 1, where the envelope
    # test cannot fire; the stagnation abort must catch it
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 32))
    cfg = sv.SolverConfig(epsilons=(0.025, 0.0125, 0.00625))
    solutions = sv.sweep(cfg, mesh)
    for sol in solutions:
        assert sol.update_history[-1] < cfg.picard_tol
        assert sol.residual_history[-1] < cfg.residual_tol
        assert sol.projection_count == 0
    assert sum(sol.iterations for sol in solutions) <= 2000


def _mix_sequence(history, rng, n, steps, beta=0.5):
    """Feed random (x, f) pairs to `history`; yield after each mix."""
    for _ in range(steps):
        x, f = rng.standard_normal((2, n))
        yield x, f, history.mix(x, f, beta)


# one block of float64 rows, and several with a partial last block
HISTORY_SIZES = (300, 2 * sv._MIX_BLOCK + 300)


def test_anderson_gram_matrix_tracks_ring():
    for n in HISTORY_SIZES:
        history = sv.AndersonHistory(n)
        rng = np.random.default_rng(11)
        for _ in _mix_sequence(history, rng, n, 2 * sv.ANDERSON_DEPTH + 3):
            c = history.count
            if not c:
                continue  # the first mix has no difference to record
            df = history.df[:, :c].astype(np.float64)  # the stored columns
            ref = df.T @ df
            assert np.abs(history.gram[:c, :c] - ref).max() \
                <= 1e-12 * np.abs(ref).max()
        assert history.count == sv.ANDERSON_DEPTH  # the ring has wrapped


def test_anderson_history_is_float32_in_the_bytes_of_depth_8_float64():
    size = 300
    history = sv.AndersonHistory(size)
    assert sv.ANDERSON_DEPTH == 16
    assert history.dx.dtype == history.df.dtype == np.float32
    assert history.dx.nbytes + history.df.nbytes == 2 * 8 * 8 * size


def test_anderson_candidate_matches_block_lstsq():
    beta = 0.5
    for n in HISTORY_SIZES:
        history = sv.AndersonHistory(n)
        rng = np.random.default_rng(5)
        for x, f, cand in _mix_sequence(history, rng, n,
                                        2 * sv.ANDERSON_DEPTH + 3, beta):
            c = history.count
            ref = x + beta * f
            if c:
                dx = history.dx[:, :c].astype(np.float64)
                df = history.df[:, :c].astype(np.float64)
                gamma = np.linalg.lstsq(df, f, rcond=None)[0]
                ref -= dx @ gamma + beta * (df @ gamma)
            assert np.abs(cand - ref).max() <= 1e-10 * np.abs(ref).max()


class _ScriptedSolver:
    """Stub steps and residuals for `solve_epsilon`: iterate k carries k
    in sigma[free[0]], its loads carry k too, and its residual is
    script(k) (k = 0 is the warm start)."""

    def __init__(self, solver, script, converge_at):
        self.script, self.converge_at = script, converge_at
        self.steps = []   # (iterate id, loads id, beta) per step
        self.slot = solver.free[0]

    def picard_step(self, sigma, theta, b_sig, b_the, beta, history):
        k = len(self.steps) + 1
        self.steps.append((int(sigma[self.slot]), int(b_sig[0]), beta))
        new_s = sigma.copy()
        new_s[self.slot] = k
        update = 0.0 if k == self.converge_at else 1.0
        return new_s, theta.copy(), update, beta, 0

    def residual_norms(self, sigma, theta, eps, *sources):
        k = int(sigma[self.slot])
        r = 0.0 if k == self.converge_at else self.script(k)
        loads = np.full(len(sigma), float(k))
        return (r, 0.0), (loads, loads)


@pytest.mark.parametrize("script, abort_at, best", [
    # envelope abort: least residual at step 5, then growth
    (lambda k: 1.0 if k == 0 else (0.5 ** k if k <= 5 else 0.9), 30, 5),
    # stagnation abort: least residual 0.5 at step 8, then saturated near
    # 1 so the envelope (0.98 < 2 x 0.5) never fires
    (lambda k: 1.0 if k == 0 else (0.9 - 0.05 * k if k < 8 else
                                   0.5 if k == 8 else 0.98), 40, 8),
], ids=["envelope", "stagnation"])
def test_aborted_attempt_restarts_from_least_residual_iterate(
        monkeypatch, script, abort_at, best):
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 8))
    cfg = sv.SolverConfig(epsilons=(0.1,))
    solver = sv.PicardSolver(mesh, cfg)
    stub = _ScriptedSolver(solver, script, converge_at=abort_at + 1)
    monkeypatch.setattr(solver, "picard_step", stub.picard_step)
    monkeypatch.setattr(solver, "residual_norms", stub.residual_norms)
    warm = (np.full(mesh.n_vertices, cfg.sigma_inf),
            np.zeros(mesh.n_vertices))
    warm[0][stub.slot] = 0.0  # the warm start is iterate 0
    sol = solver.solve_epsilon(0.1, warm_start=warm)
    assert sol.iterations == abort_at + 1
    # the first attempt runs at omega from the warm start ...
    assert stub.steps[0] == (0, 0, cfg.omega)
    assert all(beta == cfg.omega for _, _, beta in stub.steps[:abort_at])
    # ... the restart takes the least-residual iterate with its loads
    assert stub.steps[abort_at] == (best, best, cfg.omega / 2)
    assert sol.omega_final == cfg.omega / 2
