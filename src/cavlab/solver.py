"""Viscous approximate solutions by safeguarded Anderson-accelerated Picard
iteration.

For each viscosity eps the mixed Dirichlet-Neumann system is solved in
the potential form

    lap(sigma) = (1/eps) div(rho(sigma) qt(sigma) e(theta)) + s_sigma,
    lap(theta) = (1/eps) div(qt(sigma) e(theta - pi/2)) + s_theta,

with (sigma, theta) = (sigma_inf, 0) on the far-field boundary and, on
the obstacle,

    eps grad(sigma).n = |rho qt e(theta).n|,   grad(theta).n = 0

(n pointing into the fluid).  sigma(rho) = 2 rho - atanh(rho) absorbs the
degenerate diffusion factor 1 - c^2/q^2, and the clipped speed
qt(rho) = (1 - rho_+^2)_+^(1/2) guards transients; at convergence it
coincides with the Bernoulli speed.  The P1 operators (stiffness,
divergence load, mass) belong to the mesh and are built once per mesh.

The Picard map g sends the current iterate to the solution of both
Poisson problems with its loads, as one two-column solve against one
prefactored stiffness matrix.  Its contraction factor degrades roughly
like 1/eps, so the iterates are mixed by type-II Anderson acceleration
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011) over the last
ANDERSON_DEPTH differences of the scaled iterates and residuals
g(x) - x, with mixing parameter beta.  Two safeguards act inside the
one loop: an attempt whose residual envelope grows is restarted from the
warm start with an empty history and halved beta, and a candidate that
leaves the invertible sigma range is replaced by a damped Picard step
(halved until it fits, projected as a last resort, projections counted
and zero at convergence) and the history is cleared.  The nonlinear
right-hand side is evaluated once per iteration: the load vectors
`residual_norms` computes for the new iterate are passed on as the next
step's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import gaschart as gc
from .meshing import FARFIELD, Mesh

RHO_GUARD = gc.RHO_CR - 1e-6
# number of (iterate, residual) differences Anderson mixing keeps
ANDERSON_DEPTH = 8


class ConvergenceError(RuntimeError):
    """Picard iteration failed; carries the iteration history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class SolverConfig:
    epsilons: tuple = (0.2, 0.1, 0.05, 0.025, 0.0125)
    q_inf: float = 0.9
    omega: float = 0.5
    picard_tol: float = 1e-8
    residual_tol: float = 1e-7
    # iteration budget per viscosity, over all attempts
    max_iters: int = 8000
    tol_inv_factor: float = 1e-3

    def __post_init__(self):
        if not gc.Q_CR < self.q_inf < gc.Q_CAV:
            raise ValueError("far-field speed must be strictly supersonic "
                             "and strictly below cavitation")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        eps = tuple(self.epsilons)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon list must be strictly decreasing")

    @property
    def rho_inf(self) -> float:
        return gc.rho_of_q(self.q_inf)

    @property
    def sigma_inf(self) -> float:
        return gc.sigma_of_rho(self.rho_inf)

    @property
    def k_inf(self) -> float:
        return gc.k_of_q(self.q_inf)

    @property
    def tol_inv(self) -> float:
        return self.tol_inv_factor * self.k_inf


@dataclass
class Solution:
    """Converged nodal fields for one viscosity, plus derived states."""

    epsilon: float
    sigma: np.ndarray
    theta: np.ndarray
    iterations: int
    update_history: list
    residual_history: list
    omega_final: float
    projection_count: int
    config: SolverConfig

    @property
    def rho(self) -> np.ndarray:
        return np.asarray(gc.rho_of_sigma(np.clip(self.sigma, 0.0,
                                                  gc.SIGMA_CR)))

    @property
    def q(self) -> np.ndarray:
        rho = self.rho
        return np.sqrt(1.0 - rho * rho)

    @property
    def W_minus(self) -> np.ndarray:
        return self.theta - np.asarray(gc.k_of_q(self.q))

    @property
    def W_plus(self) -> np.ndarray:
        return self.theta + np.asarray(gc.k_of_q(self.q))

    @property
    def nu(self) -> np.ndarray:
        return np.asarray(gc.nu_of_rho(self.rho))


def clipped_speed(rho):
    """qt(rho) = (1 - rho_+^2)_+^(1/2)."""
    rp = np.clip(np.asarray(rho, dtype=float), 0.0, None)
    return np.sqrt(np.clip(1.0 - rp * rp, 0.0, None))


def mass_flux(rho, theta):
    """F = rho qt e(theta) at nodes."""
    q = clipped_speed(rho)
    return np.stack([rho * q * np.cos(theta), rho * q * np.sin(theta)],
                    axis=1)


def circulation_flux(rho, theta):
    """G = qt e(theta - pi/2) at nodes."""
    q = clipped_speed(rho)
    return np.stack([q * np.sin(theta), -q * np.cos(theta)], axis=1)


class AndersonHistory:
    """The last ANDERSON_DEPTH differences of iterates and of residuals,
    kept in preallocated ring buffers (one column per difference)."""

    def __init__(self, size: int):
        self.dx = np.empty((size, ANDERSON_DEPTH), order="F")
        self.df = np.empty((size, ANDERSON_DEPTH), order="F")
        self.x_prev = np.empty(size)
        self.f_prev = np.empty(size)
        self.clear()

    def clear(self):
        self.count = 0    # stored columns
        self.next = 0     # column the next difference overwrites
        self.has_prev = False

    def mix(self, x, f, beta):
        """Type-II Anderson candidate x + beta f - (dX + beta dF) gamma,
        gamma minimising |f - dF gamma|_2, for the residual f = g(x) - x;
        records the differences to the previous (x, f) first."""
        if self.has_prev:
            col = self.next
            np.subtract(x, self.x_prev, out=self.dx[:, col])
            np.subtract(f, self.f_prev, out=self.df[:, col])
            self.next = (col + 1) % ANDERSON_DEPTH
            self.count = min(self.count + 1, ANDERSON_DEPTH)
        self.x_prev[:] = x
        self.f_prev[:] = f
        self.has_prev = True
        cand = x + beta * f
        if self.count:
            dx, df = self.dx[:, :self.count], self.df[:, :self.count]
            gamma = np.linalg.lstsq(df, f, rcond=None)[0]
            cand -= dx @ gamma + beta * (df @ gamma)
        return cand


class PicardSolver:
    """Both Poisson problems of a step in one solve against one
    prefactored Laplacian."""

    def __init__(self, mesh: Mesh, config: SolverConfig):
        self.mesh = mesh
        self.config = config
        self.dirichlet = mesh.boundary_nodes(FARFIELD)
        self.free = np.setdiff1d(np.arange(mesh.n_vertices), self.dirichlet)
        K = mesh.stiffness_matrix()
        self.K = K
        K_free = K[self.free]
        # K is symmetric: order on the pattern of K + K^T, which keeps the
        # factor about a third smaller than the default COLAMD ordering
        self.lu = spla.splu(K_free[:, self.free].tocsc(),
                            permc_spec="MMD_AT_PLUS_A")
        # per-step constants: far-field sigma, its lift into the free
        # rows (theta is 0 on the far field), the sigma guard, and the
        # scales of sigma and theta in update norms and Anderson mixing
        self.sigma_inf = config.sigma_inf
        self.sigma_hi = gc.sigma_of_rho(RHO_GUARD)
        n_free = len(self.free)
        self.scale = np.repeat([max(abs(self.sigma_inf), 0.1),
                                max(config.k_inf, 0.1)], n_free)
        sigma_d = np.full(len(self.dirichlet), self.sigma_inf)
        self.lift = np.column_stack([K_free[:, self.dirichlet] @ sigma_d,
                                     np.zeros(len(self.free))])

    def rhs(self, sigma, theta, eps, source_sigma=None, source_theta=None):
        """Load vectors of both Poisson problems for the current iterate."""
        mesh = self.mesh
        rho = np.asarray(gc.rho_of_sigma(np.clip(sigma, 0.0, gc.SIGMA_CR)))
        F = mass_flux(rho, theta)
        G = circulation_flux(rho, theta)
        b_sig = mesh.divergence_rhs(F)
        b_the = mesh.divergence_rhs(G)
        Fn = mesh.obstacle_normal_flux(F)
        sink = np.abs(Fn) - Fn  # inflow defect, vanishes where F.n >= 0
        b_sig -= mesh.obstacle_scatter @ sink
        b_the += mesh.obstacle_scatter @ mesh.obstacle_normal_flux(G)
        b_sig /= eps
        b_the /= eps
        if source_sigma is not None:
            b_sig -= mesh.mass_matrix() @ np.asarray(source_sigma)
        if source_theta is not None:
            b_the -= mesh.mass_matrix() @ np.asarray(source_theta)
        return b_sig, b_the

    def _solve_pair(self, b_sig, b_the):
        """Free-node values of both Poisson problems, in one solve."""
        rhs_f = np.column_stack([b_sig[self.free], b_the[self.free]]) \
            - self.lift
        out = self.lu.solve(rhs_f)
        return out[:, 0], out[:, 1]

    def residual_norms(self, sigma, theta, eps, source_sigma=None,
                       source_theta=None):
        """Nonlinear weak residuals of the current fields (free nodes).

        Returns ((r_sigma, r_theta), (b_sigma, b_theta)): the relative
        residual norms and the load vectors they were computed from,
        which are the right-hand side of the next Picard step.
        """
        b_sig, b_the = self.rhs(sigma, theta, eps, source_sigma, source_theta)
        r1 = (self.K @ sigma - b_sig)[self.free]
        r2 = (self.K @ theta - b_the)[self.free]
        s1 = max(float(np.linalg.norm(b_sig[self.free])), 1.0)
        s2 = max(float(np.linalg.norm(b_the[self.free])), 1.0)
        return ((float(np.linalg.norm(r1)) / s1,
                 float(np.linalg.norm(r2)) / s2), (b_sig, b_the))

    def picard_step(self, sigma, theta, b_sig, b_the, beta, history):
        """One accelerated step from the load vectors (b_sig, b_the) of
        (sigma, theta).

        g(x), the undamped Picard map, is one two-column solve; the
        candidate is `history.mix` of the scaled free-node values.  A
        candidate outside the invertible sigma range is replaced by the
        damped step x + w (g(x) - x), w halved from beta until it fits,
        and the history is cleared.  Returns (sigma, theta, update, w,
        projections): update is the scaled full-step norm |g(x) - x|_inf
        and w the damping of a fallback step (beta otherwise).
        """
        free, n_free = self.free, len(self.free)
        g = np.concatenate(self._solve_pair(b_sig, b_the)) / self.scale
        x = np.concatenate([sigma[free], theta[free]]) / self.scale
        f = g - x
        update = float(np.abs(f).max())
        cand = history.mix(x, f, beta) * self.scale
        cand_s = sigma.copy()
        cand_s[free] = cand[:n_free]
        w, projections = beta, 0
        if not self._in_range(cand_s):
            history.clear()
            for _ in range(6):
                cand = (x + w * f) * self.scale
                cand_s[free] = cand[:n_free]
                if self._in_range(cand_s):
                    break
                w *= 0.5  # step leaves the invertible range: damp
            else:
                projections = int(np.sum((cand_s < 0)
                                         | (cand_s > self.sigma_hi)))
                cand_s = np.clip(cand_s, 0.0, self.sigma_hi)
        cand_t = theta.copy()
        cand_t[free] = cand[n_free:]
        return cand_s, cand_t, update, w, projections

    def _in_range(self, sigma):
        return bool(np.all((sigma >= -1e-12) & (sigma <= self.sigma_hi)))

    def solve_epsilon(self, eps: float, warm_start=None,
                      source_sigma=None, source_theta=None) -> Solution:
        """Iterate to the fixed point at one viscosity.

        Each iteration is one `picard_step`: Anderson mixing of the
        undamped Picard map with mixing parameter beta, starting at
        `config.omega` for every viscosity.  The map loses contractivity
        as eps shrinks; an attempt whose residual envelope grows is
        aborted, the state reset to the warm start, the history cleared
        and beta halved (applied at attempt granularity so one bad step
        cannot destroy a good warm start).  Nothing carries over from one
        call to the next.  Converged means the scaled full-step update
        |g(x) - x|_inf is below `picard_tol` and the relative residual of
        the new iterate below `residual_tol`.
        """
        cfg = self.config
        n = self.mesh.n_vertices
        if warm_start is None:
            start_s = np.full(n, self.sigma_inf)
            start_t = np.zeros(n)
        else:
            start_s = warm_start[0].copy()
            start_t = warm_start[1].copy()
        start_s[self.dirichlet] = self.sigma_inf
        start_t[self.dirichlet] = 0.0
        beta = cfg.omega
        beta_min = cfg.omega / 1024.0
        history = AndersonHistory(2 * len(self.free))
        all_updates, all_residuals = [], []
        total_iters = 0
        while True:
            sigma, theta = start_s.copy(), start_t.copy()
            loads = self.rhs(sigma, theta, eps, source_sigma, source_theta)
            history.clear()
            updates, residuals = [], []
            projections = 0
            aborted = False
            while total_iters < cfg.max_iters:
                total_iters += 1
                sigma, theta, upd, w_used, proj = self.picard_step(
                    sigma, theta, *loads, beta, history)
                projections += proj
                res, loads = self.residual_norms(sigma, theta, eps,
                                                 source_sigma, source_theta)
                updates.append(upd)
                residuals.append(max(res))
                if upd < cfg.picard_tol and max(res) < cfg.residual_tol:
                    all_updates += updates
                    all_residuals += residuals
                    return Solution(eps, sigma, theta, total_iters,
                                    all_updates, all_residuals, w_used,
                                    projections, cfg)
                if len(residuals) >= 30 and len(residuals) % 10 == 0:
                    envelope = min(residuals[-10:])
                    if not np.isfinite(envelope) \
                            or envelope > 2.0 * min(residuals):
                        aborted = True  # diverging: reject the attempt
                        break
            all_updates += updates
            all_residuals += residuals
            if not aborted or total_iters >= cfg.max_iters \
                    or beta <= beta_min:
                raise ConvergenceError(
                    f"no fixed point after {total_iters} iterations at "
                    f"eps={eps} (last update {all_updates[-1]:.3e}, "
                    f"residual {all_residuals[-1]:.3e}, beta {beta:.2e})",
                    {"updates": all_updates, "residuals": all_residuals})
            beta = max(beta * 0.5, beta_min)


def sweep(config: SolverConfig, mesh: Mesh) -> list:
    """Decreasing-viscosity sweep with warm starts."""
    solver = PicardSolver(mesh, config)
    solutions = []
    warm = None
    for eps in config.epsilons:
        sol = solver.solve_epsilon(eps, warm_start=warm)
        solutions.append(sol)
        warm = (sol.sigma, sol.theta)
    return solutions
