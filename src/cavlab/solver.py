"""Viscous approximate solutions by Newton-Krylov iteration on the Picard
map.

For each viscosity eps the mixed Dirichlet-Neumann system is solved in
the potential form

    lap(sigma) = (1/eps) div(rho(sigma) qt(sigma) e(theta)),
    lap(theta) = (1/eps) div(qt(sigma) e(theta - pi/2)),

with (sigma, theta) = (sigma_inf, 0) on the far-field boundary and, on
the obstacle,

    eps grad(sigma).n = |rho qt e(theta).n|,   grad(theta).n = 0

(n pointing into the fluid).  sigma(rho) = 2 rho - atanh(rho) absorbs the
degenerate diffusion factor 1 - c^2/q^2, and the clipped speed
qt(rho) = (1 - rho_+^2)_+^(1/2) guards transients; at convergence it
coincides with the Bernoulli speed.  The P1 operators (stiffness,
divergence load) belong to the mesh and are built once per mesh, and so
does the Dirichlet set: the far-field nodes of
`Mesh.dirichlet_nodes`, which the diagnostics' test functions vanish on.

The Picard map g sends the iterate x to the solution of both Poisson
problems with its loads b(x), as one two-column solve against one
prefactored matrix.  The unknowns are whole-mesh vectors.  K_D is the P1
Laplacian K with its Dirichlet rows and columns replaced by those of the
identity, so it is symmetric positive definite; with the residual
r = K x - b(x), zeroed on the Dirichlet nodes,

    g(x) - x = -K_D^-1 r,

which is zero on the Dirichlet nodes.  `build_mesh` numbers the vertices
column by column, ny + 1 to a column, so the nonzeros of K_D lie within
ny + 2 of the diagonal, a band over all vertices: it is factored once,
in place in its lower band storage, by scipy.linalg.cholesky_banded
(LAPACK dpbtrf), and every solve is one scipy.linalg.cho_solve_banded
(dpbtrs), so storage and solve cost are n times that narrow band.

The contraction factor of g degrades roughly like 1/eps, so g(x) - x = 0
is solved by inexact Newton iteration with g as its preconditioner
(Knoll & Keyes, J. Comput. Phys. 193, 2004).  Each Newton step solves

    (I - K_D^-1 J_b) delta = g(x) - x

by `gmres`, to the Eisenstat-Walker forcing term (choice 2 of SIAM J.
Sci. Comput. 17, 1996, at most ETA_MAX).  J_b, the Jacobian of the
loads, is applied matrix-free from the nodal fluxes F = rho qt e(theta)
and G = qt e(theta - pi/2) that `rhs` builds (`nodal_fluxes`), and one array
c = -rho / (1 - 2 rho^2), so sigma is not inverted again: with
d sigma / d rho = (1 - 2 rho^2) / (1 - rho^2),

    dF/dsigma = (-G_y, G_x),   dF/dtheta = (-F_y, F_x),
    dG/dsigma = c G,           dG/dtheta = (-G_y, G_x),

and the obstacle load S(F.n - |F.n|) = S((1 - sign F.n) F.n) of sigma
differentiates to S((1 - sign F.n) d(F.n)), so the loads and J_b are
one assembly.  One Krylov step is one J_b product, its Dirichlet rows
dropped, and one two-column solve, so every Krylov vector stays zero on
the Dirichlet nodes.  The step is halved while it leaves the invertible
sigma range, and then while |g(x) - x| does not decrease.  The unknowns
are the values of sigma and theta divided by their scales, so that both
fields weigh alike in every norm.  Each trial iterate costs one
evaluation of the loads (rho, qt and the trig factors once for both
fluxes) and one two-column solve for g(x) - x (`picard_step`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gaschart as gc
from .meshing import Mesh

RHO_GUARD = gc.RHO_CR - 1e-6
# Krylov steps one Newton system may take (rows of the GMRES basis - 1)
KRYLOV_MAX = 200
# largest Eisenstat-Walker forcing term
ETA_MAX = 0.1
# halvings of a Newton step before the solve gives up
MAX_HALVINGS = 12


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the iteration history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class SolverConfig:
    epsilons: tuple = (0.2, 0.1, 0.05, 0.025, 0.0125)
    q_inf: float = 0.9
    picard_tol: float = 1e-8
    residual_tol: float = 1e-7
    # budget of two-column solves per viscosity: one per evaluation of
    # the Picard map, one per Krylov step
    max_iters: int = 8000
    tol_inv_factor: float = 1e-3

    def __post_init__(self):
        if not gc.Q_CR < self.q_inf < gc.Q_CAV:
            raise ValueError("far-field speed must be strictly supersonic "
                             "and strictly below cavitation")
        eps = tuple(self.epsilons)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon list must be strictly decreasing")
        if not all(0.0 < e < np.inf for e in eps):
            raise ValueError("viscosities must be finite and positive")
        if not (0.0 < self.picard_tol < np.inf
                and 0.0 < self.residual_tol < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if not 0.0 <= self.tol_inv_factor < np.inf:
            raise ValueError("tol_inv_factor must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

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
    """Converged nodal fields for one viscosity, plus derived states;
    rho is inverted from sigma once, on first use.  `iterations` counts
    Newton steps and `krylov_steps` the GMRES steps of all of them."""

    epsilon: float
    sigma: np.ndarray
    theta: np.ndarray
    iterations: int
    krylov_steps: int
    update_history: list
    residual_history: list
    config: SolverConfig

    @cached_property
    def rho(self) -> np.ndarray:
        rho = np.asarray(gc.rho_of_sigma(np.clip(self.sigma, 0.0,
                                                 gc.SIGMA_CR)))
        rho.flags.writeable = False  # one array serves every caller
        return rho

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


def nodal_fluxes(rho, theta) -> np.ndarray:
    """F = rho qt e(theta) and G = qt e(theta - pi/2) at the nodes, with
    the clipped speed qt = (1 - rho_+^2)_+^(1/2): fluxes[k, j, d] is
    component d at node j of F (k = 0) and of G (k = 1).  rho qt and the
    trig factors are evaluated once for both."""
    rho = np.asarray(rho, dtype=float)
    rp = np.clip(rho, 0.0, None)
    q = np.sqrt(np.clip(1.0 - rp * rp, 0.0, None))
    cos, sin = np.cos(theta), np.sin(theta)
    rho_q = rho * q
    fluxes = np.empty((2, len(rho), 2))
    np.multiply(rho_q, cos, out=fluxes[0, :, 0])
    np.multiply(rho_q, sin, out=fluxes[0, :, 1])
    np.multiply(q, sin, out=fluxes[1, :, 0])
    np.multiply(q, cos, out=fluxes[1, :, 1])
    np.negative(fluxes[1, :, 1], out=fluxes[1, :, 1])
    return fluxes


def gmres(matvec, b, atol, basis):
    """x with |b - A x|_2 <= atol, A given by `matvec`, by GMRES from x = 0
    without restarts (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).

    The orthonormal Krylov basis is built in the rows of `basis`, one row
    per step and written only when its step is taken, so at most
    len(basis) - 1 steps are taken; at that cap the minimal-residual
    iterate in the basis is returned.  Returns (x, steps).
    """
    m = len(basis) - 1
    beta = float(np.linalg.norm(b))
    if beta <= atol or m < 1:
        return np.zeros_like(b), 0
    H = np.zeros((m + 1, m))  # Hessenberg matrix, reduced by rotations
    rot = np.zeros((m, 2))    # (cos, sin) of each Givens rotation
    g = np.zeros(m + 1)       # rotated right-hand side beta e_1
    g[0] = beta
    basis[0] = b / beta
    for k in range(m):
        w = matvec(basis[k])
        V = basis[:k + 1]
        for _ in range(2):  # classical Gram-Schmidt, repeated once
            h = V @ w
            w -= h @ V
            H[:k + 1, k] += h
        h_next = float(np.linalg.norm(w))
        for j, (c, s) in enumerate(rot[:k]):
            H[j, k], H[j + 1, k] = (c * H[j, k] + s * H[j + 1, k],
                                    c * H[j + 1, k] - s * H[j, k])
        r = np.hypot(H[k, k], h_next)
        rot[k] = c, s = H[k, k] / r, h_next / r
        H[k, k] = r
        g[k + 1] = -s * g[k]
        g[k] *= c
        if abs(g[k + 1]) <= atol or k + 1 == m or h_next == 0.0:
            break
        basis[k + 1] = w / h_next
    y = np.linalg.solve(H[:k + 1, :k + 1], g[:k + 1])
    return y @ basis[:k + 1], k + 1


def _lower_band(A) -> np.ndarray:
    """LAPACK's lower band storage of a sparse symmetric matrix, in
    Fortran order: row d holds the d-th subdiagonal, so its shape is
    (bandwidth + 1, n)."""
    A = A.tocoo()
    A.sum_duplicates()
    lower = A.row >= A.col
    cols = A.col[lower]
    offset = A.row[lower] - cols
    band = np.zeros((int(offset.max(initial=0)) + 1, A.shape[0]), order="F")
    band[offset, cols] = A.data[lower]
    return band


class PicardSolver:
    """Both Poisson problems of a step in one solve against K_D, on
    whole-mesh vectors: g(x) - x = -K_D^-1 r.

    The Dirichlet set is the 0/1 mask `keep`, and the Dirichlet rows and
    columns of K_D are those of the identity.  Its Cholesky factor is a
    band of ny + 3 rows over all n vertices (`factor`, LAPACK's lower
    band storage, factored in place by scipy.linalg.cholesky_banded), and
    each solve is one scipy.linalg.cho_solve_banded, O(ny n).
    """

    def __init__(self, mesh: Mesh, config: SolverConfig):
        self.mesh = mesh
        self.config = config
        self.dirichlet = mesh.dirichlet_nodes
        n = mesh.n_vertices
        self.keep = np.ones(n)
        self.keep[self.dirichlet] = 0.0
        self.K = mesh.stiffness_matrix()
        # imported here, so that importing the solver (as the config does)
        # loads numpy only: scipy loads at the first operator build
        import scipy.sparse as sp
        from scipy.linalg import cho_solve_banded, cholesky_banded
        keep = sp.diags(self.keep)
        K_D = keep @ self.K @ keep + sp.diags(1.0 - self.keep)
        self.factor = cholesky_banded(_lower_band(K_D), overwrite_ab=True,
                                      lower=True, check_finite=False)
        self._cho_solve_banded = cho_solve_banded
        # per-step constants: far-field sigma, the sigma guard, and the
        # scales of sigma and theta in the Newton unknowns
        self.sigma_inf = config.sigma_inf
        self.sigma_hi = gc.sigma_of_rho(RHO_GUARD)
        self.scale = np.array([[max(abs(self.sigma_inf), 0.1)],
                               [max(config.k_inf, 0.1)]])
        # the GMRES basis; a row's memory is touched only once it is used
        self.basis = np.empty((KRYLOV_MAX + 1, 2 * n))

    def rhs(self, sigma, theta, eps):
        """Load vectors of both Poisson problems for the current iterate,
        and their Jacobian J_b there.

        Returns (loads, jacobian): loads is the (2, n) array of rows
        (b_sigma, b_theta), and jacobian(dsigma, dtheta) applies J_b to
        nodal increments, giving a (2, n) array.  Both are `_loads`, of
        the fluxes F and G of one `nodal_fluxes` and of their derivatives,
        with one obstacle factor wall = 1 - sign F.n.
        """
        rho = np.asarray(gc.rho_of_sigma(np.clip(sigma, 0.0, gc.SIGMA_CR)))
        fluxes = nodal_fluxes(rho, theta)
        F, G = fluxes
        # sigma's obstacle load is minus the inflow defect |F.n| - F.n,
        # which vanishes where F.n >= 0: F.n - |F.n| = wall F.n exactly
        wall = 1.0 - np.sign(self.mesh.obstacle_normal_flux(F))
        q_e = np.column_stack([-G[:, 1], G[:, 0]])  # qt e(theta)
        f_theta = np.column_stack([-F[:, 1], F[:, 0]])
        g_sigma = (-rho / (1.0 - 2.0 * rho * rho))[:, None] * G

        def jacobian(dsigma, dtheta):
            ds, dt = dsigma[:, None], dtheta[:, None]
            return self._loads(np.stack([q_e * ds + f_theta * dt,
                                         g_sigma * ds + q_e * dt]),
                               wall, eps)
        return self._loads(fluxes, wall, eps), jacobian

    def _loads(self, fluxes, wall, eps):
        """(2, n) load rows of the nodal fluxes (F, G): the divergence
        loads of both, plus S(wall F.n) for sigma and S(G.n) for theta on
        the obstacle, all divided by eps."""
        mesh = self.mesh
        # one sparse product per flux: scipy's product with a two-column
        # block costs about 1.6 times as much as two single ones
        loads = np.stack([mesh.divergence_rhs(flux) for flux in fluxes])
        Fn, Gn = mesh.obstacle_normal_flux(fluxes)
        loads[0] += mesh.obstacle_scatter @ (wall * Fn)
        loads[1] += mesh.obstacle_scatter @ Gn
        loads /= eps
        return loads

    def _solve(self, b):
        """K_D^-1 b for a vector or for each column of an (n, k) array,
        through the band factor."""
        return self._cho_solve_banded((self.factor, True), b,
                                      check_finite=False)

    def residual_norms(self, sigma, theta, eps):
        """Nonlinear weak residuals of the current fields.

        Returns ((r_sigma, r_theta), residual, jacobian): the relative
        residual norms, the (2, n) residual rows K x - b(x), zero on the
        Dirichlet nodes, and the load Jacobian of `rhs`.
        """
        loads, jacobian = self.rhs(sigma, theta, eps)
        residual = np.stack([self.K @ sigma, self.K @ theta])
        residual -= loads
        residual *= self.keep
        loads *= self.keep
        norms = np.linalg.norm(residual, axis=1) \
            / np.maximum(np.linalg.norm(loads, axis=1), 1.0)
        return tuple(norms.tolist()), residual, jacobian

    def picard_step(self, residual):
        """g(x) - x = -K_D^-1 r for the residual rows r of an iterate
        (zero on the Dirichlet nodes): one two-column solve.  Sigma's
        values then theta's, divided by their scales."""
        return (self._solve(residual.T).T / -self.scale).ravel()

    def _newton_operator(self, jacobian):
        """v -> (I - K_D^-1 J_b) v on scaled increments v; the Dirichlet
        rows of J_b v are dropped, so a v that is zero on the Dirichlet
        nodes maps to one that is zero there."""
        scale = self.scale

        def matvec(v):
            w = jacobian(*(v.reshape(2, -1) * scale))
            w *= self.keep
            return v - (self._solve(w.T).T / scale).ravel()
        return matvec

    def _in_range(self, sigma):
        return bool(np.all((sigma >= -1e-12) & (sigma <= self.sigma_hi)))

    def solve_epsilon(self, eps: float, warm_start=None) -> Solution:
        """Newton-Krylov iteration to the fixed point at one viscosity.

        Converged means that at the current iterate the scaled update
        |g(x) - x|_inf is below `picard_tol` and the relative residual
        below `residual_tol`.  Until then, each Newton step solves
        (I - K_D^-1 J_b) delta = g(x) - x by `gmres` to |residual|_2 <=
        eta |g(x) - x|_2, where eta is 0.9 times the squared ratio of the
        last two norms |g - x|_2 (ETA_MAX at the first step), at most
        ETA_MAX, and no smaller than needed for a residual of half
        `picard_tol`.  The step x + delta is halved while it leaves the
        invertible sigma range, and then until |g - x|_2 falls by 1e-4
        of the step fraction at least.  After MAX_HALVINGS halvings, or
        once `config.max_iters` two-column solves (Picard-map evaluations
        and Krylov steps) are spent, `ConvergenceError` is raised.  The
        iteration starts from `warm_start`, or from the far-field state;
        nothing carries over from one call to the next.  The Solution
        counts the Newton steps (0 when the start is converged) and the
        Krylov steps of all of them.
        """
        cfg = self.config
        n = self.mesh.n_vertices
        if warm_start is None:
            sigma = np.full(n, self.sigma_inf)
            theta = np.zeros(n)
        else:
            sigma = warm_start[0].copy()
            theta = warm_start[1].copy()
        sigma[self.dirichlet] = self.sigma_inf
        theta[self.dirichlet] = 0.0
        updates, residuals, krylov = [], [], []
        solves = 0

        def evaluate(sigma, theta):
            nonlocal solves
            solves += 1
            res, residual, jacobian = self.residual_norms(sigma, theta, eps)
            return max(res), self.picard_step(residual), jacobian

        def failure(reason):
            return ConvergenceError(
                f"no fixed point at eps={eps} after {len(krylov)} Newton "
                f"steps and {solves} two-column solves: {reason} (last "
                f"update {updates[-1]:.3e}, residual {r:.3e})",
                {"updates": updates, "residuals": residuals,
                 "krylov_steps": krylov})

        r, f, jacobian = evaluate(sigma, theta)
        eta = ETA_MAX
        while True:
            update = float(np.abs(f).max())
            updates.append(update)
            residuals.append(r)
            if update < cfg.picard_tol and r < cfg.residual_tol:
                return Solution(eps, sigma, theta, len(krylov), sum(krylov),
                                updates, residuals, cfg)
            budget = min(KRYLOV_MAX, cfg.max_iters - solves - 1)
            if budget < 1:
                raise failure("solve budget spent")
            f_norm = float(np.linalg.norm(f))
            atol = min(ETA_MAX * f_norm,
                       max(eta * f_norm, 0.5 * cfg.picard_tol))
            delta, steps = gmres(self._newton_operator(jacobian), f, atol,
                                 self.basis[:budget + 1])
            solves += steps
            krylov.append(steps)
            delta = delta.reshape(2, -1) * self.scale
            lam = 1.0
            for _ in range(MAX_HALVINGS + 1):
                trial_s = sigma + lam * delta[0]
                if self._in_range(trial_s):
                    if solves >= cfg.max_iters:
                        raise failure("solve budget spent")
                    trial_t = theta + lam * delta[1]
                    r, f_trial, jacobian = evaluate(trial_s, trial_t)
                    trial_norm = float(np.linalg.norm(f_trial))
                    if trial_norm <= (1.0 - 1e-4 * lam) * f_norm:
                        break
                lam *= 0.5
            else:
                raise failure("step too small")
            sigma, theta, f = trial_s, trial_t, f_trial
            eta = 0.9 * (trial_norm / f_norm) ** 2


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
