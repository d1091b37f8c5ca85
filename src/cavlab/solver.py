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
prefactored stiffness matrix.  With the far-field Dirichlet rows and
columns removed, the P1 Laplacian is symmetric positive definite, and
`build_mesh` numbers the vertices column by column, so its nonzeros lie
within one mesh column plus two of the diagonal (33 at h = 1/32): it is
factored once by a banded Cholesky factorisation (LAPACK dpbtrf), whose
storage and solve cost are n times that narrow band.  The contraction
factor of g degrades roughly like 1/eps, so the iterates are mixed by
type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49,
2011) over the last ANDERSON_DEPTH differences of the scaled iterates
and residuals g(x) - x, with mixing parameter beta; the mixing
coefficients come from the kept Gram matrix of the residual
differences.  A long history behaves more like GMRES and stalls less;
its differences are stored in float32, so 16 of them take the bytes of
8 in float64, while every product with them accumulates in float64.
Mixing only chooses the path: g(x), the residuals and the convergence
tests are float64 throughout.  Two safeguards act
inside the one loop.  An attempt whose residual envelope grows, or whose
last 30 iterations set no new least residual, is aborted and restarted
from the least-residual iterate so far, with an empty history and halved
beta.  A candidate that leaves the invertible sigma range is replaced by
a damped Picard step (halved until it fits, projected as a last resort,
projections counted and zero at convergence) and the history is
cleared.  The nonlinear right-hand side is evaluated once per iteration,
both fluxes from one evaluation of rho, qt and the trig factors: the
load vectors `residual_norms` computes for the new iterate are passed
on as the next step's right-hand side, and the least-residual iterate
keeps its loads for a restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gaschart as gc
from .meshing import FARFIELD, Mesh

RHO_GUARD = gc.RHO_CR - 1e-6
# number of (iterate, residual) differences Anderson mixing keeps
ANDERSON_DEPTH = 16
# rows of the float32 history converted to float64 at a time in `mix`
_MIX_BLOCK = 2048


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
        if not all(e > 0.0 for e in eps):
            raise ValueError("viscosities must be positive")

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
    rho is inverted from sigma once, on first use."""

    epsilon: float
    sigma: np.ndarray
    theta: np.ndarray
    iterations: int
    update_history: list
    residual_history: list
    omega_final: float
    projection_count: int
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
    kept in preallocated float32 ring buffers (one column per
    difference), and the float64 Gram matrix dF^T dF of the stored
    residual differences.

    float32 columns halve the memory of the history, which at h = 1/96
    is of the size of the Cholesky factor; every product with them
    (Gram entries, dF^T f, the correction) converts one block of
    _MIX_BLOCK rows into a kept float64 buffer at a time and accumulates
    in float64, so no float64 copy of the history is ever held.
    """

    def __init__(self, size: int):
        self.dx = np.empty((size, ANDERSON_DEPTH), dtype=np.float32,
                           order="F")
        self.df = np.empty((size, ANDERSON_DEPTH), dtype=np.float32,
                           order="F")
        self.gram = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
        # float64 rows of one block: dF alone, or dX and dF side by side
        self.block = np.empty((min(size, _MIX_BLOCK), 2 * ANDERSON_DEPTH),
                              order="F")
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
        records the differences to the previous (x, f) first.

        gamma solves the normal equations dF^T dF gamma = dF^T f on the
        kept Gram matrix, whose one new row and column cost O(n m) per
        call; no factorisation of the n x m block is made.  One pass over
        the history forms the new Gram row and dF^T f, a second the
        correction.
        """
        if self.has_prev:
            col = self.next
            self.dx[:, col] = x - self.x_prev
            self.df[:, col] = f - self.f_prev
            self.next = (col + 1) % ANDERSON_DEPTH
            self.count = min(self.count + 1, ANDERSON_DEPTH)
        self.x_prev[:] = x
        self.f_prev[:] = f
        self.has_prev = True
        cand = x + beta * f
        c = self.count
        if not c:
            return cand
        # every call with a stored column has just added column `col`
        row, dft_f = np.zeros(c), np.zeros(c)
        for lo in range(0, len(x), _MIX_BLOCK):
            hi = min(lo + _MIX_BLOCK, len(x))
            df = self.block[:hi - lo, :c]
            df[...] = self.df[lo:hi, :c]
            row += df.T @ df[:, col]
            dft_f += df.T @ f[lo:hi]
        self.gram[col, :c] = row
        self.gram[:c, col] = row
        gamma = np.linalg.lstsq(self.gram[:c, :c], dft_f, rcond=None)[0]
        coef = np.concatenate([gamma, beta * gamma])
        for lo in range(0, len(x), _MIX_BLOCK):
            hi = min(lo + _MIX_BLOCK, len(x))
            both = self.block[:hi - lo, :2 * c]
            both[:, :c] = self.dx[lo:hi, :c]
            both[:, c:] = self.df[lo:hi, :c]
            cand[lo:hi] -= both @ coef
        return cand


class BandedCholesky:
    """Cholesky factor L L^T of a sparse symmetric positive definite
    matrix, in LAPACK's lower band storage: row d of `factor` holds the
    d-th subdiagonal, so its size is (bandwidth + 1) x n."""

    def __init__(self, A):
        # imported here, so that importing the solver (as the config does)
        # does not load scipy.linalg
        from scipy.linalg.lapack import dpbtrf, dpbtrs
        A = A.tocoo()
        A.sum_duplicates()
        lower = A.row >= A.col
        cols = A.col[lower]
        offset = A.row[lower] - cols
        band = np.zeros((int(offset.max(initial=0)) + 1, A.shape[0]),
                        order="F")
        band[offset, cols] = A.data[lower]
        self.factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                "matrix is not positive definite: banded Cholesky breaks "
                f"down at leading minor {info}")
        if info < 0:
            raise ValueError(f"dpbtrf: argument {-info} is invalid")
        self._dpbtrs = dpbtrs

    @property
    def bandwidth(self) -> int:
        return self.factor.shape[0] - 1

    def solve(self, b):
        """A^{-1} b for a vector or for each column of an (n, k) array."""
        b = np.asarray(b, dtype=float)
        x, _ = self._dpbtrs(self.factor, b.reshape(len(b), -1), lower=1)
        return x.reshape(b.shape)


class PicardSolver:
    """Both Poisson problems of a step in one solve against one
    prefactored Laplacian.

    The free-node Laplacian (far-field Dirichlet rows and columns
    removed) is symmetric positive definite, and `build_mesh` numbers the
    vertices column by column, ny + 1 to a column, so a free node's
    farthest neighbour is ny + 1 free nodes away at most: its Cholesky
    factor is kept as a band of that width (`BandedCholesky`), about
    (ny + 2) n_free floats, and each solve costs O(ny n_free).
    """

    def __init__(self, mesh: Mesh, config: SolverConfig):
        self.mesh = mesh
        self.config = config
        self.dirichlet = mesh.boundary_nodes(FARFIELD)
        self.free = np.setdiff1d(np.arange(mesh.n_vertices), self.dirichlet)
        K = mesh.stiffness_matrix()
        self.K = K
        K_free = K[self.free]
        self.chol = BandedCholesky(K_free[:, self.free])
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
                                     np.zeros(n_free)])

    def rhs(self, sigma, theta, eps, source_sigma=None, source_theta=None):
        """Load vectors of both Poisson problems for the current iterate,
        as the rows (b_sigma, b_theta) of one (2, n) array.

        rho, qt and the trig factors are evaluated once for both fluxes
        F and G, and the obstacle normal components of both are taken
        together.
        """
        mesh = self.mesh
        rho = np.asarray(gc.rho_of_sigma(np.clip(sigma, 0.0, gc.SIGMA_CR)))
        q = clipped_speed(rho)
        cos, sin = np.cos(theta), np.sin(theta)
        rho_q = rho * q
        # fluxes[k, j, d]: component d at node j of F (k = 0), G (k = 1)
        fluxes = np.empty((2, len(rho), 2))
        np.multiply(rho_q, cos, out=fluxes[0, :, 0])
        np.multiply(rho_q, sin, out=fluxes[0, :, 1])
        np.multiply(q, sin, out=fluxes[1, :, 0])
        np.multiply(q, cos, out=fluxes[1, :, 1])
        np.negative(fluxes[1, :, 1], out=fluxes[1, :, 1])
        # one sparse product per flux: scipy's product with a two-column
        # block costs about 1.6 times as much as two single ones
        loads = np.stack([mesh.divergence_rhs(flux) for flux in fluxes])
        Fn, Gn = mesh.obstacle_normal_flux(fluxes)
        # sigma: minus the inflow defect |F.n| - F.n, which vanishes where
        # F.n >= 0; theta: plus G.n
        loads[0] += mesh.obstacle_scatter @ (Fn - np.abs(Fn))
        loads[1] += mesh.obstacle_scatter @ Gn
        loads /= eps
        if source_sigma is not None:
            loads[0] -= mesh.mass_matrix() @ np.asarray(source_sigma)
        if source_theta is not None:
            loads[1] -= mesh.mass_matrix() @ np.asarray(source_theta)
        return loads

    def _solve_pair(self, b_sig, b_the):
        """Free-node values of both Poisson problems, in one solve."""
        rhs_f = np.empty((len(self.free), 2), order="F")
        np.subtract(b_sig[self.free], self.lift[:, 0], out=rhs_f[:, 0])
        np.subtract(b_the[self.free], self.lift[:, 1], out=rhs_f[:, 1])
        out = self.chol.solve(rhs_f)
        return out[:, 0], out[:, 1]

    def residual_norms(self, sigma, theta, eps, source_sigma=None,
                       source_theta=None):
        """Nonlinear weak residuals of the current fields (free nodes).

        Returns ((r_sigma, r_theta), loads): the relative residual norms
        and the (2, n) load vectors (b_sigma, b_theta) they were computed
        from, which are the right-hand side of the next Picard step.
        """
        loads = self.rhs(sigma, theta, eps, source_sigma, source_theta)
        b_sig, b_the = loads
        r1 = (self.K @ sigma - b_sig)[self.free]
        r2 = (self.K @ theta - b_the)[self.free]
        s1 = max(float(np.linalg.norm(b_sig[self.free])), 1.0)
        s2 = max(float(np.linalg.norm(b_the[self.free])), 1.0)
        return ((float(np.linalg.norm(r1)) / s1,
                 float(np.linalg.norm(r2)) / s2), loads)

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
        as eps shrinks, so an attempt is checked from its 30th iteration
        on, every 10: it is aborted when its residual envelope grows
        (the least of the last 10 residuals exceeds twice the attempt's
        least) or when the last 30 iterations set no new least residual
        of the solve (stagnation, which the envelope test cannot see
        once the relative residual saturates near 1).  An aborted attempt
        restarts from the iterate with the least residual so far (the
        warm start until an iterate beats it), with a cleared history and
        beta halved, so the progress of the attempt is kept.  Nothing
        carries over from one call to the next.  Converged means the
        scaled full-step update |g(x) - x|_inf is below `picard_tol` and
        the relative residual of the new iterate below `residual_tol`.
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
        res, loads = self.residual_norms(sigma, theta, eps, source_sigma,
                                         source_theta)
        # (residual, sigma, theta, loads) of the least-residual iterate
        best = (max(res), sigma, theta, loads)
        beta = cfg.omega
        beta_min = cfg.omega / 1024.0
        history = AndersonHistory(2 * len(self.free))
        updates, residuals = [], []
        total_iters = 0
        while True:
            _, sigma, theta, loads = best
            history.clear()
            attempt = []      # residuals of this attempt
            since_best = 0    # iterations since the least residual fell
            projections = 0
            aborted = False
            while total_iters < cfg.max_iters:
                total_iters += 1
                sigma, theta, upd, w_used, proj = self.picard_step(
                    sigma, theta, *loads, beta, history)
                projections += proj
                res, loads = self.residual_norms(sigma, theta, eps,
                                                 source_sigma, source_theta)
                r = max(res)
                updates.append(upd)
                residuals.append(r)
                attempt.append(r)
                if upd < cfg.picard_tol and r < cfg.residual_tol:
                    return Solution(eps, sigma, theta, total_iters,
                                    updates, residuals, w_used,
                                    projections, cfg)
                if r < best[0]:
                    best = (r, sigma, theta, loads)
                    since_best = 0
                else:
                    since_best += 1
                if len(attempt) >= 30 and len(attempt) % 10 == 0:
                    envelope = min(attempt[-10:])
                    if not np.isfinite(envelope) \
                            or envelope > 2.0 * min(attempt) \
                            or since_best >= 30:
                        aborted = True  # diverging or stalled: reject
                        break
            if not aborted or total_iters >= cfg.max_iters \
                    or beta <= beta_min:
                raise ConvergenceError(
                    f"no fixed point after {total_iters} iterations at "
                    f"eps={eps} (last update {updates[-1]:.3e}, "
                    f"residual {residuals[-1]:.3e}, beta {beta:.2e})",
                    {"updates": updates, "residuals": residuals})
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
