"""Quantitative estimates evaluated on viscous solutions.

Everything the analysis makes quantitative is computed here as a number:
the invariant-region margins, the viscous dissipation integral, weak-form
residuals of the inviscid system, entropy-dissipation defects against a
lattice of interior test functions, the D1 + D2 splitting of the entropy
dissipation measure, the obstacle weak-trace functionals, and the
sqrt(eps) envelope fits across a viscosity sweep.

Test functions are P1 functions in V_h,0, the solver's own test space:
each bump enters as its nodal interpolant psi_h, zero on the FARFIELD
(Dirichlet) nodes, and a lattice is one sparse nodal matrix Psi with a
column per bump (`nodal_test_functions`).  Every functional is Psi.T
applied to a load vector from the mesh operators the solver's equations
use, so the discrete weak identities hold to solver tolerance, not to a
second quadrature's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import entropy as en
from . import gaschart as gc
from .meshing import FARFIELD, Mesh
from .solver import Solution, SolverConfig, circulation_flux, mass_flux

DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class BumpFunction:
    """Smooth bump exp(1 - 1/(1 - r^2/R^2)), supported in the open disc."""
    center: tuple
    radius: float

    def __call__(self, x, y):
        r2 = ((np.asarray(x) - self.center[0]) ** 2
              + (np.asarray(y) - self.center[1]) ** 2) / self.radius ** 2
        inside = r2 < 1.0
        safe = np.where(inside, 1.0 - r2, 1.0)
        return np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)


def interior_lattice(mesh: Mesh, nx: int = 5, ny: int = 3) -> list:
    """Bumps on an interior lattice, supports away from every boundary.

    The radius is fixed in physical units, so every mesh of one domain
    gets the same test functions and fits at two h can be compared.
    """
    spec = mesh.spec
    radius = 0.125
    margin = radius * 1.05
    ymin = spec.bump_height + margin
    xs = np.linspace(-spec.half_length + margin, spec.half_length - margin,
                     nx)
    ys = np.linspace(ymin, spec.height - margin, ny)
    return [BumpFunction((float(x), float(y)), radius)
            for x in xs for y in ys]


def obstacle_lattice(mesh: Mesh, n: int = 5) -> list:
    """Bumps covering the obstacle arc.

    Their supports stay clear of the inlet, outlet and lid but reach the
    far-field parts of the bottom wall, where `nodal_test_functions`
    zeroes them.
    """
    spec = mesh.spec
    xs = np.linspace(-spec.chord / 2, spec.chord / 2, n)
    radius = min(0.45 * (spec.half_length - spec.chord / 2),
                 0.45 * spec.height, 0.6 * spec.chord)
    return [BumpFunction((float(x), 0.0), radius) for x in xs]


def nodal_test_functions(mesh: Mesh, bumps) -> sp.csc_matrix:
    """Nodal matrix Psi (n_vertices x len(bumps)) of the P1 interpolants
    psi_h in V_h,0: column j holds bump j at the vertices, zeroed on the
    FARFIELD nodes.  Only the supports are stored.

    For a load vector b with b_i = l(lambda_i), Psi.T @ b evaluates the
    linear functional l at every psi_h.
    """
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    far = mesh.boundary_nodes(FARFIELD)
    columns = []
    for bump in bumps:
        phi = bump(x, y)
        phi[far] = 0.0
        columns.append(sp.csc_matrix(phi[:, None]))
    return sp.hstack(columns, format="csc")


# ----------------------------------------------------------------------
# per-solution quantities
# ----------------------------------------------------------------------

def _cell_states(mesh: Mesh, sol: Solution):
    """Per-triangle mean state and P1 gradients of (rho, theta)."""
    rho = sol.rho
    theta = sol.theta
    rho_c = rho[mesh.triangles].mean(axis=1)
    th_c = theta[mesh.triangles].mean(axis=1)
    grad_rho = mesh.gradient(rho)
    grad_th = mesh.gradient(theta)
    return rho_c, th_c, grad_rho, grad_th


def _degeneracy(rho):
    """1 - c^2/q^2 = (1 - 2 rho^2)/(1 - rho^2), floored against transients."""
    rho = np.asarray(rho)
    return np.clip((1.0 - 2.0 * rho * rho) / (1.0 - rho * rho),
                   DEGENERACY_FLOOR, None)


def dissipation_integral(mesh: Mesh, sol: Solution) -> float:
    """eps * int |grad theta|^2 + (1 - c^2/q^2) q^-2 |grad rho|^2 dx."""
    rho_c, _, grad_rho, grad_th = _cell_states(mesh, sol)
    q2 = 1.0 - rho_c * rho_c
    dens = np.sum(grad_th ** 2, axis=1) \
        + _degeneracy(rho_c) / q2 * np.sum(grad_rho ** 2, axis=1)
    return sol.epsilon * mesh.integrate(dens)


def weak_form_residuals(mesh: Mesh, sol: Solution, psi) -> dict:
    """Residuals of the inviscid system against interior test functions:

    mass: int rho u . grad(psi),   curl: int q e(theta - pi/2) . grad(psi).

    Tested against psi_h, the inviscid residual of a converged solution
    IS the viscous term, so the sqrt(eps) laws are measured without an
    O(h^2) quadrature floor.
    """
    rho, theta = sol.rho, sol.theta
    mass = psi.T @ mesh.divergence_rhs(mass_flux(rho, theta))
    curl = psi.T @ mesh.divergence_rhs(circulation_flux(rho, theta))
    return {"mass": float(np.abs(mass).max()),
            "curl": float(np.abs(curl).max())}


def entropy_dissipation(mesh: Mesh, sol: Solution, pair: en.EntropyPair,
                        psi) -> np.ndarray:
    """Defect vector d_psi = int Q(u) . grad(psi_h) dx, one per column.

    A distributional entropy inequality div Q >= 0 makes every d_psi
    nonpositive up to the viscous O(sqrt(eps)) excess.
    """
    rho, theta = sol.rho, sol.theta
    Q = np.stack([np.asarray(pair.Q1(rho, theta)),
                  np.asarray(pair.Q2(rho, theta))], axis=1)
    if not np.all(np.isfinite(Q)):
        bad = int(np.nonzero(~np.isfinite(Q).all(axis=1))[0][0])
        raise en.GeneratorDomainError(
            f"entropy pair not evaluable at node {bad} "
            f"(rho={rho[bad]:.4f}, theta={theta[bad]:.4f})")
    return psi.T @ mesh.divergence_rhs(Q)


def compactness_decomposition(mesh: Mesh, sol: Solution,
                              gen: en.Generator) -> dict:
    """The D1 + D2 splitting of the entropy dissipation measure.

    D2 = -eps [ (rho H_ntt - H_tt)(|grad th|^2 + f q^-2 |grad rho|^2)
                + (H_ttt + rho H_nt)(2/rho) f grad th . grad rho ],
    D1 = eps div( grad th (rho H_nt - H_t)
                  + f grad rho (H_n + H_tt / rho) ),

    reported as the L1 norm of D2 and eps times the L2 norm of the D1
    flux (whose analytic bound is C sqrt(eps)).
    """
    eps = sol.epsilon
    rho_c, th_c, grad_rho, grad_th = _cell_states(mesh, sol)
    nu_c = np.asarray(gc.nu_of_rho(rho_c))
    q2 = 1.0 - rho_c * rho_c
    f = _degeneracy(rho_c)
    H_nt = gen.d(1, 1)(nu_c, th_c)
    H_t = gen.d(0, 1)(nu_c, th_c)
    H_n = gen.d(1, 0)(nu_c, th_c)
    H_tt = gen.d(0, 2)(nu_c, th_c)
    H_ntt = gen.d(1, 2)(nu_c, th_c)
    H_ttt = gen.d(0, 3)(nu_c, th_c)
    quad = np.sum(grad_th ** 2, axis=1) + f / q2 * np.sum(grad_rho ** 2,
                                                          axis=1)
    cross = np.sum(grad_th * grad_rho, axis=1)
    D2 = -eps * ((rho_c * H_ntt - H_tt) * quad
                 + (H_ttt + rho_c * H_nt) * (2.0 / rho_c) * f * cross)
    D2_L1 = mesh.integrate(np.abs(D2))
    flux = grad_th * (rho_c * H_nt - H_t)[:, None] \
        + (f * (H_n + H_tt / rho_c))[:, None] * grad_rho
    D1_est = eps * math.sqrt(mesh.integrate(np.sum(flux ** 2, axis=1)))
    return {"D2_L1": float(D2_L1), "D1_est": float(D1_est)}


def invariant_region_report(sol: Solution) -> dict:
    """Margins of the invariant-region bounds (all should exceed -tol_inv)."""
    cfg = sol.config
    q = sol.q
    kq = np.asarray(gc.k_of_q(np.clip(q, gc.Q_CR, gc.Q_CAV)))
    wp = sol.theta + kq
    wm = sol.theta - kq
    return {
        "min_q_margin": float(q.min() - cfg.q_inf),
        "angle_margin": float(cfg.k_inf - np.abs(sol.theta).max()),
        "min_rho": float(sol.rho.min()),
        "Wplus_excess": float(wp.max() - cfg.k_inf),
        "Wminus_excess": float(-cfg.k_inf - wm.min()),
        "tol_inv": cfg.tol_inv,
        "pass": bool(q.min() >= cfg.q_inf - cfg.tol_inv
                     and np.abs(sol.theta).max() <= cfg.k_inf + cfg.tol_inv
                     and sol.rho.min() > 0.0
                     and wp.max() <= cfg.k_inf + cfg.tol_inv
                     and wm.min() >= -cfg.k_inf - cfg.tol_inv),
    }


def obstacle_trace(mesh: Mesh, sol: Solution, psi) -> np.ndarray:
    """Weak normal trace functionals over the obstacle (n into the fluid),

        T(phi_h) = int phi_h |rho u.n| dH + int_D rho u . grad(phi_h) dx
                   - eps int_D grad(phi_h) . grad(sigma) dx,

    for each column phi_h of Psi, with the solver's wall quadrature
    (`Mesh.obstacle_normal_flux`, `Mesh.obstacle_scatter`).  phi_h
    vanishes on the Dirichlet nodes, so the solver's sigma equation makes
    this Psi.T S (2|F.n| - F.n) >= 0 up to eps times its residual: the
    trace gate checks a discrete identity.  The plain wall flux
    int phi rho u.n dH alone does not shrink with eps: on the default
    geometry its minimum over the obstacle lattice goes -1.77e-2 ...
    -2.18e-2 for eps = 0.2 ... 0.0125, the same at h = 1/32 and 1/64.
    """
    F = mass_flux(sol.rho, sol.theta)
    wall = mesh.obstacle_scatter @ np.abs(mesh.obstacle_normal_flux(F))
    load = wall + mesh.divergence_rhs(F) \
        - sol.epsilon * (mesh.stiffness_matrix() @ sol.sigma)
    return psi.T @ load


def special_identity_defect(mesh: Mesh, sol: Solution, nu_bar: float,
                            psi) -> float:
    """Weak-form defect of the exact dissipation identity for the
    distinguished pair:

    int Q* . grad(psi) = eps int (-theta grad theta + f N grad rho) . grad(psi)
                         - eps int psi (|grad th|^2 + f q^-2 |grad rho|^2)

    on the P1 psi_h of Psi, with grad(psi_h) per cell (`Mesh.gradient`)
    and psi in the last term its cell mean, both applied through their
    transpose as one nodal load.  This couples solver, chart, and
    entropy machinery in one number.
    """
    pair = en.special_pair(gc.GasChart(), nu_bar)
    rho_bar = gc.rho_of_nu(nu_bar)
    rho_c, th_c, grad_rho, grad_th = _cell_states(mesh, sol)
    q2 = 1.0 - rho_c * rho_c
    f = _degeneracy(rho_c)
    lhs = entropy_dissipation(mesh, sol, pair, psi)
    nvals = np.asarray(en.N_of_rho(rho_c, rho_bar))
    V = -th_c[:, None] * grad_th + (f * nvals)[:, None] * grad_rho
    dens = np.sum(grad_th ** 2, axis=1) + f / q2 * np.sum(grad_rho ** 2,
                                                          axis=1)
    per_node = np.einsum("md,mid->mi", V, mesh.grads) - dens[:, None] / 3.0
    load = np.bincount(mesh.triangles.ravel(),
                       weights=(mesh.areas[:, None] * per_node).ravel(),
                       minlength=mesh.n_vertices)
    return float(np.abs(lhs - sol.epsilon * (psi.T @ load)).max())


def cauchy_convergence(mesh: Mesh, solutions) -> dict:
    """Pairwise L2 differences of (rho, theta) along the sweep."""
    diffs = []
    for a, b in zip(solutions, solutions[1:]):
        d = math.sqrt(mesh.l2_norm(a.rho - b.rho) ** 2
                      + mesh.l2_norm(a.theta - b.theta) ** 2)
        diffs.append(float(d))
    mono = all(y <= x * (1 + 1e-12) for x, y in zip(diffs, diffs[1:]))
    return {"epsilons": [s.epsilon for s in solutions],
            "l2_differences": diffs,
            "monotone_decreasing": bool(mono) if diffs else True}


def sqrt_eps_fit(eps_values, values) -> dict:
    """Least-squares C in value <= C sqrt(eps) and per-point violations."""
    eps = np.asarray(eps_values, dtype=float)
    val = np.abs(np.asarray(values, dtype=float))
    root = np.sqrt(eps)
    C = float(np.sum(val * root) / np.sum(eps))
    if C <= 0:
        return {"C": 0.0, "violations": 0, "max_excess": 0.0}
    excess = val / (C * root)
    return {"C": C, "violations": int(np.sum(excess > 1.25)),
            "max_excess": float(excess.max())}


# ----------------------------------------------------------------------
# full report
# ----------------------------------------------------------------------

@dataclass
class RunReport:
    """Per-viscosity diagnostics plus sweep-level envelope fits."""

    config: dict
    records: list
    sweep: dict

    def to_dict(self) -> dict:
        return {"config": self.config, "records": self.records,
                "sweep": self.sweep}

    @property
    def ok(self) -> bool:
        checks = [r["invariant_region"]["pass"] for r in self.records]
        checks.append(self.sweep["dissipation_ratio"] <= 3.0)
        checks.append(self.sweep["trace_min"] >= -1e-6)
        for key in ("mass_fit", "curl_fit", "defect_star_fit"):
            checks.append(self.sweep[key]["violations"] == 0)
        checks.append(self.sweep["D2_ratio"] <= 3.0)
        checks.append(self.sweep["D1_ratio"] <= 3.0)
        return bool(all(checks))


def run_report(mesh: Mesh, config: SolverConfig, solutions,
               kernel_generator: en.Generator | None = None) -> RunReport:
    """Assemble every diagnostic for a completed sweep."""
    nu_bar = gc.nu_of_rho(config.rho_inf)
    chart = gc.GasChart()
    gen_star = en.special_generator(chart, nu_bar)
    pair_star = en.special_pair(chart, nu_bar)
    interior = interior_lattice(mesh)
    psi = nodal_test_functions(mesh, interior + obstacle_lattice(mesh))
    psi_in, psi_obs = psi[:, :len(interior)], psi[:, len(interior):]
    gen_mix = pair_mix = None
    mix_c = 0.0
    if kernel_generator is not None:
        nus = np.geomspace(
            max(kernel_generator.nu_range[0] * 1.01, 1e-4),
            kernel_generator.nu_range[1] * 0.99, 10)
        ths = np.linspace(-1.1 * config.k_inf, 1.1 * config.k_inf, 9)
        gen_mix, mix_c = en.admissible_kernel_mix(gen_star, kernel_generator,
                                                  nus, ths)
        pair_mix = en.pair_from_generator(gen_mix)

    records = []
    for sol in solutions:
        rec = {"epsilon": sol.epsilon,
               "iterations": sol.iterations,
               "final_residual": sol.residual_history[-1],
               "projection_count": sol.projection_count,
               "invariant_region": invariant_region_report(sol),
               "dissipation_integral": dissipation_integral(mesh, sol),
               "weak_residuals": weak_form_residuals(mesh, sol, psi_in)}
        d_star = entropy_dissipation(mesh, sol, pair_star, psi_in)
        rec["entropy_defect_star"] = float(np.max(d_star))
        rec["entropy_defect_star_all"] = [float(x) for x in d_star]
        rec["compactness_star"] = compactness_decomposition(mesh, sol,
                                                            gen_star)
        if gen_mix is not None:
            d_mix = entropy_dissipation(mesh, sol, pair_mix, psi_in)
            rec["entropy_defect_kernel"] = float(np.max(d_mix))
            rec["compactness_kernel"] = compactness_decomposition(mesh, sol,
                                                                  gen_mix)
        trace = obstacle_trace(mesh, sol, psi_obs)
        rec["obstacle_trace_min"] = float(trace.min())
        rec["special_identity_defect"] = special_identity_defect(
            mesh, sol, nu_bar, psi_in)
        records.append(rec)

    eps = [r["epsilon"] for r in records]
    diss = [r["dissipation_integral"] for r in records]
    d2 = [r["compactness_star"]["D2_L1"] for r in records]
    d1r = [r["compactness_star"]["D1_est"] / math.sqrt(e)
           for r, e in zip(records, eps)]
    sweep_rec = {
        "dissipation_ratio": float(max(diss) / max(min(diss), 1e-300)),
        "D2_ratio": float(max(d2) / max(min(d2), 1e-300)),
        "D1_over_sqrt_eps": d1r,
        "D1_ratio": float(max(d1r) / max(min(d1r), 1e-300)),
        "mass_fit": sqrt_eps_fit(eps, [r["weak_residuals"]["mass"]
                                       for r in records]),
        "curl_fit": sqrt_eps_fit(eps, [r["weak_residuals"]["curl"]
                                       for r in records]),
        "defect_star_fit": sqrt_eps_fit(
            eps, [max(r["entropy_defect_star"], 0.0) for r in records]),
        "trace_min": float(min(r["obstacle_trace_min"] for r in records)),
        "cauchy": cauchy_convergence(mesh, solutions),
        "kernel_mix_coefficient": mix_c,
    }
    if gen_mix is not None:
        sweep_rec["defect_kernel_fit"] = sqrt_eps_fit(
            eps, [max(r["entropy_defect_kernel"], 0.0) for r in records])
    cfg_rec = {
        "epsilons": list(config.epsilons), "q_inf": config.q_inf,
        "omega": config.omega, "picard_tol": config.picard_tol,
        "residual_tol": config.residual_tol, "max_iters": config.max_iters,
        "tol_inv": config.tol_inv,
        "mesh": {"vertices": mesh.n_vertices,
                 "triangles": len(mesh.triangles),
                 "h_mesh": mesh.spec.h_mesh,
                 "half_length": mesh.spec.half_length,
                 "height": mesh.spec.height,
                 "chord": mesh.spec.chord,
                 "bump_height": mesh.spec.bump_height},
    }
    return RunReport(cfg_rec, records, sweep_rec)
