"""Quantitative estimates evaluated on viscous solutions.

Everything the analysis makes quantitative is computed here as a number:
the invariant-region margins, the viscous dissipation integral, weak-form
residuals of the inviscid system, entropy-dissipation defects against a
lattice of interior test functions, the D1 + D2 splitting of the entropy
dissipation measure, the obstacle weak-trace functionals, and the
sqrt(eps) envelope fits across a viscosity sweep.

Test functions are P1 functions in V_h,0, the solver's own test space:
each bump enters as its nodal interpolant psi_h, zero on the Dirichlet
nodes the solver uses (`Mesh.dirichlet_nodes`), and each of the two
lattices is one sparse nodal matrix with a column per bump
(`nodal_test_functions`).  Every functional is Psi.T applied to a load
vector built from the mesh's two P1 primitives, the cell gradient G and
the cell mean, as the solver's operators are, so the discrete weak
identities hold to solver tolerance, not to a second quadrature's error.

Each solution is evaluated in one pass: rho is inverted from sigma once,
the cell states are one `CellStates`, and `lattice_functionals` takes
every lattice functional from one `nodal_fluxes` call and one Psi_in.T
product over the stacked loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy as en
from . import gaschart as gc
from .meshing import Mesh
from .solver import Solution, SolverConfig, nodal_fluxes

DEGENERACY_FLOOR = 1e-12
# radius of the interior lattice's bumps, in physical units, and the
# least distance of a bump centre from a wall
INTERIOR_RADIUS = 0.125
INTERIOR_MARGIN = 1.05 * INTERIOR_RADIUS


def nodal_test_functions(mesh: Mesh) -> tuple:
    """Nodal matrices (Psi_in, Psi_obs) of the two lattices of bumps
    exp(1 - 1/(1 - r^2/R^2)), zero outside the disc of radius R: column
    j holds bump j at the vertices, zeroed on `Mesh.dirichlet_nodes`, and
    only the supports are stored.  Psi.T @ b evaluates at every psi_h the
    functional l whose load vector is b_i = l(lambda_i).

    Psi_in is 5 x 3 bumps of radius INTERIOR_RADIUS, fixed in physical
    units so that every mesh of one domain gets the same test functions
    and fits at two h can be compared; their supports stay off every
    boundary when height - bump_height >= 2 INTERIOR_MARGIN and
    half_length >= INTERIOR_MARGIN, which the sweep checks first.
    Psi_obs is five bumps covering the obstacle arc, clear of the inlet,
    outlet and lid but reaching the far-field bottom wall, zeroed there.
    """
    import scipy.sparse as sp
    spec = mesh.spec
    xs = np.linspace(-spec.half_length + INTERIOR_MARGIN,
                     spec.half_length - INTERIOR_MARGIN, 5)
    ys = np.linspace(spec.bump_height + INTERIOR_MARGIN,
                     spec.height - INTERIOR_MARGIN, 3)
    obstacle_radius = min(0.45 * (spec.half_length - spec.chord / 2),
                          0.45 * spec.height, 0.6 * spec.chord)
    lattices = [  # the centres' x and y, one per bump, and the radius
        (np.repeat(xs, 3), np.tile(ys, 5), INTERIOR_RADIUS),
        (np.linspace(-spec.chord / 2, spec.chord / 2, 5), 0.0,
         obstacle_radius)]
    x, y = mesh.vertices[:, :1], mesh.vertices[:, 1:]
    blocks = []
    for cx, cy, radius in lattices:
        r2 = ((x - cx) ** 2 + (y - cy) ** 2) / radius ** 2
        inside = r2 < 1.0
        safe = np.where(inside, 1.0 - r2, 1.0)
        phi = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
        phi[mesh.dirichlet_nodes] = 0.0
        blocks.append(sp.csc_matrix(phi))
    return tuple(blocks)


# ----------------------------------------------------------------------
# per-solution quantities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellStates:
    """One solution's per-triangle mean (rho, theta), P1 gradients,
    degeneracy f = 1 - c^2/q^2 and dissipation density
    |grad theta|^2 + f q^-2 |grad rho|^2, at viscosity eps."""

    epsilon: float
    rho: np.ndarray
    theta: np.ndarray
    grad_rho: np.ndarray
    grad_theta: np.ndarray
    f: np.ndarray
    density: np.ndarray


def cell_states(mesh: Mesh, sol: Solution) -> CellStates:
    """CellStates of a solution, f = (1 - 2 rho^2)/(1 - rho^2) floored
    against transients.  The cell means and the gradients of rho and
    theta are one `Mesh.cell_mean` product and one `Mesh.gradient` call
    on the stacked (rho, theta)."""
    fields = np.column_stack([sol.rho, sol.theta])
    rho, theta = (mesh.cell_mean @ fields).T
    grads = mesh.gradient(fields)
    grad_rho, grad_th = grads[..., 0], grads[..., 1]
    q2 = 1.0 - rho * rho
    f = np.clip((1.0 - 2.0 * rho * rho) / q2, DEGENERACY_FLOOR, None)
    density = np.sum(grad_th ** 2, axis=1) \
        + f / q2 * np.sum(grad_rho ** 2, axis=1)
    return CellStates(sol.epsilon, rho, theta, grad_rho, grad_th, f,
                      density)


def lattice_functionals(mesh: Mesh, sol: Solution, cells: CellStates,
                        pair, nu_bar: float, psi_in, psi_obs) -> dict:
    """Every lattice functional of one solution, a vector each, from one
    `nodal_fluxes` call and one Psi_in.T product over the stacked loads
    D F, D G, D Q and the special load b (D = `Mesh.divergence_rhs`).

    "mass", "curl": the inviscid residuals int rho u . grad(psi) and
    int q e(theta - pi/2) . grad(psi).  Tested against psi_h, the
    inviscid residual of a converged solution IS the viscous term, so
    the sqrt(eps) laws are measured without an O(h^2) quadrature floor.

    "defect_star": d_psi = int Q . grad(psi_h) for the entropy pair
    `pair(rho, theta) -> (Q1, Q2)`; a distributional entropy inequality
    div Q >= 0 makes every d_psi nonpositive up to the viscous
    O(sqrt(eps)) excess.

    "special_defect": |d_psi - eps Psi_in.T b| for the exact dissipation
    identity of the distinguished pair,

    int Q* . grad(psi) = eps int (-theta grad theta + f N grad rho) . grad(psi)
                         - eps int psi (|grad th|^2 + f q^-2 |grad rho|^2),

    whose right side is eps times one load from the scatter G^T |T| of D,
    b = G^T (|T| V) - cell_mean^T (|T| density), with V the first bracket
    at the cell states.  This couples solver, chart, and entropy
    machinery in one number.  The identity is exact for the continuous
    problem, but the two sides are different quadratures (the left of
    the nodal pair, the right of the cell states), so the defect is a
    quadrature gap that shrinks with h, not a solver residual.  On the
    default geometry it falls from 4.41e-5 at h = 1/32 to 7.70e-7 at
    h = 1/128 for eps = 0.0125 (about h^2.9), and from 1.83e-5 to
    8.89e-7 for eps = 0.025 (about h^2.2).  It is reported, and
    `RunReport.ok` does not gate it.

    "trace": weak normal trace functionals over the obstacle (n into the
    fluid) on Psi_obs,

        T(phi_h) = int phi_h |rho u.n| dH + int_D rho u . grad(phi_h) dx
                   - eps int_D grad(phi_h) . grad(sigma) dx,

    the load S |F.n| + D F - eps K sigma with the solver's wall
    quadrature (S = `Mesh.obstacle_scatter`).  phi_h vanishes on the
    Dirichlet nodes, so the solver's sigma equation makes this
    Psi.T S (2|F.n| - F.n) >= 0 up to eps times its residual: the trace
    gate checks a discrete identity.  The plain wall flux
    int phi rho u.n dH alone does not shrink with eps: on the default
    geometry its minimum over the obstacle lattice goes -1.77e-2 ...
    -2.18e-2 for eps = 0.2 ... 0.0125, the same at h = 1/32 and 1/64.
    """
    rho, theta, eps = sol.rho, sol.theta, sol.epsilon
    F, G = nodal_fluxes(rho, theta)
    Q = np.stack([np.asarray(q) for q in pair(rho, theta)], axis=1)
    if not np.all(np.isfinite(Q)):
        bad = int(np.nonzero(~np.isfinite(Q).all(axis=1))[0][0])
        raise en.GeneratorDomainError(
            f"entropy pair not evaluable at node {bad} "
            f"(rho={rho[bad]:.4f}, theta={theta[bad]:.4f})")
    nvals = np.asarray(en.N_of_rho(cells.rho, gc.rho_of_nu(nu_bar)))
    V = -cells.theta[:, None] * cells.grad_theta \
        + (cells.f * nvals)[:, None] * cells.grad_rho
    b = mesh.cell_gradient.T @ (mesh.areas[:, None] * V).ravel() \
        - mesh.cell_mean.T @ (mesh.areas * cells.density)
    DF = mesh.divergence_rhs(F)
    mass, curl, d_star, special = (psi_in.T @ np.column_stack(
        [DF, mesh.divergence_rhs(G), mesh.divergence_rhs(Q), b])).T
    wall = mesh.obstacle_scatter @ np.abs(mesh.obstacle_normal_flux(F))
    trace = psi_obs.T @ (wall + DF
                         - eps * (mesh.stiffness_matrix() @ sol.sigma))
    return {"mass": mass, "curl": curl, "defect_star": d_star,
            "special_defect": np.abs(d_star - eps * special), "trace": trace}


def compactness_decomposition(mesh: Mesh, cells: CellStates,
                              gen: en.Generator) -> dict:
    """The D1 + D2 splitting of the entropy dissipation measure.

    D2 = -eps [ (rho H_ntt - H_tt)(|grad th|^2 + f q^-2 |grad rho|^2)
                + (H_ttt + rho H_nt)(2/rho) f grad th . grad rho ],
    D1 = eps div( grad th (rho H_nt - H_t)
                  + f grad rho (H_n + H_tt / rho) ),

    with the first bracket's density `CellStates.density`, reported as
    the L1 norm of D2 and eps times the L2 norm of the D1 flux (whose
    analytic bound is C sqrt(eps)).  The D2 weights are -c1 and m of
    `entropy.admissibility_terms`; they are formed here from the same six
    derivative fields as the D1 flux, so no derivative is evaluated twice.
    """
    eps = cells.epsilon
    rho_c, th_c, f = cells.rho, cells.theta, cells.f
    grad_rho, grad_th = cells.grad_rho, cells.grad_theta
    nu_c = np.asarray(gc.nu_of_rho(rho_c))
    H_nt = gen.d(1, 1, nu_c, th_c)
    H_t = gen.d(0, 1, nu_c, th_c)
    H_n = gen.d(1, 0, nu_c, th_c)
    H_tt = gen.d(0, 2, nu_c, th_c)
    H_ntt = gen.d(1, 2, nu_c, th_c)
    H_ttt = gen.d(0, 3, nu_c, th_c)
    cross = np.sum(grad_th * grad_rho, axis=1)
    D2 = -eps * ((rho_c * H_ntt - H_tt) * cells.density
                 + (H_ttt + rho_c * H_nt) * (2.0 / rho_c) * f * cross)
    D2_L1 = mesh.integrate(np.abs(D2))
    flux = grad_th * (rho_c * H_nt - H_t)[:, None] \
        + (f * (H_n + H_tt / rho_c))[:, None] * grad_rho
    D1_est = eps * math.sqrt(mesh.integrate(np.sum(flux ** 2, axis=1)))
    return {"D2_L1": float(D2_L1), "D1_est": float(D1_est)}


def invariant_region_report(sol: Solution) -> dict:
    """Margins of the invariant-region bounds (all should exceed -tol_inv),
    on the Riemann invariants `Solution.W_plus` and `W_minus`."""
    cfg = sol.config
    q = sol.q
    wp, wm = sol.W_plus, sol.W_minus
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


def run_report(mesh: Mesh, config: SolverConfig, solutions) -> RunReport:
    """Assemble every diagnostic for a completed sweep, in one pass per
    solution: one `cell_states` and one `lattice_functionals`, whose
    defect vector serves both the entropy defect and the special identity.
    """
    nu_bar = gc.nu_of_rho(config.rho_inf)
    gen_star = en.special_generator(gc.GasChart(), nu_bar)
    pair_star = en.special_pair(nu_bar)
    psi_in, psi_obs = nodal_test_functions(mesh)

    records = []
    for sol in solutions:
        cells = cell_states(mesh, sol)
        lattice = lattice_functionals(mesh, sol, cells, pair_star, nu_bar,
                                      psi_in, psi_obs)
        d_star = lattice["defect_star"]
        records.append({
            "epsilon": sol.epsilon,
            "iterations": sol.iterations,
            "krylov_steps": sol.krylov_steps,
            "final_residual": sol.residual_history[-1],
            "invariant_region": invariant_region_report(sol),
            "dissipation_integral":
                sol.epsilon * mesh.integrate(cells.density),
            "weak_residuals": {key: float(np.abs(lattice[key]).max())
                               for key in ("mass", "curl")},
            "entropy_defect_star": float(np.max(d_star)),
            "entropy_defect_star_all": [float(x) for x in d_star],
            "compactness_star": compactness_decomposition(mesh, cells,
                                                          gen_star),
            "obstacle_trace_min": float(lattice["trace"].min()),
            "special_identity_defect": float(lattice["special_defect"].max())})

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
    }
    cfg_rec = {
        "epsilons": list(config.epsilons), "q_inf": config.q_inf,
        "picard_tol": config.picard_tol,
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
