"""Diagnostics: the P1 test space, the lattice functionals against their
per-functional formulas, the obstacle trace identity, the entropy
defect, the D1 + D2 splitting against the generic formula, the sqrt(eps)
fits and the gates of RunReport.ok."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

import cavlab.gaschart as gc
from cavlab import diagnostics as dg
from cavlab import entropy as en
from cavlab import meshing as mh
from cavlab import solver as sv


@pytest.fixture(scope="module")
def mesh():
    return mh.build_mesh(mh.DomainSpec(h_mesh=1.0 / 16.0))


@pytest.fixture(scope="module")
def solution(mesh):
    cfg = sv.SolverConfig(epsilons=(0.2,))
    return sv.PicardSolver(mesh, cfg).solve_epsilon(0.2)


# ----------------------------------------------------------------------
# oracles: the bumps one at a time and each functional by its own formula
# ----------------------------------------------------------------------

def bump(center, radius, x, y):
    """Smooth bump exp(1 - 1/(1 - r^2/R^2)), supported in the open disc."""
    r2 = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius ** 2
    inside = r2 < 1.0
    safe = np.where(inside, 1.0 - r2, 1.0)
    return np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)


def interior_bumps(spec):
    """(centre, radius) of the 5 x 3 interior lattice, x outer."""
    margin = 1.05 * 0.125
    xs = np.linspace(-spec.half_length + margin, spec.half_length - margin,
                     5)
    ys = np.linspace(spec.bump_height + margin, spec.height - margin, 3)
    return [((float(x), float(y)), 0.125) for x in xs for y in ys]


def obstacle_bumps(spec):
    """(centre, radius) of the five bumps over the obstacle arc."""
    radius = min(0.45 * (spec.half_length - spec.chord / 2),
                 0.45 * spec.height, 0.6 * spec.chord)
    return [((float(x), 0.0), radius)
            for x in np.linspace(-spec.chord / 2, spec.chord / 2, 5)]


def psi_oracle(mesh, bumps):
    """Psi one column at a time, zeroed on the Dirichlet nodes."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    columns = []
    for center, radius in bumps:
        phi = bump(center, radius, x, y)
        phi[mesh.dirichlet_nodes] = 0.0
        columns.append(sp.csc_matrix(phi[:, None]))
    return sp.hstack(columns, format="csc")


def functionals_oracle(mesh, sol, pair, nu_bar, psi_in, psi_obs):
    """Each lattice functional by its own formula: its own flux
    evaluation, its own load and its own Psi.T product."""
    F, G = sv.nodal_fluxes(sol.rho, sol.theta)
    mass = psi_in.T @ mesh.divergence_rhs(F)
    curl = psi_in.T @ mesh.divergence_rhs(G)
    Q = np.stack([np.asarray(q) for q in pair(sol.rho, sol.theta)], axis=1)
    d_star = psi_in.T @ mesh.divergence_rhs(Q)
    F = sv.nodal_fluxes(sol.rho, sol.theta)[0]
    wall = mesh.obstacle_scatter @ np.abs(mesh.obstacle_normal_flux(F))
    load = wall + mesh.divergence_rhs(F) \
        - sol.epsilon * (mesh.stiffness_matrix() @ sol.sigma)
    trace = psi_obs.T @ load
    cells = dg.cell_states(mesh, sol, nu_bar)
    nvals = np.asarray(en.N_of_rho(cells.rho, gc.rho_of_nu(nu_bar)))
    V = -cells.theta[:, None] * cells.grad_theta \
        + (cells.f * nvals)[:, None] * cells.grad_rho
    load = mesh.cell_gradient.T @ (mesh.areas[:, None] * V).ravel() \
        - mesh.cell_mean.T @ (mesh.areas * cells.density)
    special = np.abs(d_star - cells.epsilon * (psi_in.T @ load))
    return {"mass": mass, "curl": curl, "defect_star": d_star,
            "special_defect": special, "trace": trace}


def dissipation_oracle(mesh, sol):
    """eps * int |grad theta|^2 + (1 - c^2/q^2) q^-2 |grad rho|^2 dx."""
    cells = dg.cell_states(mesh, sol, gc.nu_of_rho(sol.config.rho_inf))
    return cells.epsilon * mesh.integrate(cells.density)


def compactness_oracle(mesh, cells, gen):
    """The D1 + D2 splitting of the entropy dissipation measure of a
    generator, by the generic formula from six derivative fields:

    D2 = -eps [ (rho H_ntt - H_tt)(|grad th|^2 + f q^-2 |grad rho|^2)
                + (H_ttt + rho H_nt)(2/rho) f grad th . grad rho ],
    D1 = eps div( grad th (rho H_nt - H_t)
                  + f grad rho (H_n + H_tt / rho) ),

    reported as the L1 norm of D2 and eps times the L2 norm of the D1
    flux."""
    eps = cells.epsilon
    rho_c, th_c, f = cells.rho, cells.theta, cells.f
    grad_rho, grad_th = cells.grad_rho, cells.grad_theta
    nu_c = np.asarray(gc.nu_of_rho(rho_c))
    H_nt, H_t, H_n, H_tt, H_ntt, H_ttt = (
        gen.d(i, j, nu_c, th_c)
        for i, j in ((1, 1), (0, 1), (1, 0), (0, 2), (1, 2), (0, 3)))
    cross = np.sum(grad_th * grad_rho, axis=1)
    D2 = -eps * ((rho_c * H_ntt - H_tt) * cells.density
                 + (H_ttt + rho_c * H_nt) * (2.0 / rho_c) * f * cross)
    flux = grad_th * (rho_c * H_nt - H_t)[:, None] \
        + (f * (H_n + H_tt / rho_c))[:, None] * grad_rho
    return {"D2_L1": mesh.integrate(np.abs(D2)),
            "D1_est": eps * math.sqrt(mesh.integrate(np.sum(flux ** 2,
                                                            axis=1)))}


# ----------------------------------------------------------------------
# the test space
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def coarse_and_fine():
    return [mh.build_mesh(mh.DomainSpec(h_mesh=h))
            for h in (1.0 / 32.0, 1.0 / 64.0)]


def test_interior_lattice_does_not_depend_on_h(coarse_and_fine):
    # 15 bumps of radius 0.125 at the same centres on both meshes
    assert dg.INTERIOR_RADIUS == 0.125
    centres = []
    for m in coarse_and_fine:
        psi_in, _ = dg.nodal_test_functions(m)
        assert psi_in.shape == (m.n_vertices, 15)
        bumps = interior_bumps(m.spec)
        centres.append([c for c, _ in bumps])
        assert np.array_equal(psi_in.toarray(),
                              psi_oracle(m, bumps).toarray())
    assert centres[0] == centres[1]


def test_interior_test_functions_agree_at_shared_vertices(coarse_and_fine):
    # vertex (i, j) is number i (ny + 1) + j; fine vertex (2i, 2j) is
    # coarse vertex (i, j), and there the two Psi_in rows are equal bit
    # for bit
    coarse, fine = coarse_and_fine
    ny = round(fine.spec.height / fine.spec.h_mesh)
    shared = np.arange(fine.n_vertices).reshape(-1, ny + 1)[::2, ::2]
    shared = shared.ravel()
    assert shared.size == coarse.n_vertices
    assert np.array_equal(fine.vertices[shared], coarse.vertices)
    rows = [dg.nodal_test_functions(m)[0].toarray()
            for m in coarse_and_fine]
    assert np.array_equal(rows[1][shared], rows[0])


def test_test_space_is_the_nodal_interpolant_in_vh0(mesh):
    interior = interior_bumps(mesh.spec)
    obstacle = obstacle_bumps(mesh.spec)
    psi_in, psi_obs = dg.nodal_test_functions(mesh)
    assert isinstance(psi_in, sp.csc_matrix)
    assert isinstance(psi_obs, sp.csc_matrix)
    assert psi_in.shape == (mesh.n_vertices, len(interior))
    assert psi_obs.shape == (mesh.n_vertices, len(obstacle))
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    far = mesh.boundary_nodes(mh.FARFIELD)
    inner = np.setdiff1d(np.arange(mesh.n_vertices), far)
    dense = np.hstack([psi_in.toarray(), psi_obs.toarray()])
    for j, (center, radius) in enumerate(interior + obstacle):
        direct = bump(center, radius, x, y)
        assert np.array_equal(dense[inner, j], direct[inner])
        if j < len(interior):
            assert np.array_equal(dense[:, j], direct)
    # obstacle bumps reach the far-field wall; phi_h is zero there
    assert np.any(np.stack([bump(c, r, x[far], y[far])
                            for c, r in obstacle]) > 0)
    assert not np.any(dense[far, len(interior):])
    # only the supports are stored
    for psi in (psi_in, psi_obs):
        assert psi.nnz == np.count_nonzero(psi.toarray())


# ----------------------------------------------------------------------
# the lattice functionals
# ----------------------------------------------------------------------

def _functionals(mesh, sol):
    nu_bar = gc.nu_of_rho(sol.config.rho_inf)
    pair = en.special_pair(nu_bar)
    psi_in, psi_obs = dg.nodal_test_functions(mesh)
    return dg.lattice_functionals(mesh, sol,
                                  dg.cell_states(mesh, sol, nu_bar), pair,
                                  psi_in, psi_obs)


def test_lattice_functionals_equal_their_oracles_bit_for_bit(mesh,
                                                             solution):
    # one flux evaluation and one stacked Psi_in.T product give the same
    # bits as a flux evaluation, a load and a product per functional
    nu_bar = gc.nu_of_rho(solution.config.rho_inf)
    expected = functionals_oracle(
        mesh, solution, en.special_pair(nu_bar), nu_bar,
        psi_oracle(mesh, interior_bumps(mesh.spec)),
        psi_oracle(mesh, obstacle_bumps(mesh.spec)))
    got = _functionals(mesh, solution)
    assert sorted(got) == sorted(expected)
    for key, value in expected.items():
        assert np.array_equal(got[key], value), key
    # and the report reads them, and the dissipation, unchanged
    record = dg.run_report(mesh, solution.config, [solution]).records[0]
    assert record["dissipation_integral"] == dissipation_oracle(mesh,
                                                                solution)
    assert record["weak_residuals"] == {
        "mass": float(np.abs(expected["mass"]).max()),
        "curl": float(np.abs(expected["curl"]).max())}
    assert record["entropy_defect_star_all"] == [
        float(x) for x in expected["defect_star"]]
    assert record["obstacle_trace_min"] == float(expected["trace"].min())
    assert record["special_identity_defect"] == float(
        expected["special_defect"].max())


def test_obstacle_trace_is_the_discrete_wall_identity(mesh, solution):
    # phi_h vanishes on the Dirichlet nodes, so the sigma equation turns
    # T(phi_h) into the trapezoid sum of phi_h (2|F.n| - F.n) on the arc
    _, psi = dg.nodal_test_functions(mesh)
    trace = _functionals(mesh, solution)["trace"]
    F = sv.nodal_fluxes(solution.rho, solution.theta)[0]
    Fn = mesh.obstacle_normal_flux(F)
    expected = psi.T @ (mesh.obstacle_scatter @ (2.0 * np.abs(Fn) - Fn))
    assert np.abs(trace - expected).max() <= 1e-8
    assert trace.min() > 0.0


EPS = [0.2, 0.1, 0.05, 0.025, 0.0125]


def test_entropy_dissipation_names_a_node_without_a_pair(mesh, solution):
    # a state where the pair is not finite is a domain error naming the
    # first such node, not a NaN in the defect vector
    theta = solution.theta.copy()
    theta[7] = np.nan
    bad = dataclasses.replace(solution, theta=theta)
    with pytest.raises(en.GeneratorDomainError,
                       match="not evaluable at node 7 "):
        _functionals(mesh, bad)
    assert np.all(np.isfinite(_functionals(mesh, solution)["defect_star"]))


def test_sqrt_eps_fit_exact_data():
    fit = dg.sqrt_eps_fit(EPS, 0.3 * np.sqrt(EPS))
    assert fit["C"] == pytest.approx(0.3, rel=1e-14)
    assert fit["violations"] == 0
    assert fit["max_excess"] == pytest.approx(1.0, rel=1e-14)


def test_sqrt_eps_fit_counts_one_outlier():
    values = 0.3 * np.sqrt(EPS)
    values[-1] *= 2.0
    fit = dg.sqrt_eps_fit(EPS, values)
    assert fit["violations"] == 1
    assert fit["max_excess"] > 1.25


def _passing_report():
    records = [{"invariant_region": {"pass": True}} for _ in range(3)]
    sweep = {"dissipation_ratio": 3.0, "trace_min": -1e-6,
             "mass_fit": {"violations": 0}, "curl_fit": {"violations": 0},
             "defect_star_fit": {"violations": 0},
             "D2_ratio": 3.0, "D1_ratio": 3.0}
    return dg.RunReport({}, records, sweep)


GATE_FAILURES = {
    "invariant_region":
        lambda r: r.records[1]["invariant_region"].update({"pass": False}),
    "dissipation_ratio": lambda r: r.sweep.update(dissipation_ratio=3.01),
    "trace_min": lambda r: r.sweep.update(trace_min=-2e-6),
    "mass_fit": lambda r: r.sweep["mass_fit"].update(violations=1),
    "curl_fit": lambda r: r.sweep["curl_fit"].update(violations=1),
    "defect_star_fit":
        lambda r: r.sweep["defect_star_fit"].update(violations=1),
    "D2_ratio": lambda r: r.sweep.update(D2_ratio=3.01),
    "D1_ratio": lambda r: r.sweep.update(D1_ratio=3.01),
}


def test_report_ok_at_the_gate_thresholds():
    assert _passing_report().ok


@pytest.mark.parametrize("gate", sorted(GATE_FAILURES))
def test_report_fails_with_any_one_gate(gate):
    report = _passing_report()
    GATE_FAILURES[gate](report)
    assert not report.ok


def test_run_report_derives_each_state_once(mesh, monkeypatch):
    # rho is inverted from sigma at most once per solution, every
    # cell-based diagnostic reads one set of cell states, and every
    # lattice functional one flux evaluation and one load per flux
    cfg = sv.SolverConfig(epsilons=(0.2, 0.1))
    solutions = sv.sweep(cfg, mesh)
    calls = {"rho_of_sigma": 0, "cell_states": 0, "nodal_fluxes": 0,
             "divergence_rhs": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(gc, "rho_of_sigma",
                        counted("rho_of_sigma", gc.rho_of_sigma))
    monkeypatch.setattr(dg, "cell_states",
                        counted("cell_states", dg.cell_states))
    monkeypatch.setattr(dg, "nodal_fluxes",
                        counted("nodal_fluxes", dg.nodal_fluxes))
    monkeypatch.setattr(mesh, "divergence_rhs",
                        counted("divergence_rhs", mesh.divergence_rhs))
    report = dg.run_report(mesh, cfg, solutions)
    assert len(report.records) == 2
    assert calls == {"rho_of_sigma": 2, "cell_states": 2, "nodal_fluxes": 2,
                     "divergence_rhs": 6}
    # the cached rho is the inversion of sigma, shared read-only
    sol = solutions[-1]
    assert np.array_equal(sol.rho, gc.rho_of_sigma(sol.sigma))
    assert not sol.rho.flags.writeable


@pytest.fixture(scope="module")
def swept(mesh):
    """The solutions of an h = 1/16 sweep over eps = 0.2, 0.1, 0.05 and
    their report."""
    cfg = sv.SolverConfig(epsilons=(0.2, 0.1, 0.05))
    solutions = sv.sweep(cfg, mesh)
    return solutions, dg.run_report(mesh, cfg, solutions)


def test_special_generator_d2_is_the_dissipation(swept):
    # for the special generator D2's weights are -1 and 0, so its L1 norm
    # is the dissipation integral; within 2 ulps, not bit for bit, as the
    # two round in different places
    _, report = swept
    assert len(report.records) == 3
    for rec in report.records:
        d2 = rec["compactness_star"]["D2_L1"]
        assert d2 == pytest.approx(rec["dissipation_integral"], rel=1e-14,
                                   abs=0.0)


def test_compactness_star_is_the_generic_splitting(mesh, swept):
    # the report's D1 and D2 come from the special identity's two cell
    # terms; the generic formula with the special generator's six
    # derivative fields gives D2 bit for bit (its weights are -1 and 0)
    # and D1 to rounding
    solutions, report = swept
    nu_bar = gc.nu_of_rho(solutions[0].config.rho_inf)
    gen = en.special_generator(gc.GasChart(), nu_bar)
    for sol, rec in zip(solutions, report.records):
        want = compactness_oracle(mesh, dg.cell_states(mesh, sol, nu_bar),
                                  gen)
        got = rec["compactness_star"]
        assert sorted(got) == ["D1_est", "D2_L1"]
        assert got["D2_L1"] == want["D2_L1"]
        assert got["D1_est"] == pytest.approx(want["D1_est"], rel=1e-13,
                                              abs=0.0)
