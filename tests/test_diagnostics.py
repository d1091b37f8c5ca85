"""Diagnostics: the P1 test space, the obstacle trace identity, the
entropy defect, the sqrt(eps) fits and the gates of RunReport.ok."""

import dataclasses

import numpy as np
import pytest

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


def test_interior_lattice_does_not_depend_on_h():
    coarse, fine = [
        dg.interior_lattice(mh.build_mesh(mh.DomainSpec(h_mesh=h)))
        for h in (1.0 / 32.0, 1.0 / 64.0)]
    assert len(coarse) == len(fine) == 15
    assert [b.center for b in coarse] == [b.center for b in fine]
    assert {b.radius for b in coarse} == {b.radius for b in fine} == {0.125}


def test_test_space_is_the_nodal_interpolant_in_vh0(mesh):
    interior = dg.interior_lattice(mesh)
    obstacle = dg.obstacle_lattice(mesh)
    psi = dg.nodal_test_functions(mesh, interior + obstacle)
    assert psi.shape == (mesh.n_vertices, len(interior) + len(obstacle))
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    far = mesh.boundary_nodes(mh.FARFIELD)
    inner = np.setdiff1d(np.arange(mesh.n_vertices), far)
    dense = psi.toarray()
    for j, bump in enumerate(interior + obstacle):
        direct = bump(x, y)
        assert np.array_equal(dense[inner, j], direct[inner])
        if j < len(interior):
            assert np.array_equal(dense[:, j], direct)
    # obstacle bumps reach the far-field wall; phi_h is zero there
    assert np.any(np.stack([b(x[far], y[far]) for b in obstacle]) > 0)
    assert not np.any(dense[far, len(interior):])
    # only the supports are stored
    assert psi.nnz == np.count_nonzero(dense)


def test_obstacle_trace_is_the_discrete_wall_identity(mesh, solution):
    # phi_h vanishes on the Dirichlet nodes, so the sigma equation turns
    # T(phi_h) into the trapezoid sum of phi_h (2|F.n| - F.n) on the arc
    psi = dg.nodal_test_functions(mesh, dg.obstacle_lattice(mesh))
    trace = dg.obstacle_trace(mesh, solution, psi)
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
    pair = en.special_pair(gc.nu_of_rho(bad.config.rho_inf))
    psi = dg.nodal_test_functions(mesh, dg.interior_lattice(mesh))
    with pytest.raises(en.GeneratorDomainError,
                       match="not evaluable at node 7 "):
        dg.entropy_dissipation(mesh, bad, pair, psi)
    assert np.all(np.isfinite(dg.entropy_dissipation(mesh, solution, pair,
                                                     psi)))


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
    # rho is inverted from sigma at most once per solution, and every
    # cell-based diagnostic reads one set of cell states
    cfg = sv.SolverConfig(epsilons=(0.2, 0.1))
    solutions = sv.sweep(cfg, mesh)
    calls = {"rho_of_sigma": 0, "cell_states": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(gc, "rho_of_sigma",
                        counted("rho_of_sigma", gc.rho_of_sigma))
    monkeypatch.setattr(dg, "cell_states",
                        counted("cell_states", dg.cell_states))
    report = dg.run_report(mesh, cfg, solutions)
    assert len(report.records) == 2
    assert calls == {"rho_of_sigma": 2, "cell_states": 2}
    # the cached rho is the inversion of sigma, shared read-only
    sol = solutions[-1]
    assert np.array_equal(sol.rho, gc.rho_of_sigma(sol.sigma))
    assert not sol.rho.flags.writeable
