"""Each independent check must reject a corrupted output.

    python3 -m pytest -q perfbench/tests

Outputs come from the real program (a one-viscosity sweep and a small
kernel table) and are then corrupted one way at a time.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import checks  # noqa: E402

Q_INF = 0.9
EPS = 0.2


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    from cavlab.cli import main
    d = tmp_path_factory.mktemp("sweep")
    cfg = d / "run.cfg"
    cfg.write_text(f"flow.q_inf = {Q_INF!r}\nsolver.epsilons = {EPS!r}\n"
                   f"output.dir = {d / 'run'}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    return d / "run"


def _fixed_point(run_dir, fields=None):
    points, tris = checks.read_vtk(str(run_dir / "mesh.vtk"))
    mesh = checks.P1Mesh(points, tris)
    if fields is None:
        fields = checks.read_fields(str(run_dir / f"fields_eps_{EPS:g}.csv"),
                                    len(points))
    return mesh, fields, checks.fixed_point_checks(
        mesh, fields, EPS, Q_INF, chord=1.0, residual_tol=1e-7,
        tol_inv_factor=1e-3)


def test_converged_fields_pass(sweep_dir):
    _, _, res = _fixed_point(sweep_dir)
    assert all(ok for ok, _ in res.values()), res


def test_one_perturbed_sigma_node_is_rejected(sweep_dir):
    mesh, fields, _ = _fixed_point(sweep_dir)
    interior = np.setdiff1d(np.arange(len(mesh.points)),
                            mesh.boundary_edges.ravel())
    bad = dict(fields, sigma=fields["sigma"].copy())
    bad["sigma"][interior[len(interior) // 2]] *= 1.0 + 1e-6
    _, _, res = _fixed_point(sweep_dir, bad)
    assert not res["fixed_point.sigma"][0]
    assert res["fixed_point.theta"][0]


def test_moved_farfield_value_is_rejected(sweep_dir):
    mesh, fields, _ = _fixed_point(sweep_dir)
    bad = dict(fields, theta=fields["theta"].copy())
    bad["theta"][mesh.farfield_nodes(1.0)[0]] = 1e-9
    _, _, res = _fixed_point(sweep_dir, bad)
    assert not res["farfield"][0]


def test_invariant_region_violation_is_rejected(sweep_dir):
    mesh, fields, _ = _fixed_point(sweep_dir)
    bad = dict(fields, theta=fields["theta"] + 2.0 * float(checks.k_of_q(Q_INF)))
    _, _, res = _fixed_point(sweep_dir, bad)
    assert not res["invariant_region"][0]


def test_truncated_fields_csv_is_rejected(sweep_dir, tmp_path):
    src = sweep_dir / f"fields_eps_{EPS:g}.csv"
    lines = src.read_text().split("\n")
    cut = tmp_path / src.name
    cut.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    n = len(lines) - 2  # header and trailing newline
    with pytest.raises(checks.CheckError):
        checks.read_fields(str(cut), n)
    cut.write_text(src.read_text()[:-40])  # last row cut mid-number
    with pytest.raises(checks.CheckError):
        checks.read_fields(str(cut), n)


def test_truncated_vtk_is_rejected(sweep_dir, tmp_path):
    text = (sweep_dir / "mesh.vtk").read_text()
    cut = tmp_path / "mesh.vtk"
    cut.write_text(text[: len(text) // 3])
    with pytest.raises(checks.CheckError):
        checks.read_vtk(str(cut))


def _passing_report():
    eps = [0.2, 0.1, 0.05]
    recs = []
    for e in eps:
        recs.append({
            "epsilon": e,
            "invariant_region": {"min_q_margin": 0.0, "angle_margin": 0.0,
                                 "Wplus_excess": 0.0, "Wminus_excess": 0.0,
                                 "min_rho": 0.4, "tol_inv": 1e-4},
            "dissipation_integral": 1.0,
            "compactness_star": {"D2_L1": 2.0, "D1_est": 0.1 * math.sqrt(e)},
            "weak_residuals": {"mass": 0.3 * math.sqrt(e),
                               "curl": 0.2 * math.sqrt(e)},
            "entropy_defect_star": 0.05 * math.sqrt(e),
            "obstacle_trace_min": 0.0,
        })
    return {"records": recs}


PUSHES = {
    "gate.invariant_region":
        lambda r: r["records"][1]["invariant_region"].update(min_q_margin=-1e-3),
    "gate.dissipation_ratio":
        lambda r: r["records"][2].update(dissipation_integral=3.01),
    "gate.D2_ratio":
        lambda r: r["records"][0]["compactness_star"].update(D2_L1=6.02),
    "gate.D1_ratio":
        lambda r: r["records"][2]["compactness_star"].update(
            D1_est=0.31 * math.sqrt(0.05)),
    "gate.mass_fit":
        lambda r: r["records"][2]["weak_residuals"].update(mass=1.0),
    "gate.curl_fit":
        lambda r: r["records"][2]["weak_residuals"].update(curl=1.0),
    "gate.entropy_defect_fit":
        lambda r: r["records"][2].update(entropy_defect_star=1.0),
    "gate.obstacle_trace":
        lambda r: r["records"][0].update(obstacle_trace_min=-2e-6),
}


def test_gates_pass_on_a_clean_report():
    assert all(ok for ok, _ in checks.gates(_passing_report()).values())


@pytest.mark.parametrize("gate", sorted(PUSHES))
def test_gate_pushed_past_threshold_is_rejected(gate):
    rep = copy.deepcopy(_passing_report())
    PUSHES[gate](rep)
    res = checks.gates(rep)
    assert not res[gate][0]
    assert all(ok for name, (ok, _) in res.items() if name != gate)


def test_gates_read_a_real_report(sweep_dir):
    rep = json.loads((sweep_dir / "report.json").read_text())
    assert set(checks.gates(rep)) == set(checks.GATE_NAMES)


@pytest.fixture(scope="module")
def regular_table(tmp_path_factory):
    from cavlab import gaschart as gc
    from cavlab.kernelengine import GridSpec, build_kernel
    tr = build_kernel("regular", gc.GasChart(nu_star=gc.NU_CR / 2.0),
                      grid=GridSpec(n_xi_linear=5, n_xi_log=4))
    path = tmp_path_factory.mktemp("kernel") / "regular.cavk"
    tr.save(str(path))
    return tr, path


def _xi0(tr):
    nus = np.geomspace(tr.nu_min, tr.nu_star, 301)
    return checks.xi0_check("regular", nus, tr.Hhat(nus, 0.0),
                            tr.Hhat_nu(nus, 0.0))


def test_kernel_xi0_passes_and_rescaled_table_is_rejected(regular_table,
                                                          tmp_path):
    from cavlab.kernelengine import KernelTransform, assemble
    tr, path = regular_table
    assert _xi0(tr)[0]
    loaded = KernelTransform.load(str(path))
    nus = np.geomspace(tr.nu_min, tr.nu_star, 7)
    assert np.array_equal(loaded.Hhat(nus, 2.5), tr.Hhat(nus, 2.5))
    f = 1.01
    scaled = assemble("regular", tr.coeffs.scaled(f), tr.xi_grid,
                      tr.ghat * f, tr.ghat_nu * f, tr.ghat_xi * f,
                      tr.ghat_nuxi * f)
    scaled.save(str(tmp_path / "scaled.cavk"))
    reloaded = KernelTransform.load(str(tmp_path / "scaled.cavk"))
    assert not _xi0(reloaded)[0]
    assert not np.array_equal(reloaded.Hhat(nus, 2.5), tr.Hhat(nus, 2.5))


def test_singular_xi0_reference_is_one():
    nus = np.geomspace(1e-9, 0.08, 50)
    ones, zeros = np.ones_like(nus), np.zeros_like(nus)
    assert checks.xi0_check("singular", nus, ones, zeros)[0]
    assert not checks.xi0_check("singular", nus, ones, zeros + 2e-3)[0]


def test_chart_matches_its_definitions():
    rho = np.linspace(0.0, checks.RHO_CR, 101)
    sigma = 2.0 * rho - np.arctanh(rho)
    back = checks.rho_of_sigma(sigma)
    assert np.max(np.abs(2.0 * back - np.arctanh(back) - sigma)) < 1e-15
    # sigma is flat at rho_cr, so rho itself is only recovered away from it
    assert np.max(np.abs(back - rho)[rho < 0.69]) < 1e-12
    # k(q) against the integral of k'(q) = -(1/q) sqrt((2q^2-1)/(1-q^2))
    for q in (0.75, 0.9, 0.99):
        k, _ = quad(lambda s: math.sqrt((2 * s * s - 1) / (1 - s * s)) / s,
                    q, 1.0)
        assert abs(float(checks.k_of_q(q)) - k) < 1e-9
