"""Command-line entry point: exit codes and the entropy-check output."""

import ast
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cavlab
import cavlab.gaschart as gc
from cavlab import cli
from cavlab import entropy as en
from cavlab import kernelengine as ke
from cavlab import meshing as mh
from cavlab import solver as sv
from cavlab.config import RunConfig, parse_config


def _raise(exc):
    def run_sweep(cfg):
        raise exc
    return run_sweep


def test_internal_error_is_not_a_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_sweep", _raise(RuntimeError("boom")))
    code = cli.main(["sweep"])
    assert code == cli.INTERNAL_ERROR
    assert code not in (0, cli.CHECK_FAILED, cli.USAGE_ERROR)
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_nonconvergence_is_a_check_failure(monkeypatch):
    exc = sv.ConvergenceError("no fixed point", {"updates": []})
    monkeypatch.setattr(cli, "_run_sweep", _raise(exc))
    assert cli.main(["check"]) == cli.CHECK_FAILED


def test_usage_error():
    assert cli.main(["no-such-command"]) == cli.USAGE_ERROR


def test_entropy_check_writes_computed_margins(tmp_path):
    out = tmp_path / "margins.csv"
    assert cli.main(["entropy", "check", "--points", "3",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    cfg = RunConfig()
    nu_bar = gc.nu_of_rho(gc.rho_of_q(cfg.solver.q_inf))
    gen = en.special_generator(gc.GasChart(nu_star=cfg.kernel.nu_star),
                               nu_bar)
    for row in rows:
        ref = en.convexity_check(gen, [float(row["nu"])],
                                 [float(row["theta"])])
        assert float(row["margin_convexity"]) == ref["margin_convexity"]
        assert float(row["margin_cross"]) == ref["margin_cross"]


def _entropy_rows_per_state(points):
    """The rows `entropy check` wrote when it looped over the states,
    each state a 1 x 1 grid and one scalar Loewner-Morawetz assembly."""
    cfg = RunConfig()
    chart = gc.GasChart(nu_star=cfg.kernel.nu_star)
    nu_bar = gc.nu_of_rho(gc.rho_of_q(cfg.solver.q_inf))
    gen = en.special_generator(chart, nu_bar)
    pair = en.special_pair(nu_bar)
    rows = []
    for nu in np.geomspace(1e-4, chart.nu_star * 0.99, points):
        for th in np.linspace(-1.0, 1.0, points):
            rho = gc.rho_of_nu(nu)
            margins = en.convexity_check(gen, [nu], [th])
            nu_s = gc.nu_of_rho(rho)
            hn = float(np.asarray(gen.d(1, 0, nu_s, th)))
            ht = float(np.asarray(gen.d(0, 1, nu_s, th)))
            q, ct, st = math.sqrt(1.0 - rho * rho), math.cos(th), math.sin(th)
            q1 = rho * q * ct * hn - q * st * ht
            q2 = rho * q * st * hn + q * ct * ht
            p1, p2 = (float(p) for p in pair(rho, th))
            defect = max(abs(q1 - p1), abs(q2 - p2))
            rows.append([f"{nu:.17g}", f"{th:.17g}",
                         f"{margins['margin_convexity']:.17g}",
                         f"{margins['margin_cross']:.17g}", defect])
    return rows


@pytest.mark.parametrize("points", [12, 40])
def test_entropy_check_matches_per_state_loop(tmp_path, points):
    out = tmp_path / "margins.csv"
    assert cli.main(["entropy", "check", "--points", str(points),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ref = _entropy_rows_per_state(points)
    assert len(rows) == len(ref) == points * points
    for row, want in zip(rows, ref):
        assert row[:4] == want[:4]  # nu, theta and both margins, as text
        assert float(row[4]) < 1e-9
        assert abs(float(row[4]) - want[4]) <= 1e-14


# (arguments, configuration text or None when the command reads none)
OUT_OF_RANGE = {
    "tables-nu-star-negative": (["tables", "--nu-star", "-1"], None),
    "tables-nu-star-zero": (["tables", "--nu-star", "0"], None),
    "kernel-build-nu-star": (["kernel", "build", "--kind", "regular",
                              "--nu-star", "0.5"], None),
    "config-nu-star": (["entropy", "check"], "kernel.nu_star = 0.5\n"),
    "solve-epsilon-zero": (["solve", "--epsilon", "0"], ""),
    "solve-epsilon-negative": (["solve", "--epsilon", "-0.1"], ""),
    "config-epsilons": (["solve"], "solver.epsilons = 0.1, -0.1\n"),
    "config-epsilons-inf-check": (["check"], "solver.epsilons = inf\n"),
    "config-epsilons-inf-sweep": (["sweep"], "solver.epsilons = inf\n"),
    "config-epsilons-inf-solve": (["solve"], "solver.epsilons = inf\n"),
    "config-h-mesh-nan": (["check"], "geometry.h_mesh = nan\n"),
    "config-half-length-inf": (["check"], "geometry.half_length = inf\n"),
    "config-bump-height-nan": (["check"], "geometry.bump_height = nan\n"),
    "config-picard-tol-nan": (["check"], "solver.picard_tol = nan\n"),
    "config-picard-tol-negative": (["check"], "solver.picard_tol = -1\n"),
    "config-max-iters-zero": (["check"], "solver.max_iters = 0\n"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_is_a_usage_error(tmp_path, capsys, case):
    argv, cfg_text = OUT_OF_RANGE[case]
    if argv[0] not in ("solve", "sweep", "check"):
        argv = argv + ["--out", str(tmp_path / "out")]
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text + f"output.dir = {tmp_path / 'run'}\n")
        argv = argv + ["--config", str(cfg)]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("nu_min, points", [("0.1", "200"),
                                             ("0.0871334029164978", "3")])
def test_tables_nu_min_must_be_below_nu_star(tmp_path, capsys, nu_min,
                                             points):
    # the default nu_star is NU_CR/2 = 0.08713340291649779; at or above
    # it the chart rows would not increase in nu
    out = tmp_path / "chart.csv"
    assert cli.main(["tables", "--nu-min", nu_min, "--points", points,
                     "--out", str(out)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "Traceback" not in err
    assert nu_min in err and repr(gc.NU_CR / 2.0) in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_kernel_out_is_checked_before_any_work(tmp_path, monkeypatch, capsys,
                                               command, out):
    calls = []

    def must_not_run(*args, **kwargs):
        calls.append(args)
        raise AssertionError("ran before its --out path was checked")
    monkeypatch.setattr(ke, "build_kernel", must_not_run)
    monkeypatch.setattr(ke.KernelTransform, "load",
                        staticmethod(must_not_run))
    path = tmp_path / "missing" / "out" if out == "missing-directory" \
        else tmp_path
    argv = (["kernel", "build", "--kind", "regular"] if command == "build"
            else ["kernel", "verify", str(tmp_path / "table.cavk")])
    assert cli.main(argv + ["--out", str(path)]) == cli.USAGE_ERROR
    assert calls == []
    assert str(path) in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


UNUSABLE_PATHS = ["config-is-a-directory", "output-dir-is-a-file",
                  "report-json-is-a-directory", "table-is-a-directory"]


def _taken_output_dir(tmp_path):
    """(config path, output.dir): a one-viscosity run whose output.dir
    names an existing file."""
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry.h_mesh = 0.25\nsolver.epsilons = 0.2\n"
                   f"output.dir = {taken}\n")
    return cfg, taken


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_path_is_a_usage_error(tmp_path, capsys, case):
    # a directory where a file is read, or a file where the run directory
    # goes: one line naming the path, and no traceback
    if case == "config-is-a-directory":
        path, argv = tmp_path, ["check", "--config", str(tmp_path)]
    elif case == "output-dir-is-a-file":
        cfg, path = _taken_output_dir(tmp_path)
        argv = ["sweep", "--config", str(cfg)]
    elif case == "report-json-is-a-directory":
        path = tmp_path / "report.json"
        path.mkdir()
        argv = ["report", str(tmp_path)]
    else:
        path, argv = tmp_path, ["kernel", "verify", str(tmp_path)]
    assert cli.main(argv) == cli.USAGE_ERROR
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "Traceback" not in err
    assert str(path) in err


@pytest.mark.parametrize("command", ["check", "solve", "sweep"])
def test_output_dir_is_checked_before_any_solve(tmp_path, monkeypatch,
                                                command):
    cfg, _ = _taken_output_dir(tmp_path)
    calls = []
    monkeypatch.setattr(sv, "sweep", lambda *args: calls.append(args))
    monkeypatch.setattr(sv.PicardSolver, "solve_epsilon",
                        lambda *args: calls.append(args))
    assert cli.main([command, "--config", str(cfg)]) == cli.USAGE_ERROR
    assert calls == []


def test_workers_option_is_gone(tmp_path):
    # kernel tables come from one vectorised integration; no pool to size
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.workers = 2\n")
    assert cli.main(["entropy", "check", "--config", str(cfg), "--points",
                     "2", "--out", str(tmp_path / "m.csv")]) == cli.USAGE_ERROR
    assert cli.main(["kernel", "build", "--kind", "regular", "--out",
                     str(tmp_path / "t.cavk"),
                     "--workers", "2"]) == cli.USAGE_ERROR


def test_check_on_small_config(tmp_path):
    run_dir = tmp_path / "run"
    cfg = tmp_path / "small.cfg"
    cfg.write_text("geometry.h_mesh = 0.0625\n"
                   "solver.epsilons = 0.2, 0.1, 0.05\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main(["check", "--config", str(cfg)]) in (0, cli.CHECK_FAILED)
    with open(run_dir / "report.json") as fh:
        report = json.load(fh)
    assert [r["epsilon"] for r in report["records"]] == [0.2, 0.1, 0.05]


def test_default_check_fails_its_pre_asymptotic_gates(tmp_path):
    # the default check (h = 1/32, eps = 0.2 ... 0.0125) is a named
    # pre-asymptotic case: an outflow layer and an eps range where the
    # sqrt(eps) laws have not started fail six gates, at these values
    run_dir = tmp_path / "run"
    cfg = tmp_path / "default.cfg"
    cfg.write_text(f"output.dir = {run_dir}\n")
    assert cli.main(["check", "--config", str(cfg)]) == cli.CHECK_FAILED
    with open(run_dir / "report.json") as fh:
        report = json.load(fh)
    sweep = report["sweep"]
    gates = {
        "invariant-region": all(r["invariant_region"]["pass"]
                                for r in report["records"]),
        "dissipation": sweep["dissipation_ratio"] <= 3.0,
        "trace": sweep["trace_min"] >= -1e-6,
        "mass-fit": sweep["mass_fit"]["violations"] == 0,
        "curl-fit": sweep["curl_fit"]["violations"] == 0,
        "entropy-defect-fit": sweep["defect_star_fit"]["violations"] == 0,
        "D2": sweep["D2_ratio"] <= 3.0,
        "D1": sweep["D1_ratio"] <= 3.0,
    }
    assert {gate for gate, ok in gates.items() if not ok} == {
        "dissipation", "D2", "D1", "mass-fit", "curl-fit",
        "entropy-defect-fit"}
    assert sweep["dissipation_ratio"] == pytest.approx(6.1794, rel=1e-4)
    assert sweep["D1_ratio"] == pytest.approx(11.361, rel=1e-4)
    assert sweep["trace_min"] > 0.0


@pytest.mark.parametrize("command", ("sweep", "check"))
def test_unresolved_epsilon_is_a_usage_error(tmp_path, capsys, command):
    # at h/eps = 5 the invariant-region verdict is meaningless
    run_dir = tmp_path / "run"
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("geometry.h_mesh = 0.0625\n"
                   "solver.epsilons = 0.2, 0.0125\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main([command, "--config", str(cfg)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "smallest epsilon 0.0125" in err and "h_mesh/2.5 = 0.025" in err
    assert not run_dir.exists()


def test_solve_applies_the_sweep_resolution_check(tmp_path, capsys,
                                                  monkeypatch):
    # at the default h = 1/32, eps = 0.00625 is h/5: refused as `sweep`
    # refuses it, before any solver exists
    run_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output.dir = {run_dir}\n")
    made = []
    monkeypatch.setattr(sv, "PicardSolver", lambda *args: made.append(args))
    assert cli.main(["solve", "--config", str(cfg), "--epsilon",
                     "0.00625"]) == cli.USAGE_ERROR
    assert made == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "smallest epsilon 0.00625" in err and "h_mesh/2.5 = 0.0125" in err
    assert not run_dir.exists()


def test_solve_config_reproduces_the_run(tmp_path):
    # config.cfg records the one epsilon solved, not the configured sweep,
    # so solving from it again writes the same fields file
    run_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geometry.h_mesh = 0.25\noutput.dir = {run_dir}\n")
    assert cli.main(["solve", "--config", str(cfg), "--epsilon", "0.1"]) == 0
    saved = run_dir / "config.cfg"
    assert parse_config(saved.read_text()).solver.epsilons == (0.1,)
    fields = (run_dir / "fields_eps_0.1.csv").read_bytes()
    assert cli.main(["solve", "--config", str(saved)]) == 0
    assert (run_dir / "fields_eps_0.1.csv").read_bytes() == fields
    assert sorted(os.listdir(run_dir)) == [
        "config.cfg", "fields_eps_0.1.csv", "mesh.vtk"]


@pytest.mark.parametrize("command", ("solve", "sweep", "check"))
def test_only_sweep_writes_plotdata(tmp_path, command):
    run_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry.h_mesh = 0.25\nsolver.epsilons = 0.2\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main([command, "--config", str(cfg)]) in (0, cli.CHECK_FAILED)
    plotdata = run_dir / "plotdata"
    if command == "sweep":
        assert sorted(os.listdir(plotdata)) == ["cauchy.csv", "sweep.csv"]
    else:
        assert not plotdata.exists()


@pytest.mark.parametrize("command", ("sweep", "check"))
def test_epsilons_sharing_a_fields_file_are_a_usage_error(tmp_path, capsys,
                                                          command):
    # 0.1000001 and 0.1 both print as 0.1, so one fields file would
    # silently overwrite the other
    run_dir = tmp_path / "run"
    cfg = tmp_path / "close.cfg"
    cfg.write_text("geometry.h_mesh = 0.0625\n"
                   "solver.epsilons = 0.2, 0.1000001, 0.1\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main([command, "--config", str(cfg)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "0.1000001 and 0.1 would both write fields_eps_0.1.csv" in err
    assert not run_dir.exists()


@pytest.mark.parametrize("command", ("sweep", "check"))
def test_channel_without_room_for_the_lattice_is_a_usage_error(
        tmp_path, capsys, command):
    # height 0.3 is a valid geometry (bump 0.05 < height / 2), but the
    # interior lattice's rows need bump_height + 2 x 1.05 x 0.125: below
    # that its supports reach the obstacle and the lid
    run_dir = tmp_path / "run"
    cfg = tmp_path / "short.cfg"
    cfg.write_text("geometry.height = 0.3\n"
                   "geometry.h_mesh = 0.0625\n"
                   "solver.epsilons = 0.2\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main([command, "--config", str(cfg)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "at least bump_height + 0.2625 = 0.3125" in err
    assert not run_dir.exists()


def test_epsilon_at_h_over_2_5_is_accepted(tmp_path):
    # the default sits exactly on the bound (h = 1/32, eps down to 0.0125)
    cfg = RunConfig()
    assert min(cfg.solver.epsilons) == cfg.geometry.h_mesh / cli.MAX_H_OVER_EPS
    cli._check_resolution(cfg)
    # so are the benchmark's sweep-default and fine-mesh sweeps
    for h, eps in ((1 / 32, (0.2, 0.1, 0.05, 0.025)), (1 / 96, (0.2,))):
        cli._check_resolution(RunConfig(
            geometry=mh.DomainSpec(h_mesh=h),
            solver=sv.SolverConfig(epsilons=eps)))
    run_dir = tmp_path / "run"
    path = tmp_path / "edge.cfg"
    path.write_text("geometry.h_mesh = 0.125\n"
                    "solver.epsilons = 0.2, 0.05\n"
                    f"output.dir = {run_dir}\n")
    assert cli.main(["check", "--config", str(path)]) in (0, cli.CHECK_FAILED)
    with open(run_dir / "report.json") as fh:
        report = json.load(fh)
    assert [r["epsilon"] for r in report["records"]] == [0.2, 0.05]


def test_kernel_verify_on_corrupt_table(regular, save_corrupted, tmp_path,
                                       capsys):
    # a truncated table, one holding a value that is not finite, or one
    # whose header disagrees with its body is a usage error with a
    # one-line message: not a passed or failed check, and not an internal
    # error with a traceback
    path = tmp_path / "table.cavk"
    for change in ("truncated", "nan in ghat", "nan last in ghat_nuxi",
                   "inf last in ghat_nu", "nan in alpha0",
                   "header nu_star 0.2", "header nu_star 5e-8",
                   "normalization 1 ulp off"):
        if change == "truncated":
            regular.save(str(path))
            path.write_bytes(path.read_bytes()[:-8])
        else:
            save_corrupted(regular, path, change)
        assert cli.main(["kernel", "verify", str(path)]) == cli.USAGE_ERROR, \
            change
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert err.startswith("bad kernel table: ") and "table.cavk" in err


def test_kernel_build_breaking_the_table_contract(tmp_path, monkeypatch,
                                                  capsys):
    # a remainder integration that returns a NaN fails the build in the
    # table's constructor; `kernel build` reports it as an internal error
    # and writes no table
    def nan_remainder(kind, coeffs, xi, **kwargs):
        tables = [np.zeros((len(coeffs.nu_grid), len(xi))) for _ in range(4)]
        tables[0][-1, -1] = np.nan
        return (coeffs.nu_grid.copy(), *tables)
    monkeypatch.setattr(ke, "integrate_remainder", nan_remainder)
    with pytest.raises(ke.KernelTableError,
                       match="section remainder ghat holds"):
        ke.build_kernel("regular", grid=ke.GridSpec(n_nu=41, n_xi_linear=3,
                                                    n_xi_log=1))
    path = tmp_path / "regular.cavk"
    assert cli.main(["kernel", "build", "--kind", "regular", "--out",
                     str(path)]) == cli.INTERNAL_ERROR
    assert "KernelTableError" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("change", ("no alpha0", "nu reversed"))
def test_kernel_verify_on_table_with_bad_contents(regular, save_altered,
                                                  tmp_path, capsys, change):
    # a well-formed file without the alpha0 column, or with its nu grid
    # reversed, is a malformed table: a usage error with a one-line
    # message, not a KeyError or a spline's ValueError with a traceback
    path = tmp_path / "table.cavk"
    cols = regular.coeffs.columns
    save_altered(regular, path, **{
        "no alpha0": {"columns": {k: v for k, v in cols.items()
                                  if k != "alpha0"}},
        "nu reversed": {"nu_grid": regular.coeffs.nu_grid[::-1]}}[change])
    assert cli.main(["kernel", "verify", str(path)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("bad kernel table: ") and "table.cavk" in err


# the columns a table keeps: each expansion coefficient with its first two
# nu-derivatives, and the forcing of the remainder ODE
KEPT_COLUMNS = {
    "regular": ("alpha0", "alpha0p", "alpha0pp", "alpha1", "alpha1p",
                "alpha1pp", "ell"),
    "singular": ("beta0", "beta0p", "beta0pp", "beta1", "beta1p", "beta1pp",
                 "beta2", "beta2p", "beta2pp", "ell2"),
}


@pytest.mark.parametrize("kind,column", [
    (kind, column) for kind, columns in KEPT_COLUMNS.items()
    for column in columns])
def test_kernel_verify_checks_every_column(request, save_altered, tmp_path,
                                           kind, column):
    # whichever stored column is 1e-4 off, the generator-equation residual
    # of `kernel verify` shows it and the table fails
    tr = request.getfixturevalue(kind)
    cols = tr.coeffs.columns
    path, out = tmp_path / "table.cavk", tmp_path / "verify.json"
    save_altered(tr, path, columns={**cols, column: cols[column] * 1.0001})
    assert cli.main(["kernel", "verify", str(path), "--out",
                     str(out)]) == cli.CHECK_FAILED
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert rep["generator_residual"] > 1e-10
    assert sorted(cols) == sorted(KEPT_COLUMNS[kind])


@pytest.mark.parametrize("xi_max", ("2", "4"))
def test_kernel_build_rejects_folded_xi_grid(xi_max, tmp_path, capsys):
    # an --xi-max at or below the end of the linear xi part would write a
    # table whose xi grid is not increasing; it is a usage error instead
    table = tmp_path / "table.cavk"
    assert cli.main(["kernel", "build", "--kind", "regular", "--xi-max",
                     xi_max, "--out", str(table)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert "xi grid is not strictly increasing" in err
    assert not table.exists()


def test_kernel_build_nu_star_bound_is_the_calibration_point(tmp_path,
                                                            capsys):
    # the calibration reads the table at nu = 1e-7: that nu_star builds,
    # and a smaller one is refused before any work, naming the bound
    table = tmp_path / "table.cavk"
    assert cli.main(["kernel", "build", "--kind", "regular", "--nu-star",
                     "9.9e-8", "--out", str(table)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert "calibration point nu = 1e-07" in err
    assert not table.exists()
    assert cli.main(["kernel", "build", "--kind", "regular", "--nu-star",
                     "1e-7", "--out", str(table)]) == 0
    assert table.exists()


@pytest.mark.parametrize("kind", ["regular", "singular"])
def test_kernel_build_then_verify(kind, tmp_path, capsys):
    # the command line's default grid: the table it writes verifies, and
    # the calibration the build prints is the one stored in the table
    table, report = tmp_path / "table.cavk", tmp_path / "verify.json"
    assert cli.main(["kernel", "build", "--kind", kind,
                     "--out", str(table)]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["kernel", "verify", str(table),
                     "--out", str(report)]) == 0
    with open(report) as fh:
        rep = json.load(fh)
    assert rep["pass"] is True and rep["kind"] == kind
    assert f"calibration={rep['calibration']!r})" in printed


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """Run directory of `cavlab sweep` at h = 1/16, eps = 0.2, 0.1."""
    tmp = tmp_path_factory.mktemp("sweep")
    run_dir = tmp / "run"
    cfg = tmp / "small.cfg"
    cfg.write_text("geometry.h_mesh = 0.0625\n"
                   "solver.epsilons = 0.2, 0.1\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    return run_dir


def test_sweep_then_report(swept, capsys):
    with open(swept / "report.json") as fh:
        trace_min = json.load(fh)["sweep"]["trace_min"]
    capsys.readouterr()
    assert cli.main(["report", str(swept)]) == 0
    out = capsys.readouterr().out
    assert "epsilons: [0.2, 0.1]" in out
    assert "eps=0.2:" in out and "eps=0.1:" in out
    assert f"obstacle trace min: {trace_min:.3g}" in out
    with open(swept / "plotdata" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["epsilon"]) for r in rows] == [0.2, 0.1]


DAMAGED_REPORTS = {  # damage -> what the error line names
    "old": "'krylov_steps'", "truncated": "not JSON", "mistyped": "malformed"}


@pytest.mark.parametrize("damage", sorted(DAMAGED_REPORTS))
def test_report_on_a_damaged_report_is_a_usage_error(swept, tmp_path,
                                                      capsys, damage):
    # a run directory written before krylov_steps was recorded, one whose
    # report.json was cut short, and one with a string for a number
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    text = (swept / "report.json").read_text()
    report = json.loads(text)
    if damage == "old":
        for rec in report["records"]:
            del rec["krylov_steps"]
        text = json.dumps(report)
    elif damage == "mistyped":
        report["sweep"]["dissipation_ratio"] = "6.18"
        text = json.dumps(report)
    else:
        text = text[:len(text) // 2]
    (run_dir / "report.json").write_text(text)
    capsys.readouterr()
    assert cli.main(["report", str(run_dir)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and "Traceback" not in err
    assert str(run_dir / "report.json") in err
    assert DAMAGED_REPORTS[damage] in err


RECORD_KEYS = {"epsilon", "iterations", "krylov_steps", "final_residual",
               "invariant_region", "dissipation_integral", "weak_residuals",
               "entropy_defect_star", "entropy_defect_star_all",
               "compactness_star", "obstacle_trace_min",
               "special_identity_defect"}
SWEEP_KEYS = {"dissipation_ratio", "D2_ratio", "D1_over_sqrt_eps", "D1_ratio",
              "mass_fit", "curl_fit", "defect_star_fit", "trace_min",
              "cauchy"}


def test_report_keys(swept):
    with open(swept / "report.json") as fh:
        report = json.load(fh)
    assert set(report) == {"config", "records", "sweep"}
    for rec in report["records"]:
        assert set(rec) == RECORD_KEYS
    assert set(report["sweep"]) == SWEEP_KEYS


def test_run_directory_layout(swept):
    # no kernels/ directory: no command reads or writes kernel tables there
    assert sorted(os.listdir(swept)) == [
        "config.cfg", "fields_eps_0.1.csv", "fields_eps_0.2.csv",
        "mesh.vtk", "plotdata", "report.json"]


def test_save_fields_matches_csv_writer_text(tmp_path):
    mesh = mh.build_mesh(mh.DomainSpec(h_mesh=1 / 8))
    sol = sv.PicardSolver(mesh, sv.SolverConfig()).solve_epsilon(0.2)
    store = cli.ArtifactStore(str(tmp_path / "run"))
    store.save_fields(mesh, sol)
    ref = tmp_path / "ref.csv"
    _csv_writer_text(ref, ["x", "y", "sigma", "theta", "rho", "q", "Wminus",
                           "Wplus"],
                     zip(mesh.vertices[:, 0], mesh.vertices[:, 1], sol.sigma,
                         sol.theta, sol.rho, sol.q, sol.W_minus, sol.W_plus))
    got = tmp_path / "run" / "fields_eps_0.2.csv"
    assert got.read_bytes() == ref.read_bytes()


def _csv_writer_text(path, header, rows):
    """Every cell through f"{float(x):.17g}" and csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{float(x):.17g}" for x in row] for row in rows)


def test_write_csv_matches_csv_writer_text(tmp_path):
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0, 1e16, 0.1, 7]
    columns = [np.array(special[:-1]), special[::-1][:-1],
               np.arange(len(special) - 1)]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    cli._write_csv(str(got), ["a", "b", "c"], columns)
    _csv_writer_text(ref, ["a", "b", "c"], zip(*columns))
    assert got.read_bytes() == ref.read_bytes()


def _fresh_interpreter(code):
    """stdout of code run in a new interpreter that imports this cavlab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cavlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_sweep_process_does_not_load_kernel_stack():
    code = ("import sys\n"
            "import cavlab.cli, cavlab.solver, cavlab.diagnostics, "
            "cavlab.meshing\n"
            "print(' '.join(m for m in ('scipy.integrate', "
            "'scipy.interpolate', 'scipy.optimize', 'scipy.sparse.linalg') "
            "if m in sys.modules))")
    assert _fresh_interpreter(code).strip() == ""


def test_importing_every_module_loads_no_scipy():
    # scipy.sparse is imported by the functions that build sparse
    # operators, so importing the package loads numpy only
    code = """
import importlib, pkgutil, sys
import cavlab
for info in pkgutil.iter_modules(cavlab.__path__):
    importlib.import_module("cavlab." + info.name)
print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))
"""
    assert _fresh_interpreter(code).strip() == ""


def test_kernel_processes_load_numpy_only(tmp_path):
    # build, verify (as `cavlab kernel verify`), reload and evaluate both
    # kinds on a small grid: the kernel stack is numpy code of its own and
    # loads no scipy module at all
    code = f"""
import os, sys
import numpy as np
from cavlab import cli
from cavlab import kernelengine as ke
grid = ke.GridSpec(n_nu=41, n_xi_linear=5, n_xi_log=12)
for kind in ("regular", "singular"):
    path = os.path.join({str(tmp_path)!r}, kind + ".cavk")
    ke.build_kernel(kind, grid=grid).save(path)
    assert cli.main(["kernel", "verify", path, "--out", os.devnull]) in (
        0, cli.CHECK_FAILED)
    tr = ke.KernelTransform.load(path)
    assert np.isfinite(tr.Hhat(np.geomspace(tr.nu_min, tr.nu_star, 5), 1.0)
                       ).all()
    assert np.isfinite(tr.Hhat_nu(tr.nu_star, np.linspace(0.0, 3.0, 4))
                       ).all()
print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))
"""
    assert _fresh_interpreter(code).strip() == ""


def test_commands_without_solver_run_without_scipy(swept, tmp_path,
                                                   monkeypatch, capsys):
    # with scipy unimportable, each command that solves nothing gives the
    # exit code, standard output and files it gives with scipy
    commands = [["tables", "--out", "chart.csv"],
                ["basis-check", "--out", "basis.json"],
                ["entropy", "check", "--out", "margins.csv"],
                ["kernel", "build", "--kind", "regular", "--out",
                 "regular.cavk"],
                ["kernel", "verify", "regular.cavk", "--out", "verify.json"],
                ["report", str(swept)]]
    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    blocked.mkdir()
    plain.mkdir()
    code = f"""
import contextlib, io, json, os, sys
sys.modules["scipy"] = None
from cavlab import cli
os.chdir({str(blocked)!r})
results = []
for argv in {commands!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    results.append([status, out.getvalue()])
print(json.dumps(results))
"""
    got = json.loads(_fresh_interpreter(code))
    monkeypatch.chdir(plain)
    want = []
    for argv in commands:
        status = cli.main(argv)
        want.append([status, capsys.readouterr().out])
    assert got == want
    assert [status for status, _ in want] == [0] * len(commands)
    names = sorted(os.listdir(plain))
    assert names == ["basis.json", "chart.csv", "margins.csv",
                     "regular.cavk", "verify.json"]
    assert sorted(os.listdir(blocked)) == names
    for name in names:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes()


def _imported_modules(tree):
    """Absolute module names that the import statements of a module's
    syntax tree name, at any depth: `from scipy import special` names
    both scipy and scipy.special."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_package_imports_no_test_only_dependency():
    # the runtime dependencies are numpy and scipy's sparse and linear
    # algebra: no module of the package imports mpmath or scipy's special
    # functions, root finders, integrators or interpolators, not even
    # inside a function
    banned = ("mpmath", "scipy.special", "scipy.optimize", "scipy.integrate",
              "scipy.interpolate")
    package = os.path.dirname(os.path.abspath(cavlab.__file__))
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            hits = sorted(m for m in _imported_modules(tree)
                          if any(m == b or m.startswith(b + ".")
                                 for b in banned))
            if hits:
                found[name] = hits
    assert found == {}
