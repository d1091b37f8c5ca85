"""Command-line entry point: exit codes and the entropy-check output."""

import csv
import json

import cavlab.gaschart as gc
from cavlab import cli
from cavlab import entropy as en
from cavlab import solver as sv
from cavlab.config import RunConfig


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


def test_kernel_verify_on_corrupt_table(regular, tmp_path, capsys):
    # a truncated table is a usage error with a one-line message, not an
    # internal error with a traceback
    path = tmp_path / "table.cavk"
    regular.save(str(path))
    path.write_bytes(path.read_bytes()[:-8])
    assert cli.main(["kernel", "verify", str(path)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("bad kernel table: ") and "table.cavk" in err


def test_sweep_then_report(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg = tmp_path / "small.cfg"
    cfg.write_text("geometry.h_mesh = 0.0625\n"
                   "solver.epsilons = 0.2, 0.1\n"
                   f"output.dir = {run_dir}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    with open(run_dir / "report.json") as fh:
        trace_min = json.load(fh)["sweep"]["trace_min"]
    capsys.readouterr()
    assert cli.main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "epsilons: [0.2, 0.1]" in out
    assert "eps=0.2:" in out and "eps=0.1:" in out
    assert f"obstacle trace min: {trace_min:.3g}" in out
    with open(run_dir / "plotdata" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["epsilon"]) for r in rows] == [0.2, 0.1]
