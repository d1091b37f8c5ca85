"""Command-line entry point.

Subcommands: tables, basis-check, kernel build|verify, entropy check,
solve, sweep, check, report.  `kernel verify` writes the report of
`kernelengine.verify_kernel` and fails when its "pass" is false.  `sweep`
and `check` share one loop over the configured viscosities,
`solver.sweep`; a configuration file with an unknown or repeated key, an
argument outside its range, a sweep whose smallest viscosity is below
h_mesh/2.5, or one with two viscosities that agree to 6 significant
digits (they would share one fields file) is a usage error, and so is a
path that cannot be used: one that is missing, a directory where a file
is read, a file where the run directory goes, or one without permission.
The run directory is made before the mesh is built, so a sweep never
solves for a directory it cannot write.  `solve` is a one-viscosity
sweep as far as checks go: the epsilon it solves (the first configured
one, or --epsilon) is the only one its config.cfg records, and it must
be resolved by the mesh.  Only `sweep` writes plotdata/.  Exit codes:
0 success, 1 check failure (including a solve that finds no fixed
point), 2 usage/configuration error (including a malformed kernel
table or a report.json `report` cannot read), 3 internal error (the
traceback goes to stderr).  Reports are JSON with stable key order;
tabular output is RFC-4180 CSV with a header row; field and mesh exports
are legacy ASCII VTK.  All pipelines are deterministic, so identical
configurations reproduce byte-identical reports.

Every --out path is checked before any work is done: a missing
directory, a directory in its place or one without write permission is
a usage error, and nothing is computed or written.

Importing the package loads numpy only.  scipy is loaded by `solve`,
`sweep` and `check` when they build the mesh's sparse operators (see
`meshing`); `tables`, `basis-check`, `kernel build|verify`,
`entropy check` and `report` run without it.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import gaschart as gc
from .config import ConfigError, RunConfig, dump_config, parse_config
from .meshing import write_rows
from .solver import ConvergenceError

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _check_out(path: str | None) -> None:
    """Raise the error that writing the --out file `path` would raise, if
    it is one, before any work is done and without making the file:
    FileNotFoundError when its directory is missing, IsADirectoryError
    when it names a directory, PermissionError when it may not be
    written.  None (output to stdout) passes."""
    if path is None:
        return
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path) as fh:
        return parse_config(fh.read())


def _write_json(path_or_stream, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if isinstance(path_or_stream, str):
        with open(path_or_stream, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        path_or_stream.write(text + "\n")


def _write_csv(path, header, columns) -> None:
    """CSV of numeric columns, one per header name: the header goes
    through csv.writer, and each row is written by `write_rows` as "%.17g"
    values joined by commas and ended by CRLF, the row csv.writer would
    give, since no field needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        write_rows(fh, ",".join(["%.17g"] * len(header)) + "\r\n",
                   np.column_stack(columns))


def _fields_file(eps: float) -> str:
    return f"fields_eps_{eps:g}.csv"


def _between(kind, lo, hi=math.inf):
    """argparse type: a `kind` value strictly between lo and hi."""
    def convert(text):
        value = kind(text)
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(
                f"{text} is outside ({lo:g}, {hi:g})")
        return value
    convert.__name__ = kind.__name__  # names the type in argparse errors
    return convert


POSITIVE_INT = _between(int, 0)
POSITIVE = _between(float, 0.0)
NU_RANGE = _between(float, 0.0, gc.NU_CR)


class ArtifactStore:
    """Run directory layout; every run reproducible from config.cfg."""

    def __init__(self, run_dir: str):
        self.root = run_dir
        os.makedirs(run_dir, exist_ok=True)

    def path(self, *parts) -> str:
        return os.path.join(self.root, *parts)

    def save_config(self, cfg: RunConfig) -> None:
        with open(self.path("config.cfg"), "w") as fh:
            fh.write(dump_config(cfg))

    def save_fields(self, mesh, sol) -> None:
        _write_csv(self.path(_fields_file(sol.epsilon)),
                   ["x", "y", "sigma", "theta", "rho", "q", "Wminus",
                    "Wplus"],
                   [mesh.vertices, sol.sigma, sol.theta, sol.rho, sol.q,
                    sol.W_minus, sol.W_plus])

    def save_mesh(self, mesh, fields) -> None:
        from .meshing import write_vtk
        write_vtk(self.path("mesh.vtk"), mesh, point_fields=fields)

    def save_report(self, report_dict) -> None:
        _write_json(self.path("report.json"), report_dict)

    def save_plotdata(self, report) -> None:
        rows = [(r["epsilon"], r["dissipation_integral"],
                 r["weak_residuals"]["mass"], r["weak_residuals"]["curl"],
                 r["entropy_defect_star"], r["compactness_star"]["D1_est"],
                 r["compactness_star"]["D2_L1"]) for r in report.records]
        os.makedirs(self.path("plotdata"), exist_ok=True)
        _write_csv(self.path("plotdata", "sweep.csv"),
                   ["epsilon", "dissipation", "mass_residual",
                    "curl_residual", "entropy_defect_star", "D1_est",
                    "D2_L1"], list(zip(*rows)))
        ch = report.sweep["cauchy"]
        _write_csv(self.path("plotdata", "cauchy.csv"),
                   ["epsilon", "l2_difference"],
                   [ch["epsilons"][1:], ch["l2_differences"]])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_tables(args) -> int:
    if args.nu_min >= args.nu_star:
        print(f"bad --nu-min: {args.nu_min!r} is not below --nu-star "
              f"{args.nu_star!r}", file=sys.stderr)
        return USAGE_ERROR
    chart = gc.GasChart(nu_star=args.nu_star)
    nus = np.geomspace(args.nu_min, chart.nu_star, args.points)
    tab = chart.table(nus)
    cols = ["nu", "rho", "q", "sigma", "k", "kprime", "kdoubleprime", "M"]
    _write_csv(args.out, cols, [tab[c] for c in cols])
    print(f"wrote {len(nus)} chart rows to {args.out}")
    return 0


def cmd_basis_check(args) -> int:
    from .kernelbasis import check_recurrences
    rep = check_recurrences()
    _write_json(args.out or sys.stdout, rep)
    return 0 if rep["pass"] else CHECK_FAILED


def cmd_kernel_build(args) -> int:
    from .kernelengine import NU_CALIBRATION, GridSpec, build_kernel
    if args.nu_star < NU_CALIBRATION:
        print(f"bad --nu-star: {args.nu_star:g} is below the calibration "
              f"point nu = {NU_CALIBRATION:g}, which the table must reach",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        grid = GridSpec(xi_max_factor=args.xi_max)
    except ValueError as exc:
        print(f"bad --xi-max: {exc}", file=sys.stderr)
        return USAGE_ERROR
    tr = build_kernel(args.kind, gc.GasChart(nu_star=args.nu_star), grid=grid)
    tr.save(args.out)
    print(f"built {args.kind} kernel table -> {args.out} "
          f"(nu_star={tr.nu_star:g}, calibration={tr.coeffs.calibration!r})")
    return 0


def cmd_kernel_verify(args) -> int:
    from .kernelengine import KernelTableError, KernelTransform, verify_kernel
    try:
        table = KernelTransform.load(args.table)
    except KernelTableError as exc:
        print(f"bad kernel table: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rep = verify_kernel(table)
    _write_json(args.out or sys.stdout, rep)
    return 0 if rep["pass"] else CHECK_FAILED


def cmd_entropy_check(args) -> int:
    from . import entropy as en
    cfg = _load_config(args.config)
    nu_lo, nu_hi = 1e-4, cfg.kernel.nu_star * 0.99  # the states' nu range
    if nu_lo >= nu_hi:
        print(f"bad kernel.nu_star: {cfg.kernel.nu_star!r} puts 0.99 nu_star "
              f"at or below the least state nu = {nu_lo:g}", file=sys.stderr)
        return USAGE_ERROR
    chart = gc.GasChart(nu_star=cfg.kernel.nu_star)
    nu_bar = gc.nu_of_rho(gc.rho_of_q(cfg.solver.q_inf))
    gen = en.special_generator(chart, nu_bar)
    pair = en.special_pair(nu_bar)
    nus = np.geomspace(nu_lo, nu_hi, args.points)
    ths = np.linspace(-1.0, 1.0, args.points)
    # one row per (nu, theta) state, theta varying fastest
    c1, c2 = en.admissibility_margins(gen, nus, ths)
    NU, TH = np.meshgrid(nus, ths, indexing="ij")
    rho = np.asarray(gc.rho_of_nu(nus))[:, None]
    q1, q2 = en.loewner_morawetz(gen, rho, TH)
    p1, p2 = pair(rho, TH)
    defect = np.maximum(np.abs(q1 - p1), np.abs(q2 - p2))
    ok = bool(defect.max() < 1e-9 and c1.min() >= -en.MARGIN_TOL
              and c2.min() >= -en.MARGIN_TOL)
    _write_csv(args.out, ["nu", "theta", "margin_convexity", "margin_cross",
                          "pair_assembly_defect"],
               [a.ravel() for a in (NU, TH, c1, c2, defect)])
    print(f"wrote entropy margins to {args.out}")
    return 0 if ok else CHECK_FAILED


# the invariant-region verdict holds only at h/eps <= 2.5 (at h/eps = 5
# it fails on every mesh tried), so sweeps go no finer in eps than this
MAX_H_OVER_EPS = 2.5


def _check_resolution(cfg: RunConfig) -> None:
    """ConfigError unless the smallest viscosity is resolved by the mesh."""
    h = cfg.geometry.h_mesh
    eps_min = min(cfg.solver.epsilons)
    if eps_min < h / MAX_H_OVER_EPS:
        raise ConfigError(
            f"smallest epsilon {eps_min:g} is below h_mesh/{MAX_H_OVER_EPS:g}"
            f" = {h / MAX_H_OVER_EPS:g} (h_mesh = {h:g}); refine the mesh "
            "or drop that epsilon")


def _check_lattice(cfg: RunConfig) -> None:
    """ConfigError unless the interior test lattice fits in the channel:
    its bumps' supports must stay off the walls."""
    from .diagnostics import INTERIOR_MARGIN
    g = cfg.geometry
    least_height = g.bump_height + 2.0 * INTERIOR_MARGIN
    if g.height < least_height:
        raise ConfigError(
            f"geometry.height {g.height:g} leaves no room for the interior "
            f"test lattice: it needs at least bump_height + "
            f"{2.0 * INTERIOR_MARGIN:g} = {least_height:g}")
    if g.half_length < INTERIOR_MARGIN:
        raise ConfigError(
            f"geometry.half_length {g.half_length:g} leaves no room for the "
            f"interior test lattice: it needs at least {INTERIOR_MARGIN:g}")


def _check_fields_files(cfg: RunConfig) -> None:
    """ConfigError if two viscosities would write one fields file."""
    seen = {}
    for eps in cfg.solver.epsilons:
        name = _fields_file(eps)
        if name in seen:
            raise ConfigError(
                f"epsilons {seen[name]!r} and {eps!r} would both write "
                f"{name}; make them differ in the first 6 significant digits")
        seen[name] = eps


def _run_sweep(cfg: RunConfig):
    """Warm-started solutions of the configured sweep and their report:
    (mesh, solutions, report, store), config.cfg and report.json saved.
    A sweep the mesh does not resolve, whose channel has no room for the
    interior test lattice, or whose viscosities share a fields file, is a
    configuration error; the run directory is made before the mesh is
    built."""
    _check_resolution(cfg)
    _check_lattice(cfg)
    _check_fields_files(cfg)
    from .diagnostics import run_report
    from .meshing import build_mesh
    from .solver import sweep
    store = ArtifactStore(cfg.output_dir)
    mesh = build_mesh(cfg.geometry)
    solutions = sweep(cfg.solver, mesh)
    report = run_report(mesh, cfg.solver, solutions)
    store.save_config(cfg)
    store.save_report(report.to_dict())
    return mesh, solutions, report, store


def cmd_solve(args) -> int:
    """One viscosity, checked and recorded as a one-entry sweep: the
    first configured epsilon or --epsilon."""
    cfg = _load_config(args.config)
    eps = cfg.solver.epsilons[0] if args.epsilon is None else args.epsilon
    cfg = replace(cfg, solver=replace(cfg.solver, epsilons=(eps,)))
    _check_resolution(cfg)
    from .meshing import build_mesh
    from .solver import PicardSolver
    store = ArtifactStore(cfg.output_dir)
    mesh = build_mesh(cfg.geometry)
    sol = PicardSolver(mesh, cfg.solver).solve_epsilon(eps)
    store.save_config(cfg)
    store.save_mesh(mesh, fields={"rho": sol.rho, "theta": sol.theta})
    store.save_fields(mesh, sol)
    print(f"solved eps={eps:g} in {sol.iterations} Newton steps, "
          f"{sol.krylov_steps} Krylov steps (min q = {sol.q.min():.6f})")
    return 0


def cmd_sweep(args) -> int:
    mesh, solutions, report, store = _run_sweep(_load_config(args.config))
    store.save_mesh(mesh, fields={"rho": solutions[-1].rho,
                                  "theta": solutions[-1].theta})
    for sol in solutions:
        store.save_fields(mesh, sol)
    store.save_plotdata(report)
    print(f"sweep complete: {len(solutions)} solutions -> {store.root}")
    return 0


def cmd_check(args) -> int:
    _, _, report, _ = _run_sweep(_load_config(args.config))
    ok = report.ok
    print(f"check: {'PASS' if ok else 'FAIL'} "
          f"(dissipation ratio {report.sweep['dissipation_ratio']:.3g}, "
          f"trace min {report.sweep['trace_min']:.3g})")
    return 0 if ok else CHECK_FAILED


def _report_summary(rundir: str, payload: dict) -> list:
    """Lines `cavlab report` prints for a stored report."""
    sweep = payload["sweep"]
    lines = [
        f"run: {rundir}",
        f"  epsilons: {[r['epsilon'] for r in payload['records']]}",
        f"  dissipation ratio: {sweep['dissipation_ratio']:.4g}",
        f"  weak-residual sqrt(eps) fits: mass C={sweep['mass_fit']['C']:.3g} "
        f"(violations {sweep['mass_fit']['violations']}), "
        f"curl C={sweep['curl_fit']['C']:.3g} "
        f"(violations {sweep['curl_fit']['violations']})",
        f"  entropy defect fit: C={sweep['defect_star_fit']['C']:.3g} "
        f"(violations {sweep['defect_star_fit']['violations']})",
        f"  obstacle trace min: {sweep['trace_min']:.3g}",
        f"  cauchy differences: "
        f"{[round(d, 6) for d in sweep['cauchy']['l2_differences']]}"]
    for rec in payload["records"]:
        inv = rec["invariant_region"]
        lines.append(f"  eps={rec['epsilon']:g}: newton={rec['iterations']} "
                     f"krylov={rec['krylov_steps']} "
                     f"min-q margin={inv['min_q_margin']:+.2e} "
                     f"angle margin={inv['angle_margin']:+.2e} "
                     f"{'ok' if inv['pass'] else 'VIOLATED'}")
    return lines


def cmd_report(args) -> int:
    """Summary of a run directory's report.json; a file that does not
    parse, lacks a key the summary reads (as reports written before
    `krylov_steps` was recorded do) or holds a value of the wrong type is
    a usage error."""
    path = os.path.join(args.rundir, "report.json")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = _report_summary(args.rundir, json.load(fh))
    except json.JSONDecodeError as exc:
        problem = f"not JSON ({exc})"
    except KeyError as exc:
        problem = f"missing key {exc}"
    except (TypeError, ValueError) as exc:  # a value of the wrong type
        problem = f"malformed ({exc})"
    else:
        print("\n".join(lines))
        return 0
    print(f"bad report {path}: {problem}", file=sys.stderr)
    return USAGE_ERROR


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cavlab",
        description="Numerical laboratory for supersonic potential flow "
                    "with cavitation")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="dump the coordinate chart as CSV")
    t.add_argument("--out", default="chart.csv")
    t.add_argument("--points", type=POSITIVE_INT, default=200)
    t.add_argument("--nu-min", type=NU_RANGE, default=1e-8)
    t.add_argument("--nu-star", type=NU_RANGE, default=gc.NU_CR / 2.0)
    t.set_defaults(fn=cmd_tables)

    b = sub.add_parser("basis-check",
                       help="verify the Fourier-side recurrence relations")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_basis_check)

    k = sub.add_parser("kernel", help="build or verify kernel tables")
    ksub = k.add_subparsers(dest="kernel_command", required=True)
    kb = ksub.add_parser("build")
    kb.add_argument("--kind", choices=("regular", "singular"), required=True)
    kb.add_argument("--nu-star", type=NU_RANGE, default=gc.NU_CR / 2.0)
    kb.add_argument("--xi-max", type=POSITIVE, default=200.0)
    kb.add_argument("--out", required=True)
    kb.set_defaults(fn=cmd_kernel_build)
    kv = ksub.add_parser("verify")
    kv.add_argument("table")
    kv.add_argument("--out", default=None)
    kv.set_defaults(fn=cmd_kernel_verify)

    e = sub.add_parser("entropy", help="entropy-pair checks")
    esub = e.add_subparsers(dest="entropy_command", required=True)
    ec = esub.add_parser("check")
    ec.add_argument("--config", default=None)
    ec.add_argument("--out", default="entropy_margins.csv")
    ec.add_argument("--points", type=POSITIVE_INT, default=12)
    ec.set_defaults(fn=cmd_entropy_check)

    sv_ = sub.add_parser("solve", help="solve at one viscosity")
    sv_.add_argument("--config", default=None)
    sv_.add_argument("--epsilon", type=POSITIVE, default=None)
    sv_.set_defaults(fn=cmd_solve)

    sw = sub.add_parser("sweep", help="viscosity sweep with diagnostics")
    sw.add_argument("--config", default=None)
    sw.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("check", help="sweep + diagnostics, nonzero on failure")
    c.add_argument("--config", default=None)
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("report", help="summarize a stored run")
    r.add_argument("rundir")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _check_out(getattr(args, "out", None))
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (IsADirectoryError, NotADirectoryError, FileExistsError,
            PermissionError) as exc:
        print(f"unusable path: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
