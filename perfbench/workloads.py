"""The three workloads: pinned inputs, seed lists, and one round each.

A round is the unit a run repeats.  It makes the same program calls and
the same checks every time, so the share of failed operations is the
same in every run.  Each program call is a fresh process.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

import numpy as np

import checks

NU_CR = math.atanh(1.0 / math.sqrt(2.0)) - 1.0 / math.sqrt(2.0)

# Nearby inputs a seed picks from (seed modulo the list length); entry 0
# is the pinned default.  The steps are small enough that every entry
# converges, fails the same gates and needs within 1.5 % of entry 0's
# Picard iterations on sweep-default (2375 to 2425), so a seed changes
# the numbers but not the amount of work.
SWEEP_INPUTS = [  # (q_inf, bump height)
    (0.9, 0.05), (0.9001, 0.05), (0.8999, 0.05), (0.9002, 0.05),
    (0.8998, 0.05), (0.9, 0.0501), (0.9, 0.0499),
]
# Sweep keys the checks depend on, pinned to the defaults of the time;
# every other key is left to the program.
CHORD = 1.0
RESIDUAL_TOL = 1e-7
TOL_INV_FACTOR = 1e-3

NU_STAR_FACTORS = [1.0, 1.002, 0.998, 1.004, 0.996, 1.006]  # x nu_cr / 2

# Kernel grid for both tables: 69 xi columns against 249 at the command
# line's defaults, so a build fits a run.  It is the smallest grid tried
# on which `cavlab kernel verify` passes for both kinds (the singular
# table's Huygens leakage needs the 60 log-spaced columns).
KERNEL_GRID = {"n_nu": 241, "n_xi_linear": 9, "n_xi_log": 60,
               "xi_max_factor": 100.0}
KERNEL_Q_INF = 0.9
XI0_POINTS = 1201
# compactness_bounds_check on 12 x 9 states (refined to 23 x 17) in place
# of its default 24 x 17: the default alone takes longer than a run.
COMPACTNESS_GRID = (12, 9)

# Operations that fail at the time this benchmark was written, each
# because of a program fault named in README.md.  Any other failure makes
# the run incorrect.
KNOWN_FAILURES = {
    "sweep-default": {"gate.dissipation_ratio", "gate.D2_ratio",
                      "gate.D1_ratio", "gate.mass_fit", "gate.curl_fit",
                      "gate.entropy_defect_fit", "gate.obstacle_trace"},
    "fine-mesh": set(),
    "kernel-tables": {"xi0.singular"},
}


def probe_points(nu_star):
    """(nu, xi) pairs where a built table and its reload are compared."""
    nu = np.geomspace(nu_star * 1e-7, nu_star * 0.999, 7)
    xi = np.array([0.0, 0.3, 2.5, 17.0, 90.0])
    NU, XI = np.meshgrid(nu, xi, indexing="ij")
    return NU.ravel(), XI.ravel()


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "cavlab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + fh.read())
    return h.hexdigest()[:16]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Sweep:
    """`cavlab sweep` on a pinned config, checked from its output files."""

    def __init__(self, name, h_mesh, epsilons, with_gates):
        self.name = name
        self.h_mesh = h_mesh
        self.epsilons = epsilons
        self.with_gates = with_gates

    def inputs(self, seed):
        q_inf, bump = SWEEP_INPUTS[seed % len(SWEEP_INPUTS)]
        return {"q_inf": q_inf, "bump_height": bump}

    def config_text(self, inputs, run_dir):
        eps = ",".join(repr(e) for e in self.epsilons)
        return (f"geometry.h_mesh = {self.h_mesh!r}\n"
                f"geometry.bump_height = {inputs['bump_height']!r}\n"
                f"geometry.chord = {CHORD!r}\n"
                f"flow.q_inf = {inputs['q_inf']!r}\n"
                f"solver.epsilons = {eps}\n"
                f"solver.residual_tol = {RESIDUAL_TOL!r}\n"
                f"solver.tol_inv_factor = {TOL_INV_FACTOR!r}\n"
                f"output.dir = {run_dir}\n")

    def round(self, ctx, inputs):
        run_dir = ctx.work_dir("run")
        cfg_path = os.path.join(ctx.work_dir("input"), "sweep.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text(inputs, run_dir))
        ctx.call(["cli", "sweep", "--config", cfg_path], "sweep")
        ops = []
        try:
            report_bytes, report, mesh, fields = self._read(run_dir)
            ops.append(("sweep.outputs", True, 0))
        except (OSError, ValueError, KeyError) as exc:
            ops.append(("sweep.outputs", False, str(exc)))
            report_bytes = report = mesh = None
            fields = [None] * len(self.epsilons)
        for eps, fld in zip(self.epsilons, fields):
            names = ("fixed_point.sigma", "fixed_point.theta", "farfield",
                     "invariant_region")
            if fld is None:
                ops += [(f"{n}@{eps:g}", False, "no output") for n in names]
                continue
            try:
                res = checks.fixed_point_checks(
                    mesh, fld, eps, inputs["q_inf"], CHORD, RESIDUAL_TOL,
                    TOL_INV_FACTOR)
            except checks.CheckError as exc:
                res = {n: (False, str(exc)) for n in names}
            ops += [(f"{n}@{eps:g}", bool(res[n][0]), res[n][1]) for n in names]
        ops.append(("report.identical",
                    *self._same_report(ctx, inputs, report_bytes)))
        if self.with_gates:
            if report is None:
                ops += [(g, False, "no report") for g in checks.GATE_NAMES]
            else:
                ops += [(n, bool(ok), v) for n, (ok, v)
                        in checks.gates(report).items()]
        ctx.artifact_dirs.append(run_dir)
        return ops

    def _read(self, run_dir):
        with open(os.path.join(run_dir, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
        got = [r["epsilon"] for r in report["records"]]
        if got != list(self.epsilons):
            raise checks.CheckError(f"report has epsilons {got}")
        points, tris = checks.read_vtk(os.path.join(run_dir, "mesh.vtk"))
        mesh = checks.P1Mesh(points, tris)
        fields = []
        for eps in self.epsilons:
            fld = checks.read_fields(
                os.path.join(run_dir, f"fields_eps_{eps:g}.csv"), len(points))
            if not (np.array_equal(fld["x"], points[:, 0])
                    and np.array_equal(fld["y"], points[:, 1])):
                raise checks.CheckError("fields and mesh disagree on vertices")
            fields.append(fld)
        return report_bytes, report, mesh, fields

    def _same_report(self, ctx, inputs, report_bytes):
        """report.json is byte-identical across runs of one commit: the
        first run of a config stores its digest, later ones compare."""
        if report_bytes is None:
            return False, "no report"
        key = hashlib.sha256((ctx.source_digest
                              + self.config_text(inputs, "")).encode())
        ref_path = os.path.join(ctx.base, "reports", key.hexdigest()[:24])
        digest = hashlib.sha256(report_bytes).hexdigest()
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                ref = fh.read().strip()
            return digest == ref, digest[:12]
        os.makedirs(os.path.dirname(ref_path), exist_ok=True)
        with open(ref_path, "w", encoding="utf-8") as fh:
            fh.write(digest + "\n")
        return True, digest[:12]


class KernelTables:
    """Build both kernel tables, verify them, then read them back."""

    def inputs(self, seed):
        f = NU_STAR_FACTORS[seed % len(NU_STAR_FACTORS)]
        return {"nu_star": f * NU_CR / 2.0}

    def round(self, ctx, inputs):
        d = ctx.work_dir("tables")
        tables, ops, probes = {}, [], {}
        for kind in ("regular", "singular"):
            tables[kind] = os.path.join(d, f"{kind}.cavk")
            probe = os.path.join(d, f"{kind}.probe.json")
            ctx.call(["kernel-build", kind, repr(inputs["nu_star"]),
                      tables[kind], probe], f"build-{kind}")
            try:
                probes[kind] = _read_json(probe)
                ops.append((f"build.{kind}", True, 0))
            except (OSError, ValueError) as exc:
                ops.append((f"build.{kind}", False, str(exc)))
        for kind in ("regular", "singular"):
            out = os.path.join(d, f"verify-{kind}.json")
            ctx.call(["cli", "kernel", "verify", tables[kind], "--out", out],
                     f"verify-{kind}")
            try:
                rep = _read_json(out)
                ops.append((f"verify.{kind}", rep["pass"] is True,
                            rep["huygens_leakage"]))
            except (OSError, ValueError, KeyError) as exc:
                ops.append((f"verify.{kind}", False, str(exc)))
        out = os.path.join(d, "read.json")
        ctx.call(["kernel-read", tables["regular"], tables["singular"],
                  repr(KERNEL_Q_INF), out], "read")
        try:
            read = _read_json(out)
        except (OSError, ValueError) as exc:
            read = None
            err = str(exc)
        for kind in ("regular", "singular"):
            if read is None or kind not in probes:
                ops.append((f"reload.{kind}", False, "missing output"))
            else:
                ops.append((f"reload.{kind}",
                            read["probe"][kind] == probes[kind], 0))
        for kind in ("regular", "singular"):
            if read is None:
                ops.append((f"xi0.{kind}", False, err))
                continue
            x = read["xi0"][kind]
            ok, e = checks.xi0_check(kind, x["nu"], x["H"], x["H_nu"])
            ops.append((f"xi0.{kind}", bool(ok), e))
        if read is None:
            ops += [("mix.admissible", False, err),
                    ("compactness.stable", False, err)]
        else:
            m = read["mix"]
            ok = m["margin_convexity"] >= 0.0 and m["margin_cross"] >= 0.0
            ops.append(("mix.admissible", ok, m["margin_cross"]))
            cb = read["compactness"]
            ops.append(("compactness.stable", cb["stable"] is True,
                        max(cb["drift_combination"], cb["drift_fields"])))
        return ops


WORKLOADS = {
    "sweep-default": Sweep("sweep-default", 1.0 / 32.0,
                           (0.2, 0.1, 0.05, 0.025), with_gates=True),
    "fine-mesh": Sweep("fine-mesh", 1.0 / 96.0, (0.2,), with_gates=False),
    "kernel-tables": KernelTables(),
}
