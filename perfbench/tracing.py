"""Spans around calls into cavlab's modules, recorded from outside them.

The hooks replace public functions and methods with wrappers before the
program runs; nothing inside src/cavlab records anything.  Each wrapped
call becomes one span (name, start, end, parent), kept in memory and
written to an .npz file when the process ends.  The per-layer metrics
are computed from those files by `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# span name -> (module, attribute path)
HOOKS = {
    "solver.init": ("cavlab.solver", "PicardSolver.__init__"),
    "solver.solve_epsilon": ("cavlab.solver", "PicardSolver.solve_epsilon"),
    "solver.picard_step": ("cavlab.solver", "PicardSolver.picard_step"),
    "solver.rhs": ("cavlab.solver", "PicardSolver.rhs"),
    "solver.residual_norms": ("cavlab.solver", "PicardSolver.residual_norms"),
    "meshing.build_mesh": ("cavlab.meshing", "build_mesh"),
    "meshing.divergence_rhs": ("cavlab.meshing", "Mesh.divergence_rhs"),
    "gaschart.rho_of_sigma": ("cavlab.gaschart", "rho_of_sigma"),
    "diagnostics.run_report": ("cavlab.diagnostics", "run_report"),
    "cli.save_config": ("cavlab.cli", "ArtifactStore.save_config"),
    "cli.save_fields": ("cavlab.cli", "ArtifactStore.save_fields"),
    "cli.save_mesh": ("cavlab.cli", "ArtifactStore.save_mesh"),
    "cli.save_report": ("cavlab.cli", "ArtifactStore.save_report"),
    "cli.save_plotdata": ("cavlab.cli", "ArtifactStore.save_plotdata"),
    "kernelengine.build_regular_coeffs":
        ("cavlab.kernelengine", "build_regular_coeffs"),
    "kernelengine.build_singular_coeffs":
        ("cavlab.kernelengine", "build_singular_coeffs"),
    "kernelengine.integrate_remainder":
        ("cavlab.kernelengine", "integrate_remainder"),
    "kernelengine.verify_kernel": ("cavlab.kernelengine", "verify_kernel"),
    "kernelengine.smooth_kernel": ("cavlab.kernelengine", "smooth_kernel"),
    "kernelengine.huygens_leakage": ("cavlab.kernelengine", "huygens_leakage"),
    "kernelengine.convolved_pairs":
        ("cavlab.kernelengine", "SmoothedKernel.convolved_pairs"),
    "kernelbasis.fhat": ("cavlab.kernelbasis", "fhat"),
    "kernelbasis.fhat_d1": ("cavlab.kernelbasis", "fhat_d1"),
    "kernelbasis.fhat_d2": ("cavlab.kernelbasis", "fhat_d2"),
    "entropy.compactness_bounds_check":
        ("cavlab.entropy", "compactness_bounds_check"),
    "entropy.admissible_kernel_mix": ("cavlab.entropy", "admissible_kernel_mix"),
    "entropy.convexity_check": ("cavlab.entropy", "convexity_check"),
}

# per-layer metric -> (statistic, spans it reads)
#   count: number of spans; total: wall time of the outermost spans;
#   self: span time minus the time its child spans cover
LAYER_METRICS = {
    "solver.picard_iterations": ("count", ["solver.picard_step"]),
    "solver.solve_epsilon_s": ("total", ["solver.solve_epsilon"]),
    "solver.rhs_calls": ("count", ["solver.rhs"]),
    "solver.rhs_self_s": ("self", ["solver.rhs"]),
    "solver.residual_norms_self_s": ("self", ["solver.residual_norms"]),
    "solver.picard_step_self_s": ("self", ["solver.picard_step"]),
    "solver.init_s": ("total", ["solver.init"]),
    "meshing.divergence_rhs_calls": ("count", ["meshing.divergence_rhs"]),
    "meshing.divergence_rhs_s": ("total", ["meshing.divergence_rhs"]),
    "meshing.build_mesh_s": ("total", ["meshing.build_mesh"]),
    "gaschart.rho_of_sigma_calls": ("count", ["gaschart.rho_of_sigma"]),
    "gaschart.rho_of_sigma_s": ("total", ["gaschart.rho_of_sigma"]),
    "diagnostics.run_report_s": ("total", ["diagnostics.run_report"]),
    "cli.artifacts_s": ("total", ["cli.save_config", "cli.save_fields",
                                  "cli.save_mesh", "cli.save_report",
                                  "cli.save_plotdata"]),
    "kernelengine.coeffs_s": ("total", ["kernelengine.build_regular_coeffs",
                                        "kernelengine.build_singular_coeffs"]),
    "kernelengine.remainder_s": ("total", ["kernelengine.integrate_remainder"]),
    "kernelengine.remainder_columns":
        ("count", ["kernelengine.integrate_remainder"]),
    "kernelbasis.fhat_calls": ("count", ["kernelbasis.fhat",
                                         "kernelbasis.fhat_d1",
                                         "kernelbasis.fhat_d2"]),
    "kernelbasis.fhat_s": ("total", ["kernelbasis.fhat", "kernelbasis.fhat_d1",
                                     "kernelbasis.fhat_d2"]),
    "kernelengine.verify_s": ("total", ["kernelengine.verify_kernel"]),
    "kernelengine.smooth_s": ("total", ["kernelengine.smooth_kernel",
                                        "kernelengine.huygens_leakage"]),
    "kernelengine.convolved_pairs_calls":
        ("count", ["kernelengine.convolved_pairs"]),
    "kernelengine.convolved_pairs_s":
        ("total", ["kernelengine.convolved_pairs"]),
    "entropy.compactness_bounds_s":
        ("total", ["entropy.compactness_bounds_check"]),
    "entropy.kernel_mix_s": ("total", ["entropy.admissible_kernel_mix",
                                       "entropy.convexity_check"]),
}


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names = list(HOOKS)
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.tag = []
        self.stack = []
        self.installed = []

    def _wrap(self, fn, name_id, tagged):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            # solve_epsilon(self, eps, ...): keep eps to split iterations
            self.tag.append(float(args[1]) if tagged else np.nan)
            self.end.append(np.nan)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
        return wrapper

    def install(self):
        """Wrap every hook that exists; a missing one is skipped."""
        for name_id, name in enumerate(self.names):
            module_name, path = HOOKS[name]
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            setattr(owner, attr, self._wrap(fn, name_id,
                                             name == "solver.solve_epsilon"))
            self.installed.append(name)

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 installed=np.array(self.installed, dtype=str),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 tag=np.array(self.tag))


def load_spans(paths):
    """Concatenate span files of one round (parents re-based per file)."""
    parts, installed, offset = [], set(), 0
    names = None
    for p in paths:
        with np.load(p) as z:
            names = list(z["names"])
            installed.update(str(s) for s in z["installed"])
            parent = z["parent"].copy()
            parent[parent >= 0] += offset
            parts.append((z["name"], parent, z["start"], z["end"], z["tag"]))
            offset += len(z["name"])
    if not parts:
        return None
    name, parent, start, end, tag = (np.concatenate(c) for c in zip(*parts))
    return {"names": names, "installed": installed, "name": name,
            "parent": parent, "dur": end - start, "tag": tag}


def layer_metrics(spans):
    """Per-layer metric values of one round; hooks never installed are
    left out, so a function a refactor removed reads as missing."""
    names, name, parent, dur = (spans["names"], spans["name"],
                                spans["parent"], spans["dur"])
    child_time = np.zeros(len(name))
    has = parent >= 0
    np.add.at(child_time, parent[has], dur[has])
    out = {}
    for metric, (stat, span_names) in LAYER_METRICS.items():
        if not any(s in spans["installed"] for s in span_names):
            continue
        ids = [names.index(s) for s in span_names]
        sel = np.isin(name, ids)
        if stat == "count":
            out[metric] = int(sel.sum())
        elif stat == "self":
            out[metric] = float(np.sum(dur[sel] - child_time[sel]))
        else:
            out[metric] = float(np.sum(dur[sel & ~_inside(sel, parent)]))
    return out


def _inside(sel, parent):
    """Mask of spans that have an ancestor in `sel`."""
    inside = np.zeros(len(sel), dtype=bool)
    cur = parent.copy()
    while np.any(cur >= 0):
        live = cur >= 0
        inside[live] |= sel[cur[live]]
        cur[live] = parent[cur[live]]
    return inside


def iterations_per_epsilon(spans):
    """Picard steps under each solve_epsilon span, keyed by epsilon."""
    names = spans["names"]
    if "solver.solve_epsilon" not in spans["installed"]:
        return {}
    solve_id = names.index("solver.solve_epsilon")
    step_id = names.index("solver.picard_step")
    steps = spans["parent"][spans["name"] == step_id]
    out = {}
    for idx in np.nonzero(spans["name"] == solve_id)[0]:
        out[f"{spans['tag'][idx]:g}"] = int(np.sum(steps == idx))
    return out
