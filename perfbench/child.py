"""One cavlab operation in a fresh process, optionally traced.

    child.py [--trace SPANS.npz] cli ARGS...
    child.py [--trace SPANS.npz] kernel-build KIND NU_STAR TABLE PROBE.json
    child.py [--trace SPANS.npz] kernel-read REGULAR SINGULAR Q_INF OUT.json

`cli` runs `cavlab ARGS...`.  `kernel-build` is `cavlab kernel build` on
the benchmark's pinned grid (the command line has no grid flags) and also
records Hhat at fixed probe points.  `kernel-read` loads both tables and
evaluates what the kernel-tables workload checks.  The exit code is only
a hint: outcomes are decided from the files written.
"""

from __future__ import annotations

import json
import sys

import workloads


def kernel_build(kind, nu_star, table, probe_path):
    from cavlab import gaschart as gc
    from cavlab.kernelengine import GridSpec, build_kernel
    nu_star = float(nu_star)
    tr = build_kernel(kind, gc.GasChart(nu_star=nu_star),
                      grid=GridSpec(**workloads.KERNEL_GRID))
    tr.save(table)
    nu, xi = workloads.probe_points(nu_star)
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump({"H": tr.Hhat(nu, xi).tolist(),
                   "H_nu": tr.Hhat_nu(nu, xi).tolist()}, fh)
    return 0


def kernel_read(regular, singular, q_inf, out_path):
    import numpy as np

    from cavlab import entropy as en
    from cavlab import gaschart as gc
    from cavlab.kernelengine import KernelTransform
    q_inf = float(q_inf)
    tables = {"regular": KernelTransform.load(regular),
              "singular": KernelTransform.load(singular)}
    out = {"probe": {}, "xi0": {}}
    for kind, tr in tables.items():
        nu, xi = workloads.probe_points(tr.nu_star)
        out["probe"][kind] = {"H": tr.Hhat(nu, xi).tolist(),
                              "H_nu": tr.Hhat_nu(nu, xi).tolist()}
        # dense in nu, so values between the table's grid nodes count too
        nus = np.geomspace(tr.nu_min, tr.nu_star, workloads.XI0_POINTS)
        out["xi0"][kind] = {"nu": nus.tolist(),
                            "H": tr.Hhat(nus, 0.0).tolist(),
                            "H_nu": tr.Hhat_nu(nus, 0.0).tolist()}
    gen = en.kernel_generator(tables["regular"], tables["singular"], 0.5, 0.5)
    lo, hi = gen.nu_range
    n_nu, n_theta = workloads.COMPACTNESS_GRID
    out["compactness"] = en.compactness_bounds_check(
        gen, gc.GasChart(), np.geomspace(lo * 1.001, hi * 0.999, n_nu),
        np.linspace(-1.0, 1.0, n_theta))
    # the state grid diagnostics.run_report uses for the kernel mix
    nu_bar = gc.nu_of_rho(gc.rho_of_q(q_inf))
    k_inf = gc.k_of_q(q_inf)
    nus = np.geomspace(max(lo * 1.01, 1e-4), hi * 0.99, 10)
    ths = np.linspace(-1.1 * k_inf, 1.1 * k_inf, 9)
    gen_star = en.special_generator(gc.GasChart(), nu_bar)
    mix, c = en.admissible_kernel_mix(gen_star, gen, nus, ths)
    out["mix"] = {"c": c, **en.convexity_check(mix, nus, ths)}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main(argv):
    recorder = None
    if argv[:1] == ["--trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
        spans_path, argv = argv[1], argv[2:]
    try:
        if argv[0] == "cli":
            from cavlab.cli import main as cavlab_main
            return cavlab_main(argv[1:])
        if argv[0] == "kernel-build":
            return kernel_build(*argv[1:])
        if argv[0] == "kernel-read":
            return kernel_read(*argv[1:])
        raise SystemExit(f"unknown operation {argv[0]!r}")
    finally:
        if recorder is not None:
            recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
