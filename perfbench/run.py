"""Benchmark of cavlab: three workloads timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the inputs of the
workload, calls cavlab from src/ in fresh single-threaded processes, checks
every output with the independent checks in checks.py, and repeats whole
rounds for about S seconds.  Its last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (medians over rounds); with --trace 1 the
rounds alternate between untraced and traced, and the metrics are the
per-layer ones from the traced rounds plus the tracing overhead.  Work
files go to .perfbench/ in the checkout.  See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# set-up samples before the first round and after the last one, so their
# median spans the run rather than one moment of it
SETUP_BEFORE, SETUP_AFTER = 2, 1
SETUP_IMPORT = ("import cavlab.cli, cavlab.config, cavlab.meshing, "
                "cavlab.solver, cavlab.diagnostics, cavlab.kernelengine, "
                "cavlab.entropy")
# A run must end within 180 s; no round starts that would end after this.
RUN_BUDGET_S = 160.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(metric):
    if metric == "cli.artifacts_mb":
        return "MB"
    if tracing.LAYER_METRICS.get(metric, ("",))[0] == "count":
        return "count"
    return "s"


class Runner:
    """Child processes, work directories and per-round accounting."""

    def __init__(self, root, workload):
        self.root = root
        self.base = os.path.join(root, ".perfbench")
        self.out = os.path.join(self.base, workload)
        self.work = os.path.join(self.out, "work")
        self.source_digest = workloads.source_digest(root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src, HERE] + ([self.env["PYTHONPATH"]]
                           if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.traced = False
        self.spans = []
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.artifact_dirs = []
        self.calls = []

    # ---- processes ---------------------------------------------------

    def call(self, argv, label):
        """Run child.py ARGV to its end; adds its CPU time and peak RSS."""
        cmd = [sys.executable, CHILD]
        if self.traced:
            spans = os.path.join(self.work, f"{label}.spans.npz")
            self.spans.append(spans)
            cmd += ["--trace", spans]
        lock = threading.Lock()
        state = {"ended": False}
        t0 = time.perf_counter()
        with open(os.path.join(self.work, f"{label}.log"), "wb") as log:
            proc = subprocess.Popen(cmd + argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)

            def kill():
                with lock:
                    if not state["ended"]:
                        proc.send_signal(signal.SIGKILL)

            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    kill)
            timer.start()
            # wait without reaping, so a late kill cannot hit a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["ended"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        self.cpu += cpu
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024.0)
        self.calls.append([label, time.perf_counter() - t0, cpu,
                           usage.ru_maxrss / 1024.0, proc.returncode])
        return proc.returncode

    def setup_times(self, n, warm=False):
        """Process start through importing cavlab, n times.

        With warm=True one untimed import comes first, so the bytecode
        cache a user's second run would find is in place.
        """
        cmd = [sys.executable, "-c", SETUP_IMPORT]
        times = []
        for i in range(n + warm):
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=60)
            dt = time.perf_counter() - t0
            if done.returncode != 0:
                raise RuntimeError("cannot import cavlab: "
                                   + done.stderr.decode(errors="replace"))
            if i >= warm:
                times.append(dt)
        return times

    # ---- rounds ------------------------------------------------------

    def work_dir(self, name):
        path = os.path.join(self.work, name)
        os.makedirs(path, exist_ok=True)
        return path

    def round(self, workload, inputs, traced):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.traced = traced
        self.spans, self.artifact_dirs, self.calls = [], [], []
        self.cpu, self.rss_mb = 0.0, 0.0
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        ops = workload.round(self, inputs)
        wall = time.perf_counter() - t0
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = self.cpu + (cpu1.ru_utime - cpu0.ru_utime) \
            + (cpu1.ru_stime - cpu0.ru_stime)
        rec = {"traced": traced, "wall": wall, "cpu": cpu,
               "rss_mb": self.rss_mb, "calls": self.calls, "ops": ops}
        if traced:
            spans = tracing.load_spans(self.spans)
            layers = tracing.layer_metrics(spans) if spans else {}
            layers["cli.artifacts_mb"] = sum(
                _dir_bytes(d) for d in self.artifact_dirs) / 1e6
            rec["layers"] = layers
            rec["iterations_per_epsilon"] = (
                tracing.iterations_per_epsilon(spans) if spans else {})
        return rec


def _dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def machine_info():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavlab", "cli.py")):
        print(f"perfbench: {root} holds no src/cavlab; run from the root of "
              "a cavlab checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    runner = Runner(root, args.workload)
    os.makedirs(runner.out, exist_ok=True)
    setup = runner.setup_times(SETUP_BEFORE, warm=True)
    print(f"perfbench: {args.workload} seed {args.seed} inputs {inputs}",
          file=sys.stderr)

    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rec = runner.round(wl, inputs, traced)
        rounds.append(rec)
        failed = [n for n, ok, _ in rec["ops"] if not ok]
        print(f"perfbench: round {len(rounds)}{' traced' if traced else ''} "
              f"{rec['wall']:.3f} s, {len(rec['ops'])} ops, failed {failed}",
              file=sys.stderr)
        longest = max(r["wall"] for r in rounds)
        if args.trace and not any(r["traced"] for r in rounds):
            continue  # a traced run has at least one round of each kind
        if time.perf_counter() - start + longest > args.seconds \
                or time.monotonic() + longest > runner.deadline:
            break

    setup += runner.setup_times(SETUP_AFTER)
    known = workloads.KNOWN_FAILURES[args.workload]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for _, ok, _ in r["ops"] if not ok)
    correct = all(ok or name in known for r in rounds
                  for name, ok, _ in r["ops"])
    plain = [r for r in rounds if not r["traced"]]
    med = statistics.median
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {}
        for name in list(tracing.LAYER_METRICS) + ["cli.artifacts_mb"]:
            vals = [r["layers"][name] for r in traced_rounds
                    if name in r["layers"]]
            if vals:
                metrics[name] = {"value": med(vals), "unit": layer_unit(name)}
        metrics["trace.overhead_s"] = {
            "value": med(r["wall"] for r in traced_rounds)
            - med(r["wall"] for r in plain), "unit": "s"}
    else:
        values = {"run_s": med(r["wall"] for r in plain),
                  "setup_s": med(setup),
                  "cpu_s": med(r["cpu"] for r in plain),
                  "peak_rss_mb": med(r["rss_mb"] for r in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    detail = {"workload": args.workload, "seed": args.seed, "inputs": inputs,
              "machine": machine_info(), "setup_s": setup,
              "rounds": [{k: v for k, v in r.items() if k != "ops"}
                         | {"ops": [[n, ok, v if isinstance(v, (int, float))
                                     else str(v)] for n, ok, v in r["ops"]]}
                         for r in rounds],
              "result": {"correct": correct, "attempted": attempted,
                         "failed": failed, "metrics": metrics}}
    name = f"{'trace' if args.trace else 'run'}-seed{args.seed}.json"
    with open(os.path.join(runner.out, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for m, v in metrics.items():
        print(f"perfbench: {m} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
