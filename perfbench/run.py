"""Benchmark of the red-offline CLI: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). Each operation is a ``red-offline`` CLI call in its own process,
with the environment passed through unchanged apart from ``PYTHONPATH``.

``--trace 0`` sets up the dataset at least three times, then runs whole rounds of the
workload's operations until ``--seconds`` have passed, and reports
``setup_s``, ``run_s``, ``cpu_s`` and ``peak_rss_mb`` as medians over set-ups
and rounds. ``--trace 1`` repeats units of one traced set-up, one plain round
and one traced round, and reports the per-layer metrics (medians over units)
and ``trace.overhead_s``, the traced round's wall time minus the plain one's.

Every round's outputs are checked; see ``checks.py``. The last line of
standard output is the result as one JSON object. A copy of the result with
the environment record and every set-up and round goes to
``.perfbench_results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set up at least SETUPS times, and until SETUP_SECONDS have been spent, so
# the median of a sub-second set-up rests on enough samples
SETUPS = 3
SETUP_SECONDS = 3.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "GOTO_NUM_THREADS")


@dataclass
class OpResult:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mib: float


class Context:
    """Inputs of one run and the process runner that counts operations."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.dataset_seed = seed % 2 ** 32
        self.work = work
        self.dataset = os.path.join(work, "data.ords")
        self.env = None  # checks.EnvReference, once the dataset exists
        self.attempted = 0
        self.failed = 0
        self.proc_env = dict(os.environ)
        self.proc_env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        os.makedirs(os.path.join(work, "logs"), exist_ok=True)

    def run_op(self, label, argv, op="cli", trace_out=None):
        """Run one operation in a child process; wall, CPU and peak RSS from wait4."""
        cmd = [sys.executable, os.path.join(HERE, "child.py")]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        log = os.path.join(self.work, "logs", f"{label}.log")
        self.attempted += 1
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd + [op] + argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.proc_env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        # wait4 has reaped the child; record its status so Popen does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            with open(log) as f:
                tail = f.read()[-2000:]
            print(f"operation {label} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return OpResult(ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def setup(self, trace_out=None):
        wl = self.workload
        argv = ["--preset", wl.preset, "--seed", str(self.dataset_seed), "--out", self.dataset]
        if wl.n_trajectories is not None:
            argv += ["--n-trajectories", str(wl.n_trajectories)]
        return self.run_op("setup", argv, op="setup", trace_out=trace_out)


def run_round(ctx, errors, trace_dir=None):
    """One round of the workload's operations, then its checks."""
    ops = ctx.workload.ops(ctx)
    for _, _, out in ops:
        shutil.rmtree(out, ignore_errors=True)
    results, traces = [], []
    for label, argv, _ in ops:
        trace_out = None
        if trace_dir is not None:
            trace_out = os.path.join(trace_dir, f"{label}.json")
            traces.append(trace_out)
        results.append(ctx.run_op(label, argv, trace_out=trace_out))
    if all(r.ok for r in results):
        _check(errors, ctx.workload.check_round, ctx, [out for _, _, out in ops])
    return {"run_s": sum(r.wall_s for r in results),
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.rss_mib for r in results),
            "ok": all(r.ok for r in results)}, traces


def _check(errors, fn, *args):
    try:
        fn(*args)
    # a missing or malformed output file fails the check like a wrong value
    except (checks.CheckError, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        errors.append(f"{fn.__qualname__}: {type(exc).__name__}: {exc}")


def _reference(ctx):
    from red_offline.envsuite import env_from_name, preset_config
    return checks.EnvReference(env_from_name(preset_config(ctx.workload.preset).mdp_name))


def measure_plain(ctx, seconds, errors):
    setups = []
    while len(setups) < SETUPS or sum(s.wall_s for s in setups) < SETUP_SECONDS:
        setups.append(ctx.setup())
        if not setups[-1].ok:
            raise SystemExit("set-up failed; nothing to measure")
    ctx.env = _reference(ctx)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ctx, errors)[0])
    metrics = {"setup_s": (statistics.median(s.wall_s for s in setups), "s")}
    for key, unit in (("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")):
        metrics[key] = (statistics.median(r[key] for r in rounds), unit)
    detail = {"setups_s": [s.wall_s for s in setups], "rounds": rounds}
    return metrics, detail


def measure_traced(ctx, seconds, errors):
    units, plain_s, traced_s = [], [], []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        trace_dir = os.path.join(ctx.work, "traces", str(len(units)))
        os.makedirs(trace_dir, exist_ok=True)
        setup_trace = os.path.join(trace_dir, "setup.json")
        if not ctx.setup(trace_out=setup_trace).ok:
            raise SystemExit("set-up failed; nothing to measure")
        ctx.env = ctx.env or _reference(ctx)
        plain_s.append(run_round(ctx, errors)[0]["run_s"])
        traced, traces = run_round(ctx, errors, trace_dir)
        traced_s.append(traced["run_s"])
        units.append(tracing.layer_metrics(tracing.read_spans([setup_trace] + traces)))
    metrics = {m: (statistics.median(u[m] for u in units), unit)
               for m, unit in tracing.metric_units().items()}
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    detail = {"units": units, "plain_run_s": plain_s, "traced_run_s": traced_s}
    return metrics, detail


def steal_seconds():
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment_record():
    """What the numbers depend on: cores, interpreter, numpy/BLAS and the code."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as f:
                digest.update(name.encode() + f.read())
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path in seconds, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "red_offline", "cli.py")):
        print(f"no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    cls = WORKLOADS[args.workload]
    workload = cls(cls.FULL if args.size == "full" else cls.TINY)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    ctx = Context(workload, args.seed, work)
    errors = []
    steal = steal_seconds()
    try:
        measure = measure_traced if args.trace else measure_plain
        metrics, detail = measure(ctx, args.seconds, errors)
        _check(errors, workload.check_run, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if steal is not None:
        detail["steal_s"] = steal_seconds() - steal

    result = {"correct": not errors, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    env = environment_record()
    results_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"result": result, "errors": errors, "environment": env, "detail": detail,
                   "args": vars(args)}, f, indent=1)
    for message in errors:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
