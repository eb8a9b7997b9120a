"""Write one BENCH_<n>.json: the benchmark's numbers for this checkout, in one file.

    python3 tools/bench.py --out BENCH_32.json --rounds 3 --seconds 20 --seed 1

For each workload it runs ``perfbench/run.py --trace 0`` ``--rounds`` times,
then ``--trace 1`` once, from the root of the checkout that holds this script.
Each run's result is the last line of its standard output, and the line
before it is the environment record (``environment {...}``). The file holds,
per workload, the median and quartiles of each end-to-end metric over the
rounds, the seed, the round count, whether every check passed and the
operations attempted and failed; the traced run's per-layer metrics; the
environment record; and the ``wc -l`` totals of ``src/red_offline/*.py`` and
``tests/*.py``. ``--workloads`` and ``--size tiny`` (passed through to
``run.py``) make a run of a few seconds, for the tests. With ``--tier1`` it
first runs the Tier-1 suite (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) and records its passed, failed, xpassed and
error counts, its wall time and the CPU time of the process and its children.
"""

import argparse
import glob
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-replay", "compare-large", "dered")
END_TO_END = ("setup_s", "run_s", "cpu_s", "peak_rss_mb")
LINE_COUNTS = {"src": "src/red_offline/*.py", "tests": "tests/*.py"}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_COUNTS = ("passed", "failed", "xpassed", "error")


def run_perfbench(workload, seed, seconds, trace, size):
    """(result, environment record) of one ``perfbench/run.py`` run."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2 or not lines[-2].startswith("environment "):
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode} without a result:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("environment "))


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of one metric over the rounds; a
    single round is all three."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def line_count(pattern) -> int:
    """What ``wc -l`` totals over the files ``pattern`` matches under the root."""
    total = 0
    for path in glob.glob(os.path.join(ROOT, pattern)):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def tier1_counts(summary: str) -> dict:
    """The counts of pytest's summary line, ``520 passed, 1 xpassed, 11 warnings in
    88.30s (0:01:28)``, for each of ``TIER1_COUNTS``; a kind it does not name is 0."""
    found = {kind.rstrip("s"): int(count)  # "1 error", "2 errors"
             for count, kind in re.findall(r"(\d+) ([a-z]+)", summary.rsplit(" in ", 1)[0])}
    return {kind: found.get(kind, 0) for kind in TIER1_COUNTS}


def run_tier1() -> dict:
    """Tier-1's counts, wall time and CPU time (user plus system, children included)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall_s, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: some test failed
        raise RuntimeError(f"Tier-1 exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    cpu_s = sum(getattr(after, f) - getattr(before, f) for f in ("ru_utime", "ru_stime"))
    return {**tier1_counts(lines[-1]), "wall_s": wall_s, "cpu_s": cpu_s}


def bench(workloads, seed, seconds, rounds, size, tier1=False) -> dict:
    out = {"workloads": {}, "line_counts": {k: line_count(p) for k, p in LINE_COUNTS.items()}}
    if tier1:
        out["tier1"] = run_tier1()
    environments = []
    for workload in workloads:
        runs = []
        for _ in range(rounds):
            result, env = run_perfbench(workload, seed, seconds, 0, size)
            runs.append(result)
            environments.append(env)
        traced, env = run_perfbench(workload, seed, seconds, 1, size)
        environments.append(env)
        out["workloads"][workload] = {
            "seed": seed,
            "rounds": rounds,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: {"unit": runs[0]["metrics"][name]["unit"],
                                  **spread([r["metrics"][name]["value"] for r in runs])}
                           for name in END_TO_END},
            "per_layer": traced["metrics"],
        }
    if any(env != environments[0] for env in environments):
        raise RuntimeError("the environment record changed between runs")
    out["environment"] = environments[0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--rounds", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ", ".join(WORKLOADS))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tier1", action="store_true",
                        help="also run the Tier-1 suite and record its counts and times")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or args.rounds < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--rounds must be >= 1")
    result = bench(workloads, args.seed, args.seconds, args.rounds, args.size, args.tier1)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
