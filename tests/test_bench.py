import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "tools" / "bench.py"
SPEC = importlib.util.spec_from_file_location("bench", BENCH)
bench_module = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_module)


def run_bench(*argv):
    return subprocess.run([sys.executable, str(BENCH), *argv], capture_output=True, text=True,
                          timeout=600)


def test_bench_file_holds_every_key_for_a_tiny_workload(tmp_path):
    out = tmp_path / "BENCH_0.json"
    proc = run_bench("--out", str(out), "--workloads", "grid-replay", "--size", "tiny",
                     "--rounds", "2", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"workloads", "environment", "line_counts"}
    assert list(bench["workloads"]) == ["grid-replay"]
    run = bench["workloads"]["grid-replay"]
    assert set(run) == {"seed", "rounds", "correct", "attempted", "failed", "end_to_end",
                        "per_layer"}
    assert (run["seed"], run["rounds"], run["correct"], run["failed"]) == (1, 2, True, 0)
    assert set(run["end_to_end"]) == {"setup_s", "run_s", "cpu_s", "peak_rss_mb"}
    for metric in run["end_to_end"].values():
        assert len(metric["values"]) == 2
        assert min(metric["values"]) <= metric["q1"] <= metric["median"] <= metric["q3"] \
            <= max(metric["values"])
    assert run["per_layer"]["sampler.build_sampler.calls"]["value"] > 0
    assert {"nproc", "numpy", "blas", "git_commit", "src_sha256"} <= set(bench["environment"])
    for key, pattern in (("src", "src/red_offline/*.py"), ("tests", "tests/*.py")):
        lines = sum(path.read_bytes().count(b"\n") for path in ROOT.glob(pattern))
        assert bench["line_counts"][key] == lines


def test_unknown_workload_is_refused(tmp_path):
    proc = run_bench("--out", str(tmp_path / "BENCH_0.json"), "--workloads", "grid-replay,nope")
    assert proc.returncode == 2 and "unknown workloads ['nope']" in proc.stderr
    assert not (tmp_path / "BENCH_0.json").exists()


def test_tier1_counts_read_the_pytest_summary_line():
    # parsed from sample lines only: running the suite here would run it inside itself
    for summary, counts in (
            ("520 passed, 1 xpassed, 11 warnings in 125.42s (0:02:05)", (520, 0, 1, 0)),
            ("1 failed, 19 passed in 1.33s", (19, 1, 0, 0)),
            ("==== 2 failed, 498 passed, 3 skipped, 1 xfailed, 1 error in 88.30s ====",
             (498, 2, 0, 1)),
            ("3 passed, 2 errors in 0.50s", (3, 0, 0, 2)),
            ("no tests ran in 0.01s", (0, 0, 0, 0))):
        got = bench_module.tier1_counts(summary)
        assert got == dict(zip(("passed", "failed", "xpassed", "error"), counts)), summary
