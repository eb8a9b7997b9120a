import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "tools" / "bench.py"


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
