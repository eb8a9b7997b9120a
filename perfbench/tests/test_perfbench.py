"""Fast tests of the benchmark: tiny workloads end to end, and every check
rejecting a deliberately wrong input."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from red_offline.envsuite import env_from_name  # noqa: E402
from red_offline.nncore import init_mlp, save_checkpoint  # noqa: E402

CHAIN = "dense_chain-40-39"


def _checkout(tmp_path, with_src=True):
    """A checkout holding the benchmark (and the program's source, if asked)."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return tmp_path


def _run(checkout, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("grid-replay", "0"), ("compare-large", "1"),
                                            ("dered", "1")])
def test_tiny_workload_runs_and_checks(tmp_path, workload, trace):
    checkout = _checkout(tmp_path)
    proc = _run(checkout, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not os.path.exists(checkout / ".perfbench_work" / f"{workload}-7-0")
    assert os.listdir(checkout / ".perfbench_results")


def test_without_program_source_exits_nonzero(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "--workload", "dered", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture(scope="module")
def chain():
    return checks.EnvReference(env_from_name(CHAIN))


def test_reference_values_from_dynamic_programming(chain):
    # always-right reaches the end of the 40-state chain in 39 steps of +1
    assert chain.optimum == 39.0
    assert chain.random_mean == pytest.approx(17.55, abs=1e-9)


def _payload(chain, returns=(20.0, 25.5, 30.25)):
    refs = {"random": chain.random_mean, "expert": chain.optimum}
    norm = [100.0 * (r - refs["random"]) / (refs["expert"] - refs["random"]) for r in returns]
    raw = sum(returns) / len(returns)
    return {"refs": refs, "config": {"eval": {"final_k": 10}}, "per_seed": [{
        "seed": 0, "aborted": False, "eval_returns": list(returns), "eval_normalized": norm,
        "final_k_mean_raw": raw,
        "final_k_mean_normalized": 100.0 * (raw - refs["random"]) / (refs["expert"] - refs["random"]),
    }]}


def test_report_check_rejects_shifted_normalized_score(chain):
    checks.check_experiment(_payload(chain), chain)
    for key in ("eval_normalized", "final_k_mean_normalized", "final_k_mean_raw"):
        bad = _payload(chain)
        entry = bad["per_seed"][0]
        if key == "eval_normalized":
            entry[key][1] += 0.01
        else:
            entry[key] += 0.01
        with pytest.raises(checks.CheckError):
            checks.check_experiment(bad, chain)


def test_report_check_rejects_wrong_refs_and_impossible_return(chain):
    bad = _payload(chain)
    bad["refs"]["expert"] = 38.0
    with pytest.raises(checks.CheckError, match="refs.expert"):
        checks.check_experiment(bad, chain)
    bad = _payload(chain)
    bad["refs"]["random"] += 5 * chain.random_se
    with pytest.raises(checks.CheckError, match="refs.random"):
        checks.check_experiment(bad, chain)
    # the Monte Carlo estimate the program reports today is inside the band
    checks.check_refs({"random": 17.53625, "expert": 39.0}, chain)
    with pytest.raises(checks.CheckError, match="exceeds the optimum"):
        checks.check_experiment(_payload(chain, returns=(20.0, 39.5)), chain)


def test_direction_check_needs_three_families():
    fams = ("a", "b", "c", "d")
    scores = {(f, "uniform"): 10.0 for f in fams}
    scores.update({(f, "return_resample"): 10.0 for f in fams})
    checks.check_direction(scores, fams)
    scores[("a", "return_resample")] = scores[("b", "return_resample")] = 9.0
    with pytest.raises(checks.CheckError):
        checks.check_direction(scores, fams)


def _groups():
    # five trajectories with returns 0, 1, 1, 3, 4 (two-step ones split 0.5 + 0.5)
    rewards = np.array([0.0, 1.0, 0.5, 0.5, 3.0, 4.0])
    bounds = np.array([[0, 1], [1, 2], [2, 4], [4, 5], [5, 6]])
    return checks.ReturnGroups(rewards, bounds)


def test_sampler_fit_rejects_frequencies_that_are_off():
    groups = _groups()
    probs = groups.return_resample_probs()
    # per-transition weights (R - 0) / 4: 0 | 1/4 on three transitions | 3/4 | 1
    np.testing.assert_allclose(probs, [0.0, 0.3, 0.3, 0.4])
    per_index = np.array([0.0, 0.25, 0.25, 0.25, 0.75, 1.0]) / 2.5
    rng = np.random.default_rng(0)
    checks.check_draws_fit(rng.choice(6, size=200_000, p=per_index), groups, probs)
    tilted = per_index * np.array([1, 1.05, 1.05, 1.05, 1, 0.9])
    with pytest.raises(checks.CheckError, match="do not fit"):
        checks.check_draws_fit(rng.choice(6, size=200_000, p=tilted / tilted.sum()),
                               groups, probs)
    with pytest.raises(checks.CheckError, match="zero-probability"):
        checks.check_draws_fit(np.array([0, 1, 4, 5]), groups, probs)


def test_zero_mass_and_top_fraction_checks():
    groups = _groups()
    checks.check_zero_mass(np.array([0.0, 0.1, 0.1, 0.1, 0.3, 0.4]), groups)
    with pytest.raises(checks.CheckError):
        checks.check_zero_mass(np.array([0.0, 0.0, 0.1, 0.1, 0.4, 0.4]), groups)
    # ceil(0.3 * 6) = 2: the two highest-return transitions
    checks.check_top_fraction(np.array([0, 0, 0, 0, 0.5, 0.5]), groups, 0.3)
    with pytest.raises(checks.CheckError):
        checks.check_top_fraction(np.array([0, 0, 0, 0.5, 0, 0.5]), groups, 0.3)
    with pytest.raises(checks.CheckError):
        checks.check_top_fraction(np.array([0, 0, 0, 1 / 3, 1 / 3, 1 / 3]), groups, 0.3)


@pytest.mark.xfail(raises=checks.CheckError, strict=False,
                   reason="returns are differences of one running sum, so trajectories "
                          "sharing the minimum return differ in the last bits and only "
                          "one of them gets zero mass")
def test_zero_mass_on_every_minimum_return_transition():
    from red_offline.dataset import compute_trajectory_returns
    from red_offline.envsuite import generate_dataset, preset_config
    from red_offline.sampler import SamplerSpec, build_sampler
    ds = generate_dataset(preset_config("replay_analog", seed=7, n_trajectories=600))
    groups = checks.ReturnGroups(ds.rewards, np.asarray(ds.traj_bounds))
    assert groups.sizes[0] > 39  # more than one trajectory at the minimum return
    probs = build_sampler(SamplerSpec(mode="return_resample", p_base=0.0), ds,
                          compute_trajectory_returns(ds)).probs
    checks.check_zero_mass(probs, groups)


def test_checkpoint_size_check_rejects_wrong_size(tmp_path):
    path = str(tmp_path / "net.orck")
    save_checkpoint(path, {"q": init_mlp([2, 8, 3], seed=1), "v": init_mlp([2, 8, 1], seed=2)})
    checks.check_checkpoint_size(path)
    with open(path, "ab") as f:
        f.write(b"\0" * 8)
    with pytest.raises(checks.CheckError):
        checks.check_checkpoint_size(path)
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 16)
    with pytest.raises(checks.CheckError):
        checks.check_checkpoint_size(path)


def test_jobs_check_rejects_report_that_differs(tmp_path):
    a, b = tmp_path / "jobs1.json", tmp_path / "jobs2.json"
    a.write_text('{"score": 1.0}\n')
    b.write_text('{"score": 1.0}\n')
    checks.check_same_bytes([a], [b])
    b.write_text('{"score": 1.5}\n')
    with pytest.raises(checks.CheckError):
        checks.check_same_bytes([a], [b])


def test_two_stage_check_rejects_wrong_difference_and_changed_head(chain, tmp_path):
    one = _payload(chain)
    report = {"refs": one["refs"], "config": one["config"],
              "stage1": {"per_seed": one["per_seed"], "aggregate": {"mean_normalized": 10.0}},
              "stage2": {"per_seed": one["per_seed"], "aggregate": {"mean_normalized": 12.5},
                         "head_checks": [{"seed": 0, "heads_bitwise_equal": True}]},
              "stage2_minus_stage1": 2.5}
    checks.check_two_stage(report, chain, [])
    report["stage2_minus_stage1"] = 2.0
    with pytest.raises(checks.CheckError):
        checks.check_two_stage(report, chain, [])
    report["stage2_minus_stage1"] = 2.5
    report["stage2"]["head_checks"][0]["heads_bitwise_equal"] = False
    with pytest.raises(checks.CheckError):
        checks.check_two_stage(report, chain, [])


def test_ords_check_rejects_changed_transition(tmp_path):
    from red_offline.dataset import save_dataset
    from red_offline.envsuite import generate_dataset, preset_config
    ds = generate_dataset(preset_config("replay_analog", n_trajectories=20))
    path = str(tmp_path / "d.ords")
    save_dataset(ds, path)
    checks.check_ords_matches(path, ds)
    header, rec, _ = checks.read_ords(path)
    with open(path, "r+b") as f:
        # the reward of the first record sits after its obs and action columns
        f.seek(os.path.getsize(path) - len(ds.traj_bounds) * 16 - len(ds) * rec.itemsize
               + 8 * (header["obs_dim"] + 1))
        f.write(np.float64(123.0).tobytes())
    with pytest.raises(checks.CheckError, match="reward"):
        checks.check_ords_matches(path, ds)


def test_self_time_subtracts_covered_children():
    spans = [(0, None, "cli.main", 0.0, 10.0),
             (1, 0, "harness.run_training", 1.0, 9.0),
             (2, 1, "harness.train_single_seed", 2.0, 5.0),
             (3, 1, "harness.train_single_seed", 4.0, 6.0),  # overlaps its sibling
             (4, 2, "algos.train_step.conservative_q", 2.0, 3.0)]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["harness.self_s"] == pytest.approx(8.0 - 4.0)
    assert m["harness.train_single_seed.s"] == pytest.approx(5.0)
    assert m["algos.train_step.conservative_q.us"] == pytest.approx(1e6)
    assert m["algos.train_step.calls"] == 1
    assert m["nncore.backward.calls"] == 0 and m["nncore.backward.us"] == 0.0
    assert set(m) == set(tracing.metric_units())
