import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from red_offline.algos import AlgoConfig, init_learner
from red_offline.harness import (ConfigError, DatasetSource, DeredConfig, EvalConfig,
                                 ExperimentConfig, apply_overrides, blas_threads,
                                 compare_rebalance_methods, config_from_dict, config_to_dict,
                                 dump_json, normalized_score, prepare_dataset, run_training,
                                 stream_seed, sweep_pbase, two_stage_train,
                                 _eval_points, _map_seeds)
from red_offline.sampler import SamplerSpec, build_sampler


def small_config(preset="replay_analog", **kw):
    defaults = dict(
        dataset=DatasetSource(preset=preset, n_trajectories=60),
        algo=AlgoConfig(family="q_plus_bc", total_steps=60, batch_size=32,
                        lr=1e-3, hidden_units=16, target_update_period=20),
        sampler=SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.1),
        eval=EvalConfig(eval_every=20, episodes_per_eval=2, final_k=3, seeds=(0, 1)),
        root_seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_stream_seed_is_deterministic_and_distinct():
    assert stream_seed(7, "init/0") == stream_seed(7, "init/0")
    assert stream_seed(7, "init/0") != stream_seed(7, "init/1")
    assert stream_seed(7, "init/0") != stream_seed(8, "init/0")
    assert 0 <= stream_seed(0, "x") < 2 ** 64


def test_config_json_round_trip():
    cfg = small_config(dered=DeredConfig(stage1_steps=40, stage2_steps=20))
    data = config_to_dict(cfg)
    back = config_from_dict(json.loads(json.dumps(data)))
    assert back == cfg


def test_config_rejects_unknown_keys_and_bad_types():
    data = config_to_dict(small_config())
    data["algo"]["warp_drive"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(data)
    data = config_to_dict(small_config())
    data["algo"]["total_steps"] = "many"
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict(data)
    data = config_to_dict(small_config())
    data["dered"] = {"freeze_head": "yes"}
    with pytest.raises(ConfigError, match="boolean"):
        config_from_dict(data)
    with pytest.raises(ConfigError, match="exactly one"):
        DatasetSource(preset="a", path="b")


def test_overrides_dotted_paths():
    data = config_to_dict(small_config())
    out = apply_overrides(data, ["sampler.alpha=2.5", "eval.seeds=[3,4]",
                                 "dataset.preset=expert_analog"])
    cfg = config_from_dict(out)
    assert cfg.sampler.alpha == 2.5
    assert cfg.eval.seeds == (3, 4)
    assert cfg.dataset.preset == "expert_analog"
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(data, ["sampler.alpha"])
    bad = apply_overrides(data, ["sampler.omega=1"])
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(bad)


def test_normalized_score_examples():
    refs = {"random": 10.0, "expert": 30.0}
    assert normalized_score(10.0, refs) == 0.0
    assert normalized_score(30.0, refs) == 100.0
    assert normalized_score(20.0, refs) == 50.0
    assert normalized_score(8.0, refs) < 0.0
    with pytest.raises(ValueError):
        normalized_score(1.0, {"random": 5.0, "expert": 5.0})


def test_eval_points_schedule():
    assert _eval_points(100, 20) == [20, 40, 60, 80, 100]
    assert _eval_points(90, 40) == [40, 80, 90]
    assert _eval_points(10, 40) == [10]
    assert _eval_points(0, 40) == [0]


def test_short_run_clamps_final_k():
    cfg = small_config(eval=EvalConfig(eval_every=1000, episodes_per_eval=1,
                                       final_k=10, seeds=(0,)))
    with pytest.warns(RuntimeWarning, match="clamped"):
        report, _, _ = run_training(cfg)
    assert any("clamped" in f for f in report["flags"])
    assert len(report["per_seed"][0]["eval_steps"]) == 1


def test_reports_are_deterministic():
    cfg = small_config()
    a, _, _ = run_training(cfg)
    b, _, _ = run_training(cfg)
    assert dump_json(a) == dump_json(b)


def test_final_k_mean_uses_last_evaluations():
    cfg = small_config(eval=EvalConfig(eval_every=10, episodes_per_eval=1,
                                       final_k=2, seeds=(0,)))
    report, _, _ = run_training(cfg)
    entry = report["per_seed"][0]
    assert entry["final_k_mean_raw"] == pytest.approx(
        np.mean(entry["eval_returns"][-2:]))
    # earlier evaluations do not affect the aggregate
    assert report["aggregate"]["mean_raw"] == pytest.approx(entry["final_k_mean_raw"])


def test_arms_share_dataset_and_initialization():
    uni, _, _ = run_training(small_config(sampler=SamplerSpec(mode="uniform")))
    red, _, _ = run_training(small_config(sampler=SamplerSpec(mode="return_resample")))
    assert uni["dataset_checksum"] == red["dataset_checksum"]
    # identical init stream: same nets before any training
    ds, tr, mdp = prepare_dataset(DatasetSource(preset="replay_analog", n_trajectories=60))
    cfg = AlgoConfig(family="q_plus_bc", hidden_units=16)
    a = init_learner(cfg, ds.meta.obs_dim, mdp.n_actions, stream_seed(5, "init/0"))
    b = init_learner(cfg, ds.meta.obs_dim, mdp.n_actions, stream_seed(5, "init/0"))
    for name in a.nets:
        for wa, wb in zip(a.nets[name].weights, b.nets[name].weights):
            assert np.array_equal(wa, wb)


def test_swapping_sampler_changes_only_the_index_stream():
    # replaying the recorded index stream of a run through the batch
    # interface reproduces the trained parameters exactly
    ds, tr, mdp = prepare_dataset(DatasetSource(preset="replay_analog", n_trajectories=60))
    algo = AlgoConfig(family="conservative_q", total_steps=1, batch_size=16,
                      hidden_units=16, lr=1e-3)
    spec = SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.1,
                       seed=stream_seed(5, "sampler/0"))
    sampler = build_sampler(spec, ds, tr)
    recorded = [sampler.sample_batch(16) for _ in range(25)]

    from red_offline.algos import train_step
    def run_from(batches):
        state = init_learner(algo, ds.meta.obs_dim, mdp.n_actions, stream_seed(5, "init/0"))
        for idx in batches:
            train_step(state, algo, ds.batch(idx))
        return state

    fresh_sampler = build_sampler(spec, ds, tr)
    live = run_from(fresh_sampler.sample_batch(16) for _ in range(25))
    replay = run_from(recorded)
    for name in live.nets:
        for wa, wb in zip(live.nets[name].weights, replay.nets[name].weights):
            assert np.array_equal(wa, wb)


def test_two_stage_freeze_and_identity():
    cfg = small_config(
        algo=AlgoConfig(family="expectile_awr", total_steps=40, batch_size=32,
                        lr=1e-3, hidden_units=16, target_update_period=20),
        dered=DeredConfig(stage1_steps=40, stage2_steps=20, backbone_lr_mult=0.1,
                          freeze_head=True),
        eval=EvalConfig(eval_every=10, episodes_per_eval=1, final_k=2, seeds=(0,)),
    )
    report, _, _ = two_stage_train(cfg)
    assert all(c["heads_bitwise_equal"] for c in report["stage2"]["head_checks"])

    free = ExperimentConfig(**{**cfg.__dict__,
                               "dered": DeredConfig(stage1_steps=40, stage2_steps=20,
                                                    backbone_lr_mult=0.1, freeze_head=False)})
    report_a, _, _ = two_stage_train(free)
    assert not all(c["heads_bitwise_equal"] for c in report_a["stage2"]["head_checks"])

    idle = ExperimentConfig(**{**cfg.__dict__,
                               "dered": DeredConfig(stage1_steps=40, stage2_steps=0)})
    report_i, _, _ = two_stage_train(idle)
    s1 = report_i["stage1"]["per_seed"][0]
    s2 = report_i["stage2"]["per_seed"][0]
    assert s2["eval_returns"] == [s1["eval_returns"][-1]]
    assert s2["final_k_mean_raw"] == pytest.approx(s1["eval_returns"][-1])


def test_two_stage_requires_block():
    with pytest.raises(ConfigError, match="dered"):
        two_stage_train(small_config())


def test_sweep_pbase_degenerate_equals_uniform():
    # all-equal returns: the p_base=0 arm degenerates to the uniform sampler
    cfg = small_config(dataset=DatasetSource(preset="expert_analog", n_trajectories=30))
    ds, tr, mdp = prepare_dataset(cfg.dataset)
    # make a truly degenerate dataset via the pure-expert generator
    from red_offline.envsuite import GeneratorConfig, generate_dataset
    from red_offline.dataset import compute_trajectory_returns
    degen = generate_dataset(GeneratorConfig("dense_chain-40-39", 20, ((1.0, 1.0),), seed=3))
    tr_d = compute_trajectory_returns(degen)
    s_zero = build_sampler(SamplerSpec(mode="return_resample", p_base=0.0, seed=1), degen, tr_d)
    s_uni = build_sampler(SamplerSpec(mode="uniform", seed=1), degen, tr_d)
    assert np.array_equal(s_zero.probs, s_uni.probs)
    assert np.array_equal(s_zero.sample_batch(1000), s_uni.sample_batch(1000))


def test_sweep_pbase_table_shape_and_inf_column():
    cfg = small_config(eval=EvalConfig(eval_every=20, episodes_per_eval=1,
                                       final_k=3, seeds=(0,)))
    table, _, _ = sweep_pbase(cfg, [0.0, "inf"])
    assert table["columns"] == ["0.0", "inf"]
    inf_cfg = table["reports"]["inf"]["config"]
    assert inf_cfg["sampler"]["mode"] == "uniform"
    assert set(table["scores"]) == {"0.0", "inf"}


def test_sweep_deviation_decreases_with_pbase(preset_dataset):
    from red_offline.dataset import compute_trajectory_returns
    ds = preset_dataset("replay_analog")
    tr = compute_trajectory_returns(ds)
    n = len(ds)
    devs = []
    for p_base in (0.0, 0.2, 0.5, 1.0):
        s = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0,
                                      p_base=p_base, seed=0), ds, tr)
        devs.append(np.abs(s.probs - 1.0 / n).max())
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_compare_rebalance_methods_schema():
    cfg = small_config(
        algo=AlgoConfig(family="conservative_q", total_steps=40, batch_size=32,
                        lr=1e-3, hidden_units=16, target_update_period=20),
        eval=EvalConfig(eval_every=20, episodes_per_eval=1, final_k=2, seeds=(0, 1)),
    )
    table, _, _ = compare_rebalance_methods(cfg, fraction=0.1)
    assert table["arms"] == ["uniform", "return_resample", "reward_resample", "top_fraction"]
    checksums = {table["reports"][m]["dataset_checksum"] for m in table["arms"]}
    assert len(checksums) == 1
    for arm in table["arms"]:
        agg = table["reports"][arm]["aggregate"]
        assert "mean_normalized" in agg and "std_normalized" in agg


def test_top_fraction_arm_trains_on_exact_index_set(preset_dataset):
    from red_offline.dataset import compute_trajectory_returns
    from red_offline.sampler import top_fraction_filter
    ds = preset_dataset("replay_analog")
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="top_fraction", fraction=0.1, seed=2), ds, tr)
    keep = top_fraction_filter(ds, tr, 0.1)
    assert keep.size == int(np.ceil(0.1 * len(ds)))
    draws = s.sample_batch(200_000)
    assert set(np.unique(draws)) == set(keep.tolist())


def test_nan_abort_is_recorded(monkeypatch):
    from red_offline import harness as hmod
    from red_offline.algos import NanLossError

    calls = {"n": 0}
    def exploding(state, cfg, batch, freeze_head=False):
        calls["n"] += 1
        if calls["n"] >= 5:
            raise NanLossError(cfg.family, calls["n"], {"q_loss": float("nan")})
        state.step += 1
        return {"q_loss": 0.0}

    monkeypatch.setattr(hmod, "train_step", exploding)
    report, _, _ = run_training(small_config(eval=EvalConfig(eval_every=20,
                                                             episodes_per_eval=1,
                                                             final_k=2, seeds=(0,))))
    entry = report["per_seed"][0]
    assert entry["aborted"] and entry["abort_step"] == 5
    assert report["aggregate"]["aborted_seeds"] == [0]
    assert any("nan abort" in f for f in report["flags"])


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("seeds", [(0,), (0, 1, 2)])
def test_static_work_runs_once_per_experiment(monkeypatch, tmp_path, seeds):
    # one dataset load and checksum per experiment, one table per arm,
    # whatever the number of seeds
    from red_offline import harness as hmod, sampler as smod
    from red_offline.dataset import save_dataset
    ds, _, _ = prepare_dataset(DatasetSource(preset="replay_analog", n_trajectories=60))
    path = str(tmp_path / "data.ords")
    save_dataset(ds, path)
    counts = {}
    for module, name in ((hmod, "load_dataset"), (hmod, "dataset_checksum"),
                         (hmod, "build_sampler"), (smod, "_alias_table")):
        _count_calls(monkeypatch, module, name, counts)
    cfg = small_config(dataset=DatasetSource(path=path),
                       algo=AlgoConfig(family="q_plus_bc", total_steps=20, batch_size=16,
                                       hidden_units=8),
                       eval=EvalConfig(eval_every=10, episodes_per_eval=1, final_k=2,
                                       seeds=seeds))
    expected_tables = {"compare": 4, "sweep": 3, "train": 1, "dered": 2}
    for kind, run in (("compare", lambda: compare_rebalance_methods(cfg)),
                      ("sweep", lambda: sweep_pbase(cfg, [0.0, 0.5, "inf"])),
                      ("train", lambda: run_training(cfg)),
                      ("dered", lambda: two_stage_train(
                          replace(cfg, dered=DeredConfig(stage1_steps=10, stage2_steps=10))))):
        counts.clear()
        run()
        tables = expected_tables[kind]
        assert counts == {"load_dataset": 1, "dataset_checksum": 1,
                          "build_sampler": tables, "_alias_table": tables}, kind


def test_timing_records_one_cold_build_per_arm(tmp_path):
    from red_offline.cli import main
    cfg = config_to_dict(small_config(
        algo=AlgoConfig(family="q_plus_bc", total_steps=20, batch_size=16, hidden_units=8),
        eval=EvalConfig(eval_every=10, episodes_per_eval=1, final_k=2, seeds=(0, 1))))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
    timing = json.loads((out / "timing.json").read_text())
    assert set(timing) == {"uniform", "return_resample", "reward_resample", "top_fraction",
                           "runtime"}
    assert timing.pop("runtime") == {"jobs": 1, "blas_threads": blas_threads()}
    for arm in timing.values():
        seeds = list(arm["per_seed"].values())
        assert len({t["sampler_build_s"] for t in seeds}) == 1  # the arm's single build
        for t in seeds:
            assert set(t) == {"sampler_build_s", "train_s", "eval_s", "total_s",
                              "overhead_fraction"}
            assert t["total_s"] == t["sampler_build_s"] + t["train_s"] + t["eval_s"]
            assert t["overhead_fraction"] == t["sampler_build_s"] / t["total_s"]


def _pid_job(shared, seed):
    return os.getpid(), seed, int(shared.sum())


def test_map_seeds_pool_size_and_handoff(monkeypatch):
    from red_offline import harness as hmod
    pools = []

    class SpyPool(ProcessPoolExecutor):
        """Records each pool's size and the arguments its tasks are sent."""

        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.size, self.tasks = max_workers, []
            pools.append(self)

        def map(self, fn, *iterables, **kwargs):
            self.tasks = list(iterables[0])
            return super().map(fn, self.tasks, **kwargs)

    monkeypatch.setattr(hmod, "ProcessPoolExecutor", SpyPool)
    shared = np.arange(10)
    results = _map_seeds(_pid_job, shared, (3, 4), jobs=4)
    assert [p.size for p in pools] == [2] and pools[0].tasks == [3, 4]
    assert [r[1:] for r in results] == [(3, 45), (4, 45)]
    pids = {r[0] for r in results}
    assert len(pids) <= 2 and os.getpid() not in pids
    # one seed, or one job, runs here and starts no pool
    pools.clear()
    assert _map_seeds(_pid_job, shared, (7,), jobs=4) == [(os.getpid(), 7, 45)]
    assert _map_seeds(_pid_job, shared, (7, 8), jobs=1)[1] == (os.getpid(), 8, 45)
    assert not pools
    # the experiments send each task its seed alone, never the dataset
    cfg = small_config(algo=AlgoConfig(family="q_plus_bc", total_steps=10, batch_size=16,
                                       hidden_units=8),
                       eval=EvalConfig(eval_every=5, episodes_per_eval=1, final_k=2,
                                       seeds=(0, 1)))
    run_training(cfg, jobs=2)
    two_stage_train(replace(cfg, dered=DeredConfig(stage1_steps=5, stage2_steps=5)), jobs=3)
    assert [(p.size, p.tasks) for p in pools] == [(2, [0, 1]), (2, [0, 1])]
