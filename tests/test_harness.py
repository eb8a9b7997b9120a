import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from red_offline.algos import AlgoConfig, init_learner
from red_offline.envsuite import PRESETS, env_from_name
from red_offline.harness import (ConfigError, DatasetSource, DeredConfig, EvalConfig,
                                 ExperimentConfig, apply_overrides, blas_threads,
                                 compare_rebalance_methods, config_from_dict, config_to_dict,
                                 dataset_checksum, dump_json, evaluate_policy, normalized_score,
                                 prepare_dataset, run_training,
                                 stream_seed, sweep_pbase, two_stage_train,
                                 _eval_points, _map_seeds)
from red_offline.sampler import SamplerSpec, build_sampler

from conftest import src_env


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
    data = config_to_dict(small_config())
    data["eval"]["seeds"] = [0, 1, 0]
    with pytest.raises(ConfigError, match="seed 0 is listed more than once"):
        config_from_dict(data)
    # null only where the annotation admits None; NaN fails every range check
    for override, message in (
            ("root_seed=null", "config.root_seed: expected an integer, got None"),
            ("algo=null", "config.algo: expected an object, got NoneType"),
            ("algo.lr=null", "config.algo.lr: expected a number, got None"),
            ("algo.total_steps=1e400", "config.algo.total_steps: expected an integer, got inf"),
            ("algo.total_steps=NaN", "config.algo.total_steps: expected an integer, got nan"),
            ("algo.lr=-1", "config.algo: cql_weight, bc_weight, bc_q_scale and lr must be >= 0"),
            ("algo.beta_awr=NaN", "config.algo: beta_awr and w_max must be > 0"),
            ("algo.hidden_units=0", "config.algo: hidden_units must be >= 1"),
            ("algo.n_hidden_layers=-1", "and n_hidden_layers >= 0"),
            ('algo.activation="sigmoid"', "config.algo: activation must be one of"),
            ("sampler.alpha=NaN", "config.sampler: alpha must be >= 0, got nan"),
            ("sampler.p_base=NaN", "config.sampler: p_base must be >= 0, got nan"),
            ('dered={"backbone_lr_mult": NaN}', "config.dered: backbone_lr_mult must be >= 0"),
            ("dataset.seed=-1", "config.dataset: seed must be >= 0"),
            ("dataset.n_trajectories=0", "seed must be >= 0 and n_trajectories >= 1"),
            ('dataset={"path": "d", "seed": 5}', "config.dataset: 'seed' and 'n_trajectories'"),
            ('dataset={"path": "d", "n_trajectories": 3}', "apply to a preset, not to a 'path'"),
            ("eval.seeds=[1,0.5]", "config.eval.seeds[1]: expected an integer, got 0.5"),
            ('eval.seeds=["3"]', "config.eval.seeds[0]: expected an integer, got '3'"),
            ("eval.seeds=[true]", "config.eval.seeds[0]: expected an integer, got True")):
        data = apply_overrides(config_to_dict(small_config()), [override])
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(data)
    data = apply_overrides(config_to_dict(small_config()),
                           ["dered=null", "dataset.seed=null", "eval.seeds=[2,3.0]"])
    assert config_from_dict(data) == replace(small_config(), eval=replace(
        small_config().eval, seeds=(2, 3)))


NON_DEFAULT_STRINGS = {"family": "conservative_q", "activation": "tanh", "mode": "top_fraction",
                       "preset": "expert_analog", "path": "data.ords"}


def non_default_config(cls, skip=(), **given):
    """``cls`` with every field not in ``given`` or ``skip`` set to a value of
    its annotated type that differs from the field's default."""
    kwargs = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given or f.name in skip:
            continue
        kind = f.type
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        base = typing.get_origin(kind) or kind
        if dataclasses.is_dataclass(kind):
            value = non_default_config(kind)
        else:
            value = {bool: lambda: not f.default, int: lambda: (f.default or 0) + 3,
                     float: lambda: f.default / 2 + 0.3, tuple: lambda: (7, 3),
                     str: lambda: NON_DEFAULT_STRINGS[f.name]}[base]()
        assert value != f.default, f.name
        kwargs[f.name] = value
    return cls(**kwargs)


def test_every_config_field_survives_json():
    # the reader must parse every annotation a config field has: a field it
    # cannot read fails here, not on a user's config
    for source in (non_default_config(DatasetSource, skip={"path"}),
                   non_default_config(DatasetSource, skip={"preset", "seed", "n_trajectories"})):
        cfg = non_default_config(ExperimentConfig, dataset=source)
        assert cfg.dered is not None and cfg.eval.seeds == (7, 3)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


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


def forward_walk(mdp, actions):
    """Return of one episode that takes ``actions[state]`` at every step."""
    s, total = mdp.start_state, 0.0
    for _ in range(mdp.horizon):
        a = actions[s]
        total += float(mdp.reward[s, a])
        if mdp.terminal[s, a]:
            break
        s = int(mdp.next_state[s, a])
    return total


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_evaluate_policy_matches_forward_walk(preset):
    mdp = env_from_name(PRESETS[preset].mdp_name)
    rng = np.random.default_rng(len(preset))
    for _ in range(20):
        actions = rng.integers(0, mdp.n_actions, mdp.n_states)
        got = evaluate_policy(mdp, lambda obs: actions)
        assert abs(got - forward_walk(mdp, actions)) <= 1e-12


_FAULTS_SCRIPT = """
import json, resource
import numpy as np
import red_offline
from red_offline.algos import FAMILIES, AlgoConfig, init_learner, train_step
from red_offline.envsuite import PRESETS, generate_dataset

red_offline.harness.pin_blas_threads()
ds = generate_dataset(PRESETS["replay_analog"])
rng = np.random.default_rng(0)
per_step = {}
for family in FAMILIES:
    cfg = AlgoConfig(family=family, batch_size=256)
    state = init_learner(cfg, ds.meta.obs_dim, ds.meta.action["discrete"], 0)
    for step in range(220):
        if step == 20:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_step(state, cfg, ds.batch(rng.integers(0, len(ds), cfg.batch_size)))
    per_step[family] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200
print(json.dumps(per_step))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator behaviour")
def test_train_steps_take_no_page_faults_after_import():
    # a fresh process: importing the package primes the allocator, so the
    # batch-256 temporaries of a step come from the heap, not from new mappings
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True,
                          text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    per_step = json.loads(proc.stdout)
    assert all(faults < 1 for faults in per_step.values()), per_step


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
    # a repeated column is rejected before the (here missing) dataset is read
    missing = replace(cfg, dataset=DatasetSource(path="missing.ords"))
    for values in ([0.2, 0.20], ["inf", 1.0, "Infinity"], [0.0, -0.0]):
        with pytest.raises(ConfigError, match="repeats the column"):
            sweep_pbase(missing, values)


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
    table, _, _ = compare_rebalance_methods(cfg)
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
                         (hmod, "build_sampler"), (smod, "WeightedSampler")):
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
                          "build_sampler": tables, "WeightedSampler": tables}, kind


class _HashError(RuntimeError):
    pass


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("runner", ["train", "dered", "sweep", "compare"])
def test_an_error_while_hashing_reaches_the_caller(monkeypatch, runner, jobs):
    # the checksum is hashed on a worker thread; what it raises must not be lost
    from red_offline import harness as hmod

    def broken(ds):
        raise _HashError("hashing failed")
    monkeypatch.setattr(hmod, "dataset_checksum", broken)
    cfg = small_config(algo=AlgoConfig(family="q_plus_bc", total_steps=4, batch_size=8,
                                       hidden_units=4),
                       eval=EvalConfig(eval_every=2, episodes_per_eval=1, final_k=1,
                                       seeds=(0, 1)),
                       dered=DeredConfig(stage1_steps=2, stage2_steps=2))
    run = {"train": lambda: run_training(cfg, jobs=jobs),
           "dered": lambda: two_stage_train(cfg, jobs=jobs),
           "sweep": lambda: sweep_pbase(cfg, [0.0, "inf"], jobs=jobs),
           "compare": lambda: compare_rebalance_methods(cfg, jobs=jobs)}[runner]
    with pytest.raises(_HashError, match="hashing failed"):
        run()


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
    # one pool for the run, then one per two-stage stage
    assert [(p.size, p.tasks) for p in pools] == [(2, [0, 1])] * 3


def test_dataset_checksum_is_blake2b_of_the_array_bytes(preset_dataset, tiny_dataset):
    for ds in (preset_dataset("sparse_analog"), tiny_dataset):
        h = hashlib.blake2b(digest_size=16)
        for arr in (ds.obs, ds.actions, ds.rewards, ds.next_obs, ds.terminals, ds.timeouts):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(ds.traj_bounds.tolist()).encode())
        h.update(json.dumps(dataclasses.asdict(ds.meta), sort_keys=True).encode())
        assert dataset_checksum(ds) == h.hexdigest()
