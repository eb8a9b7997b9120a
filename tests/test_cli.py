import json
import math
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from red_offline.cli import main
from red_offline.dataset import (compute_trajectory_returns, load_dataset, return_histogram,
                                 save_dataset)
from red_offline.envsuite import env_from_name
from red_offline.harness import blas_threads
from red_offline.sampler import build_sampler

from conftest import make_dataset, src_env, write_record_value


def write_config(tmp_path, name="cfg.json", **updates):
    cfg = {
        "dataset": {"preset": "replay_analog", "n_trajectories": 60},
        "algo": {"family": "q_plus_bc", "total_steps": 60, "batch_size": 32,
                 "lr": 1e-3, "hidden_units": 16, "target_update_period": 20},
        "sampler": {"mode": "return_resample", "alpha": 1.0, "p_base": 0.1},
        "eval": {"eval_every": 20, "episodes_per_eval": 2, "final_k": 3, "seeds": [1]},
        "root_seed": 9,
    }
    for key, value in updates.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_gen_round_trip_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.ords", tmp_path / "b.ords"
    assert main(["gen", "--preset", "sparse_analog", "--n-trajectories", "40",
                 "--out", str(out1)]) == 0
    printed = capsys.readouterr().out
    assert "trajectories" in printed and "min=" in printed
    ds = load_dataset(out1)
    assert ds.n_trajectories == 40
    assert main(["gen", "--preset", "sparse_analog", "--n-trajectories", "40",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_unknown_preset_usage_error(tmp_path, capsys):
    code = main(["gen", "--preset", "warp_maze", "--out", str(tmp_path / "x.ords")])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_stats_sparse_dataset(tmp_path, capsys):
    path = tmp_path / "sparse.ords"
    main(["gen", "--preset", "sparse_analog", "--n-trajectories", "50", "--out", str(path)])
    capsys.readouterr()
    csv_out = tmp_path / "hist.csv"
    assert main(["stats", "--dataset", str(path), "--bins", "10",
                 "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    rows = [row.split(",") for row in lines[1:]]
    counts = [int(r[2]) for r in rows]
    nonzero = [i for i, c in enumerate(counts) if c > 0]
    assert nonzero == [0, len(counts) - 1]
    ds = load_dataset(path)
    assert sum(counts) == ds.n_trajectories
    edges = return_histogram(compute_trajectory_returns(ds), 10)["bin_edges"]
    assert np.array([float(r[0]) for r in rows]).tobytes() == edges[:-1].tobytes()
    assert np.array([float(r[1]) for r in rows]).tobytes() == edges[1:].tobytes()


def test_stats_flags_right_skew(tmp_path, capsys):
    path = tmp_path / "replay.ords"
    main(["gen", "--preset", "replay_analog", "--out", str(path)])
    capsys.readouterr()
    assert main(["stats", "--dataset", str(path), "--bins", "15"]) == 0
    out = capsys.readouterr().out
    assert "right-skewed" in out
    assert "histogram (15 bins)" in out and len(out.split("histogram ")[1].splitlines()) == 16
    # every reward 0: the histogram collapses to one bin, and says so
    path = tmp_path / "zeros.ords"
    save_dataset(make_dataset([[0.0, 0.0], [0.0], [0.0, 0.0, 0.0]]), path)
    assert main(["stats", "--dataset", str(path), "--bins", "15"]) == 0
    out = capsys.readouterr().out
    assert "right-skewed" not in out
    assert out.split("histogram ")[1].splitlines()[1:] == ["  [-0.500, 0.500): 3"]
    assert "histogram (1 bins)" in out


def test_rebalance_preview_uniform_and_zero_mass(tmp_path, capsys):
    path = tmp_path / "sparse.ords"
    main(["gen", "--preset", "sparse_hard_analog", "--out", str(path)])
    capsys.readouterr()

    assert main(["rebalance-preview", "--dataset", str(path), "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "uniform, deviation 0" in out

    assert main(["rebalance-preview", "--dataset", str(path), "--alpha", "1",
                 "--p-base", "0"]) == 0
    out = capsys.readouterr().out
    zero_frac = float([l for l in out.splitlines() if "zero-mass" in l][0].split(":")[1])
    ds = load_dataset(path)
    tr = compute_trajectory_returns(ds)
    failed = np.repeat(tr.returns == tr.r_min, np.diff(ds.traj_bounds).ravel())
    failed_frac = float(failed.mean())
    assert zero_frac == pytest.approx(failed_frac, abs=1e-4)


def test_rebalance_preview_deviation_decreases(tmp_path, capsys):
    path = tmp_path / "replay.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "80", "--out", str(path)])
    capsys.readouterr()
    devs = []
    for p_base in ("0", "0.2", "0.5", "1.0"):
        assert main(["rebalance-preview", "--dataset", str(path),
                     "--alpha", "1", "--p-base", p_base]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "max deviation" in l][0]
        devs.append(float(line.split(":")[1]))
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_rebalance_preview_out_columns_match_sampler(tmp_path, capsys):
    from red_offline.dataset import normalized_return
    from red_offline.sampler import SamplerSpec, build_sampler
    path, out = tmp_path / "replay.ords", tmp_path / "dist.csv"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "30", "--out", str(path)])
    assert main(["rebalance-preview", "--dataset", str(path), "--alpha", "2",
                 "--p-base", "0.2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,weight,probability"
    rows = [line.split(",") for line in lines[1:]]

    def column(k):
        return np.array([float(r[k]) for r in rows])

    ds = load_dataset(path)
    tr = compute_trajectory_returns(ds)
    sampler = build_sampler(SamplerSpec(mode="return_resample", alpha=2.0, p_base=0.2), ds, tr)
    assert [int(r[0]) for r in rows] == list(range(len(ds)))
    weights = np.repeat(normalized_return(tr, 0.2), np.diff(ds.traj_bounds).ravel())
    assert column(1).tobytes() == weights.tobytes()
    assert column(2).tobytes() == sampler.probs.tobytes()


def test_rebalance_preview_out_streams_one_block_at_a_time(tmp_path, capsys, monkeypatch):
    # at 2,496,000 rows the CSV is about 110 MB of text, so it must never be whole in memory
    from red_offline import cli
    from red_offline.dataset import BLOCK_RECORDS
    path = tmp_path / "replay.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "3400", "--out", str(path)])
    n = len(load_dataset(path))
    assert n > 2 * BLOCK_RECORDS and n % BLOCK_RECORDS
    lines = []

    def write(out, text):
        assert iter(text) is text  # a stream, not a list or one string
        lines.extend(chunk.count("\n") for chunk in text)

    monkeypatch.setattr(cli, "_write", write)
    argv = ["rebalance-preview", "--dataset", str(path), "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 0
    assert lines == [1] + [min(BLOCK_RECORDS, n - s) for s in range(0, n, BLOCK_RECORDS)]


def _refit_ords(src, dst, header=None, action0=None):
    """Copy an .ords file with header fields replaced and record 0's action set."""
    from red_offline.dataset import ORDS_MAGIC, ORDS_VERSION
    from red_offline.io_envelope import read_envelope, write_envelope
    with open(src, "rb") as f:
        _, head, _ = read_envelope(f, ORDS_MAGIC, ORDS_VERSION)
        payload = f.read()
    write_envelope(dst, ORDS_MAGIC, ORDS_VERSION, {**head, **(header or {})}, [payload])
    if action0 is not None:
        write_record_value(dst, 0, "action", action0)


@pytest.mark.parametrize("change,message", [
    ({"action0": 7.0}, "record 0: action 7.0 is not in range(2)"),
    ({"header": {"action": {"box": 1}}}, "action space {'box': 1} is not"),
    ({"header": {"action": {"discrete": 3}}}, "action {'discrete': 3}, but dense_chain-40-39 "
                                              "needs {'obs_dim': 2, 'action': {'discrete': 2}}"),
    ({"header": {"env_name": "warp_maze-3-9"}}, "unknown environment name 'warp_maze-3-9'"),
    ({"header": {"env_name": "dense_chain-40-39-junk"}},
     "unknown environment name 'dense_chain-40-39-junk'"),
], ids=[  # fixed names: those first collected from the messages
    "change0-record 0: action 7.0 is not in range(2)",
    "change1-action space {'box': 1} is not",
    "change2-action {'discrete': 3}, but dense_chain-40-39 needs {'obs_dim': 2, 'action': "
    "{'discrete': 2}}",
    "change3-unknown environment name 'warp_maze-3-9'",
    "change4-unknown environment name 'dense_chain-40-39-junk'",
])
def test_dataset_that_does_not_fit_its_environment_exits_two(tmp_path, capsys, change,
                                                             message):
    good, bad = tmp_path / "good.ords", tmp_path / "bad.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(good)])
    _refit_ords(good, bad, **change)
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["dataset"] = {"path": str(bad)}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


def _config_on_file(tmp_path, dataset):
    cfg = write_config(tmp_path)
    data = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**data, "dataset": {"path": str(dataset)}}))
    return cfg


@pytest.mark.parametrize("alpha,p_base,alpha_json", [("2000", "1", "2000"),
                                                     ("inf", "1", "Infinity")])
def test_overflowing_powers_exit_three_naming_alpha(tmp_path, capsys, alpha, p_base,
                                                    alpha_json):
    path = tmp_path / "replay.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(path)])
    cfg = _config_on_file(tmp_path, path)
    capsys.readouterr()
    named = f"runtime error: weights ** alpha sum to inf at alpha={float(alpha)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
        for command in (["rebalance-preview", "--dataset", str(path),
                         "--alpha", alpha, "--p-base", p_base],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         f"sampler.alpha={alpha_json}", f"sampler.p_base={p_base}"]):
            assert main(command) == 3, command
            captured = capsys.readouterr()
            assert captured.err.startswith(named) and "P=" not in captured.out, command


def test_alpha_inf_without_a_floor_keeps_only_the_best_returns(tmp_path, capsys):
    path = tmp_path / "replay.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(path)])
    capsys.readouterr()
    assert main(["rebalance-preview", "--dataset", str(path), "--alpha", "inf",
                 "--p-base", "0", "--top-k", "1"]) == 0
    ds = load_dataset(path)
    tr = compute_trajectory_returns(ds)
    best = np.repeat(tr.returns == tr.r_max, np.diff(ds.traj_bounds).ravel())
    out = capsys.readouterr().out
    assert f"zero-mass fraction: {1 - best.mean():.4f}" in out
    assert f"P={1 / best.sum():.3e} (weight 1.0000)" in out


def _every_command_exits_two(tmp_path, capsys, bad, message, environment=False):
    """Each command that reads the dataset file ``bad`` exits 2 with
    ``error: {bad}: {message}``, creates no output directory and fires no
    numpy warning. With ``environment``, the fault shows only against the
    file's environment, which ``stats`` and ``rebalance-preview`` do not
    read: those two exit 0."""
    cfg = _config_on_file(tmp_path, bad)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                               "dered": {"stage1_steps": 20, "stage2_steps": 20}}))
    runs = {f"train_{mode}": ["train", f"sampler.mode={mode}"]
            for mode in ("uniform", "return_resample", "reward_resample", "top_fraction")}
    runs.update(sweep=["sweep", "--values", "0,inf"], compare=["compare"], dered=["dered"])
    readers = [["stats", "--dataset", str(bad)], ["rebalance-preview", "--dataset", str(bad)]]
    commands = [] if environment else readers
    commands += [[command, "--config", str(cfg), "--out", str(tmp_path / name), *rest]
                 for name, (command, *rest) in runs.items()]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy range, overflow or invalid-value warning
        for command in commands:
            assert main(command) == 2, command
            assert capsys.readouterr().err == f"error: {bad}: {message}\n", command
        for command in readers if environment else []:
            assert main(command) == 0, command
    assert not [name for name in runs if (tmp_path / name).exists()]


def _write_row(path, record, field, row):
    for col, value in enumerate(row):
        write_record_value(path, record, field, value, col)


@pytest.mark.parametrize("case", ["obs_one_ulp_off", "first_obs_not_a_state", "negative_zero",
                                  "next_obs_off_dynamics", "obs_breaks_the_walk"])
def test_rows_off_the_environment_walk_exit_two_naming_them(tmp_path, capsys, case):
    preset = "sparse_analog" if case == "negative_zero" else "replay_analog"
    good, bad = tmp_path / "good.ords", tmp_path / "bad.ords"
    main(["gen", "--preset", preset, "--n-trajectories", "20", "--out", str(good)])
    ds = load_dataset(good)
    mdp = env_from_name(ds.meta.env_name)
    k = int(ds.traj_bounds[1, 0]) + 2  # inside trajectory 1
    state = int(np.flatnonzero((mdp.obs_table == ds.obs[k]).all(axis=1))[0])
    shutil.copy(good, bad)
    if case == "obs_one_ulp_off":
        row = [float(np.nextafter(ds.obs[k, 0], 2.0)), float(ds.obs[k, 1])]
        _write_row(bad, k, "obs", row)
        message = f"transition {k}: obs {row} is not {ds.obs[k].tolist()}, where " \
                  f"transition {k - 1} leads"
    elif case == "first_obs_not_a_state":
        row = [float(ds.obs[0, 0]), float(np.nextafter(ds.obs[0, 1], -1.0))]
        _write_row(bad, 0, "obs", row)
        message = f"transition 0: obs {row} is not a state of {mdp.name}"
    elif case == "negative_zero":  # equal to the walk's state as floats, not as bytes
        starts = set(ds.traj_bounds[:, 0].tolist())
        k = next(i for i in range(len(ds)) if ds.obs[i, 0] == 0.0 and i not in starts)
        write_record_value(bad, k, "obs", -0.0)
        row = [-0.0, float(ds.obs[k, 1])]
        message = f"transition {k}: obs {row} is not {ds.obs[k].tolist()}, where " \
                  f"transition {k - 1} leads"
    elif case == "next_obs_off_dynamics":  # a state, but not next_state[obs, action]
        row = mdp.obs_table[(mdp.next_state[state, ds.actions[k]] + 1) % mdp.n_states].tolist()
        _write_row(bad, k, "next_obs", row)
        message = f"transition {k}: next_obs {row} is not {ds.next_obs[k].tolist()}, where " \
                  f"transition {k} leads"
    else:  # transition k follows the dynamics, but from a state k - 1 does not lead to
        other = (state + 3) % mdp.n_states
        _write_row(bad, k, "obs", mdp.obs_table[other])
        write_record_value(bad, k, "action", 0.0)
        _write_row(bad, k, "next_obs", mdp.obs_table[mdp.next_state[other, 0]])
        message = f"transition {k}: obs {mdp.obs_table[other].tolist()} is not " \
                  f"{ds.next_obs[k - 1].tolist()}, where transition {k - 1} leads"
    _every_command_exits_two(tmp_path, capsys, bad, message, environment=True)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_returns_and_rewards_exit_two_naming_them(tmp_path, capsys, value):
    # a non-finite reward is refused at load, so no return is ever non-finite
    good, bad = tmp_path / "good.ords", tmp_path / "bad.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(good)])
    first = int(load_dataset(good).traj_bounds[1, 0]) - 1  # trajectory 0's last transition
    shutil.copy(good, bad)
    write_record_value(bad, first, "reward", value)
    _every_command_exits_two(tmp_path, capsys, bad,
                             f"transition {first}: reward {value} is not finite")


@pytest.mark.parametrize("case", ["obs_nan", "next_obs_inf", "reward_span", "return_span"])
def test_values_beyond_float64_exit_two_naming_where(tmp_path, capsys, case):
    good, bad = tmp_path / "good.ords", tmp_path / "bad.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(good)])
    bounds = load_dataset(good).traj_bounds
    (a, _), (b, _) = bounds[bounds[:, 1] - bounds[:, 0] >= 2][:2]  # two trajectories of 2+
    shutil.copy(good, bad)
    if case == "obs_nan":
        write_record_value(bad, 7, "obs", np.nan, col=1)
        message = "transition 7: obs nan is not finite"
    elif case == "next_obs_inf":
        write_record_value(bad, 5, "next_obs", -np.inf)
        message = "transition 5: next_obs -inf is not finite"
    elif case == "reward_span":
        write_record_value(bad, a, "reward", 1e308)
        write_record_value(bad, b, "reward", -1e308)
        message = f"transitions {b} and {a}: rewards -1e+308 and 1e+308 span more than float64"
    else:  # finite rewards and reward span; returns of about -1e308 and 1e308
        for record, value in ((a, 5e307), (a + 1, 5e307), (b, -5e307), (b + 1, -5e307)):
            write_record_value(bad, record, "reward", value)
        ds = load_dataset(bad)  # a legal dataset: only its returns' span overflows
        returns = [math.fsum(ds.rewards[start:stop].tolist()) for start, stop in ds.traj_bounds]
        lo, hi = min(returns), max(returns)
        assert -1.0001e308 < lo < -0.9999e308 and 0.9999e308 < hi < 1.0001e308
        message = (f"trajectories {returns.index(lo)} and {returns.index(hi)}: returns "
                   f"{lo!r} and {hi!r} span more than float64")
    _every_command_exits_two(tmp_path, capsys, bad, message)


def test_train_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()
    assert (out_a / "losses_seed1.csv").exists()
    assert (out_a / "timing.json").exists()


def test_train_jobs_match_sequential(tmp_path):
    cfg = write_config(tmp_path, eval={"seeds": [0, 1]})
    seq, par = tmp_path / "jobs1", tmp_path / "jobs2"
    assert main(["train", "--config", str(cfg), "--out", str(seq), "--jobs", "1"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(par), "--jobs", "2"]) == 0
    for name in ("report.json", "curves.csv", "losses_seed0.csv", "losses_seed1.csv"):
        assert (par / name).read_bytes() == (seq / name).read_bytes(), name


def test_train_override_changes_report(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b),
                 "sampler.mode=uniform"]) == 0
    ra = json.loads((out_a / "report.json").read_text())
    rb = json.loads((out_b / "report.json").read_text())
    assert ra["config"]["sampler"]["mode"] == "return_resample"
    assert rb["config"]["sampler"]["mode"] == "uniform"


def test_env_var_overrides_root_seed(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    monkeypatch.setenv("RED_OFFLINE_ROOT_SEED", "777")
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    ra = json.loads((out_a / "report.json").read_text())
    rb = json.loads((out_b / "report.json").read_text())
    assert ra["config"]["root_seed"] == 9
    assert rb["config"]["root_seed"] == 777


def test_dered_stage2_zero_steps_identity(tmp_path):
    cfg = write_config(tmp_path, algo={"family": "expectile_awr"},
                       dered={"stage1_steps": 40, "stage2_steps": 0,
                              "backbone_lr_mult": 0.1, "freeze_head": True})
    out = tmp_path / "dered"
    assert main(["dered", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    s1 = report["stage1"]["per_seed"][0]
    s2 = report["stage2"]["per_seed"][0]
    assert s2["final_k_mean_raw"] == pytest.approx(s1["eval_returns"][-1])
    assert (out / "curves_stage1.csv").exists()
    assert (out / "stage1_seed1.orck").exists()


def test_dered_jobs_match_sequential(tmp_path):
    cfg = write_config(tmp_path, algo={"family": "expectile_awr"}, eval={"seeds": [0, 1]},
                       dered={"stage1_steps": 40, "stage2_steps": 20,
                              "backbone_lr_mult": 0.1, "freeze_head": True})
    for mode in ("return_resample", "uniform"):  # uniform: the decoupling-only control
        seq, par = tmp_path / f"{mode}_jobs1", tmp_path / f"{mode}_jobs2"
        for out, jobs in ((seq, "1"), (par, "2")):
            assert main(["dered", "--config", str(cfg), "--out", str(out), "--jobs", jobs,
                         f"sampler.mode={mode}"]) == 0
        losses = [f"losses_stage{k}_seed{s}.csv" for k in (1, 2) for s in (0, 1)]
        for name in ("report.json", "stage1_seed0.orck", "stage1_seed1.orck", *losses):
            assert (par / name).read_bytes() == (seq / name).read_bytes(), (mode, name)
        assert sorted(p.name for p in par.glob("stage1_seed*.orck")) == [
            "stage1_seed0.orck", "stage1_seed1.orck"]


def test_changed_frozen_head_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    from red_offline import harness
    real_step = harness.train_step

    def unfrozen_step(state, cfg, batch, freeze_head=False):
        return real_step(state, cfg, batch, freeze_head=False)

    monkeypatch.setattr(harness, "train_step", unfrozen_step)
    cfg = write_config(tmp_path, eval={"seeds": [0, 1]},
                       dered={"stage1_steps": 20, "stage2_steps": 20, "freeze_head": True})
    message = "seed 0: frozen heads changed during stage 2"
    with pytest.raises(RuntimeError, match=message):
        harness.two_stage_train(harness.config_from_dict(json.loads(cfg.read_text())))
    assert main(["dered", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"runtime error: {message}\n"


@pytest.mark.parametrize("command,extra", [("sweep", ["--values", "0,0.2,inf"]),
                                           ("compare", [])])
def test_arms_jobs_match_sequential(tmp_path, command, extra):
    cfg = write_config(tmp_path, eval={"seeds": [0, 1]})
    seq, par = tmp_path / "jobs1", tmp_path / "jobs2"
    for out, jobs in ((seq, "1"), (par, "2")):
        assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs,
                     *extra]) == 0
    names = sorted(p.name for p in seq.iterdir() if p.name != "timing.json")
    assert names == sorted(p.name for p in par.iterdir() if p.name != "timing.json")
    assert {"report.json", f"{command}.csv"} <= set(names)
    assert len([n for n in names if n.startswith(("curves_", "losses_"))]) > 4
    for name in names:
        assert (par / name).read_bytes() == (seq / name).read_bytes(), name


@pytest.mark.parametrize("header,message", [
    ({"n_transitions": -4, "n_trajectories": 2470}, "header field n_transitions is -4, below 0"),
    ({"n_transitions": 788, "n_trajectories": -5}, "header field n_trajectories is -5, below 0"),
], ids=[  # fixed names: those first collected from the messages
    "header0-header field n_transitions is -4, below 0",
    "header1-header field n_trajectories is -5, below 0",
])
def test_negative_header_count_exits_two(tmp_path, capsys, header, message):
    # 780 records of 50 bytes and 20 bounds of 16: both headers still add up
    # to the payload length, so only the sign check catches them
    good, bad = tmp_path / "good.ords", tmp_path / "bad.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(good)])
    _refit_ords(good, bad, header=header)
    capsys.readouterr()
    assert main(["stats", "--dataset", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("header,message", [
    ({"obs_dim": -1}, "obs_dim -1 is not an int >= 1"),
    ({"obs_dim": 0}, "obs_dim 0 is not an int >= 1"),
    ({"obs_dim": 10**30}, "invalid shape"),
    ({"obs_dim": 2.5}, "obs_dim 2.5 is not an integer"),
    ({"obs_dim": 2.0}, "obs_dim 2.0 is not an integer"),
    ({"obs_dim": True}, "obs_dim True is not an integer"),
    ({"seed": "0"}, "seed '0' is not an integer"),
    ({"n_transitions": 780.0}, "n_transitions 780.0 is not an integer"),
    ({"n_trajectories": None}, "n_trajectories None is not an integer"),
], ids=[  # fixed names: those first collected from the messages
    "header0-obs_dim -1 is not an int >= 1",
    "header1-obs_dim 0 is not an int >= 1",
    "header2-invalid shape",
    "header3-obs_dim 2.5 is not an integer",
    "header4-obs_dim 2.0 is not an integer",
    "header5-obs_dim True is not an integer",
    "header6-seed '0' is not an integer",
    "header7-n_transitions 780.0 is not an integer",
    "header8-n_trajectories None is not an integer",
])
def test_malformed_header_integer_exits_two_naming_the_file(tmp_path, capsys, header, message):
    good, bad = tmp_path / "good.ords", tmp_path / "bad.ords"
    main(["gen", "--preset", "replay_analog", "--n-trajectories", "5", "--out", str(good)])
    _refit_ords(good, bad, header=header)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stats", "--dataset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: header missing or malformed field: ") and message in err


def _envelope(head: bytes, version=1, header_len=None) -> bytes:
    return b"ORDS" + struct.pack("<IQ", version, len(head) if header_len is None
                                 else header_len) + head


@pytest.mark.parametrize("raw,message", [
    (b"ORDS" + bytes(6), "file too short (10 bytes) for envelope"),
    (_envelope(b"{}", version=2), "unsupported version 2"),
    (_envelope(b"{}", header_len=3), "header length 3 overruns file"),
    (_envelope(b"[1, 2]"), "header must be a JSON object"),
    (_envelope(b"{not json"), "header is not valid JSON: "),
], ids=[  # fixed names: those first collected from the messages
    b"ORDS\x00\x00\x00\x00\x00\x00-file too short (10 bytes) for envelope",
    b"ORDS\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00{}-unsupported version 2",
    b"ORDS\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00{}-header length 3 overruns file",
    b"ORDS\x01\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00[1, 2]-header must be a JSON object",
    b"ORDS\x01\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00{not json-header is not valid JSON: ",
])
def test_broken_envelope_exits_two_naming_the_file(tmp_path, capsys, raw, message):
    bad = tmp_path / "bad.ords"
    bad.write_bytes(raw)
    assert main(["stats", "--dataset", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--jobs" in err
    assert not out.exists()


@pytest.mark.parametrize("values,bad", [("-1,0.2", "-1"), ("0.2,-1", "-1"), ("nan", "nan"),
                                        ("-inf", "-inf"), ("0.5,x", "x")])
def test_pbase_value_below_zero_or_nan_is_usage_error(tmp_path, capsys, values, bad):
    # rejected before the dataset is prepared or any arm trains
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), f"--values={values}"]) == 1
    captured = capsys.readouterr()
    assert "--values" in captured.err and repr(bad) in captured.err
    assert not out.exists() and not captured.out


def test_pbase_values_spelled_as_infinity_are_the_uniform_column(tmp_path):
    from red_offline.cli import _parse_pbase_values
    assert _parse_pbase_values("0.2, inf,+inf,Infinity,1e999") == [0.2] + [math.inf] * 4


@pytest.mark.parametrize("command,flag,value", [
    ("stats", "--bins", "0"),
    ("rebalance-preview", "--alpha", "-1"),
    ("rebalance-preview", "--p-base", "-0.5"),
    ("rebalance-preview", "--p-base", "inf"),
    ("rebalance-preview", "--top-k", "-2"),
    ("compare", "--fraction", "0"),
    ("gen", "--n-trajectories", "0"),
    ("gen", "--seed", "-1"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    data = tmp_path / "replay.ords"
    assert main(["gen", "--preset", "replay_analog", "--n-trajectories", "20",
                 "--out", str(data)]) == 0
    out = tmp_path / "o"
    args = {"stats": ["--dataset", str(data)],
            "rebalance-preview": ["--dataset", str(data), "--out", str(out)],
            "compare": ["--config", str(write_config(tmp_path)), "--out", str(out)],
            "gen": ["--preset", "replay_analog", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([command, *args, flag, value]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err and flag in captured.err
    assert not out.exists() and not captured.out


_BLAS_SCRIPT = """
import json, os, sys
cfg, out, case = sys.argv[1:]
if case == "cli":
    from red_offline import cli
from red_offline import harness

def probe(shared, seed):
    return harness.blas_threads()

before = harness.blas_threads()
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
workers = None
if case == "api":
    with open(cfg) as f:
        harness.run_training(harness.config_from_dict(json.load(f)), jobs=1)
elif case == "worker":
    workers = harness._map_seeds(probe, None, [0, 1], 2)
else:
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
print(json.dumps({"before": before, "after": harness.blas_threads(), "threads": threads,
                  "env": os.environ.get("OPENBLAS_NUM_THREADS"), "workers": workers}))
"""

_NUMPY_THREADS_SCRIPT = 'import os, numpy; print(len(os.listdir("/proc/self/task")))'


@pytest.mark.skipif(blas_threads() is None, reason="numpy's bundled OpenBLAS not found")
@pytest.mark.parametrize("case,env", [("api", None), ("cli", None), ("worker", None),
                                      ("cli", "2")])
def test_blas_threads_contract(tmp_path, case, env):
    # fresh processes: the CLI sets up the BLAS of the process it runs in, and
    # only the CLI and the API's seed workers do
    cfg = write_config(tmp_path, algo={"total_steps": 20}, eval={"eval_every": 10})
    proc_env = src_env()
    proc_env.pop("OPENBLAS_NUM_THREADS", None)
    if env is not None:
        proc_env["OPENBLAS_NUM_THREADS"] = env
    proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT, str(cfg), str(tmp_path / "o"),
                           case], capture_output=True, text=True, env=proc_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    if case == "cli" and env is None:
        # OpenBLAS started on one thread, before numpy loaded: no helper thread
        assert got["env"] == "1" and got["before"] == got["after"] == 1
        assert got["threads"] in (1, None)
    else:  # the API, a worker's parent and a user's OPENBLAS_NUM_THREADS are left alone
        assert got["env"] == env and got["after"] == got["before"]
    if case == "cli" and env is not None:
        assert got["after"] == int(env)
    if case == "api" and got["threads"] is not None:
        bare = subprocess.run([sys.executable, "-c", _NUMPY_THREADS_SCRIPT], capture_output=True,
                              text=True, env=proc_env, timeout=60)
        assert got["threads"] == int(bare.stdout), "importing the API started threads of its own"
    if case == "worker":
        assert got["workers"] == [1, 1]


_NUMPY_MA_SCRIPT = """
import sys
from red_offline import cli
assert cli.main(["train", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("source", ["preset", "file"])
def test_a_train_process_never_loads_numpy_ma(tmp_path, source):
    # np.unique over a 1-D void array without return_inverse imports numpy.ma,
    # 10-14 ms and about 0.7 MiB per process, and a benchmark round starts 8
    cfg = write_config(tmp_path, algo={"total_steps": 20}, eval={"eval_every": 10})
    if source == "file":
        path = tmp_path / "replay.ords"
        main(["gen", "--preset", "replay_analog", "--n-trajectories", "20", "--out", str(path)])
        cfg = _config_on_file(tmp_path, path)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_SCRIPT, str(cfg), str(tmp_path / "o")],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_compare_emits_four_arm_csv(tmp_path):
    cfg = write_config(tmp_path, algo={"family": "conservative_q"})
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == "task,uniform,return_resample,reward_resample,top_fraction"


@pytest.mark.parametrize("flag,fraction", [([], 0.5), (["--fraction", "0.3"], 0.3)],
                         ids=["config", "flag"])
def test_compare_top_fraction_arm_uses_sampler_fraction(tmp_path, monkeypatch, flag, fraction):
    # without the flag the config's sampler.fraction holds; the flag overrides it in every arm
    from red_offline import harness as hmod
    specs = []

    def spy(spec, ds, tr):
        specs.append(spec)
        return build_sampler(spec, ds, tr)

    monkeypatch.setattr(hmod, "build_sampler", spy)
    cfg = write_config(tmp_path, sampler={"fraction": 0.5}, algo={"total_steps": 20},
                       eval={"final_k": 1})
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out), *flag]) == 0
    assert [s.fraction for s in specs if s.mode == "top_fraction"] == [fraction]
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert {arm: r["config"]["sampler"]["fraction"] for arm, r in reports.items()} == {
        arm: fraction for arm in ("uniform", "return_resample", "reward_resample", "top_fraction")}


def test_sweep_emits_table(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--values", "0,0.5,inf"]) == 0
    header, row = (out / "sweep.csv").read_text().strip().splitlines()
    assert header == "task,0.0,0.5,inf"
    assert row.startswith("replay_analog,")


def test_negative_zero_pbase_is_the_zero_column(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "twice"),
                 "--values=0,-0"]) == 2
    assert "p_base value -0.0 repeats the column '0.0'" in capsys.readouterr().err
    out = tmp_path / "zero"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--values=-0"]) == 0
    assert (out / "sweep.csv").read_text().splitlines()[0] == "task,0.0"
    assert (out / "curves_0.0.csv").exists() and not (tmp_path / "twice").exists()


def test_report_merges_and_marks_best(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "uniform", tmp_path / "red"
    main(["train", "--config", str(cfg), "--out", str(out_a), "sampler.mode=uniform"])
    main(["train", "--config", str(cfg), "--out", str(out_b)])
    capsys.readouterr()
    merged = tmp_path / "merged.csv"
    assert main(["report", str(out_a), str(out_b), "--out", str(merged)]) == 0
    out = capsys.readouterr().out
    assert "*" in out
    header = merged.read_text().splitlines()[0]
    assert header.startswith("task,")
    assert "q_plus_bc+uniform" in header and "q_plus_bc+return_resample" in header


def test_report_names_a_two_stage_run_by_its_stage_two_sampler(tmp_path, capsys):
    cfg = write_config(tmp_path, dered={"stage1_steps": 20, "stage2_steps": 20})
    outs = [tmp_path / "uniform", tmp_path / "red"]
    for out, mode in zip(outs, ("uniform", "return_resample")):
        assert main(["dered", "--config", str(cfg), "--out", str(out),
                     f"sampler.mode={mode}"]) == 0
    merged = tmp_path / "merged.csv"
    assert main(["report", *map(str, outs), "--out", str(merged)]) == 0
    capsys.readouterr()
    header = merged.read_text().splitlines()[0]
    assert header == "task,q_plus_bc+two_stage+uniform,q_plus_bc+two_stage+return_resample"


def test_report_single_run_passthrough(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "solo"
    main(["train", "--config", str(cfg), "--out", str(out_a)])
    capsys.readouterr()
    assert main(["report", str(out_a)]) == 0
    out = capsys.readouterr().out
    report = json.loads((out_a / "report.json").read_text())
    assert repr(report["aggregate"]["mean_normalized"]) in out


_RUN_REPORT = {"kind": "experiment", "task": "replay_analog",
               "config": {"algo": {"family": "q_plus_bc"}, "sampler": {"mode": "uniform"}},
               "aggregate": {"mean_normalized": 50.0}}


@pytest.mark.parametrize("payload,message", [
    ([1, 2], "not a run report: kind None"),
    ({"kind": "sweep"}, "not a run report: kind 'sweep'"),
    ({"kind": "experiment"}, "not a run report: missing key 'config'"),
    ({**_RUN_REPORT, "aggregate": {}}, "not a run report: missing key 'mean_normalized'"),
    ({**_RUN_REPORT, "kind": "two_stage"}, "not a run report: missing key 'stage2'"),
    ({**_RUN_REPORT, "task": ["replay_analog"]},
     "not a run report: task ['replay_analog'] must be a string and score 50.0 a number or null"),
    ({**_RUN_REPORT, "task": 7},
     "not a run report: task 7 must be a string and score 50.0 a number or null"),
    ({**_RUN_REPORT, "aggregate": {"mean_normalized": "50"}},
     "not a run report: task 'replay_analog' must be a string and score '50' a number or null"),
], ids=[  # fixed names: those first collected from the messages
    "payload0-not a run report: kind None",
    "payload1-not a run report: kind 'sweep'",
    "payload2-not a run report: missing key 'config'",
    "payload3-not a run report: missing key 'mean_normalized'",
    "payload4-not a run report: missing key 'stage2'",
    "payload5-not a run report: task ['replay_analog'] must be a string and score 50.0 a "
    "number or null",
    "payload6-not a run report: task 7 must be a string and score 50.0 a number or null",
    "payload7-not a run report: task 'replay_analog' must be a string and score '50' a "
    "number or null",
])
def test_report_of_the_wrong_shape_exits_two_naming_it(tmp_path, capsys, payload, message):
    good, bad = tmp_path / "good", tmp_path / "bad"
    for path, body in ((good, _RUN_REPORT), (bad, payload)):
        path.mkdir()
        (path / "report.json").write_text(json.dumps(body))
    assert main(["report", str(good)]) == 0
    capsys.readouterr()
    assert main(["report", str(good), str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad / 'report.json'}: {message}\n"


def test_report_of_one_run_twice_primes_the_second_column(tmp_path, capsys):
    run, merged = tmp_path / "run", tmp_path / "merged.csv"
    run.mkdir()
    (run / "report.json").write_text(json.dumps(_RUN_REPORT))
    assert main(["report", str(run), str(run), "--out", str(merged)]) == 0
    assert merged.read_text() == "task,q_plus_bc+uniform,q_plus_bc+uniform'\n" \
                                 "replay_analog,50.0,50.0\n"


def test_report_mismatched_runs_error(tmp_path, capsys):
    cfg_a = write_config(tmp_path, "a.json")
    cfg_b = write_config(tmp_path, "b.json",
                         dataset={"preset": "expert_analog", "n_trajectories": 60},
                         algo={"family": "conservative_q"})
    out_a, out_b, out_c = tmp_path / "ra", tmp_path / "rb", tmp_path / "rc"
    main(["train", "--config", str(cfg_a), "--out", str(out_a)])
    main(["train", "--config", str(cfg_b), "--out", str(out_b)])
    main(["train", "--config", str(cfg_a), "--out", str(out_c),
          "dataset.preset=expert_analog"])
    capsys.readouterr()
    code = main(["report", str(out_a), str(out_b)])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing task/arm cells" in err
    assert "expert_analog" in err or "replay_analog" in err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    code = main(["gen", "--preset", "sparse_analog", "--out", "x", "--turbo"])
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("gen", "stats", "rebalance-preview", "train", "dered",
                "sweep", "compare", "report"):
        assert sub in out


def test_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                 "algo.bogus_knob=1"]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"algo": {"family": "q_plus_bc"}}))
    assert main(["train", "--config", str(missing), "--out", str(tmp_path / "o3")]) == 2
    capsys.readouterr()
    # a seed or sweep arm listed twice would be trained twice
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o4"),
                 "eval.seeds=[1,2,1]"]) == 2
    assert "seed 1 is listed more than once" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o5"),
                 "--values", "0.2,0.20,inf,infinity"]) == 2
    assert "p_base value 0.2 repeats the column '0.2'" in capsys.readouterr().err
    assert not (tmp_path / "o4").exists() and not (tmp_path / "o5").exists()


@pytest.mark.parametrize("argv,root_seed,code,message", [
    (["train", "--config", "nope.json"], None, 2, "cannot read config nope.json: "),
    (["train", "--config", "cfg.json"], "abc", 2, "RED_OFFLINE_ROOT_SEED='abc' is not an integer"),
    (["sweep", "--config", "cfg.json", "--values", ","], None, 1, "no p_base values given"),
    (["report", "empty"], None, 2, "cannot read empty/report.json: "),
    (["report", "brace"], None, 2, "brace/report.json is not valid JSON: "),
], ids=[  # fixed names: those first collected from the messages
    "argv0-None-2-cannot read config nope.json: ",
    "argv1-abc-2-RED_OFFLINE_ROOT_SEED='abc' is not an integer",
    "argv2-None-1-no p_base values given",
    "argv3-None-2-cannot read empty/report.json: ",
    "argv4-None-2-brace/report.json is not valid JSON: ",
])
def test_unreadable_inputs_exit_naming_them(tmp_path, capsys, monkeypatch, argv, root_seed,
                                            code, message):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "empty").mkdir()
    (tmp_path / "brace").mkdir()
    (tmp_path / "brace" / "report.json").write_text("{")
    if root_seed is not None:
        monkeypatch.setenv("RED_OFFLINE_ROOT_SEED", root_seed)
    out = [] if argv[0] == "report" else ["--out", "o"]
    assert main(argv + out) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload, kind", [([1, 2], "list"), ("x", "str")])
def test_config_that_is_not_an_object_exits_two_with_or_without_overrides(
        tmp_path, capsys, payload, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    for k, overrides in enumerate(([], ["algo.lr=0.1"], ["root_seed=3", "eval.seeds=[1]"])):
        out = tmp_path / f"o{k}"
        assert main(["train", "--config", str(cfg), "--out", str(out), *overrides]) == 2
        assert f"config: expected an object, got {kind}" in capsys.readouterr().err
        assert not out.exists()


BAD_CONFIG_VALUES = [
    ("algo=null", "config.algo: expected an object"),
    ("eval=null", "config.eval: expected an object"),
    ("sampler=null", "config.sampler: expected an object"),
    ("algo.lr=null", "config.algo.lr: expected a number"),
    ("algo.total_steps=1e400", "config.algo.total_steps: expected an integer"),
    ("algo.total_steps=NaN", "config.algo.total_steps: expected an integer"),
    ("root_seed=null", "config.root_seed: expected an integer"),
    ("algo.lr=-1", "config.algo: cql_weight, bc_weight, bc_q_scale and lr must be >= 0"),
    ("algo.hidden_units=0", "config.algo: hidden_units must be >= 1"),
    ('algo.activation="sigmoid"', "config.algo: activation must be one of"),
    ("sampler.p_base=NaN", "config.sampler: p_base must be >= 0"),
    ("sampler.p_base=Infinity", "config.sampler: p_base must be >= 0 and finite, got inf"),
    ("sampler.alpha=NaN", "config.sampler: alpha must be >= 0"),
    ("dataset.seed=-1", "config.dataset: seed must be >= 0"),
    ('dataset.preset="bogus"', "config.dataset: unknown preset 'bogus'"),
    ("sampler.seed=-3", "config.sampler: seed must be >= 0, got -3"),
    ("algo.bc_q_scale=-5", "config.algo: cql_weight, bc_weight, bc_q_scale and lr must be"),
    ("algo.bc_q_scale=NaN", "config.algo: cql_weight, bc_weight, bc_q_scale and lr must be"),
    ("algo.lr=1e400", "config.algo: cql_weight, bc_weight, bc_q_scale and lr must be >= 0 "
                      "and finite, got lr=inf"),
    ("algo.cql_weight=1e400", "and finite, got cql_weight=inf"),
    ('dered={"backbone_lr_mult": 1e400}', "config.dered: backbone_lr_mult must be >= 0 and "
                                          "finite, got inf"),
    ('dataset={"path": "x.ords", "seed": 5, "n_trajectories": 3}',
     "config.dataset: 'seed' and 'n_trajectories' apply to a preset"),
    ("eval.seeds=[0.5,1]", "config.eval.seeds[0]: expected an integer"),
    ('eval.seeds=["3"]', "config.eval.seeds[0]: expected an integer"),
    ("eval.seeds=[true]", "config.eval.seeds[0]: expected an integer"),
    ("algo.family.x=1", "override 'algo.family.x': 'family' is not an object"),
]


@pytest.mark.parametrize("override,field", BAD_CONFIG_VALUES,
                         ids=[override for override, _ in BAD_CONFIG_VALUES])
def test_bad_config_value_exits_two_naming_its_field(tmp_path, capsys, override, field):
    out = tmp_path / "o"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out),
                 override]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


DERED = {"stage1_steps": 40, "stage2_steps": 20}
EXPERIMENTS = {"train": [], "dered": [], "sweep": ["--values", "0,inf"], "compare": []}


@pytest.mark.parametrize("command", sorted(EXPERIMENTS))
def test_runtime_abort_exits_three(tmp_path, monkeypatch, command):
    from red_offline import harness as hmod
    from red_offline.algos import NanLossError

    def exploding(state, cfg, batch, freeze_head=False):
        raise NanLossError(cfg.family, 1, {"q_loss": float("nan")})

    monkeypatch.setattr(hmod, "train_step", exploding)
    cfg = write_config(tmp_path, dered=DERED)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 *EXPERIMENTS[command]]) == 3
    assert (out / "report.json").exists()


def test_dered_without_block_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["dered", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "dered" in capsys.readouterr().err


@pytest.mark.parametrize("command,blocks", [
    ("train", [""]),
    ("dered", ["_stage1", "_stage2"]),
    ("sweep", ["_0.0", "_inf"]),
    ("compare", ["_uniform", "_return_resample", "_reward_resample", "_top_fraction"]),
])
def test_every_block_writes_curves_and_losses(tmp_path, command, blocks):
    cfg = write_config(tmp_path, eval={"seeds": [0, 1]}, dered=DERED)
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out),
                 *EXPERIMENTS[command]]) == 0
    written = {p.name for p in out.glob("*.csv")}
    expected = {f"curves{b}.csv" for b in blocks}
    expected |= {f"losses{b}_seed{s}.csv" for b in blocks for s in (0, 1)}
    assert expected <= written
    assert not {n for n in written if n.startswith(("curves", "losses"))} - expected
    timing = json.loads((out / "timing.json").read_text())
    assert timing["runtime"] == {"jobs": 1, "blas_threads": blas_threads()}
    report = json.loads((out / "report.json").read_text())
    if command == "train":
        in_report = [report]
    elif command == "dered":
        in_report = [report["stage1"], report["stage2"]]
    else:
        in_report = list(report["reports"].values())
    for label, block in zip(blocks, in_report, strict=True):
        curves = (out / f"curves{label}.csv").read_text().splitlines()
        assert len(curves) == 1 + sum(len(e["eval_steps"]) for e in block["per_seed"])
        header = (out / f"losses{label}_seed0.csv").read_text().splitlines()[0]
        assert header.startswith("step,")


@pytest.mark.parametrize("argv,message", [
    (["gen", "--preset", "warp_maze", "--out", "x.ords"],
     "argument --preset: invalid choice: 'warp_maze'"),
    (["gen", "--preset", "replay_analog", "--seed", "abc", "--out", "x.ords"],
     "argument --seed: invalid int value: 'abc'"),
    (["rebalance-preview", "--dataset", "x.ords", "--alpha", "x"],
     "argument --alpha: invalid float value: 'x'"),
    (["train", "--config", "nope.json", "--out", "o", "--jobs", "0"],
     "argument --jobs: must be >= 1, got 0"),
    (["sweep", "--config", "nope.json", "--out", "o", "--values", "0.2,-1"],
     "argument --values: p_base value '-1' is not a number >= 0 or inf"),
    (["sweep", "--config", "nope.json", "--out", "o", "--values", " , "],
     "argument --values: no p_base values given"),
], ids=["preset", "seed", "alpha", "jobs", "values", "no_values"])
def test_bad_arguments_are_refused_while_parsing(tmp_path, capsys, monkeypatch, argv, message):
    # exit 1 before any input file is read (none exists) and with no output written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: red-offline ")
    assert f"red-offline {argv[0]}: error: {message}" in captured.err
    assert not captured.out and not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", [[], ["algo.hidden_units=0"]], ids=["file", "override"])
def test_config_errors_print_as_config_errors(tmp_path, capsys, override):
    cfg = write_config(tmp_path, algo={"hidden_units": 16 if override else 0})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), *override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.algo: hidden_units must be >= 1")


def test_without_a_bundled_openblas_the_run_records_null_threads(tmp_path, monkeypatch):
    from red_offline import harness
    monkeypatch.setattr(harness.glob, "glob", lambda pattern: [])
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert harness.blas_threads() is None
    harness.pin_blas_threads()  # nothing to pin
    cfg = write_config(tmp_path, algo={"total_steps": 20}, eval={"eval_every": 10, "final_k": 2})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    timing = json.loads((tmp_path / "o" / "timing.json").read_text())
    assert timing["runtime"] == {"jobs": 1, "blas_threads": None}
