import hashlib
import io
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from red_offline.dataset import (DatasetError, DatasetMeta, OfflineDataset,
                                 compute_trajectory_returns, load_dataset, normalized_return,
                                 return_histogram, save_dataset)
from red_offline import dataset as dataset_module
from red_offline.cli import main
from red_offline.envsuite import PRESETS, env_from_name, generate_dataset, preset_config
from red_offline.io_envelope import read_envelope, write_envelope
from conftest import make_dataset, write_record_value
from oracles import dataset_equal

PRESET_NAMES = ("replay_analog", "expert_analog", "sparse_analog", "sparse_hard_analog")


def brute_force_returns(ds):
    # independent second pass: explicit python loop over episode boundaries
    out = []
    for start, end in ds.traj_bounds:
        total = 0.0
        for i in range(start, end):
            total += float(ds.rewards[i])
        out.append(total)
    return out


def test_single_trajectory_sum():
    ds = make_dataset([[1.0, 2.0, 3.0]])
    tr = compute_trajectory_returns(ds)
    assert tr.returns.tolist() == [6.0]
    assert np.repeat(tr.returns, np.diff(ds.traj_bounds).ravel()).tolist() == [6.0, 6.0, 6.0]
    assert tr.r_min == tr.r_max == 6.0
    assert tr.lengths.tolist() == [3] and tr.lengths.dtype == np.int64
    assert not tr.lengths.flags.writeable and not tr.returns.flags.writeable


def test_single_transition_trajectory():
    ds = make_dataset([[-2.5]])
    tr = compute_trajectory_returns(ds)
    assert tr.returns.tolist() == [-2.5]


def test_returns_match_bruteforce_oracle(preset_dataset):
    for name in ("replay_analog", "sparse_analog"):
        ds = preset_dataset(name)
        tr = compute_trajectory_returns(ds)
        expected = brute_force_returns(ds)
        assert np.allclose(tr.returns, expected, rtol=0, atol=1e-9)
        # broadcast consistency
        per_transition = np.repeat(tr.returns, np.diff(ds.traj_bounds).ravel())
        for j, (s, e) in enumerate(ds.traj_bounds[:50]):
            assert np.all(per_transition[s:e] == tr.returns[j])


def test_empty_dataset_rejected():
    meta = DatasetMeta(obs_dim=1, action={"discrete": 2}, env_name="x", seed=0)
    ds = OfflineDataset(obs=np.zeros((0, 1)), actions=np.zeros(0, dtype=int),
                        rewards=np.zeros(0), next_obs=np.zeros((0, 1)),
                        terminals=np.zeros(0, bool), timeouts=np.zeros(0, bool),
                        traj_bounds=[], meta=meta)
    with pytest.raises(DatasetError, match="empty dataset"):
        compute_trajectory_returns(ds)


def test_normalized_return_endpoints_and_midpoint():
    ds = make_dataset([[0.0], [5.0], [10.0]])
    tr = compute_trajectory_returns(ds)
    assert normalized_return(tr, 0.0).tolist() == [0.0, 0.5, 1.0]


def test_normalized_return_binary_with_floor():
    ds = make_dataset([[0.0], [1.0], [0.0], [1.0]])
    tr = compute_trajectory_returns(ds)
    weights = normalized_return(tr, 0.2)
    assert set(np.round(weights, 12).tolist()) == {0.2, 1.2}


def test_normalized_return_degenerate_uniform():
    ds = make_dataset([[7.0], [3.5, 3.5], [7.0]])
    tr = compute_trajectory_returns(ds)
    for p_base in (0.0, 0.3, 2.0):
        assert normalized_return(tr, p_base).tolist() == [1.0 + p_base] * 3  # per trajectory


def test_normalized_return_rejects_negative_floor(tiny_dataset):
    tr = compute_trajectory_returns(tiny_dataset)
    with pytest.raises(ValueError):
        normalized_return(tr, -0.1)


def test_affine_invariance_of_weights():
    rng = np.random.default_rng(3)
    base = [list(rng.normal(size=rng.integers(1, 6))) for _ in range(12)]
    ds = make_dataset(base)
    tr = compute_trajectory_returns(ds)
    ref = normalized_return(tr, 0.1)
    for a, b in ((2.0, 0.0), (0.5, 10.0), (3.7, -4.2)):
        shifted = make_dataset([[a * r + b / len(t) for r in t] for t in base])
        # scaling rewards by a and adding b to the trajectory total
        tr2 = compute_trajectory_returns(shifted)
        assert np.allclose(normalized_return(tr2, 0.1), ref, atol=1e-9)


def test_weight_monotonicity_and_range():
    rng = np.random.default_rng(4)
    ds = make_dataset([list(rng.normal(size=3)) for _ in range(20)])
    tr = compute_trajectory_returns(ds)
    lengths = np.diff(ds.traj_bounds).ravel()
    w = np.repeat(normalized_return(tr, 0.25), lengths)
    assert np.all(w >= 0.25) and np.all(w <= 1.25)
    ri = np.repeat(tr.returns, lengths)
    order = np.argsort(ri)
    assert np.all(np.diff(w[order]) >= -1e-15)
    for i in range(0, len(ds), 7):
        for j in range(0, len(ds), 11):
            if ri[i] > ri[j]:
                assert w[i] > w[j]
            elif ri[i] == ri[j]:
                assert w[i] == w[j]


def test_histogram_basic_counts():
    ds = make_dataset([[0.0], [0.0], [0.0], [1.0]])
    tr = compute_trajectory_returns(ds)
    hist = return_histogram(tr, 2)
    assert hist["counts"].tolist() == [3, 1]


def test_histogram_degenerate_single_bin():
    ds = make_dataset([[4.0]] * 6)
    tr = compute_trajectory_returns(ds)
    hist = return_histogram(tr, 5)
    assert len(hist["counts"]) == 1
    assert hist["counts"].tolist() == [6]


def test_histogram_conserves_trajectories(preset_dataset):
    for name in ("replay_analog", "expert_analog", "sparse_hard_analog"):
        tr = compute_trajectory_returns(preset_dataset(name))
        for bins in (1, 7, 30):
            assert return_histogram(tr, bins)["counts"].sum() == len(tr.returns)


def test_histogram_long_tailed_shape(preset_dataset):
    # the failure-heavy sparse preset: mode in the lowest quarter of the
    # value range, with mass remaining in the top tenth
    tr = compute_trajectory_returns(preset_dataset("sparse_hard_analog"))
    counts = return_histogram(tr, 20)["counts"]
    assert np.argmax(counts) < 5
    assert counts[18:].sum() > 0
    assert np.median(tr.returns) < tr.returns.mean()


def test_histogram_rejects_bad_bins(tiny_dataset):
    tr = compute_trajectory_returns(tiny_dataset)
    with pytest.raises(ValueError):
        return_histogram(tr, 0)


def test_round_trip_minimal(tmp_path, tiny_dataset):
    path = tmp_path / "tiny.ords"
    save_dataset(tiny_dataset, path)
    loaded = load_dataset(path)
    assert dataset_equal(tiny_dataset, loaded)


def test_round_trip_generated_field_by_field(tmp_path):
    ds = generate_dataset(PRESETS["sparse_analog"])  # saved before any map_states
    path = tmp_path / "gen.ords"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.meta == ds.meta
    assert np.array_equal(loaded.traj_bounds, ds.traj_bounds)
    for field in ("obs", "actions", "rewards", "next_obs", "terminals", "timeouts"):
        assert np.array_equal(getattr(loaded, field), getattr(ds, field)), field
    # bit-exact file round trip
    path2 = tmp_path / "gen2.ords"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_file_is_rejected(tmp_path, tiny_dataset):
    path = tmp_path / "trunc.ords"
    save_dataset(tiny_dataset, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_bad_magic_rejected(tmp_path, tiny_dataset):
    path = tmp_path / "bad.ords"
    save_dataset(tiny_dataset, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="magic"):
        load_dataset(path)


def test_invariant_violations_rejected():
    meta = DatasetMeta(obs_dim=1, action={"discrete": 2}, env_name="x", seed=0)
    base = dict(obs=np.zeros((2, 1)), actions=np.zeros(2, dtype=int),
                rewards=np.zeros(2), next_obs=np.zeros((2, 1)), meta=meta)
    # terminal and timeout both set
    with pytest.raises(DatasetError, match="both"):
        OfflineDataset(terminals=np.array([False, True]),
                       timeouts=np.array([False, True]),
                       traj_bounds=[(0, 2)], **base)
    # missing end flag
    with pytest.raises(DatasetError, match="no end flag"):
        OfflineDataset(terminals=np.array([False, False]),
                       timeouts=np.array([False, False]),
                       traj_bounds=[(0, 2)], **base)
    # interior end flag
    with pytest.raises(DatasetError, match="interior"):
        OfflineDataset(terminals=np.array([True, True]),
                       timeouts=np.array([False, False]),
                       traj_bounds=[(0, 2)], **base)
    # bounds not partitioning
    with pytest.raises(DatasetError, match="bounds"):
        OfflineDataset(terminals=np.array([True, True]),
                       timeouts=np.array([False, False]),
                       traj_bounds=[(0, 1)], **base)
    # actions outside [0, n_actions): the first one is named
    for actions, first in (([0, 2], "transition 1: action 2"),
                           ([-1, 5], "transition 0: action -1")):
        with pytest.raises(DatasetError, match=re.escape(first + " is not in range(2)")):
            OfflineDataset(terminals=np.array([False, True]), timeouts=np.array([False, False]),
                           traj_bounds=[(0, 2)], **{**base, "actions": np.array(actions)})
    # only discrete action spaces exist
    for action in ({"box": 1}, {"discrete": 0}, {"discrete": 2, "box": 1}):
        with pytest.raises(DatasetError, match="is not"):
            DatasetMeta(obs_dim=1, action=action, env_name="x", seed=0)


def test_batch_before_map_states_names_the_missing_step():
    ds = generate_dataset(preset_config("replay_analog", n_trajectories=3))
    assert ds.states is None
    with pytest.raises(DatasetError, match=re.escape("call map_states (or "
                                                     "harness.prepare_dataset) first")):
        ds.batch(np.arange(2))


@pytest.mark.parametrize("size", [1, None])
def test_a_batch_is_state_ids_into_the_shared_table(size):
    ds = generate_dataset(preset_config("replay_analog", n_trajectories=40))
    obs, next_obs = ds.obs, ds.next_obs  # the loaded rows, which map_states drops
    mdp = env_from_name(ds.meta.env_name)
    ds.map_states(mdp.obs_table, mdp.next_state)
    idx = np.random.default_rng(4).integers(0, len(ds), size or len(ds))
    batch = ds.batch(idx)
    assert list(batch) == ["states", "obs_id", "next_obs_id", "action", "reward", "terminal"]
    assert batch["states"] is ds.states[2]
    assert np.array_equal(batch["obs_id"], ds.states[0][idx])
    assert np.array_equal(batch["next_obs_id"], ds.states[1][batch["obs_id"], batch["action"]])
    for key, rows in (("obs_id", obs), ("next_obs_id", next_obs)):
        got = batch["states"][batch[key]]
        assert got.dtype == rows.dtype and got.tobytes() == rows[idx].tobytes(), key


def test_a_mapped_dataset_holds_no_rows_and_refuses_to_save(tmp_path):
    ds = generate_dataset(preset_config("replay_analog", n_trajectories=5))
    obs, next_obs = ds.obs, ds.next_obs
    mdp = env_from_name(ds.meta.env_name)
    ds.map_states(mdp.obs_table, mdp.next_state)
    assert ds.obs is None and ds.next_obs is None
    ids, next_id, table = ds.states  # the rows are the table's, by id
    assert table[ids].tobytes() == obs.tobytes()
    assert table[next_id[ids, ds.actions]].tobytes() == next_obs.tobytes()
    path = tmp_path / "mapped.ords"
    with pytest.raises(DatasetError, match="a mapped dataset holds no rows to save: "
                                           "save it before map_states"):
        save_dataset(ds, path)
    assert not path.exists()


def test_traj_bounds_are_a_read_only_n_by_2_table(tiny_dataset):
    meta = DatasetMeta(obs_dim=1, action={"discrete": 2}, env_name="x", seed=0)
    base = dict(obs=np.zeros((3, 1)), actions=np.zeros(3, dtype=int), rewards=np.zeros(3),
                next_obs=np.zeros((3, 1)), terminals=np.array([True, False, True]),
                timeouts=np.zeros(3, bool), meta=meta)
    assert OfflineDataset(traj_bounds=[(0, 1), (1, 3)], **base).n_trajectories == 2
    # six entries, so a reshape to (-1, 2) would silently accept this table
    with pytest.raises(DatasetError, match=re.escape("shape (2, 3), not (n, 2)")):
        OfflineDataset(traj_bounds=np.array([[0, 1, 1], [1, 3, 3]]), **base)
    with pytest.raises(DatasetError, match=re.escape("not an (n, 2) table")):
        OfflineDataset(traj_bounds=[(0, 1), (1, 2, 3)], **base)
    bounds = tiny_dataset.traj_bounds
    assert bounds.dtype == np.int64 and bounds.shape == (3, 2) and bounds.flags.c_contiguous
    assert bounds.tolist() == [[0, 3], [3, 4], [4, 6]]
    with pytest.raises(ValueError, match="read-only"):
        bounds[0, 1] = 2
    empty = OfflineDataset(obs=np.zeros((0, 1)), actions=np.zeros(0, dtype=int),
                           rewards=np.zeros(0), next_obs=np.zeros((0, 1)),
                           terminals=np.zeros(0, bool), timeouts=np.zeros(0, bool),
                           traj_bounds=[], meta=meta)
    assert empty.traj_bounds.shape == (0, 2) and empty.n_trajectories == 0


def test_inputs_stay_writable_and_the_dataset_arrays_are_read_only():
    # inputs of the right dtype and layout are shared, not copied; freezing
    # them in place would make the caller's own arrays read-only
    meta = DatasetMeta(obs_dim=1, action={"discrete": 2}, env_name="x", seed=0)
    inputs = dict(obs=np.zeros((3, 1)), actions=np.zeros(3, dtype=np.int64),
                  rewards=np.zeros(3), next_obs=np.zeros((3, 1)),
                  terminals=np.array([True, False, True]), timeouts=np.zeros(3, bool))
    ds = OfflineDataset(traj_bounds=[(0, 1), (1, 3)], meta=meta, **inputs)
    for name, arr in inputs.items():
        assert arr.flags.writeable, name
        field = getattr(ds, name)
        assert np.shares_memory(field, arr) and not field.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 1
    inputs["rewards"][1] = 2.0  # shared: the caller's write reaches the dataset
    assert ds.rewards[1] == 2.0


def test_returns_are_correctly_rounded_sums(preset_dataset):
    # every return is the correctly rounded sum of its rewards (math.fsum),
    # on the presets, on larger generated data and on rewards whose
    # magnitudes defeat an exact long-double sum (the fsum fallback)
    from red_offline.envsuite import PRESETS, env_from_name, generate_dataset, preset_config
    datasets = [preset_dataset(name) for name in PRESET_NAMES]
    datasets += [generate_dataset(preset_config("replay_analog", seed=seed, n_trajectories=2000))
                 for seed in (1, 3, 7, 11)]
    rng = np.random.default_rng(4)
    datasets.append(make_dataset([list(rng.normal(size=int(rng.integers(1, 9)))
                                       * 10.0 ** rng.integers(-25, 25, 1))
                                  + [1e-30, 1e30, -1e30] for _ in range(40)]))
    for ds in datasets:
        tr = compute_trajectory_returns(ds)
        rewards = ds.rewards.tolist()
        expected = [math.fsum(rewards[s:e]) for s, e in ds.traj_bounds]
        assert tr.returns.tolist() == expected


def test_equal_sums_give_bitwise_equal_returns():
    # a running-sum difference would give these three different last bits
    ds = make_dataset([[5.0] * 30 + [0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.3, 0.1]])
    tr = compute_trajectory_returns(ds)
    assert tr.returns[1] == tr.returns[2] == math.fsum([0.1, 0.2, 0.3])
    assert tr.r_min == tr.returns[1]


@pytest.mark.parametrize("rewards,reason", [([np.inf, 1.0, -np.inf], "-inf + inf"),
                                            ([1e308, 1e308], "overflow")],
                         ids=[  # fixed names: those first collected from the messages
    "rewards0--inf + inf",
    "rewards1-overflow",
])
def test_reward_sums_without_a_float64_value_name_their_trajectory(tmp_path, capsys,
                                                                  rewards, reason):
    # finite rewards that overflow as they add up name their trajectory; a
    # sum of infinite rewards is never taken, as the file is refused at load
    # naming the first infinite reward's transition
    ds = make_dataset([[1.0, 2.0], [3.0, 1.0], [0.0] * len(rewards), [4.0]])
    path = tmp_path / "bad.ords"
    save_dataset(ds, path)
    for i, r in enumerate(rewards):  # trajectory 2 starts at transition 4
        write_record_value(path, 4 + i, "reward", r)
    if reason == "overflow":
        message = "trajectory 2: rewards have no float64 sum: intermediate overflow in fsum"
        with pytest.raises(DatasetError, match=re.escape(message)):
            compute_trajectory_returns(load_dataset(path))
    else:
        message = "transition 4: reward inf is not finite"
        with pytest.raises(DatasetError, match=re.escape(f"{path}: {message}")):
            load_dataset(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"path": str(path)}}))
    for command in (["stats", "--dataset", str(path)],
                    ["rebalance-preview", "--dataset", str(path)],
                    ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n", command


@pytest.mark.parametrize("field,row,col", [("obs", 3, 0), ("obs", 4, 1), ("next_obs", 0, 1),
                                           ("reward", 5, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_is_refused_naming_field_and_transition(field, row, col, value):
    ds = dataset_of(7)
    arrays = {"obs": ds.obs.copy(), "next_obs": ds.next_obs.copy(),
              "reward": ds.rewards.copy()}
    arrays[field].reshape(7, -1)[row, col] = value
    arrays[field].reshape(7, -1)[6, 0] = np.nan  # a later one is not the one named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match=re.escape(
                f"transition {row}: {field} {value} is not finite")):
            OfflineDataset(arrays["obs"], ds.actions, arrays["reward"], arrays["next_obs"],
                           ds.terminals, ds.timeouts, ds.traj_bounds, ds.meta)


def test_rewards_whose_span_overflows_name_both_transitions():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning
        with pytest.raises(DatasetError, match=re.escape(
                "transitions 3 and 1: rewards -1e+308 and 1e+308 span more than float64")):
            make_dataset([[0.0, 1e308], [2.0, -1e308]])
        # the widest finite span still builds
        make_dataset([[0.0, 1e308], [2.0, -7.9e307]])


def test_returns_whose_span_overflows_name_both_trajectories():
    # every reward and the rewards' span are finite; the returns' span is not
    ds = make_dataset([[1.0], [-5e307, -5e307], [5e307, 5e307]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match=re.escape(
                "trajectories 1 and 2: returns -1e+308 and 1e+308 span more than float64")):
            compute_trajectory_returns(ds)
        tr = compute_trajectory_returns(make_dataset([[1.0], [-5e307, -5e307], [5e307, 2e307]]))
    assert (tr.r_min, tr.r_max) == (-1e308, math.fsum([5e307, 2e307]))


@pytest.mark.parametrize("obs_dim", [0, -1, 2.5, True, "2", None])
def test_meta_obs_dim_must_be_an_int_of_at_least_one(obs_dim):
    with pytest.raises(DatasetError, match=re.escape(f"obs_dim {obs_dim!r} is not an int >= 1")):
        DatasetMeta(obs_dim=obs_dim, action={"discrete": 2}, env_name="x", seed=0)


def test_returns_allocate_little_beyond_their_broadcast():
    # the per-transition broadcast is 8 bytes a transition; per-trajectory
    # sums must not add full-length temporaries on top of it
    ds = generate_dataset(preset_config("replay_analog", seed=0, n_trajectories=5000))
    assert len(ds) > 190_000
    tracemalloc.start()
    try:
        compute_trajectory_returns(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(ds), f"{peak / len(ds):.1f} bytes per transition"


def reference_validation_error(terminals, timeouts, bounds, n):
    # the per-trajectory loop the vectorized checks replace; None if valid
    cursor = 0
    for j, (s, e) in enumerate(bounds):
        if s != cursor or e <= s:
            return f"trajectory {j}: bounds ({s}, {e}) do not continue partition at {cursor}"
        ends = terminals[s:e] | timeouts[s:e]
        if not ends[-1]:
            return f"trajectory {j}: final transition {e - 1} has no end flag"
        interior = np.flatnonzero(ends[:-1])
        if interior.size:
            return f"trajectory {j}: interior transition {s + interior[0]} has an end flag"
        cursor = e
    if cursor != n:
        return f"trajectory bounds cover [0, {cursor}) but N={n}"
    return None


def test_validation_reports_the_same_first_offender_as_the_loop():
    rng = np.random.default_rng(9)
    meta = DatasetMeta(obs_dim=1, action={"discrete": 2}, env_name="x", seed=0)
    seen = set()
    for trial in range(400):
        lengths = rng.integers(1, 5, size=int(rng.integers(1, 6)))
        ends = np.cumsum(lengths)
        n = int(ends[-1])
        bounds = [(int(e - m), int(e)) for e, m in zip(ends, lengths)]
        terminals = np.zeros(n, bool)
        timeouts = np.zeros(n, bool)
        terminals[ends - 1] = rng.random(len(ends)) < 0.5
        timeouts[ends - 1] = ~terminals[ends - 1]
        for _ in range(int(rng.integers(0, 3))):
            kind = rng.integers(0, 4)
            i = int(rng.integers(0, n))
            if kind == 0:      # drop or add an end flag
                terminals[i] = not (terminals[i] or timeouts[i])
                timeouts[i] = False
            elif kind == 1:    # shift a bound
                j = int(rng.integers(0, len(bounds)))
                s, e = bounds[j]
                bounds[j] = (s, e + int(rng.choice([-1, 1])))
            elif kind == 2 and len(bounds) > 1:    # drop a trajectory
                bounds.pop(int(rng.integers(0, len(bounds))))
            elif kind == 3:    # shift a start
                j = int(rng.integers(0, len(bounds)))
                s, e = bounds[j]
                bounds[j] = (s - 1, e)
        if any(e > n for _, e in bounds):
            continue  # the loop read past the flags there
        expected = reference_validation_error(terminals, timeouts, bounds, n)
        seen.add(expected and expected.split(" ")[2])
        kwargs = dict(obs=np.zeros((n, 1)), actions=np.zeros(n, dtype=int),
                      rewards=np.zeros(n), next_obs=np.zeros((n, 1)),
                      terminals=terminals, timeouts=timeouts, traj_bounds=bounds, meta=meta)
        if expected is None:
            OfflineDataset(**kwargs)
        else:
            with pytest.raises(DatasetError) as info:
                OfflineDataset(**kwargs)
            assert str(info.value) == expected
    assert seen == {None, "bounds", "final", "interior", "cover"}


def dataset_of(n, obs_dim=2, n_actions=3, seed=0):
    """n random transitions in trajectories of up to 3 steps, ending
    alternately in a terminal and a timeout."""
    rng = np.random.default_rng(seed)
    starts = np.arange(0, n, 3)
    stops = np.minimum(starts + 3, n)
    terminals, timeouts = np.zeros(n, bool), np.zeros(n, bool)
    terminals[stops[::2] - 1] = True
    timeouts[stops[1::2] - 1] = True
    meta = DatasetMeta(obs_dim, {"discrete": n_actions}, "synthetic", seed)
    return OfflineDataset(rng.standard_normal((n, obs_dim)), rng.integers(0, n_actions, n),
                          rng.standard_normal(n), rng.standard_normal((n, obs_dim)),
                          terminals, timeouts, np.stack([starts, stops], axis=1), meta)


def whole_payload(ds):
    # the payload packed in one piece: every record, then the bounds as u64
    rec = np.zeros(len(ds), dtype=dataset_module._record_dtype(ds.meta))
    for name, field in (("obs", "obs"), ("action", "actions"), ("reward", "rewards"),
                        ("next_obs", "next_obs"), ("terminal", "terminals"),
                        ("timeout", "timeouts")):
        rec[name] = getattr(ds, field)
    return rec.tobytes() + ds.traj_bounds.astype("<u8").tobytes()


def payload_offset(path):
    with open(path, "rb") as f:
        read_envelope(f, dataset_module.ORDS_MAGIC, dataset_module.ORDS_VERSION)
        return f.tell()


BLOCK = 8


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_streamed_round_trip_at_block_edges(tmp_path, monkeypatch, n):
    monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", BLOCK)
    ds = dataset_of(n)
    first, second = tmp_path / "first.ords", tmp_path / "second.ords"
    save_dataset(ds, first)
    assert first.read_bytes()[payload_offset(first):] == whole_payload(ds)
    loaded = load_dataset(first)
    assert dataset_equal(ds, loaded) and len(loaded) == n
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_non_integer_action_in_a_later_block_names_its_record(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", BLOCK)
    ds = dataset_of(3 * BLOCK)
    path = tmp_path / "bad.ords"
    save_dataset(ds, path)
    write_record_value(path, BLOCK + 3, "action", 1.5)
    with pytest.raises(DatasetError,
                       match=re.escape(f"record {BLOCK + 3}: action 1.5 is not in range(3)")):
        load_dataset(path)


@pytest.mark.parametrize("field,record", [("terminal", BLOCK + 6), ("timeout", BLOCK + 3)])
def test_flag_byte_other_than_0_or_1_names_its_record(tmp_path, capsys, monkeypatch, field,
                                                       record):
    # the record ends its trajectory: read as a bool, the 7 would pass for the 1 it replaces
    monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", BLOCK)
    ds = dataset_of(3 * BLOCK)
    assert getattr(ds, f"{field}s")[record]
    path = tmp_path / "bad.ords"
    save_dataset(ds, path)
    write_record_value(path, record, field, 7)
    message = f"transition {record}: {field} 7 is not in range(2)"
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(path)
    capsys.readouterr()
    assert main(["stats", "--dataset", str(path)]) == 2
    assert message in capsys.readouterr().err


INT64 = "range(-9223372036854775808, 9223372036854775808)"


@pytest.mark.parametrize("field,values,message", [
    ("actions", [0.5, 1.0, 1.7], "transition 0: action 0.5 is not in range(3)"),
    ("actions", [0.0, np.nan, 1.0], "transition 1: action nan is not in range(3)"),
    ("actions", [0.0, 1.0, np.inf], "transition 2: action inf is not in range(3)"),
    ("actions", [0.0, 3.0, 1.0], "transition 1: action 3.0 is not in range(3)"),
    ("terminals", [0.3, 0.0, 1.0], "transition 0: terminal 0.3 is not in range(2)"),
    ("timeouts", [0.0, 0.0, np.nan], "transition 2: timeout nan is not in range(2)"),
    # integer inputs too: the cast would pass 7 as True and 3.9 as 3, and wrap the rest
    ("terminals", [0, 0, 7], "transition 2: terminal 7 is not in range(2)"),
    ("actions", np.array([0, 2**64 - 1, 1], np.uint64),
     "transition 1: action 18446744073709551615 is not in range(3)"),
    ("traj_bounds", [[0, 3.9]], f"trajectory 0: bound 3.9 is not in {INT64}"),
    ("traj_bounds", np.array([[0, 2**63]], np.uint64),
     f"trajectory 0: bound 9223372036854775808 is not in {INT64}"),
], ids=[  # fixed names: those first collected from the messages
    "actions-values0-transition 0: action 0.5 is not in range(3)",
    "actions-values1-transition 1: action nan is not in range(3)",
    "actions-values2-transition 2: action inf is not in range(3)",
    "actions-values3-transition 1: action 3.0 is not in range(3)",
    "terminals-values4-transition 0: terminal 0.3 is not in range(2)",
    "timeouts-values5-transition 2: timeout nan is not in range(2)",
    "terminals-values6-transition 2: terminal 7 is not in range(2)",
    "actions-values7-transition 1: action 18446744073709551615 is not in range(3)",
    "traj_bounds-values8-trajectory 0: bound 3.9 is not in range(-9223372036854775808, "
    "9223372036854775808)",
    "traj_bounds-values9-trajectory 0: bound 9223372036854775808 is not in "
    "range(-9223372036854775808, 9223372036854775808)",
])
def test_inputs_a_cast_would_change_are_refused(field, values, message):
    ds = dataset_of(3)  # one trajectory, ending in a terminal
    arrays = {"actions": ds.actions, "terminals": ds.terminals, "timeouts": ds.timeouts,
              "traj_bounds": ds.traj_bounds, field: np.array(values)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "invalid value encountered in cast"
        with pytest.raises(DatasetError, match=re.escape(message)):
            OfflineDataset(ds.obs, arrays["actions"], ds.rewards, ds.next_obs,
                           arrays["terminals"], arrays["timeouts"], arrays["traj_bounds"],
                           ds.meta)


def test_integral_float_inputs_cast_exactly():
    ds = dataset_of(3)
    same = OfflineDataset(ds.obs, ds.actions.astype(float), ds.rewards, ds.next_obs,
                          ds.terminals.astype(float), [0.0, -0.0, 0.0], ds.traj_bounds, ds.meta)
    assert dataset_equal(ds, same)


def test_a_file_bound_beyond_int64_is_named_by_its_value(tmp_path, capsys):
    ds = dataset_of(6)
    path = tmp_path / "bad.ords"
    save_dataset(ds, path)
    with open(path, "r+b") as f:  # the last trajectory's stop: the payload's last 8 bytes
        f.seek(-8, 2)
        f.write(np.array(2**63, "<u8").tobytes())
    message = f"trajectory 1: bound 9223372036854775808 is not in {INT64}"
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(path)
    assert main(["stats", "--dataset", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_integer_and_bool_inputs_are_checked_in_place():
    # one min and one max pass per array, no per-transition temporary: the peak is the
    # bounds copy and _validate's bool temporaries of the end flags
    ds = generate_dataset(preset_config("replay_analog", seed=0, n_trajectories=5000))
    arrays = ds.obs, ds.actions, ds.rewards, ds.next_obs, ds.terminals, ds.timeouts
    assert [a.dtype for a in arrays[1:]] == [np.int64, np.float64, np.float64, bool, bool]
    assert ds.traj_bounds.dtype == np.int64
    tracemalloc.start()
    try:
        OfflineDataset(*arrays, ds.traj_bounds, ds.meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(ds), f"{peak / len(ds):.3f} bytes per transition"


@pytest.mark.parametrize("value,message", [
    (math.nan, "record 3: action nan is not in range(3)"),
    (math.inf, "record 3: action inf is not in range(3)"),
    (-math.inf, "record 3: action -inf is not in range(3)"),
    (2.0**70, "record 3: action 1.1805916207174113e+21 is not in range(3)"),
    (2.0**63, "record 3: action 9.223372036854776e+18 is not in range(3)"),
    (-2.0**63, "record 3: action -9.223372036854776e+18 is not in range(3)"),  # fits int64
], ids=[  # fixed names: those first collected from the messages
    "nan-record 3: action nan is not in range(3)",
    "inf-record 3: action inf is not in range(3)",
    "-inf-record 3: action -inf is not in range(3)",
    "1.1805916207174113e+21-record 3: action 1.1805916207174113e+21 is not in range(3)",
    "9.223372036854776e+18-record 3: action 9.223372036854776e+18 is not in range(3)",
    "-9.223372036854776e+18-record 3: action -9.223372036854776e+18 is not in range(3)",
])
def test_action_outside_int64_is_named_before_the_cast(tmp_path, capsys, value, message):
    ds = dataset_of(6)
    path = tmp_path / "bad.ords"
    save_dataset(ds, path)
    write_record_value(path, 3, "action", value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "invalid value encountered in cast"
        with pytest.raises(DatasetError, match=re.escape(message)):
            load_dataset(path)
        capsys.readouterr()
        assert main(["stats", "--dataset", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("size,message", [
    (1061, "payload has 1061 bytes, expected 1062; transitions block ends inside record 19"),
    (1063, "payload has 1063 bytes, expected 1062; transitions block ends inside record 19"),
    (253, "payload has 253 bytes, expected 1062; transitions block ends inside record 5"),
], ids=[  # fixed names: those first collected from the messages
    "1061-payload has 1061 bytes, expected 1062; transitions block ends inside record 19",
    "1063-payload has 1063 bytes, expected 1062; transitions block ends inside record 19",
    "253-payload has 253 bytes, expected 1062; transitions block ends inside record 5",
])
def test_payload_of_the_wrong_length_names_the_record_it_ends_in(tmp_path, monkeypatch,
                                                                 size, message):
    monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", BLOCK)
    path = tmp_path / "cut.ords"
    save_dataset(dataset_of(2 * BLOCK + 3), path)  # 19 records of 50 bytes, 7 bounds
    raw = path.read_bytes()
    start = payload_offset(path)
    assert len(raw) - start == 1062
    path.write_bytes((raw + b"\0")[:start + size])
    with pytest.raises(DatasetError, match=re.escape(f"{path}: {message}")):
        load_dataset(path)


def test_file_io_allocates_little_beyond_its_arrays(tmp_path):
    ds = dataset_of(200_000)
    block = dataset_module.BLOCK_RECORDS * dataset_module._record_dtype(ds.meta).itemsize
    assert len(ds) * 50 > 3 * block
    path = tmp_path / "big.ords"
    tracemalloc.start()
    try:
        save_dataset(ds, path)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_dataset(path)
        loaded_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (loaded.obs, loaded.actions, loaded.rewards,
                                    loaded.next_obs, loaded.terminals, loaded.timeouts,
                                    loaded.traj_bounds))
    assert saved < 2 * block, f"save peaked at {saved / block:.2f} blocks"
    assert loaded_peak < arrays + 2 * block, \
        f"load peaked {(loaded_peak - arrays) / block:.2f} blocks above its arrays"
    assert dataset_equal(ds, loaded)


# sha256 of each preset at 7 trajectories as written before records were
# packed in blocks; any writer change that alters a file byte fails here
PRESET_FILE_SHA256 = {
    "expert_analog": "c0d8ba7a655fb3c02906bfc547ebcdd8496928abf283b82e8ac214373d866398",
    "replay_analog": "9cae62e60bb9dfdd7ab01bd976964d3d17598b2bc423aaab7318de9ebf02c512",
    "sparse_analog": "911dc1e3112f4dc422486f74a1c614bc20414d7cb624bfdded21642eb7733e13",
    "sparse_hard_analog": "88ab19fcaf9a0cb8b6a50672ed3c958af9cc2384223c5e51cd190669d2a0c68f",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_files_keep_their_bytes(tmp_path, monkeypatch, name):
    monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", 64)
    ds = generate_dataset(preset_config(name, n_trajectories=7))
    assert len(ds) > 3 * 64
    path = tmp_path / f"{name}.ords"
    save_dataset(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_FILE_SHA256[name]


@pytest.fixture(scope="module")
def long_file(tmp_path_factory):
    """A replay_analog file of more than three blocks, whose two float row arrays
    (32 B per transition) would take more than two blocks."""
    path = tmp_path_factory.mktemp("long") / "long.ords"
    save_dataset(generate_dataset(preset_config("replay_analog", n_trajectories=6_000)), path)
    return path


@pytest.mark.parametrize("name", [*sorted(PRESETS), "long", "unknown_environment"])
def test_a_mapped_load_equals_a_load_then_map_states(tmp_path, monkeypatch, long_file, name):
    # with the environment, the rows go to map_states block by block as they are
    # read: the same ids, tables and arrays as mapping the loaded rows, and no rows
    # held; an environment the loader does not know leaves the rows loaded
    path = long_file
    if name != "long":
        monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", BLOCK)  # trajectories across blocks
        path = tmp_path / "data.ords"
        save_dataset(make_dataset([[1.0, 0.0], [0.5]] * 50) if name == "unknown_environment"
                     else generate_dataset(preset_config(name)), path)
    want, got = load_dataset(path), load_dataset(path, env_from_name)
    assert len(want) > 3 * dataset_module.BLOCK_RECORDS
    if name == "unknown_environment":
        assert got.states is None and dataset_equal(want, got)
        return
    mdp = env_from_name(want.meta.env_name)
    want.map_states(mdp.obs_table, mdp.next_state)
    assert got.obs is None and got.next_obs is None and got.meta == want.meta
    for field, a, b in zip(("ids", "next_id", "states", "actions", "rewards", "terminals",
                            "timeouts", "traj_bounds"),
                           (*want.states, want.actions, want.rewards, want.terminals,
                            want.timeouts, want.traj_bounds),
                           (*got.states, got.actions, got.rewards, got.terminals,
                            got.timeouts, got.traj_bounds)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
        assert not b.flags.writeable, field


def test_a_mapped_load_allocates_no_rows(long_file):
    load_dataset(long_file, env_from_name)  # the environment's cached tables
    tracemalloc.start()
    try:
        ds = load_dataset(long_file, env_from_name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(ds)
    block = dataset_module.BLOCK_RECORDS * dataset_module._record_dtype(ds.meta).itemsize
    assert n >= 200_000 and 32 * n > 2 * block  # the rows alone would break the bound
    held = sum(a.nbytes for a in (*ds.states, ds.actions, ds.rewards, ds.terminals,
                                  ds.timeouts, ds.traj_bounds))
    assert peak < held + 2 * block, f"load peaked {(peak - held) / block:.2f} blocks above " \
                                    "its arrays"


@pytest.mark.parametrize("change,message", [
    ({"obs": np.zeros((2, 3))}, "obs shape (2, 3) does not match (N=2, obs_dim=1)"),
    ({"next_obs": np.zeros((1, 1))}, "next_obs shape (1, 1) does not match (N=2, obs_dim=1)"),
    ({"actions": np.zeros(3, dtype=int)}, "transition arrays have inconsistent lengths"),
    ({"timeouts": np.zeros(1, dtype=bool)}, "transition arrays have inconsistent lengths"),
])
def test_transition_arrays_of_another_shape_are_refused(change, message):
    meta = DatasetMeta(obs_dim=1, action={"discrete": 2}, env_name="x", seed=0)
    arrays = dict(obs=np.zeros((2, 1)), actions=np.zeros(2, dtype=int), rewards=np.zeros(2),
                  next_obs=np.zeros((2, 1)), terminals=np.array([False, True]),
                  timeouts=np.zeros(2, dtype=bool), traj_bounds=[(0, 2)], meta=meta)
    with pytest.raises(DatasetError, match=re.escape(message)):
        OfflineDataset(**{**arrays, **change})


@pytest.mark.parametrize("short", [1, 2, 4], ids=["bounds", "first_block", "last_block"])
def test_a_file_that_shrinks_while_read_is_named(tmp_path, monkeypatch, short):
    # the envelope's size check passed, then a read comes back short: the file was
    # cut meanwhile; the bounds are read first, then 3 record blocks
    monkeypatch.setattr(dataset_module, "BLOCK_RECORDS", BLOCK)
    path = tmp_path / "d.ords"
    save_dataset(dataset_of(2 * BLOCK + 3), path)
    reads = []

    class Shrinking(io.BufferedReader):
        def readinto(self, buffer):
            reads.append(memoryview(buffer).nbytes)
            got = super().readinto(buffer)
            return got - 1 if len(reads) == short else got

    monkeypatch.setattr(dataset_module, "open", lambda p, mode: Shrinking(io.FileIO(p, mode)),
                        raising=False)
    with pytest.raises(DatasetError, match=re.escape(f"{path}: file shrank while being read")):
        load_dataset(path)
    assert reads[0] == 7 * 16 and len(reads) == short


def test_a_header_that_does_not_fit_its_environment_is_refused_before_any_record(
        tmp_path, monkeypatch):
    # no records and two empty trajectories: the fit is named, not the broken bounds
    path = tmp_path / "empty.ords"
    write_envelope(path, dataset_module.ORDS_MAGIC, dataset_module.ORDS_VERSION,
                   {"obs_dim": 3, "action": {"discrete": 2}, "env_name": "dense_chain-40-39",
                    "seed": 0, "n_transitions": 0, "n_trajectories": 2}, [bytes(32)])
    needs = "but dense_chain-40-39 needs {'obs_dim': 2, 'action': {'discrete': 2}}"
    with pytest.raises(DatasetError, match=re.escape(
            f"{path}: dataset has obs_dim 3 and action {{'discrete': 2}}, {needs}")):
        load_dataset(path, env_from_name)
    # with records, none is read before the refusal
    path = tmp_path / "replay.ords"
    save_dataset(generate_dataset(preset_config("replay_analog", n_trajectories=5)), path)
    with open(path, "rb") as f:
        _, header, _ = read_envelope(f, dataset_module.ORDS_MAGIC, dataset_module.ORDS_VERSION)
        payload = f.read()
    write_envelope(path, dataset_module.ORDS_MAGIC, dataset_module.ORDS_VERSION,
                   {**header, "action": {"discrete": 3}}, [payload])
    blocks = []
    monkeypatch.setattr(dataset_module, "_blocks", lambda *args: blocks.append(args) or iter(()))
    with pytest.raises(DatasetError, match=re.escape("action {'discrete': 3}, " + needs)):
        load_dataset(path, env_from_name)
    assert blocks == []


def test_returns_allocate_only_what_they_return():
    # per-trajectory outputs, plus one trajectory's rewards at a time: no list of bounds
    ds = make_dataset([[1.0] * (1 + j % 3) for j in range(4000)])
    compute_trajectory_returns(ds)  # warm any lazy first-call allocation
    tracemalloc.start()
    try:
        tr = compute_trajectory_returns(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = tr.returns.nbytes + tr.lengths.nbytes
    assert peak <= outputs + 4096, f"{peak - outputs} bytes beyond the outputs"
