import re

import numpy as np
import pytest

from red_offline.dataset import (DatasetMeta, OfflineDataset, compute_trajectory_returns,
                                 return_histogram, save_dataset)
from red_offline.envsuite import (PRESETS, GeneratorConfig, Mdp, _simulate, env_from_name,
                                  generate_dataset, mdp_dense_chain, mdp_grid_maze,
                                  policy_value, preset_config)
from red_offline.harness import dataset_checksum

from oracles import dataset_equal, reference_grid_maze

# dataset_checksum of each mapped preset; `gen` output must not change bit for bit
PRESET_CHECKSUMS = {
    "replay_analog": "5f9c30dc4e2a7233ce37c52146edd305",
    "expert_analog": "49698bfe70d04b4512533c91116c262d",
    "sparse_analog": "fccdea8de56836dfa2d6b02a75419cc3",
    "sparse_hard_analog": "c75379746fd6f516cc80c0300da5da76",
}


def rollout_fixed_action(mdp, action):
    s, total = mdp.start_state, 0.0
    for _ in range(mdp.horizon):
        r, term = float(mdp.reward[s, action]), bool(mdp.terminal[s, action])
        s = int(mdp.next_state[s, action])
        total += r
        if term:
            return total
    return total


def test_chain_always_right_reaches_goal():
    for length, horizon in ((6, 5), (6, 12), (40, 39)):
        mdp = mdp_dense_chain(length, horizon)
        assert rollout_fixed_action(mdp, 1) == pytest.approx(length - 1)


def test_chain_always_left_pays_step_cost():
    mdp = mdp_dense_chain(8, 10)
    assert rollout_fixed_action(mdp, 0) == pytest.approx(-0.1 * 10)


def chain_policy_value(mdp, p_right):
    """Exact finite-horizon evaluation of the stay-or-move chain walker."""
    n = mdp.n_states
    value = np.zeros(n)
    for _ in range(mdp.horizon):
        new = np.zeros(n)
        for s in range(n - 1):
            q = [mdp.reward[s, a] + (0.0 if mdp.terminal[s, a] else value[mdp.next_state[s, a]])
                 for a in (0, 1)]
            new[s] = (1 - p_right) * q[0] + p_right * q[1]
        value = new
    return value[mdp.start_state]


def monte_carlo_returns(mdp, quality, n_episodes, rng):
    """Episode returns of n_episodes lockstep rollouts at one policy quality."""
    states, actions, lengths = _simulate(mdp, np.full(n_episodes, 1.0 - quality), rng)
    mask = np.arange(mdp.horizon)[:, None] < lengths[None, :]
    return (mdp.reward[states, actions] * mask).sum(axis=0)


def test_half_greedy_right_matches_monte_carlo_oracle():
    # quality 0.5 takes the optimal (right) action with probability 0.75
    mdp = mdp_dense_chain(12, 11)
    returns = monte_carlo_returns(mdp, 0.5, 100_000, np.random.default_rng(31))
    exact = chain_policy_value(mdp, p_right=0.75)
    sigma = returns.std() / np.sqrt(len(returns))
    assert abs(returns.mean() - exact) < 2 * sigma + 1e-9


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_policy_value_of_quality_policy_matches_chain_walker(q):
    # quality q: the optimal action with probability q, else uniform
    mdp = mdp_dense_chain(12, 11)
    pi = q * np.eye(mdp.n_actions)[mdp.expert_policy()] + (1 - q) / mdp.n_actions
    assert pi.shape == (mdp.horizon, mdp.n_states, mdp.n_actions)
    assert abs(policy_value(mdp, pi) - chain_policy_value(mdp, q + (1 - q) / 2)) <= 1e-12


def table_values(mdp, combine):
    """Finite-horizon DP from the start state, one state at a time, with
    ``combine`` reducing each state's list of action values."""
    value = [0.0] * mdp.n_states
    for _ in range(mdp.horizon):
        value = [combine([float(mdp.reward[s, a])
                          + (0.0 if mdp.terminal[s, a] else value[mdp.next_state[s, a]])
                          for a in range(mdp.n_actions)])
                 for s in range(mdp.n_states)]
    return value[mdp.start_state]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_reference_scores_are_exact(preset):
    mdp = env_from_name(PRESETS[preset].mdp_name)
    refs = mdp.reference_scores
    assert abs(refs["random"] - table_values(mdp, lambda q: sum(q) / len(q))) <= 1e-12
    assert abs(refs["expert"] - table_values(mdp, max)) <= 1e-12


def test_maze_returns_are_binary(preset_dataset):
    for name in ("sparse_analog", "sparse_hard_analog"):
        tr = compute_trajectory_returns(preset_dataset(name))
        assert set(np.unique(tr.returns).tolist()) <= {0.0, 1.0}


def test_maze_random_success_rate_in_range():
    mdp = mdp_grid_maze(8, 64)
    rate = monte_carlo_returns(mdp, 0.0, 100_000, np.random.default_rng(17)).mean()
    assert 0.0 < rate < 0.5


def test_maze_tables_match_cell_by_cell_reference():
    names = ("obs_table", "next_state", "reward", "terminal")
    for size in range(3, 65):
        mdp = mdp_grid_maze(size, 10)
        for name, want in zip(names, reference_grid_maze(size)):
            got = getattr(mdp, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), (size, name)


def reachable_states(next_state, start):
    """Breadth-first search over the move table: which states ``start`` reaches."""
    seen = np.zeros(len(next_state), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        step = np.unique(next_state[frontier])
        frontier = step[~seen[step]]
        seen[frontier] = True
    return seen


def test_maze_goal_is_reachable_at_every_size():
    # no two walls touch, so the start reaches every open cell, the goal included
    for size in range(3, 201):
        mdp = mdp_grid_maze(size, 10)
        seen = reachable_states(mdp.next_state, mdp.start_state)
        assert seen[mdp.n_states - 1], size
        r, c = np.divmod(np.arange(mdp.n_states), size)
        walls = (3 * r + 5 * c) % 7 == 2
        walls[[0, -1]] = False
        assert np.array_equal(seen, ~walls), size


def test_maze_expert_always_succeeds():
    for size, horizon in ((8, 64), (10, 30)):
        mdp = mdp_grid_maze(size, horizon)
        assert mdp.reference_scores["expert"] == pytest.approx(1.0)


def test_reference_scores_ordering_and_bound():
    chain = mdp_dense_chain(40, 39)
    refs = chain.reference_scores
    assert refs["expert"] > refs["random"]
    assert refs["expert"] >= (40 - 1) - 0.1 * (39 - (40 - 1))
    maze = mdp_grid_maze(8, 64)
    refs_m = maze.reference_scores
    assert refs_m["random"] <= refs_m["expert"]


def test_generation_is_deterministic(tmp_path):
    cfg = preset_config("replay_analog", n_trajectories=40)
    a, b = generate_dataset(cfg), generate_dataset(cfg)
    pa, pb = tmp_path / "a.ords", tmp_path / "b.ords"
    save_dataset(a, pa)
    save_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_pure_expert_mixture_is_a_spike():
    cfg = GeneratorConfig("dense_chain-40-39", 50, ((1.0, 1.0),), seed=2)
    tr = compute_trajectory_returns(generate_dataset(cfg))
    assert np.all(tr.returns == 39.0)
    hist = return_histogram(tr, 5)
    assert hist["counts"].tolist() == [50]


def test_replay_style_mixture_is_right_skewed():
    cfg = GeneratorConfig("dense_chain-40-39", 400,
                          ((0.05, 0.7), (0.3, 0.2), (0.9, 0.1)), seed=22)
    tr = compute_trajectory_returns(generate_dataset(cfg))
    assert np.median(tr.returns) < tr.returns.mean()


def test_expert_style_mixture_is_bimodal():
    cfg = GeneratorConfig("dense_chain-40-39", 400,
                          ((0.3, 0.5), (1.0, 0.5)), seed=23)
    tr = compute_trajectory_returns(generate_dataset(cfg))
    counts = return_histogram(tr, 15)["counts"]
    nz = np.flatnonzero(counts)
    gap = [i for i in range(nz[0], nz[-1]) if counts[i] == 0]
    assert len(gap) >= 1
    # two local modes on either side of the gap
    assert counts[: gap[0]].max() > 0 and counts[gap[-1] + 1:].max() > 0


def test_preset_shapes(preset_dataset):
    tr = compute_trajectory_returns(preset_dataset("replay_analog"))
    assert np.median(tr.returns) < tr.returns.mean()

    tr = compute_trajectory_returns(preset_dataset("expert_analog"))
    counts = return_histogram(tr, 15)["counts"]
    nz = np.flatnonzero(counts)
    assert any(counts[i] == 0 for i in range(nz[0], nz[-1]))

    tr = compute_trajectory_returns(preset_dataset("sparse_analog"))
    assert set(np.unique(tr.returns)) == {0.0, 1.0}

    tr = compute_trajectory_returns(preset_dataset("sparse_hard_analog"))
    assert (tr.returns == 0.0).mean() >= 0.8
    assert (tr.returns == 1.0).mean() < 0.2


def test_unknown_names_rejected():
    with pytest.raises(ValueError, match="unknown"):
        env_from_name("quantum_chess-3-4")
    # names that int() and split() would read as a canonical one
    for name in ("dense_chain-40-39-junk", "dense_chain-+40-39", "dense_chain-4_0-39",
                 "grid_maze-08-64", "grid_maze- 8-64"):
        with pytest.raises(ValueError, match=re.escape(f"unknown environment name {name!r}")):
            env_from_name(name)
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("nope")
    with pytest.raises(ValueError):
        generate_dataset(GeneratorConfig("dense_chain-40-39", 10,
                                         ((0.5, 0.5), (0.5, 0.6)), seed=0))


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig("dense_chain-10-9", 5, ((1.5, 1.0),), seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig("dense_chain-10-9", 5, ((0.5, -1.0), (0.5, 2.0)), seed=0)


def test_timeout_and_terminal_flags(preset_dataset):
    ds = preset_dataset("replay_analog")
    ends = ds.terminals | ds.timeouts
    for s, e in ds.traj_bounds:
        assert ends[e - 1]
        assert not ends[s:e - 1].any()
    assert not (ds.terminals & ds.timeouts).any()


def reference_generate(cfg):
    """Assemble the dataset one trajectory at a time from _simulate's step arrays,
    looking each step's reward, next state and terminal up in the tables."""
    mdp = env_from_name(cfg.mdp_name)
    rng = np.random.default_rng(cfg.seed)
    qualities = np.array([q for q, _ in cfg.mixture])
    weights = np.array([w for _, w in cfg.mixture])
    picks = rng.choice(len(qualities), size=cfg.n_trajectories, p=weights / weights.sum())
    states, actions, lengths = _simulate(mdp, 1.0 - qualities[picks], rng)
    parts = {k: [] for k in ("obs", "actions", "rewards", "next_obs", "terminals", "timeouts")}
    bounds, cursor = [], 0
    for j, m in enumerate(lengths.tolist()):
        s, a = states[:m, j], actions[:m, j]
        terminals = mdp.terminal[s, a]
        parts["obs"].append(mdp.obs_table[s])
        parts["actions"].append(a)
        parts["rewards"].append(mdp.reward[s, a])
        parts["next_obs"].append(mdp.obs_table[mdp.next_state[s, a]])
        parts["terminals"].append(terminals)
        timeout = np.zeros(m, dtype=bool)
        timeout[m - 1] = not terminals[m - 1]
        parts["timeouts"].append(timeout)
        bounds.append((cursor, cursor + m))
        cursor += m
    meta = DatasetMeta(obs_dim=mdp.obs_dim, action={"discrete": mdp.n_actions},
                       env_name=mdp.name, seed=cfg.seed)
    return OfflineDataset(**{k: np.concatenate(v) for k, v in parts.items()},
                          traj_bounds=bounds, meta=meta)


@pytest.mark.parametrize("cfg, n_terminal", [
    *((cfg, None) for cfg in PRESETS.values()),
    (preset_config("replay_analog", n_trajectories=1), None),
    # the expert reaches the goal exactly at step h - 1: terminal, not a timeout
    (GeneratorConfig("dense_chain-40-39", 20, ((1.0, 1.0),), seed=3), 20),
    # uniform-random play never reaches the goal: every episode is cut off
    (GeneratorConfig("dense_chain-40-39", 20, ((0.0, 1.0),), seed=4), 0),
], ids=[*PRESETS, "one_trajectory", "all_terminal_at_horizon", "all_timeouts"])
def test_generator_matches_per_trajectory_reference(cfg, n_terminal):
    ds = generate_dataset(cfg)
    assert dataset_equal(ds, reference_generate(cfg))
    if n_terminal is not None:  # all 20 episodes run the full 39-step horizon
        assert ds.traj_bounds.tolist() == [[39 * j, 39 * (j + 1)] for j in range(20)]
        assert (ds.terminals.sum(), ds.timeouts.sum()) == (n_terminal, 20 - n_terminal)


def test_preset_checksums_are_pinned(preset_dataset):
    for name, digest in PRESET_CHECKSUMS.items():
        assert dataset_checksum(preset_dataset(name)) == digest, name


@pytest.mark.parametrize("build,message", [
    (lambda: mdp_dense_chain(1, 10), "length must be >= 2"),
    (lambda: mdp_grid_maze(2, 10), "size must be >= 3"),
    (lambda: Mdp("one_state", np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                 np.zeros((1, 1)), start_state=0, horizon=0), "horizon must be >= 1"),
], ids=["chain_length", "maze_size", "horizon"])
def test_environment_sizes_below_their_minimum_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
