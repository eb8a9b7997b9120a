"""Desk-scale MDPs and behavior-mixture dataset generators.

Two deterministic tabular environments stand in for the usual benchmark
suites: a dense-reward chain (continuous spread of episode returns) and a
sparse 0/1-reward grid maze. Datasets are generated by rolling out mixtures
of policies of varying quality, which is what produces the characteristic
long-tailed and bimodal return histograms, and 0/1 support on the maze.

Quality q in [0, 1] blends uniform-random (q=0) into the exact
finite-horizon-optimal policy (q=1) by taking the optimal action with
probability q and a uniform action otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetMeta, OfflineDataset


class Mdp:
    """Deterministic tabular MDP with a fixed start state and horizon.

    Transition/reward/terminal tables are indexed [state, action]. The
    per-timestep optimal policy (exact finite-horizon dynamic programming)
    is computed lazily and cached; the random/expert reference scores are
    exact returns from :func:`policy_value`.
    """

    def __init__(self, name: str, obs_table: np.ndarray, next_state: np.ndarray,
                 reward: np.ndarray, terminal: np.ndarray, start_state: int, horizon: int):
        self.name = name
        self.obs_table = np.asarray(obs_table, dtype=np.float64)
        self.next_state = np.asarray(next_state, dtype=np.int64)
        self.reward = np.asarray(reward, dtype=np.float64)
        self.terminal = np.asarray(terminal, dtype=bool)
        self.start_state = int(start_state)
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        self._expert = None

    @property
    def n_states(self) -> int:
        return self.obs_table.shape[0]

    @property
    def n_actions(self) -> int:
        return self.next_state.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.obs_table.shape[1]

    def expert_policy(self) -> np.ndarray:
        """Optimal action table of shape (horizon, n_states), exact DP.

        Row t is the optimal policy with horizon - t steps remaining, so
        time-limited effects (e.g. whether a detour still pays off) are
        handled exactly. A mild discount inside the recursion breaks ties
        among return-equal actions toward earlier rewards, so the policy
        heads for the goal instead of stalling while time is plentiful.
        """
        if self._expert is None:
            gamma = 0.99
            policy = np.zeros((self.horizon, self.n_states), dtype=np.int64)
            value = np.zeros(self.n_states)
            cont = np.where(self.terminal, 0.0, gamma)
            for t in range(self.horizon - 1, -1, -1):
                q = self.reward + cont * value[self.next_state]
                policy[t] = np.argmax(q, axis=1)
                value = q.max(axis=1)
            policy.setflags(write=False)
            self._expert = policy
        return self._expert

    @property
    def reference_scores(self) -> dict:
        """{'random': uniform-policy return, 'expert': optimal return}, both exact."""
        uniform = np.full((self.n_states, self.n_actions), 1.0 / self.n_actions)
        expert = np.eye(self.n_actions)[self.expert_policy()]
        return {"random": policy_value(self, uniform), "expert": policy_value(self, expert)}


def policy_value(mdp: Mdp, pi: np.ndarray) -> float:
    """Exact expected return from the start state of a stochastic policy.

    ``pi`` holds action probabilities, either (n_states, n_actions) for a
    stationary policy or (horizon, n_states, n_actions) with row t used at
    step t. One backward pass over the horizon; terminal transitions add
    their reward and stop.
    """
    pi = np.broadcast_to(pi, (mdp.horizon, mdp.n_states, mdp.n_actions))
    value = np.zeros(mdp.n_states)
    for t in range(mdp.horizon - 1, -1, -1):
        q = np.where(mdp.terminal, mdp.reward, mdp.reward + value[mdp.next_state])
        value = (pi[t] * q).sum(axis=1)
    return float(value[mdp.start_state])


def mdp_dense_chain(length: int, horizon: int) -> Mdp:
    """Line of states 0..length-1; right earns +1, anything else costs 0.1.

    Reaching the last state terminates the episode. Always-right from the
    start earns length-1.

    Positions are embedded as two quasi-random phases in [0, 1) rather than
    the raw coordinate: with a monotone 1-D embedding a small MLP can
    extrapolate the optimal action to states it has barely seen, which makes
    every sampling scheme equally good and hides exactly the coverage
    effects this environment is meant to expose. The phase embedding keeps
    nearby positions far apart in observation space, so each region must be
    learned from actual samples.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    s = np.arange(length)
    obs = np.stack([((s + 1) * 0.6180339887498949) % 1.0,
                    ((s + 1) * 0.4142135623730951) % 1.0], axis=1)
    next_state = np.stack([np.maximum(s - 1, 0), np.minimum(s + 1, length - 1)], axis=1)
    reward = np.stack([np.full(length, -0.1), np.full(length, 1.0)], axis=1)
    terminal = np.zeros((length, 2), dtype=bool)
    terminal[length - 2, 1] = True
    # the last state is absorbing bookkeeping only; episodes end on entry
    next_state[length - 1] = length - 1
    reward[length - 1] = 0.0
    return Mdp(f"dense_chain-{length}-{horizon}", obs, next_state, reward, terminal,
               start_state=0, horizon=horizon)


def _maze_walls(size: int) -> np.ndarray:
    # fixed, documented pattern: cell (r, c) is a wall iff (3r + 5c) % 7 == 2,
    # excluding the start and goal corners; deterministic per size
    r, c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    walls = (3 * r + 5 * c) % 7 == 2
    walls[0, 0] = False
    walls[size - 1, size - 1] = False
    return walls


def mdp_grid_maze(size: int, horizon: int) -> Mdp:
    """size x size grid, start one corner, goal the other; reward 1 on the goal.

    Moves into walls or off the grid keep the agent in place. Every episode
    return is exactly 0 or 1. The wall layout is a fixed pattern per size and
    is checked for solvability at construction.
    """
    if size < 3:
        raise ValueError("size must be >= 3")
    walls = _maze_walls(size)
    n = size * size
    goal = n - 1
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    obs = np.stack([rr.ravel() / (size - 1), cc.ravel() / (size - 1)], axis=1)
    moves = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right
    next_state = np.empty((n, 4), dtype=np.int64)
    reward = np.zeros((n, 4))
    terminal = np.zeros((n, 4), dtype=bool)
    for s in range(n):
        r, c = divmod(s, size)
        for a, (dr, dc) in enumerate(moves):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < size and 0 <= nc < size) or walls[nr, nc] or walls[r, c]:
                nr, nc = r, c
            ns = nr * size + nc
            next_state[s, a] = ns
            if ns == goal and s != goal:
                reward[s, a] = 1.0
                terminal[s, a] = True
    next_state[goal] = goal
    reward[goal] = 0.0
    terminal[goal] = False
    if not _reachable(next_state, 0, goal):
        raise ValueError(f"maze size {size}: goal not reachable under the wall pattern")
    return Mdp(f"grid_maze-{size}-{horizon}", obs, next_state, reward, terminal,
               start_state=0, horizon=horizon)


def _reachable(next_state: np.ndarray, start: int, goal: int) -> bool:
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        if s == goal:
            return True
        for ns in next_state[s]:
            if int(ns) not in seen:
                seen.add(int(ns))
                frontier.append(int(ns))
    return False


def env_from_name(name: str) -> Mdp:
    """Build (and cache) an environment from its canonical name."""
    if name in _ENV_CACHE:
        return _ENV_CACHE[name]
    parts = name.split("-")
    try:
        kind, a, b = parts[0], int(parts[1]), int(parts[2])
    except (IndexError, ValueError):
        raise ValueError(f"unknown environment name {name!r}") from None
    if kind == "dense_chain":
        mdp = mdp_dense_chain(a, b)
    elif kind == "grid_maze":
        mdp = mdp_grid_maze(a, b)
    else:
        raise ValueError(f"unknown environment name {name!r}")
    _ENV_CACHE[name] = mdp
    return mdp


_ENV_CACHE: dict = {}


@dataclass(frozen=True)
class GeneratorConfig:
    """Rollout recipe: environment, episode count, policy-quality mixture, seed."""

    mdp_name: str
    n_trajectories: int
    mixture: tuple  # ((quality, weight), ...)
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "mixture", tuple((float(q), float(w)) for q, w in self.mixture))
        weights = np.array([w for _, w in self.mixture])
        if len(weights) == 0 or np.any(weights <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {weights.sum()}, expected 1")
        for q, _ in self.mixture:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quality {q} outside [0, 1]")


def _simulate(mdp: Mdp, eps: np.ndarray, rng: np.random.Generator):
    """Roll out one episode per entry of eps, all in lockstep.

    Returns (states, actions, rewards, next_states, terminals, lengths) where
    the step arrays have shape (horizon, n_episodes) and lengths gives each
    episode's transition count.
    """
    n = eps.size
    expert = mdp.expert_policy()
    h = mdp.horizon
    states = np.zeros((h, n), dtype=np.int64)
    actions = np.zeros((h, n), dtype=np.int64)
    rewards = np.zeros((h, n))
    next_states = np.zeros((h, n), dtype=np.int64)
    terminals = np.zeros((h, n), dtype=bool)
    lengths = np.full(n, h, dtype=np.int64)
    cur = np.full(n, mdp.start_state, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(h):
        # draw for every episode each step so the stream layout is fixed
        explore = rng.random(n) < eps
        random_a = rng.integers(0, mdp.n_actions, size=n)
        a = np.where(explore, random_a, expert[t, cur])
        ns = mdp.next_state[cur, a]
        r = mdp.reward[cur, a]
        term = mdp.terminal[cur, a]
        states[t], actions[t], rewards[t], next_states[t], terminals[t] = cur, a, r, ns, term
        ended = alive & term
        lengths[ended] = t + 1
        alive &= ~term
        cur = ns
        if not alive.any():
            break
    return states, actions, rewards, next_states, terminals, lengths


def generate_dataset(cfg: GeneratorConfig) -> OfflineDataset:
    """Roll out the configured policy mixture into an offline dataset.

    Pure function of its config: the same seed always produces a
    bit-identical dataset. Each episode draws its quality level from the
    mixture, then acts with the corresponding blend of random and optimal
    actions. Horizon cutoffs are flagged as timeouts, not terminals.
    """
    mdp = env_from_name(cfg.mdp_name)
    rng = np.random.default_rng(cfg.seed)
    qualities = np.array([q for q, _ in cfg.mixture])
    weights = np.array([w for _, w in cfg.mixture])
    picks = rng.choice(len(qualities), size=cfg.n_trajectories, p=weights / weights.sum())
    eps = 1.0 - qualities[picks]
    states, actions, rewards, next_states, terminals, lengths = _simulate(mdp, eps, rng)
    # steps are (horizon, n); gather each field trajectory-major, kept steps only
    keep = (np.arange(mdp.horizon)[:, None] < lengths).T
    terminals = terminals.T[keep]
    ends = np.cumsum(lengths)
    timeouts = np.zeros_like(terminals)
    timeouts[ends - 1] = ~terminals[ends - 1]  # horizon cutoff
    meta = DatasetMeta(obs_dim=mdp.obs_dim, action={"discrete": mdp.n_actions},
                       env_name=mdp.name, seed=cfg.seed)
    return OfflineDataset(
        obs=mdp.obs_table[states.T[keep]],
        actions=actions.T[keep],
        rewards=rewards.T[keep],
        next_obs=mdp.obs_table[next_states.T[keep]],
        terminals=terminals,
        timeouts=timeouts,
        traj_bounds=np.stack([ends - lengths, ends], axis=1),
        meta=meta,
    )


# named generator presets; seeds fixed so shapes are reproducible.
# replay_analog: mostly poor policies with a thin high-return tail
# (long-tailed, median < mean); expert_analog: a weak mode plus a pure-expert
# spike (bimodal with an empty band between); sparse presets have 0/1 returns
# with sparse_hard_analog keeping at least 80% failed trajectories.
PRESETS = {
    "replay_analog": GeneratorConfig(
        mdp_name="dense_chain-40-39", n_trajectories=400,
        mixture=((0.05, 0.74), (0.3, 0.2), (0.9, 0.06)), seed=11),
    "expert_analog": GeneratorConfig(
        mdp_name="dense_chain-40-39", n_trajectories=400,
        mixture=((0.1, 0.65), (1.0, 0.35)), seed=12),
    "sparse_analog": GeneratorConfig(
        mdp_name="grid_maze-8-64", n_trajectories=300,
        mixture=((0.2, 0.5), (0.75, 0.5)), seed=13),
    "sparse_hard_analog": GeneratorConfig(
        mdp_name="grid_maze-10-30", n_trajectories=400,
        mixture=((0.35, 0.8), (0.45, 0.2)), seed=14),
}


def preset_config(name: str, seed: int | None = None,
                  n_trajectories: int | None = None) -> GeneratorConfig:
    """Look up a preset, optionally overriding its seed or episode count."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    base = PRESETS[name]
    return GeneratorConfig(
        mdp_name=base.mdp_name,
        n_trajectories=base.n_trajectories if n_trajectories is None else n_trajectories,
        mixture=base.mixture,
        seed=base.seed if seed is None else seed,
    )
