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

import functools
from dataclasses import dataclass, replace

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


def mdp_grid_maze(size: int, horizon: int) -> Mdp:
    """size x size grid, start one corner, goal the other; reward 1 on the goal.

    Cell (r, c) is a wall iff (3r + 5c) % 7 == 2, except the start and goal
    corners. Moves into walls or off the grid keep the agent in place, and
    the goal is absorbing. Every episode return is exactly 0 or 1. No two
    walls touch, not even diagonally: cells side by side or diagonal differ
    in 3r + 5c by 2, 3, 5 or 8, never a multiple of 7. So the cells around a
    wall are all open, every wall can be walked around, and the goal is
    reachable at every size.
    """
    if size < 3:
        raise ValueError("size must be >= 3")
    s = np.arange(size * size)
    r, c = np.divmod(s, size)
    goal = s[-1]
    wall = ((3 * r + 5 * c) % 7 == 2) & (s != 0) & (s != goal)
    nr = r[:, None] + [-1, 1, 0, 0]  # up, down, left, right
    nc = c[:, None] + [0, 0, -1, 1]
    on_grid = (nr >= 0) & (nr < size) & (nc >= 0) & (nc < size)
    next_state = np.where(on_grid, nr * size + nc, s[:, None])
    stay = wall | (s == goal)  # a wall cell or the goal keeps the agent in place
    next_state = np.where(stay[:, None] | wall[next_state], s[:, None], next_state)
    terminal = (next_state == goal) & (s != goal)[:, None]
    obs = np.stack([r, c], axis=1) / (size - 1)
    return Mdp(f"grid_maze-{size}-{horizon}", obs, next_state, terminal.astype(float), terminal,
               start_state=0, horizon=horizon)


@functools.cache
def env_from_name(name: str) -> Mdp:
    """Build (and cache) an environment from its canonical name."""
    builders = {"dense_chain": mdp_dense_chain, "grid_maze": mdp_grid_maze}
    parts = name.split("-")
    try:
        build, a, b = builders[parts[0]], int(parts[1]), int(parts[2])
    except (KeyError, IndexError, ValueError):
        raise ValueError(f"unknown environment name {name!r}") from None
    mdp = build(a, b)
    if mdp.name != name:  # int() reads "+40", "4_0", "08" and " 8" too; "-junk" may follow
        raise ValueError(f"unknown environment name {name!r}")
    return mdp


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

    Returns (states, actions, lengths): the step arrays have shape
    (horizon, n_episodes), and lengths gives each episode's transition count.
    Steps past an episode's end hold values that nothing reads; rewards, next
    states and terminals are the tables' entries at (states, actions).
    """
    n = eps.size
    expert = mdp.expert_policy()
    h = mdp.horizon
    states = np.zeros((h, n), dtype=np.int64)
    actions = np.zeros((h, n), dtype=np.int64)
    lengths = np.full(n, h, dtype=np.int64)
    cur = np.full(n, mdp.start_state, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(h):
        # draw for every episode each step so the stream layout is fixed
        explore = rng.random(n) < eps
        random_a = rng.integers(0, mdp.n_actions, size=n)
        a = np.where(explore, random_a, expert[t, cur])
        states[t], actions[t] = cur, a
        term = mdp.terminal[cur, a]
        lengths[alive & term] = t + 1
        alive &= ~term
        cur = mdp.next_state[cur, a]
        if not alive.any():
            break
    return states, actions, lengths


def generate_dataset(cfg: GeneratorConfig) -> OfflineDataset:
    """Roll out the configured policy mixture into an offline dataset.

    Pure function of its config: the same seed always produces a
    bit-identical dataset. Each episode draws its quality level from the
    mixture, then acts with the corresponding blend of random and optimal
    actions. Rewards, next observations and terminals are looked up from the
    environment's tables at each kept (state, action). Horizon cutoffs are
    flagged as timeouts, not terminals.
    """
    mdp = env_from_name(cfg.mdp_name)
    rng = np.random.default_rng(cfg.seed)
    qualities, weights = np.array(cfg.mixture).T
    picks = rng.choice(len(qualities), size=cfg.n_trajectories, p=weights / weights.sum())
    eps = 1.0 - qualities[picks]
    states, actions, lengths = _simulate(mdp, eps, rng)
    # steps are (horizon, n); gather them trajectory-major, kept steps only
    keep = (np.arange(mdp.horizon)[:, None] < lengths).T
    states, actions = states.T[keep], actions.T[keep]
    terminals = mdp.terminal[states, actions]
    ends = np.cumsum(lengths)
    timeouts = np.zeros_like(terminals)
    timeouts[ends - 1] = ~terminals[ends - 1]  # horizon cutoff
    meta = DatasetMeta(obs_dim=mdp.obs_dim, action={"discrete": mdp.n_actions},
                       env_name=mdp.name, seed=cfg.seed)
    return OfflineDataset(
        obs=mdp.obs_table[states],
        actions=actions,
        rewards=mdp.reward[states, actions],
        next_obs=mdp.obs_table[mdp.next_state[states, actions]],
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
    return replace(base, seed=base.seed if seed is None else seed,
                   n_trajectories=base.n_trajectories if n_trajectories is None else n_trajectories)
