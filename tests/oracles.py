"""Independent reference computations that only the tests use.

Each one states what a fast path of the package must equal: central-difference
gradients for ``nncore.backward``, field-by-field equality for datasets, the
per-row CQL penalty, the void-row ``np.unique`` that the state-id tables of
``algos.train_step`` reproduce byte for byte, a reference learner step
(:func:`reference_train_step`) that the package's step must equal bit for bit,
a reference sampler build (:class:`ReferenceSampler` over
:func:`reference_probs`) that ``build_sampler`` must equal byte for byte, and
a cell-by-cell grid maze (:func:`reference_grid_maze`) whose tables
``mdp_grid_maze`` must equal byte for byte. :func:`id_batch` builds, from
hand-written rows, the batch of state ids that ``train_step`` reads.
"""

import numpy as np

from red_offline.algos import NanLossError, awr_weight, expectile_loss
from red_offline.dataset import OfflineDataset, TrajectoryReturns
from red_offline.nncore import _BETA1, _BETA2, _EPS, Mlp, _split, forward_cache
from red_offline.sampler import top_fraction_filter


def numeric_gradients(net: Mlp, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-5):
    """Central-difference gradients of J = sum(forward(x) * grad_out).

    Independent of :func:`backward`; used to validate it. Laid out like
    ``net.params``.
    """
    def objective():
        y, _ = forward_cache(net, x)
        return float((y * grad_out).sum())

    p = net.params
    grads = np.zeros_like(p)
    for k in range(p.size):
        orig = p[k]
        p[k] = orig + eps
        up = objective()
        p[k] = orig - eps
        down = objective()
        p[k] = orig
        grads[k] = (up - down) / (2.0 * eps)
    return grads


def max_relative_gradient_error(analytic, numeric) -> float:
    """max |a - n| / max(1, |a|, |n|) over all parameters."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def dataset_equal(a: OfflineDataset, b: OfflineDataset) -> bool:
    """Bit-level equality: same transitions, order, bounds, and meta."""
    return (
        a.meta == b.meta
        and np.array_equal(a.traj_bounds, b.traj_bounds)
        and np.array_equal(a.obs, b.obs)
        and np.array_equal(a.actions, b.actions)
        and np.array_equal(a.rewards, b.rewards)
        and np.array_equal(a.next_obs, b.next_obs)
        and np.array_equal(a.terminals, b.terminals)
        and np.array_equal(a.timeouts, b.timeouts)
    )


def cql_penalty(q_row: np.ndarray, data_action: int) -> float:
    """logsumexp(q_row) - q_row[data_action], computed with a max shift."""
    q = np.asarray(q_row, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("q_row must be finite")
    m = q.max()
    return float(m + np.log(np.exp(q - m).sum()) - q[data_action])


def distinct_rows(x: np.ndarray):
    """Distinct rows of ``x`` by exact float64 bytes: (table, inverse) with
    ``x == table[inverse]``, from one ``np.unique`` over a void view."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    keys, inverse = np.unique(x.view(np.dtype((np.void, 8 * x.shape[1]))), return_inverse=True)
    return keys.view(np.float64).reshape(-1, x.shape[1]), inverse.reshape(-1)


def id_batch(obs, action, reward, next_obs, terminal) -> dict:
    """The batch a dataset mapped to its environment's states gives for these
    rows, for rows that belong to no environment: ``states`` the distinct rows
    of ``obs`` and ``next_obs`` together in byte order, and each row's ids into it."""
    states, ids = distinct_rows(np.vstack([obs, next_obs]))
    return {"states": states, "obs_id": ids[:len(obs)], "next_obs_id": ids[len(obs):],
            "action": np.asarray(action, dtype=np.int64),
            "reward": np.asarray(reward, dtype=np.float64),
            "terminal": np.asarray(terminal, dtype=bool)}


# ---------------------------------------------------------------------------
# Reference learner step: train_step and the nncore calls it makes, written
# plainly, with each distinct-row table taken by np.unique from the batch's
# gathered rows, softmax and log-sum-exp over gathered batch rows, every loss an
# np.mean and the input gradient always computed. train_step takes fewer numpy
# passes under one rule: every BLAS call keeps its shape, operands and
# transposition, and every elementwise expression its operation order. So its
# params, target params, Adam moments and losses must equal these bit for bit.

def ref_forward_cache(net: Mlp, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    inputs, pre = [x], []
    h = x
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        if i < last:
            h = np.tanh(z) if net.activation == "tanh" else np.maximum(z, 0.0)
            inputs.append(h)
        else:
            h = z
    return h, {"inputs": inputs, "pre": pre}


def ref_backward(net: Mlp, cache: dict, grad_out: np.ndarray):
    g = np.asarray(grad_out, dtype=np.float64)
    inputs, pre = cache["inputs"], cache["pre"]
    grads = np.empty_like(net.params)
    dws, dbs = _split(grads, net.layer_sizes)
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            if net.activation == "tanh":
                g = g * (1.0 - np.tanh(pre[i]) ** 2)
            else:
                g = g * (pre[i] > 0.0)
        np.matmul(inputs[i].T, g, out=dws[i])
        g.sum(axis=0, out=dbs[i])
        g = g @ net.weights[i].T
    return grads, g


def ref_apply_update(net: Mlp, grads: np.ndarray, opt, freeze_head: bool = False) -> None:
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    hs = net.head_start
    end = hs if freeze_head else net.params.size
    p, g, m, v = net.params[:end], grads[:end], opt.m[:end], opt.v[:end]
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * g * g
    num = m / bc1
    num[:hs] *= opt.lr * opt.backbone_mult
    num[hs:] *= opt.lr
    p -= num / (np.sqrt(v / bc2) + _EPS)
    net.version += 1


def _ref_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_logsumexp_rows(z):
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def reference_train_step(state, cfg, batch: dict, freeze_head: bool = False) -> dict:
    """What ``algos.train_step`` computes, bit for bit, on the same learner state."""
    def forward(net, x):
        return ref_forward_cache(net, x)[0]

    obs, o_inv = distinct_rows(batch["states"][batch["obs_id"]])
    nobs, n_inv = distinct_rows(batch["states"][batch["next_obs_id"]])
    act = np.asarray(batch["action"], dtype=np.int64)
    rew = np.asarray(batch["reward"], dtype=np.float64)
    term = np.asarray(batch["terminal"], dtype=np.float64)
    b = o_inv.size
    rows = np.arange(b)
    family, nets, q_target = state.family, state.nets, state.targets["q"]
    losses: dict = {}
    pending = []

    q_tab, q_cache = ref_forward_cache(nets["q"], obs)
    q_all = q_tab[o_inv]
    q_sa = q_all[rows, act]
    if family == "expectile_awr":
        v_tab, v_cache = ref_forward_cache(nets["v"], obs)
        u = forward(q_target, obs)[o_inv, act] - v_tab[o_inv, 0]
        losses["v_loss"] = expectile_loss(u, cfg.tau_expectile)
        w_exp = np.where(u < 0, 1.0 - cfg.tau_expectile, cfg.tau_expectile)
        pending.append(("v", v_cache, (-2.0 * w_exp * u / b)[:, None]))
        next_value = forward(nets["v"], nobs)[n_inv, 0]
    elif family == "exp_adv_regression":
        pi_next = _ref_softmax(forward(nets["policy"], nobs))
        next_value = (pi_next * forward(q_target, nobs)).sum(axis=1)[n_inv]
    else:
        next_value = forward(q_target, nobs).max(axis=1)[n_inv]

    td = q_sa - (rew + cfg.gamma * (1.0 - term) * next_value)
    losses["q_loss"] = float(np.mean(td * td))
    dq = np.zeros_like(q_all)
    dq[rows, act] = 2.0 * td / b
    if family == "conservative_q":
        losses["cql_penalty"] = float(np.mean(_ref_logsumexp_rows(q_all) - q_sa))
        dq += cfg.cql_weight * _ref_softmax(q_all) / b
        dq[rows, act] -= cfg.cql_weight / b
    pending.append(("q", q_cache, dq))

    if "policy" in nets:
        logits, p_cache = ref_forward_cache(nets["policy"], obs)
        logits = logits[o_inv]
        probs = _ref_softmax(logits)
        logp = logits - _ref_logsumexp_rows(logits)[:, None]
        if family == "q_plus_bc":
            q_pi = (probs * q_all).sum(axis=1)
            lam = cfg.bc_q_scale / (np.abs(q_pi).mean() + 1e-8)
            ce = float(-np.mean(logp[rows, act]))
            losses["policy_loss"] = float(-lam * q_pi.mean() + cfg.bc_weight * ce)
            dlogits = -lam * probs * (q_all - q_pi[:, None]) / b
            dlogits += cfg.bc_weight * probs / b
            dlogits[rows, act] -= cfg.bc_weight / b
        else:
            adv = u if family == "expectile_awr" else q_sa - (probs * q_all).sum(axis=1)
            w = awr_weight(adv, cfg.beta_awr, cfg.w_max)
            losses["policy_loss"] = float(-np.mean(w * logp[rows, act]))
            dlogits = w[:, None] * probs
            dlogits[rows, act] -= w
            dlogits /= b
        pending.append(("policy", p_cache, dlogits))

    if not all(np.isfinite(v) for v in losses.values()):
        raise NanLossError(family, state.step, losses)

    to_table = np.zeros((len(obs), b))
    to_table[o_inv, rows] = 1.0
    for name, cache, grad_out in pending:
        grads, _ = ref_backward(nets[name], cache, to_table @ grad_out)
        ref_apply_update(nets[name], grads, state.opts[name], freeze_head=freeze_head)
    state.step += 1
    if state.step % cfg.target_update_period == 0:
        q_target.copy_from(nets["q"])
    return losses


# ---------------------------------------------------------------------------
# Reference sampler build: the probabilities and group table written plainly,
# with new arrays at every step, int64 run bookkeeping and np.unique's inverse.
# build_sampler writes its arrays in place and keeps narrower run bookkeeping,
# with the same operations in the same order, so its probs, order, _starts,
# _sizes, _cdf and draws must equal these byte for byte.

def reference_distribution(p, alpha: float) -> np.ndarray:
    """P(i) = p_i^alpha / sum_k p_k^alpha, into new arrays."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(over="ignore"):
        powered = p ** alpha
        total = powered.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"weights ** alpha sum to {total}")
    return powered / total


def _reference_minmax(values, lo: float, hi: float, p_base: float) -> np.ndarray:
    if hi == lo:
        return np.full(len(values), 1.0 + p_base)
    return (values - lo) / (hi - lo) + p_base


def reference_probs(spec, ds: OfflineDataset, tr: TrajectoryReturns) -> np.ndarray:
    """``build_sampler(spec, ds, tr).probs``, from the dataset's own bounds."""
    n, lengths = len(ds), np.diff(ds.traj_bounds).ravel()
    if spec.mode == "uniform":
        return np.full(n, 1.0 / n)
    if spec.mode == "return_resample":
        w = _reference_minmax(tr.returns, tr.r_min, tr.r_max, spec.p_base)
        return reference_distribution(np.repeat(w, lengths), spec.alpha)
    if spec.mode == "reward_resample":
        w = _reference_minmax(ds.rewards, float(ds.rewards.min()), float(ds.rewards.max()),
                              spec.p_base)
        return reference_distribution(w, spec.alpha)
    keep = top_fraction_filter(ds, tr, spec.fraction)
    probs = np.zeros(n)
    probs[keep] = 1.0 / keep.size
    return probs


class ReferenceSampler:
    """``WeightedSampler``'s table and draws: runs of equal adjacent
    probability sorted through ``np.unique(..., return_inverse=True)``, and
    ``order`` as a repeat of each run's shift plus ``np.arange(N)``."""

    def __init__(self, probs, seed: int):
        probs = np.asarray(probs, dtype=np.float64)
        start = np.flatnonzero(np.concatenate(([True], probs[1:] != probs[:-1])))
        size = np.diff(start, append=probs.size)
        values, group = np.unique(probs[start], return_inverse=True)
        self._sizes = np.bincount(group, weights=size).astype(np.int64)
        self._starts = np.cumsum(self._sizes) - self._sizes
        runs = np.argsort(group.astype(np.min_scalar_type(values.size)), kind="stable")
        start, size = start[runs], size[runs]
        start += size - np.cumsum(size)  # each run's shift from storage to its slot in order
        self.order = np.repeat(start, size) + np.arange(probs.size)
        self._cdf = np.cumsum(values * self._sizes)
        self._cdf /= self._cdf[-1]
        self.probs = probs.copy()
        self._rng = np.random.default_rng(seed)

    def sample_batch(self, batch_size: int) -> np.ndarray:
        u = self._rng.random((2, batch_size))
        g = np.searchsorted(self._cdf, u[0], side="right")
        return self.order[self._starts[g] + (u[1] * self._sizes[g]).astype(np.int64)]


def reference_grid_maze(size: int):
    """The grid maze's (obs_table, next_state, reward, terminal), one state and
    one move at a time: cell (r, c) is a wall iff (3r + 5c) % 7 == 2, except
    the start and goal corners; a move off the grid, into a wall or out of one
    stays put; entering the goal pays 1 and ends the episode; the goal absorbs."""
    r, c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    walls = (3 * r + 5 * c) % 7 == 2
    walls[0, 0] = walls[size - 1, size - 1] = False
    n, goal = size * size, size * size - 1
    obs = np.stack([r.ravel() / (size - 1), c.ravel() / (size - 1)], axis=1)
    next_state = np.empty((n, 4), dtype=np.int64)
    reward = np.zeros((n, 4))
    terminal = np.zeros((n, 4), dtype=bool)
    for s in range(n):
        row, col = divmod(s, size)
        for a, (dr, dc) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):  # up, down, left, right
            nr, nc = row + dr, col + dc
            if not (0 <= nr < size and 0 <= nc < size) or walls[nr, nc] or walls[row, col]:
                nr, nc = row, col
            next_state[s, a] = nr * size + nc
            if next_state[s, a] == goal and s != goal:
                reward[s, a], terminal[s, a] = 1.0, True
    next_state[goal] = goal
    reward[goal] = 0.0
    terminal[goal] = False
    return obs, next_state, reward, terminal
