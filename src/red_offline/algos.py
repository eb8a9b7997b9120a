"""Discrete-action offline RL learners behind a common train-step interface.

Four families cover the usual constraint mechanisms: expectile value learning
with advantage-weighted extraction (IQL), conservative Q penalties (CQL),
exponential advantage-weighted regression (AWR), and Q-learning with a
behavior-cloning term (TD3+BC). Each consumes batches produced by an injected
sampler and never looks at the sampler itself, so uniform and rebalanced
training differ only in the stream of batch indices.

:func:`train_step` is one pipeline for all four. Every family fits Q to
r + gamma * (1 - terminal) * next_value, where only next_value differs:
V(s') for expectile_awr, the policy's expectation of Q_target(s') for
exp_adv_regression, max Q_target(s') for the other two. Horizon timeouts
bootstrap as non-terminal. conservative_q adds its penalty gradient to the
same Q update, and expectile_awr adds an expectile-fitted V net. Families with
a policy net share one softmax block and take one of two policy losses: the
advantage-weighted likelihood (expectile_awr, exp_adv_regression) or the
lambda-scaled Q plus cross-entropy (q_plus_bc).

A batch is state ids (``OfflineDataset.batch``) into the byte-sorted state
table it carries. The ids repeat (each is a state of a small tabular MDP), so
every net runs once per distinct state that ``obs_id`` or ``next_obs_id``
names, in ``np.unique``'s byte order. Row-local softmax and log-sum-exp run on
those tables too; results are gathered back to batch rows, and per-row output
gradients summed onto table rows before backprop. The bit rule: no BLAS call
changes shape, operands or transposition, and no elementwise expression its
order. The step inlines the expectile loss; :func:`expectile_loss` stays
public and gives the same value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .nncore import (ACTIVATIONS, apply_update, backward, forward, forward_cache, init_mlp,
                     init_optim)

# Free 4 MiB, never touched, at import: freeing an mmapped block raises glibc's
# dynamic mmap threshold to its size, so train_step's 128 KiB-and-up
# temporaries come from the heap, not a fresh mmap (and page faults) per step.
np.empty(1 << 19)

FAMILIES = ("expectile_awr", "conservative_q", "exp_adv_regression", "q_plus_bc")


class NanLossError(RuntimeError):
    """Training produced a non-finite loss; carries a diagnostic payload."""

    def __init__(self, family: str, step: int, losses: dict):
        self.family = family
        self.step = step
        self.losses = losses
        super().__init__(f"non-finite loss in {family} at step {step}: {losses}")


@dataclass(frozen=True)
class AlgoConfig:
    """Hyperparameters shared across families; kept constant across sampler arms."""

    family: str = "expectile_awr"
    gamma: float = 0.99
    tau_expectile: float = 0.7
    beta_awr: float = 3.0
    w_max: float = 100.0
    cql_weight: float = 1.0
    bc_weight: float = 1.0
    bc_q_scale: float = 2.5      # TD3+BC style lambda numerator
    target_update_period: int = 100
    batch_size: int = 256
    total_steps: int = 20_000
    lr: float = 3e-4
    hidden_units: int = 64
    n_hidden_layers: int = 2     # three linear layers total
    activation: str = "relu"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        # gamma 0 is allowed: the TD target then degenerates to the reward
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 < self.tau_expectile < 1.0:
            raise ValueError("tau_expectile must be in (0, 1)")
        if not (self.beta_awr > 0 and self.w_max > 0):  # NaN fails too
            raise ValueError("beta_awr and w_max must be > 0")
        for name in ("cql_weight", "bc_weight", "bc_q_scale", "lr"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError("cql_weight, bc_weight, bc_q_scale and lr must be >= 0 and "
                                 f"finite, got {name}={getattr(self, name)}")
        if min(self.target_update_period, self.batch_size, self.total_steps) < 1:
            raise ValueError("periods, batch size and step counts must be >= 1")
        if not (self.hidden_units >= 1 and self.n_hidden_layers >= 0):
            raise ValueError("hidden_units must be >= 1 and n_hidden_layers >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


def expectile_loss(u, tau: float) -> float:
    """Mean asymmetric squared loss |tau - 1{u<0}| * u^2."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    u = np.asarray(u, dtype=np.float64)
    w = np.where(u < 0, 1.0 - tau, tau)
    return float(np.mean(w * u * u))


def awr_weight(advantage, beta: float, w_max: float):
    """Clipped exponential advantage weight min(exp(adv / beta), w_max)."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    x = np.minimum(np.asarray(advantage, dtype=np.float64) / beta, 700.0)
    out = np.minimum(np.exp(x), w_max)
    return float(out) if out.ndim == 0 else out


@dataclass
class LearnerState:
    family: str
    nets: dict      # name -> Mlp       (always "q"; "v"/"policy" per family)
    targets: dict   # name -> Mlp       (hard copies)
    opts: dict      # name -> OptimState
    step: int = 0


def _net_seed(seed: int, idx: int) -> int:
    return (seed * 1_000_003 + idx) % (2 ** 63)


def init_learner(cfg: AlgoConfig, obs_dim: int, n_actions: int, seed: int,
                 backbone_mult: float = 1.0) -> LearnerState:
    """Fresh networks and optimizers for one run; fully determined by seed."""
    hidden = [cfg.hidden_units] * cfg.n_hidden_layers
    def make(out_dim, idx):
        return init_mlp([obs_dim] + hidden + [out_dim], cfg.activation,
                        seed=_net_seed(seed, idx))
    nets = {"q": make(n_actions, 0)}
    if cfg.family == "expectile_awr":
        nets["v"] = make(1, 1)
    if cfg.family in ("expectile_awr", "exp_adv_regression", "q_plus_bc"):
        nets["policy"] = make(n_actions, 2)
    targets = {"q": nets["q"].copy()}
    opts = {name: init_optim(net, cfg.lr, backbone_mult) for name, net in nets.items()}
    return LearnerState(family=cfg.family, nets=nets, targets=targets, opts=opts)


def _softmax_lse(z: np.ndarray):
    """Row softmax of ``z`` and its row log-sum-exp, from one shifted exp."""
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    return e / s, (m + np.log(s))[:, 0]


def _state_table(states: np.ndarray, ids: np.ndarray):
    """Rows of ``states`` that ``ids`` name, in id order, and each id's index into
    them: the (table, inverse) ``np.unique`` gives over void rows ``states[ids]``."""
    seen = np.bincount(ids, minlength=len(states)) > 0
    return states[seen], (np.cumsum(seen) - 1).take(ids)


def train_step(state: LearnerState, cfg: AlgoConfig, batch: dict,
               freeze_head: bool = False) -> dict:
    """One gradient step on every net the family trains; returns the losses.

    Raises :class:`NanLossError` instead of silently continuing when any loss
    goes non-finite.
    """
    obs, o_inv = _state_table(batch["states"], batch["obs_id"])
    nobs, n_inv = _state_table(batch["states"], batch["next_obs_id"])
    act = np.asarray(batch["action"], dtype=np.int64)
    rew = np.asarray(batch["reward"], dtype=np.float64)
    term = np.asarray(batch["terminal"], dtype=np.float64)
    b = o_inv.size
    rows = np.arange(b)
    family, nets, q_target = state.family, state.nets, state.targets["q"]
    losses: dict = {}
    pending = []  # (net name, forward cache, per-row output gradient)

    q_tab, q_cache = forward_cache(nets["q"], obs)
    q_sa = q_tab[o_inv, act]

    # next_value is the only family-specific part of the TD target; expectile_awr
    # also fits its V net to the target critic here
    if family == "expectile_awr":
        v_tab, v_cache = forward_cache(nets["v"], obs)
        u = forward(q_target, obs)[o_inv, act] - v_tab[o_inv, 0]
        w_exp = np.where(u < 0, 1.0 - cfg.tau_expectile, cfg.tau_expectile)
        losses["v_loss"] = float(np.add.reduce(w_exp * u * u) / b)  # expectile_loss(u, tau)
        pending.append(("v", v_cache, (-2.0 * w_exp * u / b)[:, None]))
        next_value = forward(nets["v"], nobs)[n_inv, 0]
    elif family == "exp_adv_regression":
        pi_next = _softmax_lse(forward(nets["policy"], nobs))[0]
        next_value = (pi_next * forward(q_target, nobs)).sum(axis=1)[n_inv]
    else:
        next_value = forward(q_target, nobs).max(axis=1)[n_inv]

    td = q_sa - (rew + cfg.gamma * (1.0 - term) * next_value)
    losses["q_loss"] = float(np.add.reduce(td * td) / b)
    dq = np.zeros((b, q_tab.shape[1]))
    dq[rows, act] = 2.0 * td / b
    if family == "conservative_q":
        probs_q, lse_q = _softmax_lse(q_tab)
        losses["cql_penalty"] = float(np.add.reduce(lse_q[o_inv] - q_sa) / b)
        dq += (cfg.cql_weight * probs_q / b)[o_inv]
        dq[rows, act] -= cfg.cql_weight / b
    pending.append(("q", q_cache, dq))

    if "policy" in nets:
        logits, p_cache = forward_cache(nets["policy"], obs)
        probs, lse = _softmax_lse(logits)
        logp_sa = (logits - lse[:, None])[o_inv, act]
        if family == "q_plus_bc":  # the critic is a constant inside the policy loss
            q_pi = (probs * q_tab).sum(axis=1)
            q_pi_b = q_pi[o_inv]
            lam = cfg.bc_q_scale / (np.add.reduce(np.abs(q_pi_b)) / b + 1e-8)
            ce = float(-np.add.reduce(logp_sa) / b)
            losses["policy_loss"] = float(-lam * (np.add.reduce(q_pi_b) / b) + cfg.bc_weight * ce)
            dlogits = -lam * probs * (q_tab - q_pi[:, None]) / b
            dlogits = (dlogits + cfg.bc_weight * probs / b)[o_inv]
            dlogits[rows, act] -= cfg.bc_weight / b
        else:  # advantage-weighted likelihood
            adv = u if family == "expectile_awr" else q_sa - (probs * q_tab).sum(axis=1)[o_inv]
            w = awr_weight(adv, cfg.beta_awr, cfg.w_max)
            losses["policy_loss"] = float(-np.add.reduce(w * logp_sa) / b)
            dlogits = w[:, None] * probs[o_inv]
            dlogits[rows, act] -= w
            dlogits /= b
        pending.append(("policy", p_cache, dlogits))

    if not all(map(math.isfinite, losses.values())):
        raise NanLossError(family, state.step, losses)

    to_table = np.zeros((len(obs), b))  # one-hot (distinct, b): sums rows onto the table
    to_table[o_inv, rows] = 1.0
    for name, cache, grad_out in pending:  # no input gradient: nothing reads it
        grads, _ = backward(nets[name], cache, to_table @ grad_out, grad_input=False)
        apply_update(nets[name], grads, state.opts[name], freeze_head=freeze_head)
    state.step += 1
    if state.step % cfg.target_update_period == 0:
        q_target.copy_from(nets["q"])
    return losses


def extract_policy(state: LearnerState):
    """Greedy evaluation policy: argmax logits (argmax Q for the pure Q family).

    Ties resolve to the lowest action index.
    """
    net = state.nets.get("policy", state.nets["q"])

    def policy_fn(obs_batch: np.ndarray) -> np.ndarray:
        return np.argmax(forward(net, obs_batch), axis=1)

    return policy_fn
