import math

import numpy as np
import pytest

from red_offline import algos
from red_offline.algos import (AlgoConfig, FAMILIES, NanLossError,
                               awr_weight, expectile_loss,
                               extract_policy, init_learner, train_step)
from red_offline.envsuite import PRESETS, GeneratorConfig, env_from_name, generate_dataset
from red_offline.nncore import Mlp, backward, forward, forward_cache

from conftest import make_dataset
from oracles import cql_penalty, distinct_rows, id_batch, reference_train_step


def _dataset_batch(ds, idx):
    """``ds.batch(idx)`` for a dataset of arbitrary rows, which maps to no
    environment's states: :func:`oracles.id_batch` of its rows ``idx``."""
    return id_batch(ds.obs[idx], ds.actions[idx], ds.rewards[idx], ds.next_obs[idx],
                    ds.terminals[idx])


def _rows(batch):
    """A batch's obs and next_obs rows, gathered from its state table by id."""
    return batch["states"][batch["obs_id"]], batch["states"][batch["next_obs_id"]]


def test_expectile_loss_examples():
    assert expectile_loss(2.0, 0.5) == pytest.approx(2.0)
    assert expectile_loss(-1.0, 0.9) == pytest.approx(0.1)
    assert expectile_loss(1.0, 0.9) == pytest.approx(0.9)


def test_expectile_loss_symmetric_case_is_half_mse():
    rng = np.random.default_rng(0)
    u = rng.normal(size=100)
    assert expectile_loss(u, 0.5) == pytest.approx(0.5 * np.mean(u ** 2))
    assert expectile_loss(u, 0.73) >= 0


def test_expectile_loss_rejects_bad_tau():
    with pytest.raises(ValueError):
        expectile_loss(1.0, 0.0)
    with pytest.raises(ValueError):
        expectile_loss(1.0, 1.0)


def test_awr_weight_examples():
    assert awr_weight(0.0, 3.0, 100.0) == pytest.approx(1.0)
    adv = 3.0 * math.log(50.0)
    assert awr_weight(adv, 3.0, 100.0) == pytest.approx(50.0)
    assert awr_weight(1e9, 3.0, 100.0) == 100.0


def test_awr_weight_monotone_and_bounded():
    advs = np.linspace(-30, 30, 301)
    w = awr_weight(advs, 2.0, 25.0)
    assert np.all(np.diff(w) >= 0)
    assert np.all(w > 0) and np.all(w <= 25.0)
    with pytest.raises(ValueError):
        awr_weight(1.0, 0.0, 10.0)


def test_cql_penalty_examples():
    for n in (2, 3, 10):
        assert cql_penalty(np.zeros(n) + 1.7, 0) == pytest.approx(math.log(n))
    assert cql_penalty(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(2.0))
    # high-precision route: logsumexp([10,-10]) - 10 = log1p(exp(-20))
    assert cql_penalty(np.array([10.0, -10.0]), 0) == pytest.approx(
        math.log1p(math.exp(-20.0)), rel=1e-12)


def test_cql_penalty_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.normal(size=5) * 10
        a = int(rng.integers(5))
        assert cql_penalty(q, a) >= 0
    # data action dominating drives the penalty to zero
    assert cql_penalty(np.array([60.0, 0.0, 0.0]), 0) < 1e-20
    with pytest.raises(ValueError):
        cql_penalty(np.array([np.nan, 0.0]), 0)


def _zeroed_learner(family, obs_dim=2, n_actions=3):
    cfg = AlgoConfig(family=family, hidden_units=8)
    state = init_learner(cfg, obs_dim, n_actions, seed=0)
    for net in list(state.nets.values()) + list(state.targets.values()):
        for w, b in zip(net.weights, net.biases):
            w[...] = 0.0
            b[...] = 0.0
    return cfg, state


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_nets_zero_rewards_step_is_finite(family):
    cfg, state = _zeroed_learner(family)
    batch = id_batch(obs=np.zeros((4, 2)), action=np.array([0, 1, 2, 0]), reward=np.zeros(4),
                     next_obs=np.zeros((4, 2)), terminal=np.zeros(4, bool))
    losses = train_step(state, cfg, batch)
    assert all(np.isfinite(v) for v in losses.values())
    assert losses["q_loss"] == 0.0


def test_gamma_zero_fits_immediate_rewards():
    ds = make_dataset([[0.5, -0.25, 1.0], [0.0, 2.0]])
    cfg = AlgoConfig(family="conservative_q", gamma=0.0, cql_weight=0.0,
                     lr=3e-3, hidden_units=16, target_update_period=10,
                     batch_size=len(ds), total_steps=1)
    state = init_learner(cfg, ds.meta.obs_dim, 2, seed=4)
    batch = _dataset_batch(ds, np.arange(len(ds)))
    for _ in range(1200):
        train_step(state, cfg, batch)
    q = forward(state.nets["q"], ds.obs)
    fitted = q[np.arange(len(ds)), ds.actions]
    assert np.abs(fitted - ds.rewards).max() < 0.05


def test_extract_policy_argmax_and_ties():
    cfg = AlgoConfig(family="q_plus_bc", hidden_units=8)
    state = init_learner(cfg, 2, 2, seed=0)
    logits_net = Mlp([2, 2], [0.0, 0.0, 0.0, 0.0, 0.0, 5.0], "relu")
    state.nets["policy"] = logits_net
    policy = extract_policy(state)
    assert policy(np.zeros((3, 2))).tolist() == [1, 1, 1]
    logits_net.biases[0][:] = [2.0, 2.0]
    assert policy(np.zeros((1, 2))).tolist() == [0]


def test_extract_policy_matches_loop_argmax():
    cfg = AlgoConfig(family="expectile_awr", hidden_units=8)
    state = init_learner(cfg, 3, 4, seed=9)
    obs = np.random.default_rng(2).normal(size=(20, 3))
    got = extract_policy(state)(obs)
    logits = forward(state.nets["policy"], obs)
    for i in range(20):
        best, best_v = 0, logits[i, 0]
        for a in range(1, 4):
            if logits[i, a] > best_v:
                best, best_v = a, logits[i, a]
        assert got[i] == best


def test_greedy_policy_for_pure_q_family():
    cfg = AlgoConfig(family="conservative_q", hidden_units=8)
    state = init_learner(cfg, 2, 3, seed=1)
    assert "policy" not in state.nets
    obs = np.random.default_rng(3).normal(size=(10, 2))
    assert np.array_equal(extract_policy(state)(obs),
                          np.argmax(forward(state.nets["q"], obs), axis=1))


def test_nan_loss_aborts_with_diagnostics():
    cfg = AlgoConfig(family="conservative_q", hidden_units=8)
    state = init_learner(cfg, 2, 2, seed=0)
    batch = id_batch(obs=np.zeros((2, 2)), action=np.array([0, 1]),
                     reward=np.array([np.inf, 0.0]), next_obs=np.zeros((2, 2)),
                     terminal=np.zeros(2, bool))
    with pytest.raises(NanLossError) as err:
        train_step(state, cfg, batch)
    assert err.value.family == "conservative_q"
    assert "q_loss" in err.value.losses


@pytest.mark.parametrize("family", FAMILIES)
def test_training_is_bitwise_deterministic(family):
    ds = make_dataset([[1.0, 0.0], [0.5], [2.0, -1.0]])
    cfg = AlgoConfig(family=family, hidden_units=8, lr=1e-3, batch_size=4, total_steps=1)

    def run():
        state = init_learner(cfg, ds.meta.obs_dim, 2, seed=6)
        rng = np.random.default_rng(0)
        for _ in range(30):
            idx = rng.integers(0, len(ds), 4)
            train_step(state, cfg, _dataset_batch(ds, idx))
        return state

    a, b = run(), run()
    for name in a.nets:
        for wa, wb in zip(a.nets[name].weights, b.nets[name].weights):
            assert np.array_equal(wa, wb)


def test_timeout_transitions_bootstrap():
    # one terminal and one timeout transition with identical rewards: the
    # fitted Q must differ because only the timeout row bootstraps. A batch
    # carries no timeout flag: a timeout row is one whose terminal is False
    obs = np.array([[0.0, 0.0], [1.0, 1.0]])
    batch = id_batch(obs=obs, action=np.array([0, 0]), reward=np.array([1.0, 1.0]),
                     next_obs=np.array([[0.5, 0.5], [0.5, 0.5]]),
                     terminal=np.array([True, False]))
    cfg = AlgoConfig(family="conservative_q", gamma=0.9, cql_weight=0.0, lr=3e-3,
                     hidden_units=16, target_update_period=25)
    state = init_learner(cfg, 2, 2, seed=8)
    for _ in range(1500):
        train_step(state, cfg, batch)
    q = forward(state.nets["q"], obs)[:, 0]
    v_next = forward(state.targets["q"], np.array([[0.5, 0.5]])).max()
    assert q[0] == pytest.approx(1.0, abs=0.05)
    assert q[1] == pytest.approx(1.0 + 0.9 * v_next, abs=0.1)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        AlgoConfig(family="dqn")
    with pytest.raises(ValueError):
        AlgoConfig(gamma=1.5)
    with pytest.raises(ValueError):
        AlgoConfig(tau_expectile=1.0)
    with pytest.raises(ValueError):
        AlgoConfig(beta_awr=0.0)
    with pytest.raises(ValueError):
        AlgoConfig(batch_size=0)


def _trained_learner(family, steps=3):
    """A learner after a few steps, so every net has non-zero Adam moments."""
    ds = make_dataset([[1.0, 0.0, 2.0], [0.5], [2.0, -1.0, 0.5]], obs_dim=2, n_actions=3,
                      seed=3, returns_as_rewards=True)
    cfg = AlgoConfig(family=family, hidden_units=8, lr=1e-2, batch_size=6, gamma=0.9)
    state = init_learner(cfg, 2, 3, seed=2)
    rng = np.random.default_rng(1)
    for _ in range(steps):
        train_step(state, cfg, _dataset_batch(ds, rng.integers(0, len(ds), 6)))
    return cfg, state, _dataset_batch(ds, rng.integers(0, len(ds), 6))


@pytest.mark.parametrize("family", FAMILIES)
def test_freeze_head_step_moves_only_backbones(family):
    cfg, state, batch = _trained_learner(family)
    before = {name: (net.params.copy(), state.opts[name].m.copy(), state.opts[name].v.copy())
              for name, net in state.nets.items()}
    train_step(state, cfg, batch, freeze_head=True)
    for name, net in state.nets.items():
        params, m, v = before[name]
        hs = net.head_start
        assert net.head_params().tobytes() == params[hs:].tobytes()
        assert state.opts[name].m[hs:].tobytes() == m[hs:].tobytes()
        assert state.opts[name].v[hs:].tobytes() == v[hs:].tobytes()
        assert not np.array_equal(net.params[:hs], params[:hs])


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("family", FAMILIES)
def test_q_loss_uses_the_family_bootstrap_value(family):
    cfg, state, batch = _trained_learner(family)
    (obs, nobs), act = _rows(batch), batch["action"]
    q_next = forward(state.targets["q"], nobs)
    next_value = {
        "expectile_awr": lambda: forward(state.nets["v"], nobs)[:, 0],
        "exp_adv_regression": lambda: (_softmax_rows(forward(state.nets["policy"], nobs))
                                       * q_next).sum(axis=1),
    }.get(family, lambda: q_next.max(axis=1))()
    target = batch["reward"] + cfg.gamma * (1.0 - batch["terminal"]) * next_value
    q_sa = forward(state.nets["q"], obs)[np.arange(len(act)), act]
    assert 0 < batch["terminal"].sum() < len(act)
    losses = train_step(state, cfg, batch)
    assert losses["q_loss"] == pytest.approx(np.mean((q_sa - target) ** 2), rel=1e-12)


def test_reported_cql_penalty_is_batch_mean_of_row_penalties():
    cfg, state, batch = _trained_learner("conservative_q")
    q_all = forward(state.nets["q"], _rows(batch)[0])
    rows = [cql_penalty(q_all[i], int(a)) for i, a in enumerate(batch["action"])]
    losses = train_step(state, cfg, batch)
    assert abs(losses["cql_penalty"] - np.mean(rows)) <= 1e-12


def _logsumexp(z):
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def _per_row_reference(state, cfg, batch):
    """The step's losses and gradients with every net run over all batch rows."""
    (obs, nobs), act = _rows(batch), batch["action"]
    b = len(act)
    rows = np.arange(b)
    family, nets, q_target = state.family, state.nets, state.targets["q"]
    losses, grad_outs = {}, {}
    q_all, q_cache = forward_cache(nets["q"], obs)
    q_sa = q_all[rows, act]
    if family == "expectile_awr":
        v_s, v_cache = forward_cache(nets["v"], obs)
        u = forward(q_target, obs)[rows, act] - v_s[:, 0]
        losses["v_loss"] = expectile_loss(u, cfg.tau_expectile)
        w_exp = np.where(u < 0, 1.0 - cfg.tau_expectile, cfg.tau_expectile)
        grad_outs["v"] = (v_cache, (-2.0 * w_exp * u / b)[:, None])
        next_value = forward(nets["v"], nobs)[:, 0]
    elif family == "exp_adv_regression":
        next_value = (_softmax_rows(forward(nets["policy"], nobs))
                      * forward(q_target, nobs)).sum(axis=1)
    else:
        next_value = forward(q_target, nobs).max(axis=1)
    td = q_sa - (batch["reward"] + cfg.gamma * (1.0 - batch["terminal"]) * next_value)
    losses["q_loss"] = np.mean(td * td)
    dq = np.zeros_like(q_all)
    dq[rows, act] = 2.0 * td / b
    if family == "conservative_q":
        losses["cql_penalty"] = np.mean(_logsumexp(q_all) - q_sa)
        dq += cfg.cql_weight * _softmax_rows(q_all) / b
        dq[rows, act] -= cfg.cql_weight / b
    grad_outs["q"] = (q_cache, dq)
    if "policy" in nets:
        logits, p_cache = forward_cache(nets["policy"], obs)
        probs = _softmax_rows(logits)
        logp = logits - _logsumexp(logits)[:, None]
        if family == "q_plus_bc":
            q_pi = (probs * q_all).sum(axis=1)
            lam = cfg.bc_q_scale / (np.abs(q_pi).mean() + 1e-8)
            losses["policy_loss"] = -lam * q_pi.mean() - cfg.bc_weight * np.mean(logp[rows, act])
            dlogits = (-lam * probs * (q_all - q_pi[:, None]) + cfg.bc_weight * probs) / b
            dlogits[rows, act] -= cfg.bc_weight / b
        else:
            adv = u if family == "expectile_awr" else q_sa - (probs * q_all).sum(axis=1)
            w = awr_weight(adv, cfg.beta_awr, cfg.w_max)
            losses["policy_loss"] = -np.mean(w * logp[rows, act])
            dlogits = w[:, None] * probs
            dlogits[rows, act] -= w
            dlogits /= b
        grad_outs["policy"] = (p_cache, dlogits)
    grads = {name: backward(nets[name], cache, g)[0] for name, (cache, g) in grad_outs.items()}
    return losses, grads


def _preset_learner(family, preset_dataset, steps=3, preset="replay_analog"):
    """A learner a few steps into training on ``preset``, and a 128-row batch."""
    ds = preset_dataset(preset)
    cfg = AlgoConfig(family=family, batch_size=128, lr=1e-2)
    state = init_learner(cfg, ds.meta.obs_dim, ds.meta.action["discrete"], seed=3)
    rng = np.random.default_rng(7)
    for _ in range(steps):
        train_step(state, cfg, ds.batch(rng.integers(0, len(ds), 128)))
    return cfg, state, ds.batch(rng.integers(0, len(ds), 128)), rng


def _n_distinct(x):
    return len(np.unique(x, axis=0))


def _all_states_batch(mdp, rng):
    """One row for each state of ``mdp``, walls included, each with a random action."""
    s, a = np.arange(mdp.n_states), rng.integers(0, mdp.n_actions, mdp.n_states)
    return id_batch(obs=mdp.obs_table, action=a, reward=mdp.reward[s, a],
                    next_obs=mdp.obs_table[mdp.next_state[s, a]], terminal=mdp.terminal[s, a])


@pytest.mark.parametrize("freeze_head", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rows", ["preset", "all_distinct"])
def test_distinct_row_step_hands_adam_the_per_row_gradients(
        family, freeze_head, rows, preset_dataset, monkeypatch):
    # all_distinct: every state of sparse_hard_analog's 100-state maze once, the
    # widest table a batch of states can reach
    preset = "sparse_hard_analog" if rows == "all_distinct" else "replay_analog"
    cfg, state, batch, rng = _preset_learner(family, preset_dataset, preset=preset)
    if rows == "all_distinct":
        batch = _all_states_batch(env_from_name(PRESETS[preset].mdp_name), rng)
        assert _n_distinct(_rows(batch)[0]) == len(batch["obs_id"]) == 100
    else:
        assert all(_n_distinct(x) < 64 for x in _rows(batch))
    ref_losses, ref_grads = _per_row_reference(state, cfg, batch)
    names = {id(net): name for name, net in state.nets.items()}
    got = {}
    apply_update = algos.apply_update

    def spy(net, grads, opt, freeze_head=False):
        got[names[id(net)]] = grads.copy()
        return apply_update(net, grads, opt, freeze_head=freeze_head)

    monkeypatch.setattr(algos, "apply_update", spy)
    losses = train_step(state, cfg, batch, freeze_head=freeze_head)
    assert losses.keys() == ref_losses.keys()
    for key, ref in ref_losses.items():
        assert abs(losses[key] - ref) <= 1e-12 * abs(ref), key
    # gradients, not post-Adam parameters: Adam's first step turns a sign flip
    # of a near-zero gradient into a full-size parameter change
    assert got.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert np.abs(got[name] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), name


@pytest.mark.parametrize("family", FAMILIES)
def test_every_net_runs_once_per_distinct_input_row(family, preset_dataset, monkeypatch):
    cfg, state, batch, _ = _preset_learner(family, preset_dataset, steps=0)
    tables = [np.unique(x, axis=0) for x in _rows(batch)]
    assert all(len(t) < 128 for t in tables)
    calls = {"forward": 0, "forward_cache": 0}

    def counting(name, fn):
        def wrapped(net, x):
            calls[name] += 1
            assert any(np.array_equal(np.unique(x, axis=0), t) for t in tables)
            assert len(x) == _n_distinct(x)
            return fn(net, x)
        return wrapped

    for name in calls:
        monkeypatch.setattr(algos, name, counting(name, getattr(algos, name)))
    train_step(state, cfg, batch)
    # the call counts of a per-row step: one forward per net and input it reads
    assert calls == {"expectile_awr": {"forward": 2, "forward_cache": 3},
                     "conservative_q": {"forward": 1, "forward_cache": 1},
                     "exp_adv_regression": {"forward": 2, "forward_cache": 2},
                     "q_plus_bc": {"forward": 1, "forward_cache": 2}}[family]


def _learner_bytes(state):
    """Every byte a step writes: params, target params and Adam moments."""
    return {**{f"{name}.params": net.params.tobytes() for name, net in state.nets.items()},
            **{f"target.{name}": net.params.tobytes() for name, net in state.targets.items()},
            **{f"{name}.{k}": getattr(opt, k).tobytes()
               for name, opt in state.opts.items() for k in ("m", "v")}}


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("family", FAMILIES)
def test_train_step_equals_the_reference_step_bit_for_bit(family, activation, preset_dataset):
    # no digest, so it holds on any CPU: both steps make the same BLAS calls. A
    # batch of 100 and weights off 1: dividing by a power of two would be exact
    # and hide a change in operation order
    ds = preset_dataset("replay_analog")
    cfg = AlgoConfig(family=family, batch_size=100, lr=3e-3, target_update_period=10,
                     cql_weight=0.3, bc_weight=0.7, activation=activation)
    rng = np.random.default_rng(5)
    nets = None
    # stage one from a fresh init, then stage two as dered runs it: resumed
    # nets, backbone lr x 0.1, frozen heads, fresh moments
    for mult, freeze_head in ((1.0, False), (0.1, True)):
        fast, ref = (init_learner(cfg, ds.meta.obs_dim, ds.meta.action["discrete"], seed=9,
                                  backbone_mult=mult) for _ in range(2))
        for state in (fast, ref) if nets is not None else ():  # stage two resumes
            for name, net in state.nets.items():
                net.copy_from(nets[name])
            state.targets["q"].copy_from(state.nets["q"])
        fast_losses, ref_losses = [], []
        for _ in range(50):
            batch = ds.batch(rng.integers(0, len(ds), cfg.batch_size))
            fast_losses.append(train_step(fast, cfg, batch, freeze_head=freeze_head))
            ref_losses.append(reference_train_step(ref, cfg, batch, freeze_head=freeze_head))
        assert [row.keys() for row in fast_losses] == [row.keys() for row in ref_losses]
        assert all(np.array(list(f.values())).tobytes() == np.array(list(r.values())).tobytes()
                   for f, r in zip(fast_losses, ref_losses))
        assert _learner_bytes(fast) == _learner_bytes(ref)
        nets = fast.nets


# the 400-state maze: its ids are uint16, the presets' (at most 100 states) uint8
_WIDE_MAZE = GeneratorConfig(mdp_name="grid_maze-20-80", n_trajectories=150,
                             mixture=((0.3, 0.5), (0.9, 0.5)), seed=3)


@pytest.mark.parametrize("name", [*PRESETS, "grid_maze-20-80"])
def test_state_id_tables_equal_the_void_unique_byte_for_byte(name, preset_dataset):
    # the property that keeps every report byte: the distinct table and inverse
    # train_step builds from ids are the ones np.unique gives over void rows
    if name in PRESETS:
        ds = preset_dataset(name)
    else:
        ds = generate_dataset(_WIDE_MAZE)
        ds.map_states(env_from_name(name).obs_table, env_from_name(name).next_state)
    mdp = env_from_name(ds.meta.env_name)
    ranked, _ = distinct_rows(mdp.obs_table)  # every state, in byte order
    assert ds.states[0].dtype == (np.uint16 if mdp.n_states > 256 else np.uint8)
    # each obs id is the rank of its row among all states
    obs = ds.states[2][ds.states[0]]
    assert np.array_equal(ds.states[0], distinct_rows(np.vstack([ranked, obs]))[1][len(ranked):])
    rng = np.random.default_rng(11)
    batches = [ds.batch(rng.integers(0, len(ds), size)) for size in (1, 5, 128, 2048)]
    for size in (1, 5, 128, 2048):  # ids over every state, walls and unvisited states included
        ids = rng.integers(0, mdp.n_states, size).astype(ds.states[0].dtype)
        batches.append({"states": ranked, "obs_id": ids, "next_obs_id": ids[::-1]})
    for batch in batches:
        for key in ("obs_id", "next_obs_id"):
            table, inverse = algos._state_table(batch["states"], batch[key])
            want_table, want_inverse = distinct_rows(batch["states"][batch[key]])
            assert table.shape == want_table.shape and table.tobytes() == want_table.tobytes()
            assert inverse.dtype == want_inverse.dtype
            assert inverse.tobytes() == want_inverse.tobytes()
