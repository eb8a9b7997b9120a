"""Experiment orchestration: training runs, evaluation protocol, reports.

Every run is a pure function of (config, root seed). All randomness derives
from the root seed through named streams: ``stream_seed(root, name)`` hashes
``"{root}:{name}"`` with blake2b and takes the low 64 bits. Stream names are
``"init/{seed}"``, ``"sampler/{seed}"`` and ``"dataset"``, so comparison arms
share dataset bits and net initializations by construction and differ only in
their sampler specification.

Scores follow the usual normalization 100 * (raw - random) / (expert -
random) against the environment's reference policies, and aggregates are the
mean over the final K evaluations, then over seeds.

Each experiment prepares and checksums its dataset once; each sampler arm
builds its table once and its seeds share it.

Every runner (:func:`run_training`, :func:`two_stage_train`,
:func:`sweep_pbase`, :func:`compare_rebalance_methods`) returns
``(report, timing, losses)``. The report is a plain dict whose JSON is
byte-deterministic (report.json); its per-seed results sit in
``{per_seed, aggregate, flags}`` blocks: the report itself for a run, its
``stage1`` and ``stage2`` for a two-stage run, each entry of ``reports`` for
a sweep or comparison. ``losses`` holds each block's loss rows,
``{seed: [(step, {loss name: value}), ...]}``, under the stage or arm label
where there is one. ``timing`` (timing.json) holds the wall-clock numbers,
kept out of the report so repeated runs give identical report bytes. Per
seed it holds ``sampler_build_s`` (the arm's single cold build, the same for
every seed of the arm), ``train_s``, ``eval_s``, their sum ``total_s`` and
``overhead_fraction = sampler_build_s / total_s``.
"""

import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .algos import AlgoConfig, NanLossError, extract_policy, init_learner, train_step
from .dataset import OfflineDataset, compute_trajectory_returns, load_dataset
from .envsuite import env_from_name, generate_dataset, preset_config
from .nncore import load_checkpoint, save_checkpoint
from .sampler import SamplerSpec, build_sampler


class ConfigError(ValueError):
    """Invalid experiment configuration or override."""


def stream_seed(root: int, name: str) -> int:
    """Derive a 64-bit seed for a named stream from the root seed."""
    digest = hashlib.blake2b(f"{root}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class DatasetSource:
    """Either a generator preset (with optional overrides) or a dataset file."""

    preset: str | None = None
    path: str | None = None
    seed: int | None = None
    n_trajectories: int | None = None

    def __post_init__(self):
        if (self.preset is None) == (self.path is None):
            raise ConfigError("dataset needs exactly one of 'preset' or 'path'")

    @property
    def label(self) -> str:
        return self.preset if self.preset is not None else self.path


@dataclass(frozen=True)
class EvalConfig:
    eval_every: int = 1000
    episodes_per_eval: int = 10
    final_k: int = 10
    seeds: tuple = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if min(self.eval_every, self.episodes_per_eval, self.final_k) < 1:
            raise ConfigError("eval_every, episodes_per_eval and final_k must be >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


@dataclass(frozen=True)
class DeredConfig:
    """Two-stage schedule: uniform pretrain, then rebalanced finetune.

    Stage two multiplies the backbone learning rate (0.1 by default) and,
    unless ``freeze_head`` is disabled, leaves every head bitwise untouched.
    """

    stage1_steps: int = 10_000
    stage2_steps: int = 4_000
    backbone_lr_mult: float = 0.1
    freeze_head: bool = True

    def __post_init__(self):
        if self.stage1_steps < 1 or self.stage2_steps < 0:
            raise ConfigError("stage1_steps must be >= 1 and stage2_steps >= 0")
        if self.backbone_lr_mult < 0:
            raise ConfigError("backbone_lr_mult must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSource
    algo: AlgoConfig = AlgoConfig()
    sampler: SamplerSpec = SamplerSpec()
    eval: EvalConfig = EvalConfig()
    dered: DeredConfig | None = None
    root_seed: int = 0


# ---------------------------------------------------------------------------
# config <-> JSON

def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["eval"]["seeds"] = list(cfg.eval.seeds)
    return out


def _build_dataclass(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        kwargs[name] = _coerce_field(fields[name], value, f"{path}.{name}")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_NESTED = {
    "dataset": DatasetSource,
    "algo": AlgoConfig,
    "sampler": SamplerSpec,
    "eval": EvalConfig,
    "dered": DeredConfig,
}


def _coerce_field(fld, value, path: str):
    if value is None:
        return None
    if fld.name in _NESTED and isinstance(value, dict):
        return _build_dataclass(_NESTED[fld.name], value, path)
    if fld.type in ("int", int):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if fld.type in ("float", float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if fld.type in ("bool", bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if fld.type in ("str", str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if fld.name == "seeds":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list of integers")
        return tuple(value)
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build_dataclass(ExperimentConfig, data, "config")


def apply_overrides(data: dict, overrides) -> dict:
    """Apply dotted-path key=value overrides to a raw config dict.

    Values parse as JSON when possible (so ``eval.seeds=[0,1]`` works) and
    fall back to strings. Unknown paths are rejected during validation.
    """
    out = json.loads(json.dumps(data))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {dotted!r}: {part!r} is not an object")
            node = nxt
        node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# dataset / environment plumbing

def prepare_dataset(source: DatasetSource):
    """Resolve a dataset source to (dataset, trajectory returns, environment)."""
    if source.path is not None:
        ds = load_dataset(source.path)
    else:
        ds = generate_dataset(preset_config(source.preset, seed=source.seed,
                                            n_trajectories=source.n_trajectories))
    tr = compute_trajectory_returns(ds)
    mdp = env_from_name(ds.meta.env_name)
    return ds, tr, mdp


def dataset_checksum(ds: OfflineDataset) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (ds.obs, ds.actions, ds.rewards, ds.next_obs, ds.terminals, ds.timeouts):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(ds.traj_bounds).encode())
    h.update(json.dumps(dataclasses.asdict(ds.meta), sort_keys=True).encode())
    return h.hexdigest()


def normalized_score(raw: float, refs: dict) -> float:
    """100 * (raw - random) / (expert - random); negative scores allowed."""
    random_ref, expert_ref = refs["random"], refs["expert"]
    if not expert_ref > random_ref:
        raise ValueError(f"degenerate reference scores: {refs}")
    return 100.0 * (raw - random_ref) / (expert_ref - random_ref)


def evaluate_policy(mdp, policy_fn, episodes: int) -> float:
    """Mean return of the greedy policy over the given number of rollouts."""
    actions = np.asarray(policy_fn(mdp.obs_table), dtype=np.int64)
    states = np.full(episodes, mdp.start_state, dtype=np.int64)
    alive = np.ones(episodes, dtype=bool)
    total = np.zeros(episodes)
    for _ in range(mdp.horizon):
        a = actions[states]
        total += np.where(alive, mdp.reward[states, a], 0.0)
        ended = alive & mdp.terminal[states, a]
        states = np.where(alive, mdp.next_state[states, a], states)
        alive &= ~ended
        if not alive.any():
            break
    return float(total.mean())


# ---------------------------------------------------------------------------
# single-seed training

@dataclass
class SeedResult:
    seed: int
    eval_steps: list
    eval_returns: list
    final_k_mean_raw: float | None
    final_k_mean_normalized: float | None
    aborted: bool
    abort_step: int | None
    flags: list
    losses: list          # rows of (step, {loss name: value})
    timing: dict
    state: object = None  # final LearnerState; not serialized


def _eval_points(total_steps: int, eval_every: int) -> list:
    if total_steps == 0:
        return [0]
    points = list(range(eval_every, total_steps + 1, eval_every))
    if not points or points[-1] != total_steps:
        points.append(total_steps)
    return points


def train_single_seed(ds, mdp, algo_cfg: AlgoConfig, arm_sampler, build_s: float,
                      eval_cfg: EvalConfig, root_seed: int, seed: int,
                      total_steps: int | None = None, resume_nets: dict | None = None,
                      freeze_head: bool = False, backbone_mult: float = 1.0) -> SeedResult:
    """Train one seed on the arm's sampler (built once, in ``build_s`` seconds)
    with the seed's own ``"sampler/{seed}"`` stream; evaluate on schedule."""
    steps = algo_cfg.total_steps if total_steps is None else total_steps
    refs = mdp.reference_scores
    flags = []

    sampler = arm_sampler.with_seed(stream_seed(root_seed, f"sampler/{seed}"))
    state = init_learner(algo_cfg, ds.meta.obs_dim, mdp.n_actions,
                         stream_seed(root_seed, f"init/{seed}"),
                         backbone_mult=backbone_mult)
    if resume_nets is not None:
        for name, net in resume_nets.items():
            if name in state.nets:
                state.nets[name].copy_from(net)
        state.targets["q"].copy_from(state.nets["q"])

    eval_points = set(_eval_points(steps, eval_cfg.eval_every))
    eval_steps, eval_returns, losses = [], [], []
    aborted, abort_step = False, None
    train_s = 0.0
    eval_s = 0.0

    if steps == 0:
        t1 = time.perf_counter()
        ret = evaluate_policy(mdp, extract_policy(state), eval_cfg.episodes_per_eval)
        eval_s += time.perf_counter() - t1
        eval_steps, eval_returns = [0], [ret]

    for step in range(1, steps + 1):
        t1 = time.perf_counter()
        idx = sampler.sample_batch(algo_cfg.batch_size)
        batch = ds.batch(idx)
        try:
            step_losses = train_step(state, algo_cfg, batch, freeze_head=freeze_head)
        except NanLossError as exc:
            aborted, abort_step = True, step
            flags.append(f"nan abort at step {step}: {exc.losses}")
            train_s += time.perf_counter() - t1
            break
        train_s += time.perf_counter() - t1
        losses.append((step, step_losses))
        if step in eval_points:
            t1 = time.perf_counter()
            ret = evaluate_policy(mdp, extract_policy(state), eval_cfg.episodes_per_eval)
            eval_s += time.perf_counter() - t1
            eval_steps.append(step)
            eval_returns.append(ret)

    if eval_returns:
        k = min(eval_cfg.final_k, len(eval_returns))
        if k < eval_cfg.final_k:
            flags.append(f"final_k clamped from {eval_cfg.final_k} to {k} "
                         f"(only {len(eval_returns)} evaluations)")
            warnings.warn(flags[-1], RuntimeWarning, stacklevel=2)
        raw = float(np.mean(eval_returns[-k:]))
        final_raw, final_norm = raw, normalized_score(raw, refs)
    else:
        final_raw = final_norm = None

    total_s = build_s + train_s + eval_s
    timing = {
        "sampler_build_s": build_s,
        "train_s": train_s,
        "eval_s": eval_s,
        "total_s": total_s,
        "overhead_fraction": build_s / total_s if total_s > 0 else 0.0,
    }
    return SeedResult(seed=seed, eval_steps=eval_steps, eval_returns=eval_returns,
                      final_k_mean_raw=final_raw, final_k_mean_normalized=final_norm,
                      aborted=aborted, abort_step=abort_step, flags=flags,
                      losses=losses, timing=timing, state=state)


# ---------------------------------------------------------------------------
# reports

def _aggregate(per_seed: list) -> dict:
    norm = [s["final_k_mean_normalized"] for s in per_seed
            if s["final_k_mean_normalized"] is not None]
    raw = [s["final_k_mean_raw"] for s in per_seed if s["final_k_mean_raw"] is not None]
    agg = {
        "mean_normalized": float(np.mean(norm)) if norm else None,
        "std_normalized": float(np.std(norm)) if norm else None,
        "mean_raw": float(np.mean(raw)) if raw else None,
        "std_raw": float(np.std(raw)) if raw else None,
        "aborted_seeds": [s["seed"] for s in per_seed if s["aborted"]],
    }
    return agg


def _seed_payload(res: SeedResult, refs: dict) -> dict:
    return {
        "seed": res.seed,
        "eval_steps": res.eval_steps,
        "eval_returns": res.eval_returns,
        "eval_normalized": [normalized_score(r, refs) for r in res.eval_returns],
        "final_k_mean_raw": res.final_k_mean_raw,
        "final_k_mean_normalized": res.final_k_mean_normalized,
        "aborted": res.aborted,
        "abort_step": res.abort_step,
        "flags": res.flags,
    }


def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_-*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get_n, set_n = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_n.argtypes, get_n.restype = [], ctypes.c_int
    set_n.argtypes, set_n.restype = [ctypes.c_int], None
    return get_n, set_n


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS uses, or None if it was not found."""
    fns = _openblas()
    return None if fns is None else fns[0]()


def pin_blas_threads():
    """One BLAS thread in this process, unless OPENBLAS_NUM_THREADS is set: on
    these small nets more threads cost CPU and gain no wall time."""
    fns = None if "OPENBLAS_NUM_THREADS" in os.environ else _openblas()
    if fns is not None:
        fns[1](1)


_WORKER_TASK = None  # (job, shared) of the pool this worker process serves


def _init_worker(job, shared):
    global _WORKER_TASK
    pin_blas_threads()
    _WORKER_TASK = job, shared


def _worker_seed_job(seed):
    job, shared = _WORKER_TASK
    return job(shared, seed)


def _map_seeds(job, shared, seeds, jobs: int) -> list:
    """``[job(shared, seed) for seed in seeds]`` in up to ``jobs`` processes.
    ``shared`` reaches each worker once, through the pool initializer (not
    pickled at all under ``fork``); each task carries only its seed."""
    workers = min(jobs, len(seeds))
    if workers <= 1:
        return [job(shared, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(job, shared)) as pool:
        return list(pool.map(_worker_seed_job, seeds))


def _prepare(source: DatasetSource):
    """The static work of an experiment: (dataset, returns, environment, checksum)."""
    ds, tr, mdp = prepare_dataset(source)
    return ds, tr, mdp, dataset_checksum(ds)


def _timed_build(spec: SamplerSpec, ds, tr):
    """Build an arm's sampler table once; returns (sampler, seconds)."""
    t0 = time.perf_counter()
    sampler = build_sampler(spec, ds, tr)
    return sampler, time.perf_counter() - t0


def _stage(results: list, refs: dict):
    """(block, timing, losses) of one arm or stage: the report's
    ``{per_seed, aggregate, flags}`` block, plus per-seed timings and loss
    rows keyed by string seed."""
    per_seed = [_seed_payload(r, refs) for r in results]
    block = {"per_seed": per_seed, "aggregate": _aggregate(per_seed),
             "flags": sorted({f for r in results for f in r.flags})}
    timing = {str(r.seed): r.timing for r in results}
    return block, timing, {str(r.seed): r.losses for r in results}


def _run_header(kind: str, cfg: ExperimentConfig, refs: dict, checksum: str) -> dict:
    return {"kind": kind, "config": config_to_dict(cfg), "task": cfg.dataset.label,
            "refs": refs, "dataset_checksum": checksum}


def _seed_job(shared, seed):
    ds, mdp, cfg, sampler, build_s = shared
    res = train_single_seed(ds, mdp, cfg.algo, sampler, build_s, cfg.eval, cfg.root_seed, seed)
    res.state = None  # pickles cheaply back from worker processes
    return res


def _run_arm(cfg: ExperimentConfig, prepared, jobs: int = 1):
    """One sampler arm on prepared data: build its table once, train every
    seed; returns (report, timing, losses)."""
    ds, tr, mdp, checksum = prepared
    refs = mdp.reference_scores
    sampler, build_s = _timed_build(cfg.sampler, ds, tr)
    results = _map_seeds(_seed_job, (ds, mdp, cfg, sampler, build_s), cfg.eval.seeds, jobs)
    block, timing, losses = _stage(results, refs)
    report = {**_run_header("experiment", cfg, refs, checksum), **block}
    return report, {"per_seed": timing}, losses


def run_training(cfg: ExperimentConfig, jobs: int = 1):
    """Single-stage run over all seeds; returns (report, timing, losses)."""
    return _run_arm(cfg, _prepare(cfg.dataset), jobs)


def _two_stage_seed_job(shared, seed):
    """One seed of two-stage training; returns (stage-1, stage-2, heads equal).

    Stage one trains ``stage1_steps`` on the uniform table and is saved to
    ``<ckpt_dir>/stage1_seed{seed}.orck``. Stage two reloads that file and
    trains ``stage2_steps`` on the stage-two table. Both tables come built,
    with their build seconds. Results drop their learner state so they
    pickle cheaply back from worker processes.
    """
    ds, mdp, cfg, (stage1, build1_s), (stage2, build2_s), ckpt_dir = shared
    dered = cfg.dered

    res1 = train_single_seed(ds, mdp, cfg.algo, stage1, build1_s, cfg.eval,
                             cfg.root_seed, seed, total_steps=dered.stage1_steps)
    path = os.path.join(ckpt_dir, f"stage1_seed{seed}.orck")
    save_checkpoint(path, res1.state.nets)
    nets, _ = load_checkpoint(path)
    # init_learner inside train_single_seed builds fresh optimizer moments
    res2 = train_single_seed(ds, mdp, cfg.algo, stage2, build2_s, cfg.eval,
                             cfg.root_seed, seed, total_steps=dered.stage2_steps,
                             resume_nets=nets, freeze_head=dered.freeze_head,
                             backbone_mult=dered.backbone_lr_mult)
    heads_equal = all(res2.state.nets[name].head_params().tobytes()
                      == net.head_params().tobytes() for name, net in nets.items())
    res1.state = res2.state = None
    return res1, res2, heads_equal


def two_stage_train(cfg: ExperimentConfig, out_dir=None, jobs: int = 1):
    """Uniform pretrain, checkpoint, then rebalanced head-frozen finetune.

    Stage two resumes from the stage-one checkpoint file, multiplies the
    backbone learning rate by ``backbone_lr_mult`` and freezes the heads when
    configured. Optimizer moments restart fresh in stage two. Checkpoints are
    written as ``stage1_seed{seed}.orck`` under ``out_dir``, or under a
    temporary directory that is removed afterwards when ``out_dir`` is None.

    Returns ``(report, timing, losses)``. The report's ``stage2`` block
    records, per seed, whether the head parameters stayed bitwise identical
    to the checkpoint; timing and losses are shaped
    ``{"stage1": {seed: ...}, "stage2": {seed: ...}}`` with string seed keys.
    """
    if cfg.dered is None:
        raise ConfigError("two_stage_train requires the 'dered' config block")
    ds, tr, mdp, checksum = _prepare(cfg.dataset)
    refs = mdp.reference_scores
    dered = cfg.dered
    # one table per stage, shared by every seed; stage two rebalances even
    # when the config says uniform
    tables = (_timed_build(replace(cfg.sampler, mode="uniform"), ds, tr),
              _timed_build(cfg.sampler if cfg.sampler.mode != "uniform" else replace(
                  cfg.sampler, mode="return_resample"), ds, tr))

    if out_dir is None:
        ckpt_ctx = tempfile.TemporaryDirectory()
    else:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_ctx = contextlib.nullcontext(out_dir)
    with ckpt_ctx as ckpt_dir:
        results = _map_seeds(_two_stage_seed_job, (ds, mdp, cfg, *tables, ckpt_dir),
                             cfg.eval.seeds, jobs)

    for seed, (_, _, heads_equal) in zip(cfg.eval.seeds, results):
        if dered.freeze_head and not heads_equal:
            raise RuntimeError(f"seed {seed}: frozen heads changed during stage 2")

    (s1, t1, l1), (s2, t2, l2) = (_stage([r[i] for r in results], refs) for i in (0, 1))
    s2["head_checks"] = [{"seed": seed, "heads_bitwise_equal": bool(heads_equal)}
                         for seed, (_, _, heads_equal) in zip(cfg.eval.seeds, results)]
    m1, m2 = s1["aggregate"]["mean_normalized"], s2["aggregate"]["mean_normalized"]
    report = {**_run_header("two_stage", cfg, refs, checksum), "stage1": s1, "stage2": s2,
              "stage2_minus_stage1": None if m1 is None or m2 is None else m2 - m1}
    return report, {"stage1": t1, "stage2": t2}, {"stage1": l1, "stage2": l2}


def _arms_table(kind: str, cfg: ExperimentConfig, key: str, labels: list, runs: dict):
    """(table, timing, losses) of a multi-arm experiment, keyed by arm label."""
    reports = {a: runs[a][0] for a in labels}
    table = {
        "kind": kind,
        "task": cfg.dataset.label,
        key: labels,
        "scores": {a: reports[a]["aggregate"]["mean_normalized"] for a in labels},
        "stds": {a: reports[a]["aggregate"]["std_normalized"] for a in labels},
        "reports": reports,
    }
    return table, {a: runs[a][1] for a in labels}, {a: runs[a][2] for a in labels}


def sweep_pbase(cfg: ExperimentConfig, values, jobs: int = 1):
    """One arm per p_base value on one prepared dataset; the infinity column
    is the uniform sampler."""
    if not values:
        raise ConfigError("need at least one p_base value")
    prepared = _prepare(cfg.dataset)
    columns, runs = [], {}
    for v in values:
        if isinstance(v, str) and v.lower() in ("inf", "infinity"):
            label = "inf"
            arm = replace(cfg, sampler=replace(cfg.sampler, mode="uniform"))
        else:
            label = repr(float(v))
            arm = replace(cfg, sampler=replace(cfg.sampler, mode="return_resample",
                                               p_base=float(v)))
        runs[label] = _run_arm(arm, prepared, jobs)
        columns.append(label)
    return _arms_table("pbase_sweep", cfg, "columns", columns, runs)


COMPARE_ARMS = ("uniform", "return_resample", "reward_resample", "top_fraction")


def compare_rebalance_methods(cfg: ExperimentConfig, fraction: float = 0.1, jobs: int = 1):
    """Four arms (uniform / return / reward / top-fraction), same seeds and data.

    The dataset is prepared and checksummed once, so every arm sees the same
    bits by construction.
    """
    prepared = _prepare(cfg.dataset)
    runs = {}
    for arm_mode in COMPARE_ARMS:
        spec = replace(cfg.sampler, mode=arm_mode)
        if arm_mode == "top_fraction":
            spec = replace(spec, fraction=fraction)
        runs[arm_mode] = _run_arm(replace(cfg, sampler=spec), prepared, jobs)
    table, timing, losses = _arms_table("rebalance_compare", cfg, "arms", list(COMPARE_ARMS), runs)
    return {**table, "dataset_checksum": prepared[3]}, timing, losses


# ---------------------------------------------------------------------------
# serialization helpers

def dump_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def curves_csv(per_seed: list) -> str:
    lines = ["seed,step,raw_return,normalized"]
    for entry in per_seed:
        for step, raw, norm in zip(entry["eval_steps"], entry["eval_returns"],
                                   entry["eval_normalized"]):
            lines.append(f"{entry['seed']},{step},{raw!r},{norm!r}")
    return "\n".join(lines) + "\n"


def losses_csv(losses: list) -> str:
    if not losses:
        return "step\n"
    keys = sorted(losses[0][1])
    lines = ["step," + ",".join(keys)]
    for step, row in losses:
        lines.append(f"{step}," + ",".join(repr(row.get(k, float('nan'))) for k in keys))
    return "\n".join(lines) + "\n"
