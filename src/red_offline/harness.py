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

Each experiment prepares its dataset once and hashes it once, on a worker
thread; each sampler arm builds its table once and its seeds share it, each
seed one :func:`train_single_seed` job. A two-stage run is two arm passes:
stage one for every seed, then stage two for every seed. With ``jobs > 1``
each arm or stage has its own worker pool, and each worker gets that arm's
table once.

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
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .algos import AlgoConfig, NanLossError, extract_policy, init_learner, train_step
from .dataset import DatasetError, OfflineDataset, compute_trajectory_returns, load_dataset
from .envsuite import PRESETS, env_from_name, generate_dataset, policy_value, preset_config
from .nncore import load_checkpoint, save_checkpoint
from .sampler import SamplerSpec, build_sampler

# Free 4 MiB, never touched, at import: freeing an mmapped block raises glibc's
# dynamic mmap threshold to its size, so train_step's 128 KiB-and-up
# temporaries come from the heap, not a fresh mmap (and page faults) per step.
np.empty(1 << 19)


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
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; known: {sorted(PRESETS)}")
        if self.path is not None and (self.seed, self.n_trajectories) != (None, None):
            raise ConfigError("'seed' and 'n_trajectories' apply to a preset, not to a 'path'")
        if (self.seed is not None and self.seed < 0
                or self.n_trajectories is not None and self.n_trajectories < 1):
            raise ConfigError("seed must be >= 0 and n_trajectories >= 1")

    @property
    def label(self) -> str:
        return self.preset if self.preset is not None else self.path


@dataclass(frozen=True)
class EvalConfig:
    """Exact greedy evaluation every ``eval_every`` steps, scored over the last
    ``final_k``. ``episodes_per_eval`` is validated and has no effect."""

    eval_every: int = 1000
    episodes_per_eval: int = 10
    final_k: int = 10
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if min(self.eval_every, self.episodes_per_eval, self.final_k) < 1:
            raise ConfigError("eval_every, episodes_per_eval and final_k must be >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        repeated = [s for s in self.seeds if self.seeds.count(s) > 1]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} is listed more than once")


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
        if not (self.stage1_steps >= 1 and self.stage2_steps >= 0):
            raise ConfigError("stage1_steps must be >= 1 and stage2_steps >= 0")
        if not self.backbone_lr_mult >= 0:  # NaN fails too
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

config_to_dict = dataclasses.asdict

_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
             tuple: "a list"}


def _read_value(kind, value, path: str):
    """A JSON value as its field's annotation ``kind``: a nested config for a
    dataclass, None only where ``kind`` admits it, a tuple from a list."""
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        kind = args[0]
    if dataclasses.is_dataclass(kind):
        return _build_dataclass(kind, value, path)
    base = typing.get_origin(kind) or kind  # tuple[int, ...] -> tuple
    if base is tuple and isinstance(value, (list, tuple)):
        return tuple(_read_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if {int: number and integral, float: number}.get(base, isinstance(value, base)):
        return base(value)
    raise ConfigError(f"{path}: expected {_EXPECTED[base]}, got {value!r}")


def _build_dataclass(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {name: _read_value(fields[name], value, f"{path}.{name}")
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    """Resolve a dataset source to (dataset, trajectory returns, environment).

    Raises DatasetError when the dataset names an unknown environment or its
    obs_dim or action space differ from the environment's.
    """
    if source.path is not None:
        ds = load_dataset(source.path)
    else:
        ds = generate_dataset(preset_config(source.preset, seed=source.seed,
                                            n_trajectories=source.n_trajectories))
    try:
        tr = compute_trajectory_returns(ds)
        mdp = env_from_name(ds.meta.env_name)
    except ValueError as exc:  # DatasetError included
        raise DatasetError(f"{source.label}: {exc}") from exc
    fits = {"obs_dim": mdp.obs_dim, "action": {"discrete": mdp.n_actions}}
    if {"obs_dim": ds.meta.obs_dim, "action": ds.meta.action} != fits:
        raise DatasetError(f"{source.label}: dataset has obs_dim {ds.meta.obs_dim} and action "
                           f"{ds.meta.action}, but {mdp.name} needs {fits}")
    return ds, tr, mdp


def dataset_checksum(ds: OfflineDataset) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (ds.obs, ds.actions, ds.rewards, ds.next_obs, ds.terminals, ds.timeouts):
        h.update(np.ascontiguousarray(arr))
    h.update(json.dumps(ds.traj_bounds.tolist()).encode())
    h.update(json.dumps(dataclasses.asdict(ds.meta), sort_keys=True).encode())
    return h.hexdigest()


def normalized_score(raw: float, refs: dict) -> float:
    """100 * (raw - random) / (expert - random); negative scores allowed."""
    random_ref, expert_ref = refs["random"], refs["expert"]
    if not expert_ref > random_ref:
        raise ValueError(f"degenerate reference scores: {refs}")
    return 100.0 * (raw - random_ref) / (expert_ref - random_ref)


def evaluate_policy(mdp, policy_fn) -> float:
    """Exact return of the greedy policy: its one-hot action table through policy_value."""
    return policy_value(mdp, np.eye(mdp.n_actions)[policy_fn(mdp.obs_table)])


# ---------------------------------------------------------------------------
# single-seed training

def _eval_points(total_steps: int, eval_every: int) -> list:
    points = list(range(eval_every, total_steps + 1, eval_every))
    if not points or points[-1] != total_steps:
        points.append(total_steps)
    return points


def train_single_seed(shared, seed: int) -> tuple:
    """The seed job: train ``seed`` on its arm's sampler, built once in
    ``build_s`` seconds, with the seed's own ``"sampler/{seed}"`` stream, and
    evaluate on schedule. ``shared`` is ``(ds, mdp, cfg, sampler, build_s,
    (steps, ckpt_dir, resume))``; ``steps`` None means ``cfg.algo``'s. With a
    ``ckpt_dir``, stage one saves ``stage1_seed{seed}.orck`` there; stage two
    (``resume``) finetunes from that file as ``cfg.dered`` says. Returns
    ``(entry, timing, losses, heads_equal)``: the seed's report entry,
    timing.json entry and loss rows, and whether every head is still bitwise
    the file's (None unless resuming), but no learner state, so it pickles
    cheaply back from workers."""
    ds, mdp, cfg, arm_sampler, build_s, (steps, ckpt_dir, resume) = shared
    steps = cfg.algo.total_steps if steps is None else steps
    path = ckpt_dir and os.path.join(ckpt_dir, f"stage1_seed{seed}.orck")
    nets = load_checkpoint(path)[0] if resume else None
    freeze_head = resume and cfg.dered.freeze_head
    refs = mdp.reference_scores
    flags = []

    sampler = arm_sampler.with_seed(stream_seed(cfg.root_seed, f"sampler/{seed}"))
    state = init_learner(cfg.algo, ds.meta.obs_dim, mdp.n_actions,
                         stream_seed(cfg.root_seed, f"init/{seed}"),
                         backbone_mult=cfg.dered.backbone_lr_mult if resume else 1.0)
    if nets is not None:
        for name, net in nets.items():
            if name in state.nets:
                state.nets[name].copy_from(net)
        state.targets["q"].copy_from(state.nets["q"])

    eval_points = set(_eval_points(steps, cfg.eval.eval_every))
    eval_steps, eval_returns, losses = [], [], []
    aborted, abort_step = False, None
    train_s = 0.0
    eval_s = 0.0

    for step in range(steps + 1):  # step 0 trains nothing; it is an eval point iff steps == 0
        if step > 0:
            t1 = time.perf_counter()
            idx = sampler.sample_batch(cfg.algo.batch_size)
            batch = ds.batch(idx)
            try:
                step_losses = train_step(state, cfg.algo, batch, freeze_head=freeze_head)
            except NanLossError as exc:
                aborted, abort_step = True, step
                flags.append(f"nan abort at step {step}: {exc.losses}")
                train_s += time.perf_counter() - t1
                break
            train_s += time.perf_counter() - t1
            losses.append((step, step_losses))
        if step in eval_points:
            t1 = time.perf_counter()
            ret = evaluate_policy(mdp, extract_policy(state))
            eval_s += time.perf_counter() - t1
            eval_steps.append(step)
            eval_returns.append(ret)

    if eval_returns:
        k = min(cfg.eval.final_k, len(eval_returns))
        if k < cfg.eval.final_k:
            flags.append(f"final_k clamped from {cfg.eval.final_k} to {k} "
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
    entry = {
        "seed": seed,
        "eval_steps": eval_steps,
        "eval_returns": eval_returns,
        "eval_normalized": [normalized_score(r, refs) for r in eval_returns],
        "final_k_mean_raw": final_raw,
        "final_k_mean_normalized": final_norm,
        "aborted": aborted,
        "abort_step": abort_step,
        "flags": flags,
    }
    if path and not resume:
        save_checkpoint(path, state.nets)
    heads_equal = None if nets is None else all(
        state.nets[name].head_params().tobytes() == net.head_params().tobytes()
        for name, net in nets.items())
    return entry, timing, losses, heads_equal


# ---------------------------------------------------------------------------
# reports

def _aggregate(per_seed: list) -> dict:
    norm = [s["final_k_mean_normalized"] for s in per_seed
            if s["final_k_mean_normalized"] is not None]
    raw = [s["final_k_mean_raw"] for s in per_seed if s["final_k_mean_raw"] is not None]
    return {
        "mean_normalized": float(np.mean(norm)) if norm else None,
        "std_normalized": float(np.std(norm)) if norm else None,
        "mean_raw": float(np.mean(raw)) if raw else None,
        "std_raw": float(np.std(raw)) if raw else None,
        "aborted_seeds": [s["seed"] for s in per_seed if s["aborted"]],
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


@contextlib.contextmanager
def _prepare(source: DatasetSource, jobs: int):
    """The static work of an experiment: yields (dataset, returns, environment,
    checksum); ``checksum()`` returns the digest or raises what hashing raised.
    A worker thread hashes (blake2b releases the GIL) beside one-job training;
    with more jobs it is joined first, so no thread is alive at a fork."""
    ds, tr, mdp = prepare_dataset(source)
    with ThreadPoolExecutor(max_workers=1) as pool:
        digest = pool.submit(dataset_checksum, ds)  # the global, so a tracer's wrapper runs
        if jobs > 1:
            pool.shutdown()
        yield ds, tr, mdp, digest.result


def _run_header(kind: str, cfg: ExperimentConfig, refs: dict, checksum: str) -> dict:
    return {"kind": kind, "config": config_to_dict(cfg), "task": cfg.dataset.label,
            "refs": refs, "dataset_checksum": checksum}


def _run_arm(cfg: ExperimentConfig, prepared, jobs: int = 1, stage=(None, None, False)):
    """One sampler arm on prepared data: build its table once, train every
    seed at ``stage`` (see :func:`train_single_seed`; by default
    ``cfg.algo``'s steps). Returns (report, timing, losses, heads_equal per
    seed): the run header with the ``{per_seed, aggregate, flags}`` block, and
    per-seed timings and loss rows keyed by string seed."""
    ds, tr, mdp, checksum = prepared
    t0 = time.perf_counter()
    try:
        sampler = build_sampler(cfg.sampler, ds, tr)
    except DatasetError as exc:  # a non-finite return or reward
        raise DatasetError(f"{cfg.dataset.label}: {exc}") from exc
    build_s = time.perf_counter() - t0
    # the global, looked up per call, so a tracer's wrapper runs
    results = _map_seeds(train_single_seed, (ds, mdp, cfg, sampler, build_s, stage),
                         cfg.eval.seeds, jobs)
    per_seed = [entry for entry, *_ in results]
    report = {**_run_header("experiment", cfg, mdp.reference_scores, checksum()),
              "per_seed": per_seed, "aggregate": _aggregate(per_seed),
              "flags": sorted({f for entry in per_seed for f in entry["flags"]})}
    timing = {str(entry["seed"]): t for entry, t, *_ in results}
    losses = {str(entry["seed"]): rows for entry, _, rows, _ in results}
    return report, {"per_seed": timing}, losses, [heads for *_, heads in results]


def run_training(cfg: ExperimentConfig, jobs: int = 1):
    """Single-stage run over all seeds; returns (report, timing, losses)."""
    with _prepare(cfg.dataset, jobs) as prepared:
        return _run_arm(cfg, prepared, jobs)[:3]


def two_stage_train(cfg: ExperimentConfig, out_dir=None, jobs: int = 1):
    """Uniform pretrain, checkpoint, then rebalanced head-frozen finetune.

    Each stage is one arm pass over every seed. Stage two samples with the
    config's sampler, or ``return_resample`` when that is uniform. It resumes
    from the stage-one checkpoint file, multiplies the backbone learning rate
    by ``backbone_lr_mult`` and freezes the heads when configured. Optimizer
    moments restart fresh in stage two. Checkpoints are written as
    ``stage1_seed{seed}.orck`` under ``out_dir``, or under a temporary
    directory that is removed afterwards when ``out_dir`` is None.

    Returns ``(report, timing, losses)``. The report's ``stage2`` block
    records, per seed, whether the head parameters stayed bitwise identical
    to the checkpoint; timing and losses are shaped
    ``{"stage1": {seed: ...}, "stage2": {seed: ...}}`` with string seed keys.
    """
    if cfg.dered is None:
        raise ConfigError("two_stage_train requires the 'dered' config block")
    mode2 = "return_resample" if cfg.sampler.mode == "uniform" else cfg.sampler.mode
    if out_dir is None:
        ckpt_ctx = tempfile.TemporaryDirectory()
    else:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_ctx = contextlib.nullcontext(out_dir)
    with _prepare(cfg.dataset, jobs) as prepared, ckpt_ctx as ckpt_dir:
        r1, t1, l1, _ = _run_arm(replace(cfg, sampler=replace(cfg.sampler, mode="uniform")),
                                 prepared, jobs, (cfg.dered.stage1_steps, ckpt_dir, False))
        r2, t2, l2, heads = _run_arm(replace(cfg, sampler=replace(cfg.sampler, mode=mode2)),
                                     prepared, jobs, (cfg.dered.stage2_steps, ckpt_dir, True))

    for seed, heads_equal in zip(cfg.eval.seeds, heads):
        if cfg.dered.freeze_head and not heads_equal:
            raise RuntimeError(f"seed {seed}: frozen heads changed during stage 2")

    s1, s2 = ({k: r[k] for k in ("per_seed", "aggregate", "flags")} for r in (r1, r2))
    s2["head_checks"] = [{"seed": seed, "heads_bitwise_equal": heads_equal}
                         for seed, heads_equal in zip(cfg.eval.seeds, heads)]
    m1, m2 = s1["aggregate"]["mean_normalized"], s2["aggregate"]["mean_normalized"]
    report = {**_run_header("two_stage", cfg, r1["refs"], r1["dataset_checksum"]), "stage1": s1,
              "stage2": s2, "stage2_minus_stage1": None if m1 is None or m2 is None else m2 - m1}
    return (report, {"stage1": t1["per_seed"], "stage2": t2["per_seed"]},
            {"stage1": l1, "stage2": l2})


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
    arms = {}
    for v in values:
        if isinstance(v, str) and v.lower() in ("inf", "infinity"):
            label, spec = "inf", replace(cfg.sampler, mode="uniform")
        else:
            p_base = float(v) + 0.0  # -0.0 becomes 0.0, so "-0" repeats the column "0.0"
            label, spec = repr(p_base), replace(cfg.sampler, mode="return_resample", p_base=p_base)
        if label in arms:
            raise ConfigError(f"p_base value {v!r} repeats the column {label!r}")
        arms[label] = replace(cfg, sampler=spec)
    with _prepare(cfg.dataset, jobs) as prepared:
        runs = {label: _run_arm(arm, prepared, jobs) for label, arm in arms.items()}
    return _arms_table("pbase_sweep", cfg, "columns", list(arms), runs)


COMPARE_ARMS = ("uniform", "return_resample", "reward_resample", "top_fraction")


def compare_rebalance_methods(cfg: ExperimentConfig, jobs: int = 1):
    """Four arms (uniform / return / reward / top-fraction), same seeds and data.

    Each arm is ``cfg.sampler`` with its own mode, so the top-fraction arm
    keeps ``cfg.sampler.fraction``. The dataset is prepared and checksummed
    once, so every arm sees the same bits by construction.
    """
    with _prepare(cfg.dataset, jobs) as prepared:
        runs = {arm: _run_arm(replace(cfg, sampler=replace(cfg.sampler, mode=arm)), prepared, jobs)
                for arm in COMPARE_ARMS}
    table, timing, losses = _arms_table("rebalance_compare", cfg, "arms", list(COMPARE_ARMS), runs)
    return {**table, "dataset_checksum": prepared[3]()}, timing, losses


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
