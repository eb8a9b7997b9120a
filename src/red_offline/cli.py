"""Command-line front end: dataset generation, inspection, training, reports.

Subcommands: gen, stats, rebalance-preview, train, dered, sweep, compare,
report. Exit codes: 0 success, 1 usage error, 2 config or dataset error
(including a dataset that does not fit its environment), 3 runtime abort.
The environment variable ``RED_OFFLINE_ROOT_SEED`` overrides the
config root seed for every experiment subcommand.
"""

import argparse
import itertools
import json
import os
import sys
from dataclasses import replace

# Before numpy loads, so its OpenBLAS starts on one thread and no idle helper
# thread spins beside the work; a user's value stands. If numpy was loaded
# first, main pins the threads instead.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import harness
from .dataset import (BLOCK_RECORDS, compute_trajectory_returns, load_dataset,
                      normalized_return, return_histogram, save_dataset, DatasetError)
from .envsuite import PRESETS, generate_dataset, preset_config
from .harness import ConfigError, apply_overrides, config_from_dict
from .sampler import SamplerSpec, build_sampler

ROOT_SEED_ENV = "RED_OFFLINE_ROOT_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _exit(code, message):
    """Print ``message`` to stderr and exit with ``code``; main returns the code."""
    print(message, file=sys.stderr)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        _exit(EXIT_USAGE, f"{self.prog}: error: {message}")


def _ranged(kind, bound, test):
    """An argparse ``type``: ``kind`` of the text, refused unless ``test`` holds."""
    def parse(text):
        value = kind(text)  # a ValueError is argparse's "invalid <kind> value"
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = kind.__name__
    return parse


_AT_LEAST_ONE = _ranged(int, ">= 1", lambda v: v >= 1)


def _read_json(path, what):
    """The JSON value in the file at ``path``; exit 2 naming ``what`` if it cannot be read."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        _exit(EXIT_CONFIG, f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        _exit(EXIT_CONFIG, f"{what} is not valid JSON: {exc}")


def _load_config(path, overrides):
    cfg = config_from_dict(apply_overrides(_read_json(path, f"config {path}"), overrides))
    env_seed = os.environ.get(ROOT_SEED_ENV)
    if env_seed is not None:
        try:
            cfg = replace(cfg, root_seed=int(env_seed))
        except ValueError:
            _exit(EXIT_CONFIG, f"{ROOT_SEED_ENV}={env_seed!r} is not an integer")
    return cfg


def _write(path, text):
    """Write ``text``, a string or an iterable of strings, to ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.writelines([text] if isinstance(text, str) else text)


def _csv(header, rows) -> str:
    """CSV text: the header, then each row's values joined by commas, each as
    ``str`` gives it (a Python float's ``str`` is its ``repr``: it round-trips)."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def dump_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_gen(args) -> int:
    ds = generate_dataset(preset_config(args.preset, args.seed, args.n_trajectories))
    tr = compute_trajectory_returns(ds)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_trajectories} trajectories, {len(ds)} transitions")
    print(f"returns: min={tr.r_min!r} max={tr.r_max!r}")
    return EXIT_OK


def _load_with_returns(path):
    """(dataset, trajectory returns) of a dataset file; every error names the file."""
    ds = load_dataset(path)
    try:
        return ds, compute_trajectory_returns(ds)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def cmd_stats(args) -> int:
    ds, tr = _load_with_returns(args.dataset)
    hist = return_histogram(tr, args.bins)
    edges = hist["bin_edges"].tolist()
    rows = list(zip(edges, edges[1:], hist["counts"].tolist()))
    out = args.out or args.dataset + ".hist.csv"
    _write(out, _csv(["bin_lo", "bin_hi", "count"], rows))
    r = tr.returns
    mean, median = float(r.mean()), float(np.median(r))
    print(f"dataset {args.dataset}: N={len(ds)} trajectories={ds.n_trajectories} "
          f"env={ds.meta.env_name}")
    print(f"returns: mean={mean:.4f} median={median:.4f} min={tr.r_min:.4f} max={tr.r_max:.4f}")
    if median < mean:
        print("shape: right-skewed (median < mean)")
    print(f"histogram ({len(rows)} bins) -> {out}")
    for lo, hi, c in rows:
        print(f"  [{lo:.3f}, {hi:.3f}): {c}")
    return EXIT_OK


def cmd_rebalance_preview(args) -> int:
    ds, tr = _load_with_returns(args.dataset)
    sampler = build_sampler(SamplerSpec("return_resample", args.alpha, args.p_base), ds, tr)
    probs, order = sampler.probs, sampler.order
    weights = normalized_return(tr, args.p_base)  # per trajectory; only --out repeats them
    stops = ds.traj_bounds[:, 1]
    n = len(probs)
    k = min(args.top_k, n)
    print(f"rebalance preview: alpha={args.alpha} p_base={args.p_base} N={n}")
    for label, listed in (("top", order[::-1][:k]), ("bottom", order[:k])):
        print(f"{label}-{k} probabilities:")
        for i, j in zip(listed, np.searchsorted(stops, listed, side="right")):
            print(f"  index {i}: P={probs[i]:.3e} (weight {weights[j]:.4f})")
    zero_frac = np.count_nonzero(probs == 0.0) / n
    # |p - 1/n| peaks at the smallest or the largest p: float subtraction is monotone
    max_dev = float(max(abs(probs[order[0]] - 1.0 / n), abs(probs[order[-1]] - 1.0 / n)))
    if max_dev == 0.0:
        print("uniform, deviation 0")
    print(f"zero-mass fraction: {zero_frac:.4f}")
    print(f"max deviation from uniform: {max_dev:.3e}")
    if args.out:
        # one block of rows at a time: at 2.5M rows the whole text is about 110 MB
        repeated = np.repeat(weights, tr.lengths)
        blocks = (zip(range(s, n), repeated[s:s + BLOCK_RECORDS].tolist(),
                      probs[s:s + BLOCK_RECORDS].tolist()) for s in range(0, n, BLOCK_RECORDS))
        _write(args.out, itertools.chain(["index,weight,probability\n"], (
            "".join(f"{i},{w!r},{p!r}\n" for i, w, p in rows) for rows in blocks)))
        print(f"distribution -> {args.out}")
    return EXIT_OK


def _blocks(payload) -> list:
    """(name, block) of each per-seed block of a report: the run itself (name
    None), each two-stage stage, or each sweep/compare arm."""
    if payload["kind"] == "experiment":
        return [(None, payload)]
    if payload["kind"] == "two_stage":
        return [(stage, payload[stage]) for stage in ("stage1", "stage2")]
    return list(payload["reports"].items())


def _write_bundle(out_dir, payload, timing, losses, jobs) -> int:
    """Write report.json, timing.json (with the run's ``runtime``: jobs and
    BLAS threads) and every block's ``curves{_name}.csv`` and
    ``losses{_name}_seed{s}.csv``; returns exit 3 if any block has aborted
    seeds, else 0."""
    runtime = {"jobs": jobs, "blas_threads": harness.blas_threads()}
    _write(os.path.join(out_dir, "report.json"), dump_json(payload))
    _write(os.path.join(out_dir, "timing.json"), dump_json({**timing, "runtime": runtime}))
    aborted = []
    for name, block in _blocks(payload):
        label, rows = ("", losses) if name is None else (f"_{name}", losses[name])
        _write(os.path.join(out_dir, f"curves{label}.csv"), _csv(
            ["seed", "step", "raw_return", "normalized"],
            ([e["seed"], *point] for e in block["per_seed"]
             for point in zip(e["eval_steps"], e["eval_returns"], e["eval_normalized"]))))
        for seed, seed_rows in rows.items():
            keys = sorted(seed_rows[0][1]) if seed_rows else []
            _write(os.path.join(out_dir, f"losses{label}_seed{seed}.csv"), _csv(
                ["step", *keys], ([step, *(row[k] for k in keys)] for step, row in seed_rows)))
        seeds = block["aggregate"]["aborted_seeds"]
        if seeds:
            aborted.append(f"{seeds}" if name is None else f"{name} {seeds}")
    print(f"report -> {os.path.join(out_dir, 'report.json')}")
    if aborted:
        print(f"runtime abort on seeds {', '.join(aborted)}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.override)
    report, timing, losses = harness.run_training(cfg, jobs=args.jobs)
    agg = report["aggregate"]
    print(f"task {report['task']}: normalized {agg['mean_normalized']} "
          f"+/- {agg['std_normalized']} over {len(report['per_seed'])} seeds")
    return _write_bundle(args.out, report, timing, losses, args.jobs)


def cmd_dered(args) -> int:
    cfg = _load_config(args.config, args.override)
    report, timing, losses = harness.two_stage_train(cfg, out_dir=args.out, jobs=args.jobs)
    s1 = report["stage1"]["aggregate"]["mean_normalized"]
    s2 = report["stage2"]["aggregate"]["mean_normalized"]
    arrow = ""
    if s1 is not None and s2 is not None and s2 > s1:
        arrow = "  (stage 2 improved)"
    print(f"task {report['task']}: stage1 {s1}  stage2 {s2}{arrow}")
    return _write_bundle(args.out, report, timing, losses, args.jobs)


def _parse_pbase_values(text):
    """The argparse ``type`` of ``--values``: comma-separated floats, each >= 0 or inf."""
    values = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            value = float(part)
        except ValueError:
            value = float("nan")
        if not value >= 0:  # NaN fails too
            raise argparse.ArgumentTypeError(f"p_base value {part!r} is not a number >= 0 or inf")
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("no p_base values given")
    return values


def _finish_arms(args, run, key, csv_name, title) -> int:
    """Write a sweep/compare bundle plus its one-row CSV."""
    table = run[0]
    labels = table[key]
    _write(os.path.join(args.out, f"{csv_name}.csv"),
           _csv(["task", *labels], [[table["task"], *(table["scores"][a] for a in labels)]]))
    print(f"{title}:", {a: table["scores"][a] for a in labels})
    return _write_bundle(args.out, *run, args.jobs)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.override)
    run = harness.sweep_pbase(cfg, args.values, jobs=args.jobs)
    return _finish_arms(args, run, "columns", "sweep", "p_base sweep")


def cmd_compare(args) -> int:
    fraction = [] if args.fraction is None else [f"sampler.fraction={args.fraction!r}"]
    cfg = _load_config(args.config, args.override + fraction)
    run = harness.compare_rebalance_methods(cfg, jobs=args.jobs)
    return _finish_arms(args, run, "arms", "compare", "rebalance comparison")


def cmd_report(args) -> int:
    cells = {}   # (task, label) -> score
    labels, tasks = [], []
    for run_dir in args.run_dir:
        path = os.path.join(run_dir, "report.json")
        payload = _read_json(path, path)
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind not in ("experiment", "two_stage"):
            _exit(EXIT_CONFIG, f"{path}: not a run report: kind {kind!r}")
        try:
            # the label is family+mode, or family+two_stage+mode; a two-stage run scores stage two
            cfg, two = payload["config"], kind == "two_stage"
            label = f"{cfg['algo']['family']}+{'two_stage+' if two else ''}{cfg['sampler']['mode']}"
            task = payload["task"]
            score = (payload["stage2"] if two else payload)["aggregate"]["mean_normalized"]
            if type(task) is not str or not (score is None or type(score) in (int, float)):
                raise TypeError(f"task {task!r} must be a string and score {score!r} a number "
                                "or null")
            while label in labels and (task, label) in cells:
                label += "'"
        except (KeyError, TypeError) as exc:  # a missing key, or a value of the wrong type
            _exit(EXIT_CONFIG, f"{path}: not a run report: "
                  + (f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)))
        if label not in labels:
            labels.append(label)
        if task not in tasks:
            tasks.append(task)
        cells[(task, label)] = score
    missing = [(t, l) for t in tasks for l in labels if (t, l) not in cells]
    if missing:
        _exit(EXIT_CONFIG, "runs do not align into a table; missing task/arm cells: "
              + ", ".join(f"{t}/{l}" for t, l in missing))
    rows = [[t, *(cells[(t, l)] for l in labels)] for t in tasks]
    csv_text = _csv(["task", *labels], rows)
    if args.out:
        _write(args.out, csv_text)
        print(f"merged table -> {args.out}")
    print(csv_text, end="")
    for t, *scores in rows:  # each task's best score starred
        best = max((s for s in scores if s is not None), default=None)
        text = (f"{l}=aborted" if s is None else f"{l}={s}{'*' if s == best else ' '}"
                for l, s in zip(labels, scores))
        print(f"{t}: " + "  ".join(text))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="red-offline", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a preset dataset file")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--seed", type=_ranged(int, ">= 0", lambda v: v >= 0), default=None,
                   help="generator seed override")
    p.add_argument("--n-trajectories", type=_AT_LEAST_ONE, default=None)
    p.add_argument("--out", required=True, help="output .ords path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("stats", help="print and export the return histogram")
    p.add_argument("--dataset", required=True)
    p.add_argument("--bins", type=_AT_LEAST_ONE, default=15)
    p.add_argument("--out", default=None, help="histogram CSV path")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("rebalance-preview", help="summarize the sampling distribution")
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=_ranged(float, ">= 0", lambda v: v >= 0), default=1.0)
    p.add_argument("--p-base", type=_ranged(float, ">= 0 and finite", lambda v: 0 <= v < np.inf),
                   default=0.0)
    p.add_argument("--top-k", type=_AT_LEAST_ONE, default=5)
    p.add_argument("--out", default=None, help="distribution CSV path")
    p.set_defaults(fn=cmd_rebalance_preview)

    for name, fn, extra in (
        ("train", cmd_train, ()),
        ("dered", cmd_dered, ()),
        ("sweep", cmd_sweep, ("values",)),
        ("compare", cmd_compare, ("fraction",)),
    ):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--jobs", type=_AT_LEAST_ONE, default=1, help="max concurrent seed jobs")
        p.add_argument("override", nargs="*", metavar="key=value",
                       help="dotted config overrides, e.g. sampler.alpha=1.0")
        if "values" in extra:
            p.add_argument("--values", type=_parse_pbase_values, default="0,0.2,0.5,1.0,inf",
                           help="comma-separated p_base values ('inf' = uniform)")
        if "fraction" in extra:
            p.add_argument("--fraction", type=_ranged(float, "in (0, 1]", lambda v: 0 < v <= 1),
                           help="overrides sampler.fraction")
        p.set_defaults(fn=fn)

    p = sub.add_parser("report", help="merge run directories into one table")
    p.add_argument("run_dir", nargs="+")
    p.add_argument("--out", default=None, help="merged CSV path")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    harness.pin_blas_threads()
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse --help, a usage error, or _exit
        return int(exc.code or 0)
    except (ConfigError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
