"""Command-line front end: dataset generation, inspection, training, reports.

Subcommands: gen, stats, rebalance-preview, train, dered, sweep, compare,
report. Exit codes: 0 success, 1 usage error, 2 config or dataset error
(including a dataset that does not fit its environment), 3 runtime abort.
The environment variable ``RED_OFFLINE_ROOT_SEED`` overrides the
config root seed for every experiment subcommand.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .dataset import (compute_trajectory_returns, finite_range, histogram_csv, load_dataset,
                      normalized_return, return_histogram, save_dataset, DatasetError)
from .envsuite import PRESETS, generate_dataset, preset_config
from .harness import (ConfigError, apply_overrides, config_from_dict, curves_csv,
                      dump_json, losses_csv)
from .sampler import SamplerSpec, build_sampler, distribution_csv

ROOT_SEED_ENV = "RED_OFFLINE_ROOT_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_USAGE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code, message=None):
        self.code = code
        self.message = message
        super().__init__(message)


def _load_config(path, overrides):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise SystemExit_(EXIT_CONFIG, f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit_(EXIT_CONFIG, f"config {path} is not valid JSON: {exc}")
    try:
        data = apply_overrides(data, overrides)
        cfg = config_from_dict(data)
    except ConfigError as exc:
        raise SystemExit_(EXIT_CONFIG, str(exc))
    env_seed = os.environ.get(ROOT_SEED_ENV)
    if env_seed is not None:
        try:
            cfg = replace(cfg, root_seed=int(env_seed))
        except ValueError:
            raise SystemExit_(EXIT_CONFIG, f"{ROOT_SEED_ENV}={env_seed!r} is not an integer")
    return cfg


def _write(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def cmd_gen(args) -> int:
    try:
        cfg = preset_config(args.preset, seed=args.seed, n_trajectories=args.n_trajectories)
    except ValueError as exc:
        raise SystemExit_(EXIT_USAGE, f"usage: gen --preset {{{','.join(sorted(PRESETS))}}}\n{exc}")
    ds = generate_dataset(cfg)
    tr = compute_trajectory_returns(ds)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_trajectories} trajectories, {len(ds)} transitions")
    print(f"returns: min={tr.r_min!r} max={tr.r_max!r}")
    return EXIT_OK


def _load_with_returns(path):
    """(dataset, finite trajectory returns) of a dataset file; every error names the file."""
    ds = load_dataset(path)
    try:
        tr = compute_trajectory_returns(ds)
        finite_range(tr.returns, "trajectory", "return")
        return ds, tr
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def cmd_stats(args) -> int:
    ds, tr = _load_with_returns(args.dataset)
    hist = return_histogram(tr, args.bins)
    out = args.out or args.dataset + ".hist.csv"
    _write(out, histogram_csv(hist))
    r = tr.returns
    mean, median = float(r.mean()), float(np.median(r))
    print(f"dataset {args.dataset}: N={len(ds)} trajectories={ds.n_trajectories} "
          f"env={ds.meta.env_name}")
    print(f"returns: mean={mean:.4f} median={median:.4f} min={tr.r_min:.4f} max={tr.r_max:.4f}")
    if median < mean:
        print("shape: right-skewed (median < mean)")
    print(f"histogram ({args.bins} bins) -> {out}")
    for i, c in enumerate(hist["counts"]):
        print(f"  [{hist['bin_edges'][i]:.3f}, {hist['bin_edges'][i + 1]:.3f}): {int(c)}")
    return EXIT_OK


def cmd_rebalance_preview(args) -> int:
    ds, tr = _load_with_returns(args.dataset)
    sampler = build_sampler(SamplerSpec("return_resample", args.alpha, args.p_base), ds, tr)
    probs, order = sampler.probs, sampler.order
    weights = normalized_return(tr, args.p_base)
    n = len(probs)
    k = min(args.top_k, n)
    print(f"rebalance preview: alpha={args.alpha} p_base={args.p_base} N={n}")
    print(f"top-{k} probabilities:")
    for i in order[::-1][:k]:
        print(f"  index {i}: P={probs[i]:.3e} (weight {weights[i]:.4f})")
    print(f"bottom-{k} probabilities:")
    for i in order[:k]:
        print(f"  index {i}: P={probs[i]:.3e} (weight {weights[i]:.4f})")
    zero_frac = float((probs == 0.0).mean())
    max_dev = float(np.abs(probs - 1.0 / n).max())
    if max_dev == 0.0:
        print("uniform, deviation 0")
    print(f"zero-mass fraction: {zero_frac:.4f}")
    print(f"max deviation from uniform: {max_dev:.3e}")
    if args.out:
        _write(args.out, distribution_csv(probs, weights))
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
        _write(os.path.join(out_dir, f"curves{label}.csv"), curves_csv(block["per_seed"]))
        for seed, seed_rows in rows.items():
            _write(os.path.join(out_dir, f"losses{label}_seed{seed}.csv"), losses_csv(seed_rows))
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
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            value = float("nan")
        if not value >= 0:  # NaN fails too
            raise SystemExit_(EXIT_USAGE, f"argument --values: p_base value {part!r} "
                                          "is not a number >= 0 or inf")
        values.append("inf" if value == float("inf") else value)
    if not values:
        raise SystemExit_(EXIT_USAGE, "no p_base values given")
    return values


def _finish_arms(args, run, key, csv_name, title) -> int:
    """Write a sweep/compare bundle plus its one-row CSV."""
    table = run[0]
    labels = table[key]
    _write(os.path.join(args.out, f"{csv_name}.csv"),
           ",".join(["task"] + labels) + "\n"
           + ",".join([table["task"]] + [repr(table["scores"][a]) for a in labels]) + "\n")
    print(f"{title}:", {a: table["scores"][a] for a in labels})
    return _write_bundle(args.out, *run, args.jobs)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.override)
    values = _parse_pbase_values(args.values)
    run = harness.sweep_pbase(cfg, values, jobs=args.jobs)
    return _finish_arms(args, run, "columns", "sweep", "p_base sweep")


def cmd_compare(args) -> int:
    fraction = [] if args.fraction is None else [f"sampler.fraction={args.fraction!r}"]
    cfg = _load_config(args.config, args.override + fraction)
    run = harness.compare_rebalance_methods(cfg, jobs=args.jobs)
    return _finish_arms(args, run, "arms", "compare", "rebalance comparison")


def _run_label(payload) -> str:
    cfg = payload["config"]
    family = cfg["algo"]["family"]
    if payload.get("kind") == "two_stage":
        return f"{family}+two_stage"
    return f"{family}+{cfg['sampler']['mode']}"


def _run_score(payload):
    if payload.get("kind") == "two_stage":
        return payload["stage2"]["aggregate"]["mean_normalized"]
    return payload["aggregate"]["mean_normalized"]


def cmd_report(args) -> int:
    cells = {}   # (task, label) -> score
    labels, tasks = [], []
    for run_dir in args.run_dir:
        path = os.path.join(run_dir, "report.json")
        try:
            with open(path) as f:
                payload = json.load(f)
        except OSError as exc:
            raise SystemExit_(EXIT_CONFIG, f"cannot read {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit_(EXIT_CONFIG, f"{path} is not valid JSON: {exc}")
        if payload.get("kind") not in ("experiment", "two_stage"):
            raise SystemExit_(EXIT_CONFIG, f"{path}: not a run report (kind={payload.get('kind')!r})")
        label = _run_label(payload)
        while label in labels and (payload["task"], label) in cells:
            label += "'"
        task = payload["task"]
        if label not in labels:
            labels.append(label)
        if task not in tasks:
            tasks.append(task)
        cells[(task, label)] = _run_score(payload)
    missing = [(t, l) for t in tasks for l in labels if (t, l) not in cells]
    if missing:
        raise SystemExit_(EXIT_CONFIG,
                          "runs do not align into a table; missing task/arm cells: "
                          + ", ".join(f"{t}/{l}" for t, l in missing))
    csv_lines = ["task," + ",".join(labels)]
    text_lines = []
    for t in tasks:
        row_scores = {l: cells[(t, l)] for l in labels}
        valid = {l: s for l, s in row_scores.items() if s is not None}
        best = max(valid.values()) if valid else None
        csv_lines.append(t + "," + ",".join(repr(row_scores[l]) for l in labels))
        rendered = []
        for l in labels:
            s = row_scores[l]
            mark = "*" if best is not None and s == best else " "
            rendered.append(f"{l}={s}{mark}" if s is not None else f"{l}=aborted")
        text_lines.append(f"{t}: " + "  ".join(rendered))
    csv_text = "\n".join(csv_lines) + "\n"
    table_text = "\n".join(text_lines) + "\n"
    if args.out:
        _write(args.out, csv_text)
        print(f"merged table -> {args.out}")
    print(csv_text, end="")
    print(table_text, end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="red-offline", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a preset dataset file")
    p.add_argument("--preset", required=True, help=f"one of {sorted(PRESETS)}")
    p.add_argument("--seed", type=int, default=None, help="generator seed override")
    p.add_argument("--n-trajectories", type=int, default=None)
    p.add_argument("--out", required=True, help="output .ords path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("stats", help="print and export the return histogram")
    p.add_argument("--dataset", required=True)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", default=None, help="histogram CSV path")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("rebalance-preview", help="summarize the sampling distribution")
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p-base", type=float, default=0.0)
    p.add_argument("--top-k", type=int, default=5)
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
        p.add_argument("--jobs", type=int, default=1, help="max concurrent seed jobs")
        p.add_argument("override", nargs="*", metavar="key=value",
                       help="dotted config overrides, e.g. sampler.alpha=1.0")
        if "values" in extra:
            p.add_argument("--values", default="0,0.2,0.5,1.0,inf",
                           help="comma-separated p_base values ('inf' = uniform)")
        if "fraction" in extra:
            p.add_argument("--fraction", type=float, help="overrides sampler.fraction")
        p.set_defaults(fn=fn)

    p = sub.add_parser("report", help="merge run directories into one table")
    p.add_argument("run_dir", nargs="+")
    p.add_argument("--out", default=None, help="merged CSV path")
    p.set_defaults(fn=cmd_report)
    return parser


# (dest, bound, test) of each numeric flag whose range main checks
_FLAG_RANGES = (
    ("jobs", ">= 1", lambda v: v >= 1),
    ("bins", ">= 1", lambda v: v >= 1),
    ("top_k", ">= 1", lambda v: v >= 1),
    ("n_trajectories", ">= 1", lambda v: v >= 1),
    ("alpha", ">= 0", lambda v: v >= 0),
    ("p_base", ">= 0", lambda v: v >= 0),
    ("seed", ">= 0", lambda v: v >= 0),
    ("fraction", "in (0, 1]", lambda v: 0 < v <= 1),
)


def main(argv=None) -> int:
    harness.pin_blas_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for dest, bound, test in _FLAG_RANGES:
            value = getattr(args, dest, None)
            if value is not None and not test(value):
                parser.error(f"argument --{dest.replace('_', '-')}: must be {bound}, got {value}")
        return args.fn(args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except SystemExit as exc:  # argparse --help and friends
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
