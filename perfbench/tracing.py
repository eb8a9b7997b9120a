"""Spans around calls into the program's modules, recorded from outside ``src/``.

:func:`install` wraps each public function the benchmark reports on at every
name its callers bind (``algos`` imports ``forward`` from ``nncore`` by name,
``harness`` imports ``build_sampler`` and ``train_step``, and so on), plus the
``batch``/``sample_batch`` methods and the ``reference_scores`` property.
Spans stay in memory and are written once, when the traced process ends.

A span is ``(id, parent id, name, start, end)`` with ``time.perf_counter``
seconds. :func:`layer_metrics` turns the spans of one set-up and one round
into the per-layer metrics named in ``BENCHMARK.json``.
"""

import functools
import json
import time

FAMILIES = ("expectile_awr", "conservative_q", "exp_adv_regression", "q_plus_bc")

# (module, function): wrapped wherever a module of the package binds it
FUNCTIONS = (
    ("envsuite", "generate_dataset"),
    ("dataset", "save_dataset"),
    ("dataset", "load_dataset"),
    ("dataset", "compute_trajectory_returns"),
    ("io_envelope", "read_envelope"),
    ("io_envelope", "write_envelope"),
    ("sampler", "build_sampler"),
    ("nncore", "forward"),
    ("nncore", "forward_cache"),
    ("nncore", "backward"),
    ("nncore", "apply_update"),
    ("nncore", "save_checkpoint"),
    ("nncore", "load_checkpoint"),
    ("algos", "train_step"),
    ("harness", "train_single_seed"),
    ("harness", "evaluate_policy"),
    ("harness", "prepare_dataset"),
    ("harness", "dataset_checksum"),
    ("harness", "run_training"),
    ("harness", "two_stage_train"),
    ("harness", "sweep_pbase"),
    ("harness", "compare_rebalance_methods"),
    ("cli", "main"),
)
METHODS = (("dataset", "OfflineDataset", "batch"), ("sampler", "WeightedSampler", "sample_batch"))
HARNESS_RUNNERS = ("harness.run_training", "harness.two_stage_train", "harness.sweep_pbase",
                   "harness.compare_rebalance_methods")

# metric -> (span name, quantity); quantity is total seconds, mean microseconds
# per call, call count, or the longest single call
SPAN_METRICS = {
    "envsuite.generate_dataset.s": ("envsuite.generate_dataset", "s"),
    "envsuite.reference_scores.s": ("envsuite.reference_scores", "s"),
    "dataset.save_dataset.s": ("dataset.save_dataset", "s"),
    "dataset.load_dataset.s": ("dataset.load_dataset", "s"),
    "dataset.load_dataset.calls": ("dataset.load_dataset", "calls"),
    "dataset.compute_trajectory_returns.s": ("dataset.compute_trajectory_returns", "s"),
    "dataset.batch.us": ("dataset.batch", "us"),
    "dataset.batch.calls": ("dataset.batch", "calls"),
    "io_envelope.read_envelope.s": ("io_envelope.read_envelope", "s"),
    "io_envelope.write_envelope.s": ("io_envelope.write_envelope", "s"),
    "sampler.build_sampler.s": ("sampler.build_sampler", "s"),
    "sampler.build_sampler.calls": ("sampler.build_sampler", "calls"),
    "sampler.build_sampler.max_s": ("sampler.build_sampler", "max_s"),
    "sampler.sample_batch.us": ("sampler.sample_batch", "us"),
    "sampler.sample_batch.calls": ("sampler.sample_batch", "calls"),
    **{f"nncore.{fn}.{q}": (f"nncore.{fn}", q)
       for fn in ("forward", "forward_cache", "backward", "apply_update") for q in ("us", "calls")},
    "nncore.save_checkpoint.s": ("nncore.save_checkpoint", "s"),
    "nncore.load_checkpoint.s": ("nncore.load_checkpoint", "s"),
    **{f"algos.train_step.{fam}.us": (f"algos.train_step.{fam}", "us") for fam in FAMILIES},
    "harness.train_single_seed.s": ("harness.train_single_seed", "s"),
    "harness.evaluate_policy.us": ("harness.evaluate_policy", "us"),
    "harness.evaluate_policy.calls": ("harness.evaluate_policy", "calls"),
    "harness.prepare_dataset.s": ("harness.prepare_dataset", "s"),
    "harness.prepare_dataset.calls": ("harness.prepare_dataset", "calls"),
    "harness.dataset_checksum.s": ("harness.dataset_checksum", "s"),
    "harness.dataset_checksum.calls": ("harness.dataset_checksum", "calls"),
}
UNITS = {"s": "s", "max_s": "s", "us": "us", "calls": "count"}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def wrap(self, fn, name, name_of_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = name if name_of_call is None else name_of_call(args)
                self.spans.append((span_id, parent, label, start, end))
        return traced

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


def install():
    """Wrap the program's public functions in this process; returns the tracer."""
    import red_offline
    from red_offline import (algos, cli, dataset, envsuite, harness, io_envelope, nncore,
                             sampler)
    modules = {"algos": algos, "cli": cli, "dataset": dataset, "envsuite": envsuite,
               "harness": harness, "io_envelope": io_envelope, "nncore": nncore,
               "sampler": sampler}
    tracer = Tracer()
    for mod_name, fn_name in FUNCTIONS:
        original = getattr(modules[mod_name], fn_name)
        name = f"{mod_name}.{fn_name}"
        per_family = None
        if name == "algos.train_step":
            def per_family(args):
                return f"algos.train_step.{args[0].family}"
        wrapped = tracer.wrap(original, name, per_family)
        for mod in (red_offline, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    for mod_name, cls_name, meth in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), f"{mod_name}.{meth}"))
    prop = envsuite.Mdp.reference_scores
    envsuite.Mdp.reference_scores = property(
        tracer.wrap(prop.fget, "envsuite.reference_scores"))
    return tracer


def read_spans(paths):
    """Spans of several traced processes; ids are made unique per file."""
    out = []
    for k, path in enumerate(paths):
        with open(path) as f:
            for span_id, parent, name, start, end in json.load(f):
                out.append(((k, span_id), None if parent is None else (k, parent),
                            name, start, end))
    return out


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_time(spans, names):
    children = {}
    for span_id, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return sum(end - start - _covered(children.get(span_id, []))
               for span_id, _, name, start, end in spans if name in names)


def layer_metrics(spans):
    """Per-layer metric values (without units) from one set-up and one round."""
    totals, calls, longest = {}, {}, {}
    for _, _, name, start, end in spans:
        d = end - start
        totals[name] = totals.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), d)
    out = {}
    for metric, (name, quantity) in SPAN_METRICS.items():
        n = calls.get(name, 0)
        if quantity == "s":
            out[metric] = totals.get(name, 0.0)
        elif quantity == "max_s":
            out[metric] = longest.get(name, 0.0)
        elif quantity == "calls":
            out[metric] = n
        else:
            out[metric] = 1e6 * totals[name] / n if n else 0.0
    out["algos.train_step.calls"] = sum(calls.get(f"algos.train_step.{f}", 0) for f in FAMILIES)
    out["harness.self_s"] = _self_time(spans, HARNESS_RUNNERS)
    out["cli.self_s"] = _self_time(spans, ("cli.main",))
    return out


def metric_units():
    """Unit of every metric :func:`layer_metrics` returns."""
    units = {m: UNITS[q] for m, (_, q) in SPAN_METRICS.items()}
    units.update({"algos.train_step.calls": "count", "harness.self_s": "s", "cli.self_s": "s"})
    return units
