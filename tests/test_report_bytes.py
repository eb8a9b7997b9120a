"""Experiment bundles keep their bytes.

``train`` (every family), ``dered``, ``sweep`` and ``compare`` run on one tiny
preset config; ``stats``, ``rebalance-preview`` and ``report`` then write their
``--out`` CSVs from a file of that preset and from the ``train`` bundles. The
sha256 of every file they write except ``timing.json`` (checkpoints included)
must equal the digests in ``report_digests.json``. Those were recorded under
one numpy version and one OpenBLAS build and core; BLAS kernels round
differently on other CPUs, so anywhere else the test skips and says why.
After a change that is meant to move report bytes, re-record with
``PYTHONPATH=src python tests/test_report_bytes.py``: it rewrites
``report_digests.json`` and prints, one a line, each bundle file whose digest
differs from the file it replaced, with ``changed``, ``new`` or ``gone``.
"""

import glob
import hashlib
import json
import os
import sys
from ctypes import CDLL, c_char_p
from pathlib import Path

import numpy as np
import pytest

from red_offline.algos import FAMILIES
from red_offline.cli import main
from red_offline.harness import pin_blas_threads

DIGESTS = Path(__file__).with_name("report_digests.json")

CONFIG = {
    "dataset": {"preset": "replay_analog", "n_trajectories": 40},
    "algo": {"total_steps": 60, "batch_size": 32, "lr": 3e-3, "hidden_units": 16,
             "target_update_period": 10},
    "sampler": {"mode": "return_resample", "alpha": 1.0, "p_base": 0.1},
    "eval": {"eval_every": 10, "final_k": 2, "seeds": [0, 1]},
    "dered": {"stage1_steps": 40, "stage2_steps": 20},
    "root_seed": 5,
}

RUNS = {
    **{f"train_{family}": ["train", f"algo.family={family}"] for family in FAMILIES},
    "dered": ["dered"],
    "sweep": ["sweep", "--values", "0,0.5,inf"],
    "compare": ["compare"],
}


def environment() -> dict:
    """numpy's version and its bundled OpenBLAS's config string (with the core
    name it picked on this CPU), or None for the latter if it was not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_-*.so"))
    try:
        get_config = CDLL(libs[0]).scipy_openblas_get_config64_
    except (IndexError, OSError, AttributeError):
        return {"numpy": np.__version__, "openblas": None}
    get_config.restype = c_char_p
    return {"numpy": np.__version__, "openblas": get_config().decode()}


def bundle_digests(work: Path) -> dict:
    """sha256 of every file each run writes except timing.json, keyed ``run/file``."""
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    digests = {}
    for name, (command, *rest) in RUNS.items():
        out = work / name
        assert main([command, "--config", str(cfg), "--out", str(out), *rest]) == 0, name
        for path in sorted(out.iterdir()):
            if path.name != "timing.json":
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    ords = str(work / "data.ords")
    dataset = CONFIG["dataset"]
    assert main(["gen", "--preset", dataset["preset"], "--n-trajectories",
                 str(dataset["n_trajectories"]), "--out", ords]) == 0
    tools = {
        "stats": ["stats", "--dataset", ords],
        "rebalance-preview": ["rebalance-preview", "--dataset", ords, "--alpha", "1.5",
                              "--p-base", "0.2"],
        "report": ["report", *(str(work / name) for name in RUNS if name.startswith("train_"))],
    }
    for name, argv in tools.items():
        out = work / name / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0, name
        digests[f"{name}/{out.name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def digest_changes(old: dict, new: dict) -> list:
    """``"run/file: changed"`` (or ``new``, ``gone``) for each file whose digest differs."""
    return [f"{name}: {'new' if name not in old else 'gone' if name not in new else 'changed'}"
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def test_digest_changes_name_every_file_that_differs():
    old = {"a/report.json": "1", "a/x.csv": "2", "b/gone.csv": "3"}
    new = {"a/report.json": "9", "a/x.csv": "2", "c/new.csv": "4"}
    assert digest_changes(old, new) == ["a/report.json: changed", "b/gone.csv: gone",
                                        "c/new.csv: new"]
    assert digest_changes(new, new) == []


def test_bundles_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RED_OFFLINE_ROOT_SEED", raising=False)
    pinned = json.loads(DIGESTS.read_text())
    here = environment()
    if here != pinned["environment"]:
        pytest.skip(f"digests were recorded under {pinned['environment']}, not {here}")
    got = bundle_digests(tmp_path)
    capsys.readouterr()
    assert got.keys() == pinned["sha256"].keys()
    changed = sorted(name for name in got if got[name] != pinned["sha256"][name])
    assert not changed, f"bundle files whose bytes changed: {changed}"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    pin_blas_threads()
    os.environ.pop("RED_OFFLINE_ROOT_SEED", None)
    old = json.loads(DIGESTS.read_text())["sha256"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        digests = bundle_digests(Path(work))
    DIGESTS.write_text(json.dumps({"environment": environment(), "sha256": digests},
                                  indent=1, sort_keys=True) + "\n")
    changes = digest_changes(old, digests)
    print(f"wrote {len(digests)} digests -> {DIGESTS}; {len(changes)} differ from the "
          "file it replaced:", file=sys.stderr)
    print("\n".join(changes))
