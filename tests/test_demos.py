import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from red_offline.harness import config_from_dict

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_datasets_and_returns.py", "02_rebalanced_sampling.py",
                                  "03_offline_learners.py", "04_two_stage_finetune.py"])
def test_fast_demos_run(name, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_walkthrough_demo_runs(tmp_path):
    # gen, stats, rebalance-preview, train and report in one shell session; a
    # red-offline shim on PATH stands in for the console script
    shim = tmp_path / "bin" / "red-offline"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m red_offline.cli "$@"\n')
    shim.chmod(0o755)
    env = {**src_env(), "TMPDIR": str(tmp_path)}
    env["PATH"] = os.pathsep.join(filter(None, (str(shim.parent), env.get("PATH"))))
    proc = subprocess.run(["bash", str(DEMOS / "05_cli_walkthrough.sh")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "merged table:" in proc.stdout


def test_every_demo_import_resolves_on_the_package():
    imported = []
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            package = (getattr(node, "module", None) or "").split(".")[0]
            if isinstance(node, ast.ImportFrom) and package == "red_offline":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert {demo for demo, _, _ in imported} == {p.name for p in DEMOS.glob("*.py")}
    missing = [(demo, module, name) for demo, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_readme_config_loads():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    cfg = config_from_dict(json.loads(blocks[0]))
    assert cfg.dataset.preset == "replay_analog" and cfg.dered is not None
