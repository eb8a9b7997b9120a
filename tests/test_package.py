import importlib
import pathlib
import subprocess
import sys

import pytest

import red_offline

from conftest import src_env

# each public name of the package and the module that defines it
HOMES = {
    "dataset": ["DatasetError", "DatasetMeta", "OfflineDataset", "TrajectoryReturns",
                "compute_trajectory_returns", "load_dataset", "normalized_return",
                "return_histogram", "save_dataset"],
    "envsuite": ["GeneratorConfig", "Mdp", "PRESETS", "env_from_name", "generate_dataset",
                 "mdp_dense_chain", "mdp_grid_maze", "preset_config"],
    "sampler": ["SamplerSpec", "WeightedSampler", "build_sampler", "reward_weights",
                "sampling_distribution", "top_fraction_filter"],
    "algos": ["AlgoConfig", "LearnerState", "NanLossError", "awr_weight", "expectile_loss",
              "extract_policy", "init_learner", "train_step"],
    "harness": ["ConfigError", "DatasetSource", "DeredConfig", "EvalConfig", "ExperimentConfig",
                "compare_rebalance_methods", "normalized_score", "run_training", "stream_seed",
                "sweep_pbase", "two_stage_train"],
    "nncore": ["Mlp", "OptimState", "apply_update", "backward", "forward", "forward_cache",
               "init_mlp", "init_optim", "load_checkpoint", "save_checkpoint"],
}


def test_importing_the_package_loads_no_numpy():
    script = "import sys, red_offline; print('numpy' in sys.modules, red_offline.__version__)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0.1.0"]


def test_importing_the_cli_loads_no_process_pool():
    # a one-job process never starts a pool: concurrent.futures.process would
    # bring multiprocessing and socket, about 7 ms per CLI process
    script = ("import sys, red_offline.cli; "
              "print(*(m in sys.modules for m in ('multiprocessing', 'socket')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_public_names_resolve_to_their_home_objects():
    assert len(red_offline.__all__) == 52
    assert sorted(red_offline.__all__) == sorted(n for names in HOMES.values() for n in names)
    for module, names in HOMES.items():
        home = importlib.import_module(f"red_offline.{module}")
        for name in names:
            assert getattr(red_offline, name) is getattr(home, name), name


_SUBMODULES_SCRIPT = """
import sys, red_offline
for name in sys.argv[1:]:
    assert getattr(red_offline, name) is sys.modules["red_offline." + name], name
"""


def test_submodules_load_on_attribute_access():
    # a fresh process, where no submodule was imported before the attribute is read
    proc = subprocess.run([sys.executable, "-c", _SUBMODULES_SCRIPT, "io_envelope", *HOMES],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'train_stepp'"):
        red_offline.train_stepp
    assert not hasattr(red_offline, "minmax_weights")


def test_no_source_line_is_longer_than_100_columns():
    # src/'s line count is tracked, so a cut must not come from denser lines
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [path for top in ("src", "tests", "tools", "demos")
             for path in sorted((root / top).rglob("*")) if path.suffix in (".py", ".sh")]
    long = [f"{path.relative_to(root)}:{n}" for path in paths
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not long, long
