"""Offline RL toolkit: return-weighted dataset resampling on desk-scale tasks.

Core pieces: offline datasets with trajectory-return indexing
(:mod:`.dataset`), static weighted samplers (:mod:`.sampler`), tabular
benchmark environments and dataset generators (:mod:`.envsuite`), tiny
float64 MLPs with manual backprop (:mod:`.nncore`), four discrete-action
offline learners (:mod:`.algos`), and an experiment harness plus CLI
(:mod:`.harness`, :mod:`.cli`).

Every name below loads its submodule on first access (PEP 562), so importing
the package loads no numpy, and :mod:`.cli` can set up a process before it does.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dataset": "DatasetError DatasetMeta OfflineDataset TrajectoryReturns "
               "compute_trajectory_returns load_dataset normalized_return return_histogram "
               "save_dataset",
    "envsuite": "GeneratorConfig Mdp PRESETS env_from_name generate_dataset mdp_dense_chain "
                "mdp_grid_maze preset_config",
    "sampler": "SamplerSpec WeightedSampler build_sampler reward_weights sampling_distribution "
               "top_fraction_filter",
    "algos": "AlgoConfig LearnerState NanLossError awr_weight expectile_loss extract_policy "
             "init_learner train_step",
    "harness": "ConfigError DatasetSource DeredConfig EvalConfig ExperimentConfig "
               "compare_rebalance_methods normalized_score run_training stream_seed sweep_pbase "
               "two_stage_train",
    "nncore": "Mlp OptimState apply_update backward forward forward_cache init_mlp init_optim "
              "load_checkpoint save_checkpoint",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "io_envelope")
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
