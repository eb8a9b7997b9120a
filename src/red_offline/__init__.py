"""Offline RL toolkit: return-weighted dataset resampling on desk-scale tasks.

Core pieces: offline datasets with trajectory-return indexing
(:mod:`.dataset`), static weighted samplers (:mod:`.sampler`), tabular
benchmark environments and dataset generators (:mod:`.envsuite`), tiny
float64 MLPs with manual backprop (:mod:`.nncore`), four discrete-action
offline learners (:mod:`.algos`), and an experiment harness plus CLI
(:mod:`.harness`, :mod:`.cli`).
"""

from .dataset import (
    DatasetError,
    DatasetMeta,
    OfflineDataset,
    TrajectoryReturns,
    compute_trajectory_returns,
    load_dataset,
    normalized_return,
    return_histogram,
    save_dataset,
)
from .envsuite import (
    GeneratorConfig,
    Mdp,
    PRESETS,
    env_from_name,
    generate_dataset,
    mdp_dense_chain,
    mdp_grid_maze,
    preset_config,
)
from .sampler import (
    SamplerSpec,
    WeightedSampler,
    build_sampler,
    reward_weights,
    sampling_distribution,
    top_fraction_filter,
)
from .algos import (
    AlgoConfig,
    LearnerState,
    NanLossError,
    awr_weight,
    cql_penalty,
    expectile_loss,
    extract_policy,
    init_learner,
    train_step,
)
from .harness import (
    ConfigError,
    DatasetSource,
    DeredConfig,
    EvalConfig,
    ExperimentConfig,
    compare_rebalance_methods,
    normalized_score,
    run_training,
    stream_seed,
    sweep_pbase,
    two_stage_train,
)
from .nncore import (
    Mlp,
    OptimState,
    apply_update,
    backward,
    forward,
    forward_cache,
    init_mlp,
    init_optim,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
