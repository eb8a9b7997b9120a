"""Static weighted sampling over offline datasets.

Per-transition weights (return-based, reward-based, or a top-fraction filter)
are turned into a categorical distribution ``P(i) = w_i^alpha / sum_k w_k^alpha``
once, before training; batches are then drawn i.i.d. with replacement. The
weights are constant per trajectory or per reward value, so the vector is runs
of equal adjacent values: sorting the runs, not the transitions, groups the
equal ones, and a draw picks a group by its mass and then a uniform member.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .dataset import OfflineDataset, TrajectoryReturns, finite_range, normalized_return

MODES = ("uniform", "return_resample", "reward_resample", "top_fraction")


@dataclass(frozen=True)
class SamplerSpec:
    """How to rebalance: mode, exponent, additive floor, and RNG seed.

    ``alpha`` sets the rebalance strength (0 = uniform, large = concentrate
    on the best trajectories). ``p_base`` keeps low-return transitions
    reachable; 0.2 is the working value for 0/1-return tasks. ``fraction``
    only applies to top_fraction mode.
    """

    mode: str = "return_resample"
    alpha: float = 1.0
    p_base: float = 0.0
    fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sampler mode {self.mode!r}, expected one of {MODES}")
        if not self.alpha >= 0:  # NaN fails too
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.p_base >= 0:
            raise ValueError(f"p_base must be >= 0, got {self.p_base}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def sampling_distribution(p: np.ndarray, alpha: float) -> np.ndarray:
    """Normalize weights to probabilities: P(i) = p_i^alpha / sum_k p_k^alpha.

    Convention 0^0 = 1, so alpha = 0 is exactly uniform even with zero
    weights. Raises ValueError when the powers sum to zero (every weight is
    0 under alpha > 0) or overflow to infinity.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(p)):
        raise ValueError("weights contain non-finite entries")
    if np.any(p < 0):
        raise ValueError("weights contain negative entries")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    with np.errstate(over="ignore"):
        powered = p ** alpha
        total = powered.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"weights ** alpha sum to {total} at alpha={alpha}, not to a "
                         "positive finite total")
    return powered / total


def reward_weights(ds: OfflineDataset, p_base: float) -> np.ndarray:
    """Min-max normalized rewards instead of returns; a non-finite one raises DatasetError."""
    if p_base < 0:
        raise ValueError(f"p_base must be >= 0, got {p_base}")
    r = ds.rewards
    lo, hi = finite_range(r, "transition", "reward")
    if hi == lo:
        return np.full(len(r), 1.0 + p_base)
    return (r - lo) / (hi - lo) + p_base


def top_fraction_filter(ds: OfflineDataset, tr: TrajectoryReturns, fraction: float) -> np.ndarray:
    """Indices of the ceil(fraction * N) transitions with highest trajectory return.

    Ties at the cutoff break by (trajectory index, transition index), i.e. in
    storage order. Result is sorted ascending.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = int(np.ceil(fraction * len(ds)))
    neg = -tr.per_transition_return
    cut = np.partition(neg, k - 1)[k - 1]  # the k-th best; NaN ranks last, as in a sort
    keep, tied = (~np.isnan(neg), np.isnan(neg)) if np.isnan(cut) else (neg < cut, neg == cut)
    keep[np.flatnonzero(tied)[:k - np.count_nonzero(keep)]] = True  # first ties in storage order
    return np.flatnonzero(keep)


class WeightedSampler:
    """Categorical sampler over a fixed probability vector, drawn by groups.

    ``order`` is what a stable argsort of ``probs`` gives, built by sorting
    runs of equal adjacent probability; ``_starts``/``_sizes`` locate each
    group of bit-equal probability in it and ``_cdf`` is the normalized
    cumulative group mass. A draw picks a group by its mass, then a uniform
    member; zero mass sorts first and is never drawn. The table is immutable
    and built with no cache. The RNG stream is per instance: ``with_seed``
    shares the table under a new generator, so an arm's seeds share one
    build and draw what fresh builds would draw.
    """

    def __init__(self, probs: np.ndarray, seed: int):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and non-negative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {probs.sum()!r}, expected 1 within 1e-12")
        start = np.flatnonzero(np.concatenate(([True], probs[1:] != probs[:-1])))
        size = np.diff(start, append=probs.size)
        values, group = np.unique(probs[start], return_inverse=True)
        self._sizes = np.bincount(group, weights=size).astype(np.int64)
        self._starts = np.cumsum(self._sizes) - self._sizes
        # stable, so a group's runs keep storage order; a radix sort up to 2**16 groups
        runs = np.argsort(group.astype(np.min_scalar_type(values.size)), kind="stable")
        start, size = start[runs], size[runs]
        del group, runs  # before the two N-sized arrays: keeps the peak RSS down
        start += size - np.cumsum(size)  # each run's shift from storage to its slot in order
        self.order = np.repeat(start, size)
        self.order += np.arange(probs.size)
        self._cdf = np.cumsum(values * self._sizes)
        self._cdf /= self._cdf[-1]
        self.probs = probs.copy()  # after the build, which then peaks lower
        for a in (self.probs, self.order, self._starts, self._sizes, self._cdf):
            a.setflags(write=False)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def with_seed(self, seed: int) -> "WeightedSampler":
        """A sampler over the same table with a fresh generator seeded ``seed``."""
        other = copy.copy(self)
        other.seed = int(seed)
        other._rng = np.random.default_rng(other.seed)
        return other

    def __len__(self) -> int:
        return self.probs.size

    def sample_batch(self, batch_size: int) -> np.ndarray:
        """Draw batch_size indices i.i.d. with replacement."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        u = self._rng.random((2, batch_size))
        g = np.searchsorted(self._cdf, u[0], side="right")
        # random() <= 1 - 2**-53, so floor(u * size) < size: no clamp needed
        return self.order[self._starts[g] + (u[1] * self._sizes[g]).astype(np.int64)]


def build_sampler(spec: SamplerSpec, ds: OfflineDataset, tr: TrajectoryReturns) -> WeightedSampler:
    """Build the static distribution for a dataset once, before training.

    Return and reward weights are exactly ``1 + p_base`` at their maximum,
    so their powers never all vanish: ``sampling_distribution`` raises only
    when ``alpha`` overflows them.
    """
    n = len(ds)
    if len(tr.per_transition_return) != n:
        raise ValueError("trajectory returns are inconsistent with the dataset")
    if spec.mode == "uniform":
        probs = np.full(n, 1.0 / n)
    elif spec.mode == "return_resample":
        probs = sampling_distribution(normalized_return(tr, spec.p_base), spec.alpha)
    elif spec.mode == "reward_resample":
        probs = sampling_distribution(reward_weights(ds, spec.p_base), spec.alpha)
    else:  # top_fraction; SamplerSpec rejects any other mode
        keep = top_fraction_filter(ds, tr, spec.fraction)
        probs = np.zeros(n)
        probs[keep] = 1.0 / keep.size
    return WeightedSampler(probs, seed=spec.seed)


def distribution_csv(probs: np.ndarray, weights: np.ndarray) -> str:
    """CSV export of a probability vector: index, weight, probability."""
    lines = ["index,weight,probability"]
    for i in range(len(probs)):
        lines.append(f"{i},{float(weights[i])!r},{float(probs[i])!r}")
    return "\n".join(lines) + "\n"
