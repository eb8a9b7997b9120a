"""Offline transition datasets with trajectory indexing and return statistics.

An :class:`OfflineDataset` is a flat, immutable store of transitions plus the
trajectory boundaries that partition it: one read-only (n, 2) int64 array of
``[start, stop)`` rows. Uniform sampling over it realizes the data-collection
policy; reweighted sampling (see :mod:`red_offline.sampler`) realizes an
alternative policy with the same support. Episode returns are undiscounted,
correctly rounded (``math.fsum``) sums; trajectories cut off by the horizon
contribute their partial sum (a known, documented bias).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .io_envelope import EnvelopeError, read_envelope, write_envelope

ORDS_MAGIC = b"ORDS"
ORDS_VERSION = 1
BLOCK_RECORDS = 65_536  # records packed or parsed per file read or write


class DatasetError(ValueError):
    """Dataset construction or file-format violation."""


@dataclass(frozen=True)
class DatasetMeta:
    obs_dim: int
    action: dict  # {"discrete": n}
    env_name: str
    seed: int

    def __post_init__(self):
        n = self.action.get("discrete")
        if list(self.action) != ["discrete"] or type(n) is not int or n < 1:
            raise DatasetError(f"action space {self.action!r} is not {{'discrete': n >= 1}}")

    @property
    def discrete_actions(self) -> int:
        return self.action["discrete"]


class OfflineDataset:
    """Flat transition arrays plus trajectory bounds.

    Its arrays are read-only views; safe to share across concurrent runs.
    Arrays are float64 (observations, rewards), actions int64 in
    ``[0, n_actions)``, flags bool, and ``traj_bounds`` one C-contiguous
    (n, 2) int64 array whose row j is trajectory j's ``[start, stop)``.
    Transition inputs already C-contiguous and of that dtype are shared, not
    copied: they stay writable, and writing them changes the dataset.
    """

    def __init__(self, obs, actions, rewards, next_obs, terminals, timeouts,
                 traj_bounds, meta: DatasetMeta):
        self.obs = np.ascontiguousarray(obs, dtype=np.float64).view()
        self.actions = np.ascontiguousarray(actions, dtype=np.int64).view()
        self.rewards = np.ascontiguousarray(rewards, dtype=np.float64).view()
        self.next_obs = np.ascontiguousarray(next_obs, dtype=np.float64).view()
        self.terminals = np.ascontiguousarray(terminals, dtype=bool).view()
        self.timeouts = np.ascontiguousarray(timeouts, dtype=bool).view()
        try:  # ragged rows fail here; [] is the empty (0, 2) table
            bounds = np.array(traj_bounds, dtype=np.int64, order="C")
        except (TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"trajectory bounds are not an (n, 2) table: {exc}") from None
        self.traj_bounds = bounds.reshape(0, 2) if bounds.shape == (0,) else bounds
        if self.traj_bounds.ndim != 2 or self.traj_bounds.shape[1] != 2:
            raise DatasetError(f"trajectory bounds have shape {bounds.shape}, not (n, 2)")
        self.meta = meta
        self._validate()
        for a in (self.obs, self.actions, self.rewards, self.next_obs,
                  self.terminals, self.timeouts, self.traj_bounds):
            a.setflags(write=False)

    def _validate(self) -> None:
        n = len(self.rewards)
        if self.obs.ndim != 2 or self.obs.shape != (n, self.meta.obs_dim):
            raise DatasetError(
                f"obs shape {self.obs.shape} does not match (N={n}, obs_dim={self.meta.obs_dim})")
        if self.next_obs.shape != self.obs.shape:
            raise DatasetError("next_obs shape differs from obs shape")
        if len(self.actions) != n or len(self.terminals) != n or len(self.timeouts) != n:
            raise DatasetError("transition arrays have inconsistent lengths")
        n_actions = self.meta.discrete_actions
        if n and not 0 <= self.actions.min() <= self.actions.max() < n_actions:
            bad = np.flatnonzero((self.actions < 0) | (self.actions >= n_actions))[0]
            raise DatasetError(f"transition {bad}: action {self.actions[bad]} "
                               f"outside [0, {n_actions})")
        both = np.flatnonzero(self.terminals & self.timeouts)
        if both.size:
            raise DatasetError(f"transition {both[0]}: terminal and timeout both set")
        starts, ends = self.traj_bounds.T
        cursors = np.concatenate(([0], ends))  # where each trajectory must start, then the end
        broken = np.flatnonzero((starts != cursors[:-1]) | (ends <= starts))
        # trajectories before the first broken bound partition [0, ends[j])
        ok = ends[:broken[0] if broken.size else None]
        ok = ok[ok <= n]
        flagged = self.terminals | self.timeouts
        unflagged = np.flatnonzero(~flagged[ok - 1])
        checked = unflagged[0] if unflagged.size else ok.size  # trajectories fully checked
        covered = ok[checked - 1] if checked else 0
        if np.count_nonzero(flagged[:covered]) != checked:
            first = np.setdiff1d(np.flatnonzero(flagged[:covered]), ok[:checked] - 1)[0]
            j = np.searchsorted(ok, first, side="right")
            raise DatasetError(f"trajectory {j}: interior transition {first} has an end flag")
        if unflagged.size:
            j = unflagged[0]
            raise DatasetError(f"trajectory {j}: final transition {ok[j] - 1} has no end flag")
        if broken.size:
            j = broken[0]
            raise DatasetError(f"trajectory {j}: bounds ({starts[j]}, {ends[j]}) do not "
                               f"continue partition at {cursors[j]}")
        if cursors[-1] != n:
            raise DatasetError(f"trajectory bounds cover [0, {cursors[-1]}) but N={n}")

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def n_trajectories(self) -> int:
        return len(self.traj_bounds)

    def batch(self, idx: np.ndarray) -> dict:
        """Gather a training batch by transition indices (``take``: faster, same values)."""
        return {
            "obs": self.obs.take(idx, axis=0),
            "action": self.actions.take(idx),
            "reward": self.rewards.take(idx),
            "next_obs": self.next_obs.take(idx, axis=0),
            "terminal": self.terminals.take(idx),
            "timeout": self.timeouts.take(idx),
        }


@dataclass(frozen=True)
class TrajectoryReturns:
    """Per-trajectory episodic returns and their per-transition broadcast."""

    returns: np.ndarray            # (n_trajectories,)
    r_min: float
    r_max: float
    per_transition_return: np.ndarray = field(repr=False)  # (N,)


def compute_trajectory_returns(ds: OfflineDataset) -> TrajectoryReturns:
    """Undiscounted reward sum per trajectory, broadcast back to transitions.

    Each return is ``math.fsum`` of its rewards, so correctly rounded: equal
    sums give bitwise-equal returns. NaN rewards give a NaN return, infinite
    rewards of one sign an infinite one; +inf added to -inf, or finite
    rewards that overflow float64 as they add up, raise a DatasetError
    naming the trajectory.
    """
    if len(ds) == 0:
        raise DatasetError("empty dataset")
    starts, stops = ds.traj_bounds.T
    returns = np.empty(ds.n_trajectories)
    for j, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        try:
            returns[j] = math.fsum(ds.rewards[start:stop].tolist())
        except (ValueError, OverflowError) as exc:
            raise DatasetError(f"trajectory {j}: rewards have no float64 sum: {exc}") from None
    per_transition = np.repeat(returns, stops - starts)
    returns.setflags(write=False)
    per_transition.setflags(write=False)
    return TrajectoryReturns(
        returns=returns,
        r_min=float(returns.min()),
        r_max=float(returns.max()),
        per_transition_return=per_transition,
    )


def finite_range(values: np.ndarray, item: str, name: str) -> tuple:
    """``(min, max)`` of ``values``; DatasetError names a non-finite one as ``{item} {i}``."""
    lo, hi = float(values.min()), float(values.max())  # NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DatasetError(f"{item} {i}: {name} {values[i]} is not finite")
    return lo, hi


def normalized_return(tr: TrajectoryReturns, p_base: float) -> np.ndarray:
    """Min-max normalized trajectory return per transition, plus the additive floor.

    With all returns equal the normalization is undefined; every weight
    becomes ``1 + p_base`` so downstream sampling degenerates to uniform. A
    non-finite return raises DatasetError naming its trajectory.
    """
    if p_base < 0:
        raise ValueError(f"p_base must be >= 0, got {p_base}")
    ptr = tr.per_transition_return
    r_min, r_max = finite_range(tr.returns, "trajectory", "return")
    if r_max == r_min:
        return np.full(len(ptr), 1.0 + p_base)
    return (ptr - r_min) / (r_max - r_min) + p_base


def return_histogram(tr: TrajectoryReturns, bins: int) -> dict:
    """Equal-width histogram of trajectory returns over [r_min, r_max].

    Returns {"bin_edges": (bins+1,), "counts": (bins,)}; counts sum to the
    number of trajectories. All-equal returns collapse to one unit-width bin;
    a non-finite return raises DatasetError naming its trajectory.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    r_min, r_max = finite_range(tr.returns, "trajectory", "return")
    if r_max == r_min:
        edges = np.array([r_min - 0.5, r_max + 0.5])
        return {"bin_edges": edges, "counts": np.array([len(tr.returns)])}
    counts, edges = np.histogram(tr.returns, bins=bins, range=(r_min, r_max))
    return {"bin_edges": edges, "counts": counts}


def histogram_csv(hist: dict) -> str:
    lines = ["bin_lo,bin_hi,count"]
    edges, counts = hist["bin_edges"], hist["counts"]
    for i, c in enumerate(counts):
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}")
    return "\n".join(lines) + "\n"


def _record_dtype(meta: DatasetMeta) -> np.dtype:
    return np.dtype([
        ("obs", "<f8", (meta.obs_dim,)),
        ("action", "<f8"),
        ("reward", "<f8"),
        ("next_obs", "<f8", (meta.obs_dim,)),
        ("terminal", "u1"),
        ("timeout", "u1"),
    ])


def save_dataset(ds: OfflineDataset, path) -> None:
    """Write a dataset as a versioned binary file, one block of records at a time."""
    meta = ds.meta
    header = {
        "obs_dim": meta.obs_dim,
        "action": meta.action,
        "env_name": meta.env_name,
        "seed": meta.seed,
        "n_transitions": len(ds),
        "n_trajectories": ds.n_trajectories,
    }
    write_envelope(path, ORDS_MAGIC, ORDS_VERSION, header, _packed_blocks(ds))


def _packed_blocks(ds: OfflineDataset):
    fields = (ds.obs, ds.actions, ds.rewards, ds.next_obs, ds.terminals, ds.timeouts)
    block = np.zeros(min(len(ds), BLOCK_RECORDS), dtype=_record_dtype(ds.meta))
    for start in range(0, len(ds), BLOCK_RECORDS):
        rec = block[:len(ds) - start]
        for name, field in zip(rec.dtype.names, fields):
            rec[name] = field[start:start + len(rec)]
        yield rec
    yield ds.traj_bounds.astype("<i8", copy=False)  # the u64 bytes of non-negative int64s


def load_dataset(path) -> OfflineDataset:
    """Read a dataset file block by block; raises DatasetError naming the offending record."""
    with open(path, "rb") as f:
        try:
            _, header, size = read_envelope(f, ORDS_MAGIC, ORDS_VERSION)
        except EnvelopeError as exc:
            raise DatasetError(str(exc)) from exc
        try:
            meta = DatasetMeta(
                obs_dim=int(header["obs_dim"]),
                action=dict(header["action"]),
                env_name=str(header["env_name"]),
                seed=int(header["seed"]),
            )
            n = int(header["n_transitions"])
            n_traj = int(header["n_trajectories"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: header missing or malformed field: {exc}") from exc
        for name, count in (("n_transitions", n), ("n_trajectories", n_traj)):
            if count < 0:
                raise DatasetError(f"{path}: header field {name} is {count}, below 0")
        dtype = _record_dtype(meta)
        expected = n * dtype.itemsize + n_traj * 16
        if size != expected:
            raise DatasetError(
                f"{path}: payload has {size} bytes, expected {expected}; "
                f"transitions block ends inside record {min(size // dtype.itemsize, n)}")
        # the dataset's own arrays, in record and constructor order
        kinds = (np.float64, np.int64, np.float64, np.float64, bool, bool)
        arrays = [np.empty((n, *dtype[name].shape), kind) for name, kind in zip(dtype.names, kinds)]
        block, got = np.empty(min(n, BLOCK_RECORDS), dtype=dtype), 0
        for start in range(0, n, BLOCK_RECORDS):
            rec = block[:n - start]
            got += f.readinto(rec)
            a = rec["action"]
            fits = (a >= -2.0**63) & (a < 2.0**63)  # int64's range; NaN and inf fail it
            bad = np.flatnonzero(~fits | (a != np.rint(a)))
            if bad.size:
                v = a[bad[0]]
                kind = "non-integer" if v != np.rint(v) else "non-int64"
                raise DatasetError(f"{path}: record {start + bad[0]}: {kind} discrete action {v}")
            for name, out in zip(dtype.names, arrays):  # an integral action casts exactly
                out[start:start + len(rec)] = rec[name]
        bounds = np.empty((n_traj, 2), "<u8")
        if got + f.readinto(bounds) != size:
            raise DatasetError(f"{path}: file shrank while being read")
    try:
        return OfflineDataset(*arrays, bounds, meta)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def dataset_equal(a: OfflineDataset, b: OfflineDataset) -> bool:
    """Bit-level equality: same transitions, order, bounds, and meta."""
    return (
        a.meta == b.meta
        and np.array_equal(a.traj_bounds, b.traj_bounds)
        and np.array_equal(a.obs, b.obs)
        and np.array_equal(a.actions, b.actions)
        and np.array_equal(a.rewards, b.rewards)
        and np.array_equal(a.next_obs, b.next_obs)
        and np.array_equal(a.terminals, b.terminals)
        and np.array_equal(a.timeouts, b.timeouts)
    )
