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
from dataclasses import dataclass

import numpy as np

from .io_envelope import EnvelopeError, read_envelope, write_envelope

ORDS_MAGIC = b"ORDS"
ORDS_VERSION = 1
BLOCK_RECORDS = 65_536  # records packed or parsed per file read or write


class DatasetError(ValueError):
    """Dataset construction or file-format violation."""


def _first_off(values: np.ndarray, lo: int, hi: int) -> int:
    """Flat index of the first of ``values`` that is not an integer in [lo, hi), or -1.
    An integer or bool array in range costs one min and one max pass; NaN is off, and
    nothing is cast, so no value wraps or truncates and numpy warns of nothing."""
    if values.dtype.kind in "biu" and (not values.size or lo <= values.min() <= values.max() < hi):
        return -1
    off = np.flatnonzero((values < lo) | (values >= hi) | (values != np.floor(values)))
    return off[0] if off.size else -1


@dataclass(frozen=True)
class DatasetMeta:
    obs_dim: int
    action: dict  # {"discrete": n}
    env_name: str
    seed: int

    def __post_init__(self):
        if type(self.obs_dim) is not int or self.obs_dim < 1:
            raise DatasetError(f"obs_dim {self.obs_dim!r} is not an int >= 1")
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
    Every observation and reward is finite, and so is the rewards' span. Before any cast,
    of any dtype, every action must be an integer in ``range(n_actions)``, every end flag
    in ``range(2)`` (a bool by its byte) and every bound in int64's range, or a DatasetError
    names the first transition or trajectory that is not, with the value as given.
    ``states`` is None until :meth:`map_states` sets ``(ids, next_id, table)`` and sets
    ``obs`` and ``next_obs`` to None: a mapped dataset holds no rows, only ids into that
    table, and a :meth:`batch` is those ids; rows given as None are a mapping loader's.
    Transition inputs already C-contiguous and of that dtype are shared, not copied: they stay
    writable, and writing them changes the dataset.
    """

    def __init__(self, obs, actions, rewards, next_obs, terminals, timeouts,
                 traj_bounds, meta: DatasetMeta):
        try:  # ragged rows fail here; [] is the empty (0, 2) table
            bounds = np.asarray(traj_bounds)
        except ValueError as exc:
            raise DatasetError(f"trajectory bounds are not an (n, 2) table: {exc}") from None
        bounds = bounds.reshape(0, 2) if bounds.shape == (0,) else bounds
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise DatasetError(f"trajectory bounds have shape {bounds.shape}, not (n, 2)")
        for name, values, lo, hi in (("action", actions, 0, meta.discrete_actions),
                                     ("terminal", terminals, 0, 2), ("timeout", timeouts, 0, 2),
                                     ("bound", bounds, -2**63, 2**63)):
            values = np.asarray(values)  # the casts below would truncate or wrap what this refuses
            values = values.view(np.uint8) if values.dtype == bool else values  # a bool by its byte
            k = _first_off(values, lo, hi)
            if k >= 0:
                where = f"trajectory {k // 2}" if name == "bound" else f"transition {k}"
                raise DatasetError(f"{where}: {name} {values.flat[k]} "
                                   f"is not in range({f'{lo}, ' if lo else ''}{hi})")
        rows = {k: np.ascontiguousarray(x, dtype=np.float64).view()
                for k, x in (("obs", obs), ("next_obs", next_obs)) if x is not None}
        self.obs, self.next_obs = rows.get("obs"), rows.get("next_obs")
        self.actions = np.ascontiguousarray(actions, dtype=np.int64).view()
        self.rewards = np.ascontiguousarray(rewards, dtype=np.float64).view()
        self.terminals = np.ascontiguousarray(terminals, dtype=bool).view()
        self.timeouts = np.ascontiguousarray(timeouts, dtype=bool).view()
        self.traj_bounds = np.array(bounds, dtype=np.int64, order="C")  # always a copy
        self.meta = meta
        self.states = None
        self._validate(rows)
        for a in (*rows.values(), self.actions, self.rewards, self.terminals, self.timeouts,
                  self.traj_bounds):
            a.setflags(write=False)

    def _validate(self, rows: dict) -> None:
        n = len(self.rewards)
        for name, values in rows.items():
            if values.shape != (n, self.meta.obs_dim):
                raise DatasetError(f"{name} shape {values.shape} does not match "
                                   f"(N={n}, obs_dim={self.meta.obs_dim})")
        if len(self.actions) != n or len(self.terminals) != n or len(self.timeouts) != n:
            raise DatasetError("transition arrays have inconsistent lengths")
        for name, values in (*rows.items(), ("reward", self.rewards)):
            # one min and one max pass, no N-sized temporary; NaN propagates through both
            lo, hi = (float(values.min()), float(values.max())) if n else (0.0, 0.0)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                row, *col = np.argwhere(~np.isfinite(values))[0]
                raise DatasetError(f"transition {row}: {name} {values[(row, *col)]} is not finite")
            if name == "reward" and hi - lo == math.inf:  # Python floats: no numpy warning
                raise DatasetError(f"transitions {values.argmin()} and {values.argmax()}: "
                                   f"rewards {lo!r} and {hi!r} span more than float64")
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

    def map_states(self, obs_table: np.ndarray, next_state: np.ndarray, rows=None) -> None:
        """Give each transition's obs its state id, for :meth:`batch`: the rank of
        its row in ``obs_table`` sorted by bytes, as ``np.unique`` sorts void rows.
        Ids come from walking ``next_state`` from each trajectory's first row, and
        each obs and next_obs must have the bytes of its walked state: otherwise a
        DatasetError names the first transition that does not. Then the rows are
        dropped: ``obs`` and ``next_obs`` become None. ``rows`` is each trajectory's first
        obs row and the ``(start, obs, next_obs)`` blocks of all rows; by default its own."""
        void = np.dtype((np.void, 8 * self.meta.obs_dim))
        order = np.argsort(obs_table.view(void).ravel())
        states = obs_table[order]
        next_id = np.argsort(order).astype(np.min_scalar_type(len(order) - 1))[next_state[order]]
        starts, stops = self.traj_bounds.T
        first, blocks = rows or (self.obs[starts], (
            (s, self.obs[s:s + BLOCK_RECORDS], self.next_obs[s:s + BLOCK_RECORDS])
            for s in range(0, len(self), BLOCK_RECORDS)))
        # every trajectory in step, the longest first; a first row that is a state
        # finds its rank among all states but the last
        longest = np.argsort(starts - stops)
        pos = starts[longest]
        cur = np.searchsorted(states[:-1].view(void).ravel(), first[longest].view(void).ravel())
        ids = np.empty(len(self), next_id.dtype)
        for alive in len(pos) - np.cumsum(np.bincount(stops - starts))[:-1]:
            ids[pos[:alive]] = cur[:alive]
            pos, cur = pos[:alive] + 1, next_id[cur[:alive], self.actions[pos[:alive]]]
        table = states.view(np.uint64)  # bytes: -0.0 is not 0.0
        for start, *rows in blocks:
            span = slice(start, start + len(rows[0]))
            want = ids[span], next_id[ids[span], self.actions[span]]
            pairs = [(x.view(np.uint64), w) for x, w in zip(rows, want)]
            if not all(np.array_equal(x, table.take(w, axis=0)) for x, w in pairs):
                # the first row off, a row's obs before its next_obs
                off = [(x != table.take(w, axis=0)).any(1) for x, w in pairs]
                k, f = np.argwhere(np.stack(off, axis=1))[0]
                i, row, name = start + k, rows[f][k], ("obs", "next_obs")[f]
                if not np.isfinite(row).all():  # rows a loader hands over are checked here
                    raise DatasetError(f"transition {i}: {name} {row[~np.isfinite(row)][0]} "
                                       "is not finite")
                fresh = f == 0 and (i == 0 or self.terminals[i - 1] or self.timeouts[i - 1])
                where = (f"a state of {self.meta.env_name}" if fresh else
                         f"{states[want[f][k]].tolist()}, where transition {i - 1 + f} leads")
                raise DatasetError(f"transition {i}: {name} {row.tolist()} is not {where}")
        for a in (ids, next_id, states):
            a.setflags(write=False)
        self.states = ids, next_id, states
        self.obs = self.next_obs = None

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def n_trajectories(self) -> int:
        return len(self.traj_bounds)

    def batch(self, idx: np.ndarray) -> dict:
        """A training batch by transition indices: ``states``, the state table itself
        (shared, not copied), each row's ``obs_id`` and ``next_obs_id`` into it, and
        its action, reward and terminal flag. Needs :meth:`map_states`."""
        if self.states is None:
            raise DatasetError("no state ids: call map_states (or harness.prepare_dataset) first")
        ids, next_id, table = self.states
        obs_id, action = ids.take(idx), self.actions.take(idx)
        return {"states": table, "obs_id": obs_id, "next_obs_id": next_id[obs_id, action],
                "action": action, "reward": self.rewards.take(idx),
                "terminal": self.terminals.take(idx)}


@dataclass(frozen=True)
class TrajectoryReturns:
    """Per-trajectory episodic returns, lengths and the returns' range; nothing N-sized."""

    returns: np.ndarray            # (n_trajectories,)
    lengths: np.ndarray            # (n_trajectories,) int64: transitions per trajectory
    r_min: float
    r_max: float


def compute_trajectory_returns(ds: OfflineDataset) -> TrajectoryReturns:
    """Undiscounted reward sum of each trajectory, in storage order; nothing per transition.

    Each return is ``math.fsum`` of its rewards, so correctly rounded: equal
    sums give bitwise-equal returns. Rewards that overflow float64 as they
    add up, or returns whose max - min does, raise a DatasetError naming the
    trajectory or the two trajectories.
    """
    if len(ds) == 0:
        raise DatasetError("empty dataset")
    bounds = iter(memoryview(ds.traj_bounds.ravel()))  # (start, stop) pairs, no lists
    returns = np.empty(ds.n_trajectories)
    for j, (start, stop) in enumerate(zip(bounds, bounds)):
        try:
            returns[j] = math.fsum(ds.rewards[start:stop].tolist())
        except OverflowError as exc:
            raise DatasetError(f"trajectory {j}: rewards have no float64 sum: {exc}") from None
    r_min, r_max = float(returns.min()), float(returns.max())
    if r_max - r_min == math.inf:  # Python floats: no numpy overflow warning
        raise DatasetError(f"trajectories {returns.argmin()} and {returns.argmax()}: returns "
                           f"{r_min!r} and {r_max!r} span more than float64")
    lengths = np.diff(ds.traj_bounds).ravel()
    returns.setflags(write=False)
    lengths.setflags(write=False)
    return TrajectoryReturns(returns, lengths, r_min, r_max)


def minmax_weights(values: np.ndarray, lo: float, hi: float, p_base: float) -> np.ndarray:
    """``(values - lo) / (hi - lo) + p_base``; all ``1 + p_base`` (so sampling is
    uniform) when ``hi == lo``, where the normalization is undefined."""
    if p_base < 0:
        raise ValueError(f"p_base must be >= 0, got {p_base}")
    if hi == lo:
        return np.full(len(values), 1.0 + p_base)
    return (values - lo) / (hi - lo) + p_base


def normalized_return(tr: TrajectoryReturns, p_base: float) -> np.ndarray:
    """Min-max normalized return per trajectory, plus the additive floor."""
    return minmax_weights(tr.returns, tr.r_min, tr.r_max, p_base)


def return_histogram(tr: TrajectoryReturns, bins: int) -> dict:
    """Equal-width histogram of trajectory returns over [r_min, r_max].

    Returns {"bin_edges": (bins+1,), "counts": (bins,)}; counts sum to the
    number of trajectories. All-equal returns collapse to one unit-width bin.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if tr.r_max == tr.r_min:
        edges = np.array([tr.r_min - 0.5, tr.r_max + 0.5])
        return {"bin_edges": edges, "counts": np.array([len(tr.returns)])}
    counts, edges = np.histogram(tr.returns, bins=bins, range=(tr.r_min, tr.r_max))
    return {"bin_edges": edges, "counts": counts}


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
    """Write an unmapped dataset as a versioned binary file, one block of records at a time."""
    if ds.states is not None:
        raise DatasetError("a mapped dataset holds no rows to save: save it before map_states")
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


def load_dataset(path, env_of=None) -> OfflineDataset:
    """Read a dataset file block by block; raises DatasetError naming the offending record.
    With ``env_of`` (``envsuite.env_from_name``) knowing the header's environment, the file
    must fit it, and :meth:`OfflineDataset.map_states` maps its rows as they are read."""
    with open(path, "rb") as f:
        try:
            _, header, size = read_envelope(f, ORDS_MAGIC, ORDS_VERSION)
        except EnvelopeError as exc:
            raise DatasetError(str(exc)) from exc
        try:
            return _read_payload(f, header, size, env_of)
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from exc


def _read_payload(f, header, size, env_of) -> OfflineDataset:
    try:
        for name in ("obs_dim", "seed", "n_transitions", "n_trajectories"):
            if type(header[name]) is not int:
                raise TypeError(f"{name} {header[name]!r} is not an integer")
        meta = DatasetMeta(obs_dim=header["obs_dim"], action=dict(header["action"]),
                           env_name=str(header["env_name"]), seed=header["seed"])
        n, n_traj = header["n_transitions"], header["n_trajectories"]
        dtype = _record_dtype(meta)
    except (KeyError, TypeError, ValueError) as exc:  # DatasetError included
        raise DatasetError(f"header missing or malformed field: {exc}") from exc
    for name, count in (("n_transitions", n), ("n_trajectories", n_traj)):
        if count < 0:
            raise DatasetError(f"header field {name} is {count}, below 0")
    expected = n * dtype.itemsize + n_traj * 16
    if size != expected:
        raise DatasetError(f"payload has {size} bytes, expected {expected}; "
                           f"transitions block ends inside record {min(size // dtype.itemsize, n)}")
    try:
        mdp = env_of and env_of(meta.env_name)
    except ValueError:  # an unknown environment: the rows load, and the caller names it
        mdp = None
    fits = mdp and {"obs_dim": mdp.obs_dim, "action": {"discrete": mdp.n_actions}}
    if fits and {"obs_dim": meta.obs_dim, "action": meta.action} != fits:  # before any row
        raise DatasetError(f"dataset has obs_dim {meta.obs_dim} and action "
                           f"{meta.action}, but {mdp.name} needs {fits}")
    records, bounds = f.tell(), np.empty((n_traj, 2), "<u8")
    f.seek(n * dtype.itemsize, 1)  # the bounds first, to keep each trajectory's first obs
    if f.readinto(bounds) != bounds.nbytes:
        raise DatasetError("file shrank while being read")
    starts, first = bounds[:, 0], np.empty((n_traj if mdp else 0, meta.obs_dim))
    # the dataset's own arrays, in record and constructor order; no rows when mapped
    kinds = (np.float64, np.int64, np.float64, np.float64, np.uint8, np.uint8)  # flag bytes
    arrays = [None if mdp and name.endswith("obs") else np.empty((n, *dtype[name].shape), kind)
              for name, kind in zip(dtype.names, kinds)]
    block = np.empty(min(n, BLOCK_RECORDS), dtype=dtype)  # both passes read into it
    for start, rec in _blocks(f, records, block, n):
        k = _first_off(rec["action"], 0, meta.discrete_actions)  # before its int64 cast
        if k >= 0:
            raise DatasetError(f"record {start + k}: action {rec['action'][k]} "
                               f"is not in range({meta.discrete_actions})")
        for name, out in zip(dtype.names, arrays):
            if out is not None:
                out[start:start + len(rec)] = rec[name]
        # the trajectories starting in this block; unsorted starts are refused below
        lo, hi = np.searchsorted(starts, (start, start + len(rec))) if mdp else (0, 0)
        first[lo:hi] = rec["obs"].take(starts[lo:hi] - start, axis=0, mode="clip")
    ds = OfflineDataset(*arrays[:4], *(a.view(bool) for a in arrays[4:]), bounds, meta)
    if mdp:
        ds.map_states(mdp.obs_table, mdp.next_state, (first, (
            (start, rec["obs"], rec["next_obs"]) for start, rec in _blocks(f, records, block, n))))
    return ds


def _blocks(f, offset, block, n):
    """(start, records) of each block of the n records at ``offset``, read into ``block``."""
    f.seek(offset)
    for start in range(0, n, BLOCK_RECORDS):
        rec = block[:n - start]
        if f.readinto(rec) != rec.nbytes:
            raise DatasetError("file shrank while being read")
        yield start, rec
