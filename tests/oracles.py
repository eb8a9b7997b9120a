"""Independent reference computations that only the tests use.

Each one states what a fast path of the package must equal: central-difference
gradients for ``nncore.backward``, field-by-field equality for datasets, the
per-row CQL penalty, and the void-row ``np.unique`` that the state-id tables of
``algos.train_step`` reproduce byte for byte.
"""

import numpy as np

from red_offline.dataset import OfflineDataset
from red_offline.nncore import Mlp, forward_cache


def numeric_gradients(net: Mlp, x: np.ndarray, grad_out: np.ndarray, eps: float = 1e-5):
    """Central-difference gradients of J = sum(forward(x) * grad_out).

    Independent of :func:`backward`; used to validate it. Laid out like
    ``net.params``.
    """
    def objective():
        y, _ = forward_cache(net, x)
        return float((y * grad_out).sum())

    p = net.params
    grads = np.zeros_like(p)
    for k in range(p.size):
        orig = p[k]
        p[k] = orig + eps
        up = objective()
        p[k] = orig - eps
        down = objective()
        p[k] = orig
        grads[k] = (up - down) / (2.0 * eps)
    return grads


def max_relative_gradient_error(analytic, numeric) -> float:
    """max |a - n| / max(1, |a|, |n|) over all parameters."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


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


def cql_penalty(q_row: np.ndarray, data_action: int) -> float:
    """logsumexp(q_row) - q_row[data_action], computed with a max shift."""
    q = np.asarray(q_row, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("q_row must be finite")
    m = q.max()
    return float(m + np.log(np.exp(q - m).sum()) - q[data_action])


def distinct_rows(x: np.ndarray):
    """Distinct rows of ``x`` by exact float64 bytes: (table, inverse) with
    ``x == table[inverse]``, from one ``np.unique`` over a void view."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    keys, inverse = np.unique(x.view(np.dtype((np.void, 8 * x.shape[1]))), return_inverse=True)
    return keys.view(np.float64).reshape(-1, x.shape[1]), inverse.reshape(-1)


def with_row_ids(batch: dict) -> dict:
    """``batch`` with the ``obs_id`` and ``next_obs_id`` that rank its rows by
    bytes, as they do in the batch of a dataset mapped to its environment's
    states; for rows that belong to no environment."""
    return dict(batch, obs_id=distinct_rows(batch["obs"])[1],
                next_obs_id=distinct_rows(batch["next_obs"])[1])


def row_batch(ds: OfflineDataset, idx) -> dict:
    """``ds.batch(idx)`` for a dataset of arbitrary rows, with ids by
    :func:`with_row_ids`."""
    return with_row_ids({"obs": ds.obs[idx], "action": ds.actions[idx],
                         "reward": ds.rewards[idx], "next_obs": ds.next_obs[idx],
                         "terminal": ds.terminals[idx], "timeout": ds.timeouts[idx]})
