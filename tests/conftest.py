import os
import threading

import numpy as np
import pytest

import red_offline
from red_offline import dataset as dataset_module
from red_offline.dataset import ORDS_MAGIC, ORDS_VERSION, DatasetMeta, OfflineDataset
from red_offline.harness import DatasetSource, pin_blas_threads, prepare_dataset
from red_offline.io_envelope import read_envelope, write_envelope

_PRESET_CACHE = {}


def src_env():
    """A copy of the environment with the directory holding the package under
    test first on PYTHONPATH, so a subprocess imports this checkout's code and
    not an installed copy."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(red_offline.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite at one OpenBLAS thread, as every CLI process and seed
    worker does; tests of the pinning itself run in fresh subprocesses."""
    pin_blas_threads()


@pytest.fixture(autouse=True)
def no_thread_outlives_a_runner():
    """Every thread a test starts, such as a worker pool's management
    thread, is joined by the time the test ends."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still alive after the test: {left}"


@pytest.fixture(scope="session")
def preset_dataset():
    """Factory returning cached generated datasets for the named presets, mapped
    to their environment's states as an experiment prepares them."""
    def get(name):
        if name not in _PRESET_CACHE:
            _PRESET_CACHE[name] = prepare_dataset(DatasetSource(preset=name))[0]
        return _PRESET_CACHE[name]
    return get


def make_dataset(rewards_per_traj, obs_dim=1, n_actions=2, seed=0, returns_as_rewards=False):
    """Tiny synthetic dataset: one reward list per trajectory.

    Observations and actions are arbitrary but deterministic; the final
    transition of each trajectory is flagged as a timeout unless
    returns_as_rewards marks it terminal.
    """
    rng = np.random.default_rng(seed)
    obs, actions, rewards, next_obs, terminals, timeouts, bounds = [], [], [], [], [], [], []
    cursor = 0
    for traj in rewards_per_traj:
        m = len(traj)
        obs.append(rng.random((m, obs_dim)))
        next_obs.append(rng.random((m, obs_dim)))
        actions.append(rng.integers(0, n_actions, m))
        rewards.append(np.asarray(traj, dtype=float))
        t = np.zeros(m, dtype=bool)
        to = np.zeros(m, dtype=bool)
        if returns_as_rewards:
            t[-1] = True
        else:
            to[-1] = True
        terminals.append(t)
        timeouts.append(to)
        bounds.append((cursor, cursor + m))
        cursor += m
    meta = DatasetMeta(obs_dim=obs_dim, action={"discrete": n_actions},
                       env_name="synthetic", seed=seed)
    return OfflineDataset(
        obs=np.concatenate(obs), actions=np.concatenate(actions),
        rewards=np.concatenate(rewards), next_obs=np.concatenate(next_obs),
        terminals=np.concatenate(terminals), timeouts=np.concatenate(timeouts),
        traj_bounds=bounds, meta=meta)


@pytest.fixture
def tiny_dataset():
    return make_dataset([[1.0, 2.0, 3.0], [0.5], [-1.0, 1.0]])


def write_record_value(path, record, field, value, col=0):
    """Overwrite one value of an ``.ords`` file in place: column ``col`` of
    ``field`` ("obs", "action", "reward", "next_obs", or the flag bytes
    "terminal" and "timeout") in record ``record``. The dataset constructor
    refuses non-finite values and flags other than 0 and 1, so tests that need
    a file holding one write it into the record bytes."""
    with open(path, "rb") as f:
        _, header, _ = read_envelope(f, ORDS_MAGIC, ORDS_VERSION)
        payload = bytearray(f.read())
    meta = DatasetMeta(header["obs_dim"], header["action"], header["env_name"], header["seed"])
    dtype = dataset_module._record_dtype(meta)
    kind = dtype[field].base
    at = record * dtype.itemsize + dtype.fields[field][1] + kind.itemsize * col
    payload[at:at + kind.itemsize] = np.array(value, kind).tobytes()
    write_envelope(path, ORDS_MAGIC, ORDS_VERSION, header, [payload])
