"""Correctness checks on the program's outputs, computed apart from the program.

Every check raises :class:`CheckError` naming what it found. Reference values
come from the benchmark's own arithmetic: finite-horizon dynamic programming
over the environment tables, a reader of the documented ``.ords``/``.orck``
envelope, and trajectory returns summed from rewards and trajectory bounds.
No check compares against a saved copy of an earlier output.
"""

import json
import math
import struct

import numpy as np

# Episodes behind the program's Monte Carlo random reference; the tolerance on
# refs.random is four standard errors of a mean over this many episodes.
REFERENCE_EPISODES = 10_000
ENVELOPE_PREFIX = 16  # 4 magic bytes, u32 version, u64 header length
RETURN_DECIMALS = 6   # returns equal to this many decimals form one group
FLOAT_RTOL = 1e-12


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(a, b, rtol=FLOAT_RTOL):
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rtol, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# finite-horizon dynamic programming over the environment tables

def optimal_return(next_state, reward, terminal, start, horizon):
    """Largest undiscounted return reachable from ``start`` within ``horizon`` steps."""
    cont = ~np.asarray(terminal, dtype=bool)
    value = np.zeros(next_state.shape[0])
    for _ in range(horizon):
        value = np.where(cont, reward + value[next_state], reward).max(axis=1)
    return float(value[start])


def uniform_return_moments(next_state, reward, terminal, start, horizon):
    """Exact mean and variance of the return under the uniform random policy."""
    cont = ~np.asarray(terminal, dtype=bool)
    mean = np.zeros(next_state.shape[0])
    second = np.zeros(next_state.shape[0])
    for _ in range(horizon):
        nm, ns = mean[next_state], second[next_state]
        second = np.where(cont, reward * reward + 2.0 * reward * nm + ns,
                          reward * reward).mean(axis=1)
        mean = np.where(cont, reward + nm, reward).mean(axis=1)
    m = float(mean[start])
    return m, max(float(second[start]) - m * m, 0.0)


class EnvReference:
    """Optimal and uniform-policy values of one environment, from its tables."""

    def __init__(self, mdp):
        tables = (mdp.next_state, mdp.reward, mdp.terminal, mdp.start_state, mdp.horizon)
        self.optimum = optimal_return(*tables)
        self.random_mean, var = uniform_return_moments(*tables)
        self.random_se = math.sqrt(var / REFERENCE_EPISODES)


def check_refs(refs, env: EnvReference):
    _require(_close(refs["expert"], env.optimum),
             f"refs.expert {refs['expert']!r} is not the optimal return {env.optimum!r}")
    gap = abs(refs["random"] - env.random_mean)
    _require(gap <= 4.0 * env.random_se,
             f"refs.random {refs['random']!r} is {gap:.4g} from the exact uniform-policy "
             f"value {env.random_mean!r}, more than four standard errors "
             f"(4 x {env.random_se:.4g})")


def _normalized(raw, refs):
    return 100.0 * (raw - refs["random"]) / (refs["expert"] - refs["random"])


def check_seed_entries(per_seed, refs, final_k, env: EnvReference):
    """Recompute every normalized score and final-K mean from the raw returns."""
    for entry in per_seed:
        seed = entry["seed"]
        _require(not entry["aborted"], f"seed {seed} aborted")
        raw = entry["eval_returns"]
        _require(len(entry["eval_normalized"]) == len(raw),
                 f"seed {seed}: {len(raw)} returns but {len(entry['eval_normalized'])} scores")
        for i, (r, n) in enumerate(zip(raw, entry["eval_normalized"])):
            _require(r <= env.optimum + 1e-9,
                     f"seed {seed}: eval return {r!r} exceeds the optimum {env.optimum!r}")
            _require(_close(n, _normalized(r, refs)),
                     f"seed {seed}: eval_normalized[{i}] = {n!r}, recomputed "
                     f"{_normalized(r, refs)!r}")
        k = min(final_k, len(raw))
        mean_raw = math.fsum(raw[-k:]) / k
        _require(_close(entry["final_k_mean_raw"], mean_raw),
                 f"seed {seed}: final_k_mean_raw {entry['final_k_mean_raw']!r}, "
                 f"recomputed {mean_raw!r}")
        _require(_close(entry["final_k_mean_normalized"], _normalized(mean_raw, refs)),
                 f"seed {seed}: final_k_mean_normalized {entry['final_k_mean_normalized']!r}, "
                 f"recomputed {_normalized(mean_raw, refs)!r}")


def check_experiment(payload, env: EnvReference):
    """Checks every single-stage report gets (``train`` or one ``compare`` arm)."""
    check_refs(payload["refs"], env)
    check_seed_entries(payload["per_seed"], payload["refs"],
                       payload["config"]["eval"]["final_k"], env)


# ---------------------------------------------------------------------------
# workload-level properties

def check_direction(scores, families):
    """return_resample >= uniform for at least three of the four families."""
    wins = [f for f in families
            if scores[(f, "return_resample")] >= scores[(f, "uniform")]]
    _require(len(wins) >= 3,
             f"return_resample >= uniform for only {len(wins)} of {len(families)} "
             f"families: {scores}")


def check_compare_table(table, env: EnvReference):
    checksums = {arm: table["reports"][arm]["dataset_checksum"] for arm in table["arms"]}
    _require(len(set(checksums.values())) == 1 and
             table["dataset_checksum"] in checksums.values(),
             f"arms report different dataset checksums: {checksums}")
    for arm in table["arms"]:
        check_experiment(table["reports"][arm], env)


def check_two_stage(report, env: EnvReference, checkpoint_paths):
    check_refs(report["refs"], env)
    final_k = report["config"]["eval"]["final_k"]
    for stage in ("stage1", "stage2"):
        check_seed_entries(report[stage]["per_seed"], report["refs"], final_k, env)
    heads = report["stage2"]["head_checks"]
    _require(heads and all(h["heads_bitwise_equal"] for h in heads),
             f"frozen heads changed: {heads}")
    m1 = report["stage1"]["aggregate"]["mean_normalized"]
    m2 = report["stage2"]["aggregate"]["mean_normalized"]
    _require(report["stage2_minus_stage1"] == m2 - m1,
             f"stage2_minus_stage1 {report['stage2_minus_stage1']!r} is not "
             f"{m2!r} - {m1!r}")
    for path in checkpoint_paths:
        check_checkpoint_size(path)


def check_same_bytes(files_a, files_b):
    """Pairs of files that must be byte-identical (``--jobs 2`` against ``--jobs 1``)."""
    for a, b in zip(files_a, files_b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            _require(fa.read() == fb.read(), f"{b} differs from {a}")


# ---------------------------------------------------------------------------
# the documented envelope: magic, u32 version, u64 header length, JSON, payload

def read_envelope(path, magic):
    with open(path, "rb") as f:
        raw = f.read()
    _require(raw[:4] == magic, f"{path}: magic {raw[:4]!r}, expected {magic!r}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[ENVELOPE_PREFIX:ENVELOPE_PREFIX + header_len])
    return header, raw, ENVELOPE_PREFIX + header_len


def check_checkpoint_size(path):
    """A ``.orck`` file is exactly as long as its header's layer sizes imply."""
    header, raw, start = read_envelope(path, b"ORCK")
    floats = 0
    for name in header["order"]:
        sizes = header["nets"][name]["layer_sizes"]
        floats += sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
    _require(len(raw) == start + 8 * floats,
             f"{path}: {len(raw)} bytes, header implies {start + 8 * floats}")


def read_ords(path):
    """Transitions and trajectory bounds of a ``.ords`` file, as plain arrays."""
    header, raw, start = read_envelope(path, b"ORDS")
    d, a = header["obs_dim"], 1 if "discrete" in header["action"] else header["action"]["box"]
    n, n_traj = header["n_transitions"], header["n_trajectories"]
    record = np.dtype([("obs", "<f8", (d,)), ("action", "<f8", (a,)), ("reward", "<f8"),
                       ("next_obs", "<f8", (d,)), ("terminal", "u1"), ("timeout", "u1")])
    _require(len(raw) == start + n * record.itemsize + n_traj * 16,
             f"{path}: {len(raw)} bytes do not hold {n} records and {n_traj} bounds")
    rec = np.frombuffer(raw, dtype=record, count=n, offset=start)
    bounds = np.frombuffer(raw, dtype="<u8", offset=start + n * record.itemsize)
    return header, rec, bounds.reshape(n_traj, 2).astype(np.int64)


def check_ords_matches(path, ds):
    """The file, read by the benchmark's reader, holds exactly the dataset's transitions."""
    header, rec, bounds = read_ords(path)
    _require(header["env_name"] == ds.meta.env_name and header["n_transitions"] == len(ds),
             f"{path}: header {header} does not describe the dataset")
    fields = (("obs", ds.obs), ("reward", ds.rewards), ("next_obs", ds.next_obs),
              ("action", ds.actions.reshape(len(ds), -1)),
              ("terminal", ds.terminals), ("timeout", ds.timeouts))
    for name, expected in fields:
        _require(np.array_equal(rec[name], expected), f"{path}: field {name!r} differs")
    _require(np.array_equal(bounds, np.asarray(ds.traj_bounds, dtype=np.int64)),
             f"{path}: trajectory bounds differ")
    return rec, bounds


# ---------------------------------------------------------------------------
# the sampling distribution, from rewards and trajectory bounds

class ReturnGroups:
    """Transitions grouped by the return of their trajectory.

    Returns are summed per trajectory from the rewards; transitions whose
    returns agree to ``RETURN_DECIMALS`` decimals share a group, so the
    program's float rounding of the same sums cannot split a group.
    """

    def __init__(self, rewards, bounds):
        returns = np.add.reduceat(np.asarray(rewards, dtype=np.float64), bounds[:, 0])
        per_transition = np.repeat(returns, bounds[:, 1] - bounds[:, 0])
        keys, self.group = np.unique(np.round(per_transition, RETURN_DECIMALS),
                                     return_inverse=True)
        self.values = keys
        self.sizes = np.bincount(self.group, minlength=keys.size)
        self.n = per_transition.size

    def return_resample_probs(self):
        """Group probabilities for P(i) proportional to (R(i) - R_min) / (R_max - R_min)."""
        lo, hi = self.values[0], self.values[-1]
        mass = self.sizes * (self.values - lo) / (hi - lo)
        return mass / mass.sum()


def check_draws_fit(draws, groups: ReturnGroups, probs):
    """Chi-square test of drawn indices against group probabilities ``probs``.

    Groups expected to receive fewer than five draws are pooled. The bound is
    the degrees of freedom plus six standard deviations of the statistic, so
    a correct sampler fails it with probability below one in a million.
    """
    n = draws.size
    observed = np.bincount(groups.group[draws], minlength=probs.size)
    impossible = (probs == 0) & (observed > 0)
    _require(not impossible.any(),
             f"{int(observed[impossible].sum())} draws landed on zero-probability returns "
             f"{groups.values[impossible].tolist()}")
    expected = probs * n
    big = expected >= 5.0
    obs = np.append(observed[big], observed[~big & (probs > 0)].sum())
    exp = np.append(expected[big], expected[~big & (probs > 0)].sum())
    keep = exp > 0
    stat = float((((obs - exp) ** 2)[keep] / exp[keep]).sum())
    df = max(int(keep.sum()) - 1, 1)
    bound = df + 6.0 * math.sqrt(2.0 * df)
    _require(stat <= bound,
             f"draw frequencies do not fit: chi-square {stat:.1f} over {df} degrees of "
             f"freedom, bound {bound:.1f}")


def check_zero_mass(probs, groups: ReturnGroups):
    """Mass is zero exactly on the transitions of minimum-return trajectories."""
    zero = probs == 0.0
    lowest = groups.group == 0
    _require(np.array_equal(zero, lowest),
             f"{int(zero.sum())} zero-mass transitions, {int(lowest.sum())} at the "
             f"minimum return {groups.values[0]!r}; they differ at "
             f"{int((zero != lowest).sum())} transitions")


def check_top_fraction(probs, groups: ReturnGroups, fraction):
    """Support is the ceil(fraction * N) highest-return transitions, uniformly."""
    support = probs > 0
    k = math.ceil(fraction * groups.n)
    _require(int(support.sum()) == k, f"support has {int(support.sum())} transitions, not {k}")
    _require(groups.group[support].min() >= groups.group[~support].max(initial=-1),
             "a transition outside the support has a higher return than one inside")
    inside = probs[support]
    _require(bool(np.all(inside == inside[0])), "probabilities within the support differ")
