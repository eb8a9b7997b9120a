import math
import warnings

import numpy as np
import pytest

from red_offline.dataset import compute_trajectory_returns
from red_offline.sampler import (SamplerSpec, WeightedSampler, build_sampler,
                                 reward_weights, sampling_distribution,
                                 top_fraction_filter)

from conftest import make_dataset


def normalize_oracle(p, alpha):
    # plain python: powers summed with fsum, one value at a time
    powered = [x ** alpha if x > 0 else (1.0 if alpha == 0 else 0.0) for x in p]
    total = math.fsum(powered)
    return [x / total for x in powered]


def test_alpha_zero_is_exactly_uniform():
    for n in (1, 3, 17):
        p = np.abs(np.random.default_rng(n).normal(size=n))
        p[0] = 0.0
        out = sampling_distribution(p, 0.0)
        assert np.array_equal(out, np.full(n, 1.0 / n))


def test_normalization_examples():
    out = sampling_distribution(np.array([0.0, 0.5, 1.0]), 1.0)
    assert np.allclose(out, [0.0, 1 / 3, 2 / 3], atol=1e-15)
    out = sampling_distribution(np.array([1.0, 2.0, 3.0]), 2.0)
    assert np.allclose(out, [1 / 14, 4 / 14, 9 / 14], atol=1e-15)


def test_normalization_matches_oracle_random():
    rng = np.random.default_rng(12)
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.7):
        p = rng.random(200)
        p[rng.random(200) < 0.3] = 0.0
        out = sampling_distribution(p, alpha)
        assert np.allclose(out, normalize_oracle(p.tolist(), alpha), atol=1e-13)
        assert abs(out.sum() - 1.0) < 1e-12


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        sampling_distribution(np.array([0.1, -0.2]), 1.0)
    with pytest.raises(ValueError):
        sampling_distribution(np.array([0.1, np.inf]), 1.0)
    with pytest.raises(ValueError):
        sampling_distribution(np.array([]), 1.0)
    with pytest.raises(ValueError):
        sampling_distribution(np.array([1.0]), -1.0)


def test_all_zero_weights_raise_naming_alpha():
    # all zero, or all underflowing to zero: no mass to normalize
    for p, alpha in ((np.zeros(4), 1.0), (np.full(3, 1e-200), 2.0)):
        with pytest.raises(ValueError, match=f"sum to 0.0 at alpha={alpha}"):
            sampling_distribution(p, alpha)


@pytest.mark.parametrize("p,alpha", [(np.array([1.0, 2.0]), 2000.0),
                                     (np.array([1.0, 1.5]), np.inf),
                                     (np.full(3, 1e308), 1.0)])
def test_overflowing_powers_raise_naming_alpha(p, alpha):
    # one power overflows, or only their sum does; numpy warns about neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"sum to inf at alpha={alpha}"):
            sampling_distribution(p, alpha)


def test_alpha_inf_keeps_only_the_largest_weights():
    # weights at most 1: every power is 0 except the maxima's, which stay 1
    ds = make_dataset([[1.0], [3.0, 0.0], [0.0, 3.0], [2.0]])
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="return_resample", alpha=np.inf, p_base=0.0), ds, tr)
    assert s.probs.tolist() == [0.0, 0.25, 0.25, 0.25, 0.25, 0.0]
    assert sampling_distribution(np.array([0.5, 1.0, 0.0]), np.inf).tolist() == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("name", ["replay_analog", "expert_analog", "sparse_analog",
                                  "sparse_hard_analog", "all_equal"])
def test_build_sampler_never_falls_back_at_zero_floor(preset_dataset, name):
    # the best transition weighs exactly 1 + p_base, so sum(w ** alpha) >= 1
    if name == "all_equal":
        ds = make_dataset([[1.0, 2.0], [3.0], [0.5, 0.5, 2.0]])
    else:
        ds = preset_dataset(name)
    tr = compute_trajectory_returns(ds)
    for mode in ("return_resample", "reward_resample"):
        for alpha in (0.0, 1.0, 50.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                s = build_sampler(SamplerSpec(mode=mode, alpha=alpha, p_base=0.0), ds, tr)
            assert s.probs.max() > 0.0 and s.probs.sum() == pytest.approx(1.0)


def test_reward_weights_examples():
    ds = make_dataset([[0.0, 1.0]])
    w = reward_weights(ds, 0.3)
    assert w.tolist() == [0.3, 1.3]
    ds_eq = make_dataset([[2.0, 2.0], [2.0]])
    assert reward_weights(ds_eq, 0.1).tolist() == [1.1] * 3


def test_reward_weights_match_minmax_oracle():
    rng = np.random.default_rng(5)
    ds = make_dataset([list(rng.normal(size=4)) for _ in range(10)])
    w = reward_weights(ds, 0.2)
    lo, hi = ds.rewards.min(), ds.rewards.max()
    oracle = [(r - lo) / (hi - lo) + 0.2 for r in ds.rewards]
    assert np.allclose(w, oracle, atol=1e-14)


def test_top_fraction_selects_best_trajectory():
    ds = make_dataset([[float(i)] for i in range(10)])
    tr = compute_trajectory_returns(ds)
    assert top_fraction_filter(ds, tr, 0.1).tolist() == [9]
    assert top_fraction_filter(ds, tr, 1.0).tolist() == list(range(10))


def test_top_fraction_tie_break_matches_stable_sort_oracle():
    # returns: 5, 3, 3, 3, 1 with multi-transition trajectories; the cutoff
    # lands inside the tied block
    ds = make_dataset([[5.0], [1.5, 1.5], [3.0], [1.0, 2.0], [1.0]])
    tr = compute_trajectory_returns(ds)
    n = len(ds)
    for fraction in (0.2, 0.4, 0.5, 0.7, 0.9):
        k = math.ceil(fraction * n)
        keyed = sorted(range(n), key=lambda i: (-tr.per_transition_return[i], i))
        expected = sorted(keyed[:k])
        got = top_fraction_filter(ds, tr, fraction).tolist()
        assert got == expected, fraction
    with pytest.raises(ValueError):
        top_fraction_filter(ds, tr, 0.0)


def test_top_fraction_matches_stable_sort_oracle_with_many_ties():
    # few distinct returns over trajectories of mixed length, so the cutoff
    # usually falls inside a tied block; some trials add NaN returns, which a
    # sort on -return ranks last
    rng = np.random.default_rng(17)
    for trial in range(200):
        n_traj = int(rng.integers(1, 40))
        palette = rng.choice([-2.0, 0.0, 1.0, 3.0, np.inf, -np.inf] + [np.nan] * (trial % 3 == 0),
                             int(rng.integers(1, 4)), replace=False)
        lengths = rng.integers(1, 5, n_traj)
        ds = make_dataset([[float(rng.choice(palette))] + [0.0] * (m - 1) for m in lengths])
        tr = compute_trajectory_returns(ds)
        r = tr.per_transition_return
        for fraction in (1 / len(ds), 0.1, 0.37, 0.5, 1.0 - rng.random(), 1.0):
            k = math.ceil(fraction * len(ds))
            expected = np.sort(np.argsort(-r, kind="stable")[:k])
            assert np.array_equal(top_fraction_filter(ds, tr, fraction), expected), (trial, k)


def test_build_sampler_uniform():
    ds = make_dataset([[1.0], [2.0], [3.0], [4.0]])
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="uniform", seed=1), ds, tr)
    assert np.array_equal(s.probs, np.full(4, 0.25))


def test_build_sampler_binary_return_ratio():
    # equal-length trajectories with 0/1 returns, floor 0.2, exponent 1:
    # success transitions are sampled 6x as often as failures
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.2, seed=0),
                      ds, tr)
    p_succ = s.probs[2]
    p_fail = s.probs[0]
    assert p_succ / p_fail == pytest.approx(1.2 / 0.2, rel=1e-12)


def test_build_sampler_top_fraction_half():
    ds = make_dataset([[1.0], [2.0], [3.0], [4.0]])
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="top_fraction", fraction=0.5, seed=0), ds, tr)
    assert s.probs.tolist() == [0.0, 0.0, 0.5, 0.5]


def test_sample_batch_trivial_cases():
    s1 = WeightedSampler(np.array([1.0]), seed=4)
    assert s1.sample_batch(32).tolist() == [0] * 32
    s2 = WeightedSampler(np.array([0.0, 1.0]), seed=4)
    assert s2.sample_batch(1000).tolist() == [1] * 1000


def test_sample_batch_empirical_frequency():
    s = WeightedSampler(np.array([0.25, 0.75]), seed=99)
    draws = s.sample_batch(1_000_000)
    freq = np.bincount(draws, minlength=2) / 1e6
    # binomial std is about 4e-4; 0.003 is a 7 sigma corridor
    assert abs(freq[0] - 0.25) < 0.003
    assert abs(freq[1] - 0.75) < 0.003


def test_sampler_determinism():
    ds = make_dataset([[float(i), 1.0] for i in range(30)])
    tr = compute_trajectory_returns(ds)
    spec = SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.1, seed=777)
    a = build_sampler(spec, ds, tr)
    b = build_sampler(spec, ds, tr)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.sample_batch(5000), b.sample_batch(5000))


def test_zero_mass_indices_never_sampled():
    rng = np.random.default_rng(8)
    probs = rng.random(500)
    probs[rng.random(500) < 0.5] = 0.0
    probs /= probs.sum()
    s = WeightedSampler(probs, seed=3)
    draws = s.sample_batch(200_000)
    assert np.all(probs[draws] > 0)


def test_support_with_positive_floor(preset_dataset):
    ds = preset_dataset("sparse_analog")
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.2, seed=0),
                      ds, tr)
    assert s.probs.min() > 0


def test_zero_floor_blanks_exactly_min_return_trajectories(preset_dataset):
    ds = preset_dataset("sparse_hard_analog")
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode="return_resample", alpha=1.0, p_base=0.0, seed=0),
                      ds, tr)
    failed = tr.per_transition_return == tr.r_min
    assert np.array_equal(s.probs == 0.0, failed)


def test_probs_validation():
    with pytest.raises(ValueError, match="sum"):
        WeightedSampler(np.array([0.5, 0.4]), seed=0)
    with pytest.raises(ValueError):
        WeightedSampler(np.array([1.5, -0.5]), seed=0)
    with pytest.raises(ValueError):
        SamplerSpec(mode="bogus")
    with pytest.raises(ValueError):
        SamplerSpec(fraction=0.0)
    with pytest.raises(ValueError):
        SamplerSpec(alpha=-0.5)


def test_alpha_concentration_limit():
    ds = make_dataset([[1.0], [2.0], [3.0], [10.0]])
    tr = compute_trajectory_returns(ds)
    spec = SamplerSpec(mode="return_resample", alpha=64.0, p_base=0.0, seed=0)
    s = build_sampler(spec, ds, tr)
    assert s.probs[3] > 1 - 1e-9


def reference_groups(probs):
    # plain python: walk the indices in stable sorted order and open a new
    # run wherever the probability changes
    runs = []
    for i in sorted(range(probs.size), key=probs.__getitem__):
        if runs and probs[runs[-1][0]] == probs[i]:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def check_group_table(s):
    """Runs partition range(N), hold bit-equal probabilities in strictly
    increasing order, and imply each index's probability; returns the worst
    implied-probability error relative to ``probs.max()``."""
    probs, order, starts, sizes, cdf = s.probs, s.order, s._starts, s._sizes, s._cdf
    assert np.array_equal(np.sort(order), np.arange(probs.size))
    assert starts[0] == 0 and np.array_equal(starts[1:], (starts + sizes)[:-1])
    assert starts[-1] + sizes[-1] == probs.size and sizes.min() >= 1
    ranked = probs[order]
    assert np.array_equal(ranked, np.repeat(ranked[starts], sizes))
    assert np.all(np.diff(ranked[starts]) > 0)
    assert cdf[-1] == 1.0
    implied = np.repeat(np.diff(cdf, prepend=0.0) / sizes, sizes)
    return np.abs(implied - ranked).max() / probs.max()


# one id per preset, mode and floor; the names are the ones the vectorized
# alias table used, kept so test ids stay stable across the rewrite
ALIAS_CASES = [(name, mode, p_base)
               for name in ("replay_analog", "expert_analog", "sparse_analog", "sparse_hard_analog")
               for mode, p_base in (("uniform", 0.0), ("return_resample", 0.0),
                                    ("return_resample", 0.2), ("reward_resample", 0.0),
                                    ("top_fraction", 0.0))]


@pytest.mark.parametrize("name,mode,p_base", ALIAS_CASES)
def test_alias_table_against_reference_loop(preset_dataset, name, mode, p_base):
    ds = preset_dataset(name)
    tr = compute_trajectory_returns(ds)
    s = build_sampler(SamplerSpec(mode=mode, p_base=p_base, seed=11), ds, tr)
    assert check_group_table(s) <= 1e-13
    runs = np.split(s.order, s._starts[1:])
    assert [r.tolist() for r in runs] == reference_groups(s.probs)
    zero = s.probs == 0.0
    assert not zero[s.sample_batch(200_000)].any()


def test_alias_table_random_distributions_match_reference():
    rng = np.random.default_rng(21)
    for trial in range(300):
        n = int(rng.integers(1, 300))
        w = (rng.random(n), rng.integers(0, 4, n).astype(float),
             rng.choice([0.2, 1.2], n), rng.random(n) ** 8 * (rng.random(n) < 0.5))[trial % 4]
        if not w.any():
            w[0] = 1.0
        probs = w / w.sum()
        if abs(probs.sum() - 1.0) > 1e-12:
            continue
        s = WeightedSampler(probs, seed=trial)
        assert check_group_table(s) <= 1e-13
        assert [r.tolist() for r in np.split(s.order, s._starts[1:])] == reference_groups(s.probs)


def blocky_probs(rng):
    """Probabilities made of runs: long runs, length-1 runs, zero-mass runs,
    and equal values in runs that are not adjacent."""
    palette = np.concatenate(([0.0], rng.random(int(rng.integers(1, 6)))))
    n_runs = int(rng.integers(1, 60))
    values = rng.choice(palette, n_runs)
    lengths = rng.choice([1, 1, 2, int(rng.integers(3, 400))], n_runs)
    w = np.repeat(values, lengths)
    if not w.any():
        w[-1] = 1.0
    return w / w.sum()


def test_group_table_from_runs_matches_a_stable_sort_on_blocky_probabilities():
    rng = np.random.default_rng(33)
    for trial in range(300):
        probs = blocky_probs(rng)
        if abs(probs.sum() - 1.0) > 1e-12:
            continue
        s = WeightedSampler(probs, seed=trial)
        assert np.array_equal(s.order, np.argsort(probs, kind="stable"))
        assert check_group_table(s) <= 1e-13
        assert [r.tolist() for r in np.split(s.order, s._starts[1:])] == reference_groups(s.probs)
        assert s.order.dtype == s._starts.dtype == s._sizes.dtype == np.int64
        assert not (s.probs == 0.0)[s.sample_batch(1000)].any()


class _TopUniform:
    """Generator stand-in whose every uniform is the largest ``random`` returns."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("probs", [np.full(7, 1 / 7), np.array([0.0, 0.25, 0.25, 0.5, 0.0]),
                                   np.array([0.5, 0.125, 0.125, 0.125, 0.125])])
def test_largest_uniform_draws_the_last_member_of_the_last_group(probs):
    s = WeightedSampler(probs, seed=0)
    s._rng = _TopUniform()
    assert np.array_equal(s.sample_batch(3), np.full(3, s.order[-1]))


@pytest.mark.parametrize("name", ["replay_analog", "expert_analog", "sparse_analog",
                                  "sparse_hard_analog"])
def test_group_count_is_the_number_of_distinct_weights(preset_dataset, name):
    # draws search the runs, so equal returns must stay bit-equal; a return
    # that differs in its last bits would add a run, not fail a draw
    ds = preset_dataset(name)
    tr = compute_trajectory_returns(ds)

    def groups(mode, p_base=0.0):
        return build_sampler(SamplerSpec(mode=mode, p_base=p_base), ds, tr)._starts.size
    assert groups("return_resample") == groups("return_resample", 0.2) \
        == np.unique(tr.returns).size
    assert groups("reward_resample") == np.unique(ds.rewards).size
    assert groups("uniform") == 1 and groups("top_fraction") <= 2


def test_with_seed_shares_the_table_and_matches_a_fresh_build():
    ds = make_dataset([[float(i), 1.0] for i in range(30)])
    tr = compute_trajectory_returns(ds)
    arm = build_sampler(SamplerSpec(mode="return_resample", p_base=0.1, seed=0), ds, tr)
    seeded = arm.with_seed(777)
    assert seeded.order is arm.order and seeded._cdf is arm._cdf
    assert seeded.probs is arm.probs and not seeded.probs.flags.writeable
    fresh = build_sampler(SamplerSpec(mode="return_resample", p_base=0.1, seed=777), ds, tr)
    assert np.array_equal(seeded.sample_batch(5000), fresh.sample_batch(5000))
    # the arm's own stream is untouched by draws on the reseeded copy
    assert np.array_equal(arm.sample_batch(100),
                          build_sampler(SamplerSpec(mode="return_resample", p_base=0.1,
                                                    seed=0), ds, tr).sample_batch(100))
