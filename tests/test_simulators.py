"""Simulators versus exact formulas and absorbing-chain oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from batchlab.batch_exact import expected_time_series, survival
from batchlab.distributions import power_tail, uniform
from batchlab.errors import CensoringError, DivergenceError
from batchlab.simulators import (batch_times, empirical_n_delta,
                                 full_memory_times, memoryless_times,
                                 run_trials, simulate_batch,
                                 simulate_batch_wordlevel, simulate_full_memory,
                                 simulate_memoryless)
from tests.conftest import MASTER_SEED


def tiled(p, trials):
    """The (trials, n) overlap matrix that repeats one vector."""
    p = np.asarray(p, dtype=np.float64)
    return np.broadcast_to(p, (trials, p.size))


def memoryless_mean_oracle(p):
    """Expected settle time by dense linear solve on the holding states.

    e_i = w_i + (1/(n+1)) * sum_j e_j with w_i = 1/(1-p_i); the overall mean
    averages over the initial pick (target gives 0).
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    w = 1.0 / (1.0 - p)
    A = np.eye(n) - np.ones((n, n)) / (n + 1.0)
    e = np.linalg.solve(A, w)
    return float(e.sum() / (n + 1.0))


def full_memory_mean_oracle(p):
    """Expected settle time by exhaustive chain solve over subset states.

    State = (held wrong concept, set of remaining wrong concepts); the
    expected additional settle time satisfies a finite linear recursion,
    evaluated bottom-up over subsets.  Exponential in n: keep n small.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    memo = {}

    def value(held, remaining):
        # remaining: frozenset of wrong concepts still available (incl. held)
        key = (held, remaining)
        if key in memo:
            return memo[key]
        w = 1.0 / (1.0 - p[held])
        others = remaining - {held}
        k = len(others) + 1                     # re-pick options: target + others
        acc = w
        for nxt in others:
            acc += value(nxt, others) / k
        memo[key] = acc
        return acc

    total = 0.0
    everyone = frozenset(range(n))
    for first in range(n):
        total += value(first, everyone)
    return total / (n + 1.0)


class TestBatchSimulator:
    def test_all_zero_overlaps(self, rng):
        assert all(simulate_batch([0.0, 0.0, 0.0], rng) == 1 for _ in range(50))

    def test_empty(self, rng):
        assert simulate_batch([], rng) == 0

    def test_single_geometric_mean(self, rng):
        times = batch_times(tiled([0.5], 10**6), rng)
        stderr = times.std(ddof=1) / math.sqrt(times.size)
        assert abs(times.mean() - 2.0) <= 3.0 * stderr
        assert_allclose(expected_time_series([0.5]).steps_expectation, 2.0)

    def test_mean_matches_word_count_formula(self, rng):
        for _ in range(5):
            p = rng.random(10) * 0.9
            times = batch_times(tiled(p, 10**5), rng)
            want = expected_time_series(p).steps_expectation
            stderr = times.std(ddof=1) / math.sqrt(times.size)
            assert abs(times.mean() - want) <= 4.0 * stderr

    def test_survival_curve_matches_formula(self, rng):
        p = rng.random(10) * 0.9
        times = batch_times(tiled(p, 10**5), rng)
        for k in (1, 2, 5, 10):
            q_hat = float((times > k).mean())
            q = survival(p, k)
            sigma = math.sqrt(max(q * (1.0 - q), 1e-12) / times.size)
            assert abs(q_hat - q) <= 4.0 * sigma

    def test_wordlevel_reference_same_law(self, rng):
        p = np.asarray([0.3, 0.6, 0.85])
        fast = np.asarray([simulate_batch(p, rng) for _ in range(20000)])
        slow = np.asarray([simulate_batch_wordlevel(p, rng) for _ in range(20000)])
        assert stats.ks_2samp(fast, slow).pvalue > 1e-3

    def test_times_at_least_one(self, rng):
        times = batch_times(tiled([0.001, 0.7], 1000), rng)
        assert times.min() >= 1


class TestMemoryless:
    def test_empty_concept_set(self, rng):
        assert simulate_memoryless([], rng) == 0

    def test_two_state_settle_cdf(self, rng):
        # single wrong concept, p1 = 0: settled by step k w.p. 1-(1/2)^(k+1)
        z = np.asarray([simulate_memoryless([0.0], rng) for _ in range(40000)])
        for k in (0, 1, 2, 4):
            want = 1.0 - 0.5 ** (k + 1)
            got = float((z <= k).mean())
            sigma = math.sqrt(want * (1.0 - want) / z.size)
            assert abs(got - want) <= 4.0 * sigma

    def test_mean_matches_linear_solve(self, rng):
        p = [0.9]
        want = memoryless_mean_oracle(p)
        z = np.asarray([simulate_memoryless(p, rng) for _ in range(10**5)])
        stderr = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - want) <= 3.0 * stderr

    def test_bulk_matches_linear_solve(self, rng):
        p = [0.2, 0.5, 0.8]
        want = memoryless_mean_oracle(p)
        z = memoryless_times(tiled(p, 2 * 10**5), rng)
        finite = z[np.isfinite(z)]
        stderr = finite.std(ddof=1) / math.sqrt(finite.size)
        assert abs(finite.mean() - want) <= 4.0 * stderr

    def test_bulk_same_law_as_word_level(self, rng):
        p = [0.4, 0.7]
        single = np.asarray([simulate_memoryless(p, rng) for _ in range(20000)])
        bulk = memoryless_times(tiled(p, 20000), rng)
        assert stats.ks_2samp(single, bulk).pvalue > 1e-3

    def test_censoring_marker(self, rng):
        out = [simulate_memoryless([0.999], rng, horizon=3) for _ in range(200)]
        assert any(t is None for t in out)

    def test_censoring_monotone_in_horizon(self):
        p = [0.99]
        settled = []
        for horizon in (10, 100, 1000):
            z = memoryless_times(tiled(p, 5000),
                                 np.random.default_rng(MASTER_SEED),
                                 horizon=horizon)
            settled.append(int(np.isfinite(z).sum()))
        assert settled[0] <= settled[1] <= settled[2]

    def test_never_rejected_concept_censored_like_word_level(self, master_seed):
        # p = 1 holds forever: the bulk run censors it as the word loop does
        p, horizon, trials = [0.9, 1.0], 50, 2000
        bulk = run_trials("memoryless", None, 0, trials, master_seed,
                          fixed_p=p, horizon=horizon)
        rng = np.random.default_rng(master_seed)
        single = [simulate_memoryless(p, rng, horizon) for _ in range(trials)]
        want = sum(t is None for t in single) / trials
        got = bulk.censored / trials
        sigma = math.sqrt(2.0 * want * (1.0 - want) / trials)
        assert abs(got - want) <= 4.0 * sigma


class TestFullMemory:
    def test_empty(self, rng):
        assert simulate_full_memory([], rng) == 0

    def test_single_wrong_concept(self, rng):
        # p1 = 0: settle is 0 (initial pick right) or 1 (one rejection)
        z = np.asarray([simulate_full_memory([0.0], rng) for _ in range(20000)])
        assert set(np.unique(z)) <= {0, 1}
        assert abs(z.mean() - 0.5) <= 4.0 * z.std(ddof=1) / math.sqrt(z.size)

    def test_mean_matches_chain_solve(self, rng):
        p = [0.3, 0.6, 0.8]
        want = full_memory_mean_oracle(p)
        z = full_memory_times(tiled(p, 2 * 10**5), rng)
        stderr = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - want) <= 4.0 * stderr
        # the chain solve agrees with the half-sum identity
        assert_allclose(want, 0.5 * (1.0 / (1.0 - np.asarray(p))).sum(), rtol=1e-12)

    def test_single_trial_same_law_as_bulk(self, rng):
        p = [0.5, 0.75]
        single = np.asarray([simulate_full_memory(p, rng) for _ in range(20000)])
        bulk = full_memory_times(tiled(p, 20000), rng)
        assert stats.ks_2samp(single, bulk).pvalue > 1e-3

    def test_dominates_memoryless_in_mean(self, master_seed):
        # paired common random numbers: same master seed drives both
        p = np.asarray([0.5, 0.8, 0.9, 0.6])
        fm = run_trials("full_memory", None, 4, 10**5, master_seed, fixed_p=p)
        ml = run_trials("memoryless", None, 4, 10**5, master_seed, fixed_p=p)
        assert fm.times.mean() <= ml.times[np.isfinite(ml.times)].mean()


class TestRunTrials:
    def test_reproducible_across_threads(self, master_seed):
        u = uniform()
        for alg in ("batch", "memoryless", "full_memory"):
            a = run_trials(alg, u, 30, 50000, master_seed, threads=1).times
            b = run_trials(alg, u, 30, 50000, master_seed, threads=4).times
            assert np.array_equal(a, b)

    def test_fixed_p_reproducible_across_threads(self, master_seed):
        # n = 1000 puts 4194 rows in a chunk, so 5000 trials make two chunks
        p = np.random.default_rng(master_seed).random(1000) * 0.9
        for alg in ("batch", "memoryless", "full_memory"):
            a = run_trials(alg, None, 0, 5000, master_seed, fixed_p=p,
                           threads=1).times
            b = run_trials(alg, None, 0, 5000, master_seed, fixed_p=p,
                           threads=4).times
            assert np.array_equal(a, b)

    def test_pinned_times(self, master_seed):
        # fresh uniform p, n = 30: the first eight times of one chunk
        want = {"batch": [84, 26, 98, 7, 44, 88, 41, 28],
                "memoryless": [1, 223, 1555, 2, 75, 26, 1, 20],
                "full_memory": [42, 272, 91, 368, 10, 0, 49, 91]}
        for alg, times in want.items():
            got = run_trials(alg, uniform(), 30, 64, master_seed).times[:8]
            assert got.tolist() == times

    def test_identical_config_identical_times(self, master_seed):
        u = uniform()
        a = run_trials("batch", u, 10, 1000, master_seed).times
        b = run_trials("batch", u, 10, 1000, master_seed).times
        assert np.array_equal(a, b)

    def test_batch_times_positive_for_nonempty(self, master_seed):
        t = run_trials("batch", power_tail(1.0), 5, 2000, master_seed).times
        assert t.min() >= 1

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_trials("telepathy", uniform(), 5, 10, 0)

    def test_fixed_p_with_one_rejected_for_batch(self):
        with pytest.raises(DivergenceError):
            run_trials("batch", None, 2, 10, 0, fixed_p=np.asarray([0.5, 1.0]))

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_trials("memoryless", uniform(), 5, 5, 0, horizon=0)


class TestEmpiricalNDelta:
    def test_batch_uniform_n1_against_mixture_cdf(self, master_seed):
        # learned-by-k probability for fresh uniform overlap: 1 - m_k = k/(k+1)
        delta = 0.5
        k_hat = empirical_n_delta("batch", uniform(), 1, delta, 20000,
                                  master_seed)
        trials = 20000
        sigma = math.sqrt(delta * (1.0 - delta) / trials)
        cdf = lambda k: k / (k + 1.0)
        assert cdf(k_hat) >= 1.0 - delta - 4.0 * sigma
        assert cdf(k_hat - 1) < 1.0 - delta + 4.0 * sigma

    def test_quantile_degenerates_at_delta_near_one(self, master_seed):
        assert empirical_n_delta("batch", uniform(), 5, 0.999, 5000,
                                 master_seed) == 1

    def test_batch_beats_memoryless_uniform(self, master_seed):
        nb = empirical_n_delta("batch", uniform(), 100, 0.1, 10**4, master_seed)
        nm = empirical_n_delta("memoryless", uniform(), 100, 0.1, 10**4,
                               master_seed)
        assert nb <= nm

    def test_censoring_error(self, master_seed):
        with pytest.raises(CensoringError):
            empirical_n_delta("memoryless", uniform(), 50, 0.1, 2000,
                              master_seed, horizon=2)
