"""Simulators versus exact formulas and absorbing-chain oracles."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import stats

from batchlab.batch_exact import expected_time_series, survival
from batchlab.distributions import power_tail, uniform
from batchlab.errors import CensoringError, ConfigError, DivergenceError
from batchlab.rng import CHUNK_SIZE, rows_chunk
from batchlab.simulators import (_LEARNER_BUDGET, TrialBatch, _segment_sums,
                                 batch_time_quantile, batch_times,
                                 empirical_n_delta, full_memory_ensemble_times,
                                 full_memory_times, memoryless_times, run_trials)
from tests.conftest import MASTER_SEED, outcome_within
from tests.oracles import (simulate_batch, simulate_batch_wordlevel,
                           simulate_full_memory, simulate_memoryless)


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


class TestBatchTimeQuantile:
    """The fresh-p batch sampler inverts P(k0 <= k) = (1 - m_k)**n."""

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0),
                                      power_tail(-0.5)], ids=lambda d: d.spec)
    @pytest.mark.parametrize("n", [1, 30, 1000])
    def test_same_law_as_matrix_sampler(self, dist, n, master_seed):
        trials = 2000
        drawn = run_trials("batch", dist, n, trials, master_seed).times
        rng = np.random.default_rng(master_seed)
        P = dist.sample(trials * n, rng).reshape(trials, n)
        assert stats.ks_2samp(drawn, batch_times(P, rng)).pvalue > 1e-3

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0),
                                      power_tail(2.5), power_tail(-0.5)],
                             ids=lambda d: d.spec)
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_exact_bracket(self, dist, n, rng):
        # (1 - m_{k-1})**n < u <= (1 - m_k)**n, m_0 = 1; checked where k is
        # small enough that consecutive moments differ by far more than
        # their rounding
        u = rng.random(4000)
        k = batch_time_quantile(dist, n, u)
        keep = k <= 2.0**20
        assert keep.sum() >= 2000
        u, k = u[keep], k[keep]
        assert np.all(k >= 1) and np.array_equal(k, np.floor(k))
        cdf = lambda m: np.exp(n * np.log1p(-m))
        below = np.where(k > 1, cdf(dist.moments(np.maximum(k - 1, 1))), 0.0)
        assert np.all(below < u)
        assert np.all(u <= cdf(dist.moments(k)))

    @pytest.mark.parametrize("beta, n", [(-0.5, 10**5), (-0.9, 10**5),
                                         (-0.9, 30)])
    def test_bounded_time_near_one(self, beta, n):
        # 1 - u < 1e-3 puts k0 past 2**53 at beta = -0.5, n = 1e5, where
        # the float64 grid is coarser than 1; the bisection must still stop
        u = 1.0 - np.asarray([1e-3, 1e-6, 1e-12, 2.0**-53])
        out = {}
        worker = threading.Thread(
            target=lambda: out.setdefault(
                "k", batch_time_quantile(power_tail(beta), n, u)),
            daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        assert not worker.is_alive(), "batch_time_quantile did not return"
        k = out["k"]
        assert np.all(np.isfinite(k)) and np.all(np.diff(k) >= 0.0)
        assert k[-1] > 2.0**53

    @pytest.mark.parametrize("n, u, field", [
        (-2, 0.5, "n"), (-1, [0.2, 0.7], "n"), (3, 1.5, "u"), (3, -0.25, "u"),
        (3, [0.5, math.nan], "u"), (0, math.nan, "u"),
    ], ids=["n=-2", "n=-1", "u=1.5", "u=-0.25", "u=nan", "n=0,u=nan"])
    def test_refuses_bad_n_and_u(self, n, u, field):
        # n < 0 and a NaN u never met the stop rule of the search, so the
        # call looped for ever
        exc = outcome_within(10.0, batch_time_quantile, uniform(), n, u)
        assert isinstance(exc, ConfigError), f"returned {exc!r}"
        assert str(exc).startswith(f"{field} ")

    def test_u_of_one_is_past_the_float64_range(self):
        k = outcome_within(10.0, batch_time_quantile, uniform(), 10, [1.0, 0.0])
        assert isinstance(k, np.ndarray) and k.tolist() == [math.inf, 1.0]

    def test_edge_cases(self):
        u = np.asarray([0.0, 0.3, 0.85])
        assert batch_time_quantile(uniform(), 0, u).tolist() == [0.0, 0.0, 0.0]
        assert batch_time_quantile(uniform(), 5, u)[0] == 1.0
        # n = 1, uniform law: P(k0 <= k) = k/(k+1)
        assert batch_time_quantile(uniform(), 1, u).tolist() == [1.0, 1.0, 6.0]


class TestFullMemoryEnsembleLaw:
    """Fresh-p full memory: the sum of J ~ U{0..n} i.i.d. lifetimes."""

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0),
                                      power_tail(-0.5)], ids=lambda d: d.spec)
    @pytest.mark.parametrize("n", [1, 30, 1000])
    def test_same_law_as_matrix_sampler(self, dist, n, master_seed):
        trials = 2000
        drawn = run_trials("full_memory", dist, n, trials, master_seed).times
        rng = np.random.default_rng(master_seed)
        P = dist.sample(trials * n, rng).reshape(trials, n)
        assert stats.ks_2samp(drawn, full_memory_times(P, rng)).pvalue > 1e-3

    def test_mean_matches_half_memoryless_mean(self, master_seed):
        # E[T] = E[J] E[G] = (n/2) alpha/(alpha-1) = n(1+beta)/(2 beta); the
        # variance of G is finite for beta > 1
        beta, n = 2.5, 200
        t = run_trials("full_memory", power_tail(beta), n, 10**5,
                       master_seed).times
        want = n * (1.0 + beta) / (2.0 * beta)
        assert abs(t.mean() - want) <= 4.0 * t.std(ddof=1) / math.sqrt(t.size)

    def test_no_concepts(self, master_seed):
        t = run_trials("full_memory", uniform(), 0, 5, master_seed).times
        assert t.dtype == np.float64 and t.tolist() == [0.0] * 5

    def test_no_held_concepts_give_float_zero(self, master_seed):
        # J ~ U{0, 1} at n = 1 is the first draw: J = 0 is time 0.0 exactly,
        # J = 1 a lifetime >= 1
        t = full_memory_ensemble_times(uniform(), 1, 400,
                                       np.random.default_rng(master_seed))
        held = np.random.default_rng(master_seed).integers(0, 2, size=400)
        assert t.dtype == np.float64
        assert np.array_equal(t == 0.0, held == 0) and (t[held > 0] >= 1).all()

    def test_chunks_reproducible_across_threads(self, master_seed):
        n = 1000
        trials = 2 * rows_chunk(n, _LEARNER_BUDGET) + 7     # three chunks
        a = run_trials("full_memory", power_tail(-0.5), n, trials,
                       master_seed, threads=1).times
        b = run_trials("full_memory", power_tail(-0.5), n, trials,
                       master_seed, threads=2).times
        assert np.array_equal(a, b)


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

    def test_broadcast_view_matches_tiled_copy(self, master_seed):
        # the zero-stride view is read from its one vector, the copy at
        # flat row offsets: the same draws give the same times
        p = np.random.default_rng(master_seed).random(7)
        a = memoryless_times(np.broadcast_to(p, (500, 7)),
                             np.random.default_rng(master_seed))
        b = memoryless_times(np.tile(p, (500, 1)),
                             np.random.default_rng(master_seed))
        assert np.array_equal(a, b)
        none = memoryless_times(np.broadcast_to(p, (0, 7)),
                                np.random.default_rng(master_seed))
        assert none.size == 0

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0)],
                             ids=lambda d: d.spec)
    def test_fresh_p_same_law_as_word_level(self, dist, master_seed):
        # each word-level trial gets its own fresh row; censored trials of
        # either side count as horizon + 1
        n, trials, horizon = 4, 4000, 2000
        bulk = run_trials("memoryless", dist, n, trials, master_seed,
                          horizon=horizon).times
        rng = np.random.default_rng(master_seed)
        single = [simulate_memoryless(dist.sample(n, rng), rng, horizon)
                  for _ in range(trials)]
        single = [horizon + 1 if t is None else t for t in single]
        assert stats.ks_2samp(np.minimum(bulk, horizon + 1),
                              single).pvalue > 1e-3

    def test_no_holds_give_float_zero_and_censoring_marks_inf(self, master_seed):
        # the number of wrong holds is the first draw: rows without one are
        # 0.0 exactly, the rest hold p = 0.999 and mostly outlive horizon 3
        t = memoryless_times(tiled([0.999], 400),
                             np.random.default_rng(master_seed), horizon=3)
        picks = np.random.default_rng(master_seed).geometric(0.5, size=400) - 1
        assert t.dtype == np.float64
        assert np.array_equal(t == 0.0, picks == 0)
        assert np.isinf(t).any() and (t[np.isfinite(t)] <= 3).all()

    def test_summary_counts_a_censored_trial_as_infinite(self):
        # a statistic that a censored trial reaches is +inf, one it does not
        # reach is that of all the trials
        times = np.array([4.0, 1.0, math.inf, 2.0, 7.0])
        got = TrialBatch("memoryless", 3, times, 0, "uniform", True, 9).summary()
        assert [got[k] for k in ("censored", "mean", "median", "min", "max")] == [
            1, math.inf, 4.0, 1.0, math.inf]

    def test_segment_sums(self):
        got = _segment_sums(np.arange(1.0, 6.0), np.array([0, 2, 0, 3, 0]))
        assert got.tolist() == [0.0, 3.0, 0.0, 12.0, 0.0]
        none = _segment_sums(np.zeros(0), np.zeros(3, dtype=np.int64))
        assert none.dtype == np.float64 and none.tolist() == [0.0] * 3

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
        # fresh p at n = 30: batch draws three chunks of CHUNK_SIZE uniforms,
        # the other learners chunks of rows_chunk(30, _LEARNER_BUDGET) rows
        trials = 140000
        assert trials > 2 * CHUNK_SIZE
        u = uniform()
        for alg in ("batch", "memoryless", "full_memory"):
            a = run_trials(alg, u, 30, trials, master_seed, threads=1).times
            b = run_trials(alg, u, 30, trials, master_seed, threads=4).times
            assert np.array_equal(a, b)

    def test_fresh_batch_chunks_reproducible_across_threads(self, master_seed):
        # 140000 trials make three chunks of uniforms
        a = run_trials("batch", power_tail(-0.5), 30, 140000, master_seed,
                       threads=1).times
        b = run_trials("batch", power_tail(-0.5), 30, 140000, master_seed,
                       threads=4).times
        assert np.array_equal(a, b)

    def test_fixed_p_reproducible_across_threads(self, master_seed):
        n = 1000
        trials = 2 * rows_chunk(n, _LEARNER_BUDGET) + 5     # three chunks
        p = np.random.default_rng(master_seed).random(n) * 0.9
        for alg in ("batch", "memoryless", "full_memory"):
            a = run_trials(alg, None, 0, trials, master_seed, fixed_p=p,
                           threads=1).times
            b = run_trials(alg, None, 0, trials, master_seed, fixed_p=p,
                           threads=4).times
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("alg, fixed", [
        ("memoryless", False), ("full_memory", False), ("batch", True),
        ("memoryless", True), ("full_memory", True)])
    def test_peak_allocation_is_cache_sized(self, alg, fixed, master_seed):
        # chunks of about 2**14 floats: 2000 trials at n = 1000 peak near
        # 1 MiB, where one chunk of rows_chunk(1000) rows is 32 MiB
        p = np.random.default_rng(master_seed).random(1000) * 0.9 if fixed else None
        run_trials(alg, uniform(), 1000, 20, master_seed, fixed_p=p)
        tracemalloc.start()
        try:
            run_trials(alg, uniform(), 1000, 2000, master_seed, fixed_p=p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_pinned_times(self, master_seed):
        # fresh uniform p, n = 30: the first eight times of one chunk
        # batch: one uniform per trial, inverted through the exact law;
        # full memory: J held concepts, then their overlaps and waits
        want = {"batch": [17, 12, 50, 627, 12, 52, 24, 19],
                "memoryless": [154, 214, 70, 45, 177, 185, 1497, 369],
                "full_memory": [45, 738, 225, 2, 74, 198, 82, 88]}
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

    @pytest.mark.parametrize("alg", ["batch", "memoryless", "full_memory"])
    def test_negative_n_rejected(self, alg):
        exc = outcome_within(10.0, run_trials, alg, uniform(), -1, 3, 1)
        assert isinstance(exc, ConfigError), f"returned {exc!r}"
        assert str(exc).startswith("n ")


@st.composite
def raised_overlaps(draw):
    """(P, P') of one (rows, n) shape with P <= P' < 1 elementwise."""
    shape = (draw(st.integers(min_value=1, max_value=12)),
             draw(st.integers(min_value=0, max_value=8)))
    unit = st.floats(min_value=0.0, max_value=1.0)
    P = 0.99 * draw(hnp.arrays(np.float64, shape, elements=unit))
    return P, P + (0.995 - P) * draw(hnp.arrays(np.float64, shape, elements=unit))


class TestMonotoneInOverlaps:
    """Same generator seed and P' >= P elementwise: no time gets shorter."""

    @pytest.mark.parametrize("sampler", [
        batch_times, full_memory_times,
        lambda P, rng: memoryless_times(P, rng, horizon=500)],
        ids=["batch", "full_memory", "memoryless"])
    @given(pair=raised_overlaps(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_times_monotone(self, sampler, pair, seed):
        P, P_up = pair
        low = sampler(P, np.random.default_rng(seed))
        high = sampler(P_up, np.random.default_rng(seed))
        assert np.all(high >= low)


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
