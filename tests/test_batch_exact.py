"""Exact per-vector learning-time formulas and their cross-checks."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from batchlab import batch_exact
from batchlab.batch_exact import (_DEAD, _EXACT_HEAD, _GAUSS_WEIGHTS,
                                  _GK_NODES, _GK_WEIGHTS, _QUAD_TOL,
                                  _SUBSET_COLUMNS, _TAIL_S_THRESHOLD,
                                  _X_BUDGET, _first_step, coarse_bounds,
                                  expected_time_bulk, expected_time_fast,
                                  expected_time_series, n_delta, sandwich,
                                  survival, survival_bulk)
from batchlab.distributions import power_tail
from batchlab.errors import DivergenceError, PrecisionLossError
from batchlab.rng import STREAM_ENSEMBLE, derive_rng, rows_chunk
from batchlab.simulators import run_trials
from tests.conftest import outcome_within
from tests.oracles import (expected_time_subsets, simulate_batch,
                           simulate_batch_wordlevel, simulate_full_memory,
                           simulate_memoryless)

overlap_vectors = st.lists(
    st.floats(min_value=0.0, max_value=0.99, allow_nan=False), min_size=0,
    max_size=8).map(np.asarray)


def past_the_cut(P):
    """P zero-padded to one column more than the subset sum takes.

    The evaluator drops zero columns, so each row runs the same stages on
    the padded matrix as on P itself.
    """
    return np.pad(P, ((0, 0), (0, max(0, _SUBSET_COLUMNS + 1 - P.shape[1]))))


def recorded(monkeypatch, name):
    """A list that gathers (arguments, result) of each call of ``name``.

    ``name`` is a stage of the evaluator in ``batch_exact``, which still
    runs; the arguments are copied as the call starts.
    """
    calls = []
    stage = getattr(batch_exact, name)

    def record(*args):
        copies = [np.copy(x) for x in args]
        out = stage(*args)
        calls.append((copies, out))
        return out

    monkeypatch.setattr(batch_exact, name, record)
    return calls


class TestSurvival:
    def test_two_halves(self):
        assert_allclose(survival([0.5, 0.5], 2), 0.4375, rtol=1e-15)

    def test_empty_vector(self):
        assert survival([], 5) == 0.0

    def test_single(self):
        assert_allclose(survival([0.9], 1), 0.9, rtol=1e-15)

    def test_underflow_regime(self):
        # p**k below 1e-300: log-space path keeps q positive and tiny
        q = survival([0.1], 400)
        assert 0.0 < q < 1e-300 or q == 0.0
        q2 = survival([0.999999], 10**6)
        assert 0.0 < q2 < 1.0

    def test_zero_entries(self):
        assert_allclose(survival([0.0, 0.5], 1), 0.5, rtol=1e-15)

    @given(p=overlap_vectors, k=st.integers(min_value=1, max_value=100))
    @settings(max_examples=300, deadline=None)
    def test_sandwich_brackets_survival(self, p, k):
        lo, hi = sandwich(p, k)
        q = survival(p, k)
        assert lo - 1e-12 <= q <= hi + 1e-12

    def test_sandwich_cases(self):
        assert sandwich([0.5, 0.5], 2) == (0.25, 0.5)
        lo, hi = sandwich([0.9], 3)
        assert_allclose([lo, hi], [0.729, 0.729], rtol=1e-15)
        lo, hi = sandwich([0.99] * 10, 1)
        assert (lo, hi) == (0.99, 1.0)          # upper clamped

    def test_vanishes_at_large_k(self):
        p = np.asarray([0.3, 0.5, 0.7])
        k = 1
        while 3 * 0.7**k >= 1e-12:
            k += 1
        assert survival(p, k) < 1e-12

    def test_survival_curve_invariants(self):
        p = [0.2, 0.6, 0.85]
        k_max = 200                  # 3 * 0.85**201 / 0.15 < 1e-12
        q = survival_bulk(p, np.arange(1, k_max + 1))
        assert np.all(q >= 0.0) and np.all(q <= 1.0)
        assert np.all(np.diff(q) <= 1e-15)
        assert_allclose(q[[0, 9, 99]], [survival(p, k) for k in (1, 10, 100)],
                        rtol=1e-15)
        remainder = sum(survival(p, k) for k in range(k_max + 1, k_max + 2000))
        assert remainder <= 3 * 0.85 ** (k_max + 1) / 0.15


class TestExpectedTimeSeries:
    def test_single_geometric(self):
        est = expected_time_series([0.5])
        assert_allclose(est.t, 1.0, rtol=1e-12)
        assert_allclose(est.steps_expectation, 2.0, rtol=1e-12)

    def test_empty(self):
        assert expected_time_series([]) == (0.0, 0.0)

    def test_all_zero(self):
        assert expected_time_series([0.0, 0.0]) == (0.0, 1.0)

    def test_two_halves_hand_series(self):
        # sum_k (2*2^-k - 4^-k) = 2 - 1/3
        est = expected_time_series([0.5, 0.5])
        assert_allclose(est.t, 5.0 / 3.0, rtol=1e-12)

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError):
            expected_time_series([0.5, 1.0])

    def test_tail_honesty(self):
        p = [0.3, 0.9, 0.95]
        coarse = expected_time_series(p, eps=1e-6).t
        fine = expected_time_series(p, eps=5e-7).t
        assert abs(fine - coarse) <= 1e-6

    def test_precision_cap_signals(self):
        with pytest.raises(PrecisionLossError):
            expected_time_series([1.0 - 1e-12], eps=1e-10)

    def test_refuses_before_summing(self):
        # the bound needs K of about 5.8e10 > 2**25 steps, so the refusal
        # must come before any summing (2**25 steps of 1000 powers)
        out = {}

        def run():
            try:
                expected_time_series(np.full(1000, 1.0 - 1e-9), eps=1e-13)
            except PrecisionLossError as exc:
                out["error"] = exc

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "expected_time_series did not return"
        assert isinstance(out.get("error"), PrecisionLossError)


class TestExpectedTimeSubsets:
    def test_two_halves_manual_expansion(self):
        # 1 + 1 - 1/3 from the three nonempty subsets
        assert_allclose(expected_time_subsets([0.5, 0.5]), 5.0 / 3.0, rtol=1e-14)

    def test_single_matches_geometric(self):
        for q in (0.1, 0.5, 0.9):
            assert_allclose(expected_time_subsets([q]), q / (1.0 - q), rtol=1e-14)

    def test_zero_entries_pruned(self):
        assert_allclose(expected_time_subsets([0.5, 0.0, 0.5]),
                        expected_time_subsets([0.5, 0.5]), rtol=1e-14)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            expected_time_subsets(np.full(26, 0.5))

    def test_cross_formula_n10(self, rng):
        for _ in range(20):
            p = rng.random(10) * 0.99
            a = expected_time_subsets(p)
            b = expected_time_series(p, eps=1e-13).t
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_tiny_entries_leave_no_log_drift(self):
        # the logs of 1e-133 and 3e-248 once drifted the running product of
        # the other subsets, 1.5e-10 relative off the series
        p = np.array([0.5, 1.30632688e-133, 3.47664189e-248, 0.75,
                      3.47664189e-248, 0.5, 0.5, 0.98828125])
        assert_allclose(expected_time_subsets(p),
                        expected_time_series(p, eps=1e-13).t, rtol=1e-14)

    @given(p=overlap_vectors)
    @settings(max_examples=150, deadline=None)
    def test_cross_formula_property(self, p):
        a = expected_time_subsets(p)
        b = expected_time_series(p, eps=1e-13).t
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


class TestNDelta:
    def test_examples(self):
        assert n_delta([0.5], 0.25) == 2
        assert n_delta([0.5, 0.5], 0.4375) == 2
        assert n_delta([0.9], 0.01) == 44
        assert n_delta([0.9], 0.01) == math.ceil(math.log(0.01) / math.log(0.9))

    def test_empty_and_zero(self):
        assert n_delta([], 0.5) == 1
        assert n_delta([0.0, 0.0], 0.5) == 1

    def test_minimality(self, rng):
        for _ in range(20):
            p = rng.random(5) * 0.95
            delta = rng.uniform(0.01, 0.9)
            k = n_delta(p, delta)
            assert survival(p, k) <= delta
            if k > 1:
                assert survival(p, k - 1) > delta

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            n_delta([1.0], 0.5)


class TestFirstStep:
    def test_never_calls_done_on_empty_arrays(self):
        # past 2**53 the bisection ends once the midpoint rounds onto an end,
        # which empties the active set; targets on the float64 grid come back
        # exactly
        target = np.array([3.0, 2.0**60 + 3 * 2.0**8, 2.0**70 + 5 * 2.0**18])

        def done(idx, k):
            if not idx.size:
                raise AssertionError("done called with empty arrays")
            return k >= target[idx]

        assert np.array_equal(_first_step(done, target.size), target)
        assert _first_step(done, 0).size == 0

    def test_never_done_comes_back_as_inf(self):
        # doubling passes the float64 range after 1024 steps; an entry whose
        # done never holds must stop there, next to one that is done
        target = np.array([5.0, np.nan])
        k = outcome_within(10.0, _first_step,
                           lambda idx, k: k >= target[idx], target.size)
        assert isinstance(k, np.ndarray), "_first_step did not return"
        assert k.tolist() == [5.0, math.inf]


class TestCoarseBounds:
    def test_examples(self):
        assert coarse_bounds([0.5, 0.75]) == (6.0, 4.0)
        assert coarse_bounds([0.5]) == (2.0, 2.0)

    def test_sandwich_on_word_count(self, rng):
        # max 1/(1-p) <= T+1 <= sum 1/(1-p); note T alone can undercut the
        # lower bound (p=(0.5): T=1 < 2)
        for _ in range(50):
            p = rng.random(rng.integers(1, 8)) * 0.98
            upper, lower = coarse_bounds(p)
            est = expected_time_series(p, eps=1e-11)
            assert lower - 1e-9 <= est.steps_expectation <= upper + 1e-9
            assert est.t <= upper + 1e-9
        assert expected_time_series([0.5]).t < coarse_bounds([0.5])[1]

    @given(p=overlap_vectors.filter(lambda a: a.size > 0))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_property(self, p):
        upper, lower = coarse_bounds(p)
        steps = expected_time_series(p, eps=1e-11).steps_expectation
        assert lower - 1e-9 <= steps <= upper + 1e-9


class TestMonotonicity:
    def test_increasing_overlap_increases_time(self, rng):
        for _ in range(20):
            p = rng.random(6) * 0.9
            i = int(rng.integers(0, 6))
            bumped = p.copy()
            bumped[i] = p[i] + (0.99 - p[i]) * 0.5
            assert (expected_time_series(bumped, eps=1e-12).t
                    > expected_time_series(p, eps=1e-12).t)
            assert n_delta(bumped, 0.1) >= n_delta(p, 0.1)


class TestLargeScaleEvaluators:
    def test_fast_matches_series_moderate(self, rng):
        for _ in range(10):
            p = rng.random(30) * 0.995
            a = expected_time_series(p, eps=1e-11).t
            b = expected_time_fast(p).t
            assert abs(a - b) <= 2e-5 * max(a, 1.0)

    def test_fast_matches_series_huge_scale(self, rng):
        p = np.concatenate([rng.random(100) * 0.9, [0.99999, 0.999995]])
        a = expected_time_series(p, eps=1e-8).t
        b = expected_time_fast(p).t
        assert abs(a - b) <= 2e-5 * a

    def test_fast_small_gap_population(self, rng):
        # many gaps near 0 (negative-tail-exponent shape)
        u = rng.random(200)
        p = 1.0 - (1.0 - u) ** 2.0   # gaps with density ~ u**-0.5
        a = expected_time_series(p, eps=1e-7 * 1e4).t
        b = expected_time_fast(p).t
        assert abs(a - b) <= 2e-5 * a

    def test_bulk_matches_series(self, rng):
        P = rng.random((40, 12)) * np.asarray(
            [0.9, 0.99, 0.999, 0.9999] * 10)[:, None]
        P[::3, :4] = 0.0                        # zero entries
        P[1::5, 5] = P[1::5, 6]                 # duplicate entries
        P[2::7, :6] *= 1e-3                     # mixed scales within a row
        P[5] = 0.0                              # an all-zero row
        got = expected_time_bulk(P)
        want = np.asarray([expected_time_series(r, eps=1e-9).t for r in P])
        assert_allclose(got, want, rtol=3e-5)

    def test_bulk_rows_do_not_depend_on_each_other(self, rng):
        # rows retiring in the head next to rows that need the integral;
        # 168 rows of n = 1000 (zero-padded where narrower) make three
        # sub-blocks once sorted by p_max, with rows that retire at the
        # first steps at one end and rows saturated past the head at the other
        n = 1000
        narrow = np.concatenate([rng.random((6, 50)) * 0.9,
                                 np.minimum(1.0 - rng.random((6, 50)) ** 3 * 1e-2,
                                            1 - 2**-53),
                                 rng.random((6, 50)) ** 0.25])
        narrow[::4, 10:] = 0.0
        wide = np.concatenate([rng.random((50, n)) * 1e-3,
                               rng.random((50, n)) * 0.9,
                               np.minimum(1.0 - rng.random((25, n)) ** 3 * 1e-2,
                                          1 - 2**-53),
                               rng.random((25, n)) ** 0.25])
        wide[::7, 10:] = 0.0
        P = np.concatenate([np.pad(narrow, ((0, 0), (0, n - 50))), wide])
        assert len(P) > 2 * rows_chunk(n, _X_BUDGET)
        # a matrix taller than rows_chunk(4) is taken in one p_max order, so
        # its sub-blocks mix rows from both sides of row rows_chunk(4); the
        # rows at both ends of that order are checked
        tall = rng.random((rows_chunk(4) + 1024, 4)) * 0.5
        tall[1::8] = rng.random((len(tall[1::8]), 4)) ** 0.25 * 0.999
        tall[::5, 2:] = 0.0
        tall = past_the_cut(tall)               # kept on the evaluator
        by_p_max = np.argsort(tall.max(axis=1))
        for P, rows in ((P, range(len(P))),
                        (tall, np.r_[by_p_max[:8], by_p_max[-8:]])):
            got = expected_time_bulk(P)
            for i in rows:
                assert_allclose(got[i], expected_time_fast(P[i]).t, rtol=1e-12)

    def test_bulk_empty_and_edge(self):
        assert expected_time_bulk(np.empty((0, 3))).size == 0
        with pytest.raises(DivergenceError):
            expected_time_bulk(np.asarray([[0.5, 1.0]]))

    @pytest.mark.parametrize("n,p", [(2000, 0.995), (10**4, 0.99), (200, 0.98)])
    def test_saturated_past_the_head(self, monkeypatch, rng, n, p):
        # S(64) = sum p**64 >= 40: q_k rounds to 1.0 beyond the exact head,
        # and the bound j * p_(j)**k on S already reaches past it, so these
        # rows skip the head and start the integral after their bound; the
        # all-equal row has a Gumbel-sharp front after its saturated steps,
        # sharper as n grows
        P = np.zeros((3, max(n, 2000)))
        P[0, :500] = rng.uniform(0.99, 0.999, 500)
        P[1, :n] = p
        P[2, :300] = rng.uniform(0.995, 0.998, 300)
        P[2, 300:500] = rng.random(200) * 0.5
        assert np.all((P ** _EXACT_HEAD).sum(axis=1) >= 40.0)
        heads = recorded(monkeypatch, "_exact_head")
        got = expected_time_bulk(P)
        saturated = np.concatenate([T for (_, T, *_), _ in heads])
        assert saturated.size == 3 and np.all(saturated >= _EXACT_HEAD)
        for row, t in zip(P, got):
            want = expected_time_series(row, eps=1e-9).t
            assert abs(t - want) <= 2e-5 * want
            assert_allclose(expected_time_fast(row).t, t, rtol=1e-12)
        want = expected_time_series(P[1], eps=1e-11).t
        assert abs(got[1] - want) <= _QUAD_TOL * want

    @pytest.mark.parametrize("beta", [1.0, 0.0, -0.5, -0.75])
    def test_saturated_bound(self, monkeypatch, beta):
        # the count s that a row enters the head with is a lower bound on its
        # steps with S(k) >= 40: q_s is exactly 1.0 there, S(s) >= 40, and an
        # all-equal row gets the last k with S(k) >= 40 itself; a row of
        # fewer than 40 positive overlaps gets 0; and s is at least the bound
        # log(j/40) / -log p_(j) from the j-th largest overlap alone
        rng = np.random.default_rng(2900)
        ns = (40, 41, 100, 300, 1000, 3000)
        P = np.zeros((len(ns) + 5, max(ns)))
        for i, n in enumerate(ns):
            P[i, :n] = power_tail(beta).sample(n, rng)
            P[i, rng.integers(0, n, n // 5)] = 0.0
        for i, (n, p) in enumerate([(39, 0.999), (41, 0.95), (100, 0.99),
                                    (1000, 0.9), (3000, 0.999)], len(ns)):
            P[i, :n] = p
        heads = recorded(monkeypatch, "_exact_head")
        expected_time_bulk(P)
        checked = 0
        for (block, saturated, *_), _ in heads:
            for row, s in zip(block, saturated):
                positives = np.count_nonzero(row)
                if positives < _DEAD:
                    assert s == 0.0
                if row[0] == row[positives - 1] and positives > 1:
                    ks = np.arange(1.0, 10**5)
                    assert s == np.count_nonzero(positives * row[0] ** ks >= _DEAD)
                if s >= 1.0:
                    assert survival_bulk(row, [s])[0] == 1.0
                    assert (row ** s).sum() >= _DEAD * (1.0 - 1e-12)
                    checked += 1
                j = np.arange(_DEAD, positives + 1.0)
                assert s >= np.floor(np.max(np.log(j / _DEAD)
                                            / -np.log(row[int(_DEAD) - 1:positives]),
                                            initial=0.0))
        assert sum(len(T) for (_, T, *_), _ in heads) == len(P)
        assert checked >= 3

    @given(n=st.integers(min_value=40, max_value=3000),
           beta=st.sampled_from([2.0, 1.0, 0.0, -0.5, -0.75]),
           zeros=st.floats(min_value=0.0, max_value=0.5),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_saturated_bound_property(self, n, beta, zeros, seed):
        # on any descending row, with zeros among its overlaps, S(k) >= 40
        # and q_k is exactly 1.0 at the saturated count s the row enters the
        # head with
        rng = np.random.default_rng(seed)
        row = power_tail(beta).sample(n, rng)
        row[rng.random(n) < zeros] = 0.0
        row = -np.sort(-row)
        with pytest.MonkeyPatch.context() as patch:
            heads = recorded(patch, "_exact_head")
            expected_time_bulk(row[None, :])
        (_, (s,), *_), _ = heads[0]
        if s >= 1.0:
            assert (row ** s).sum() >= _DEAD * (1.0 - 1e-12)
            assert survival_bulk(row, [s])[0] == 1.0

    def test_head_retires_where_the_power_sum_falls(self, monkeypatch):
        # the head sums S(k) only once some row's leading power is at most
        # _TAIL_S_THRESHOLD, and each row still retires at the first step
        # past the head's start with a direct sum S(k) <= _TAIL_S_THRESHOLD;
        # one sub-block holds rows of p_max from 0.5 to 0.85 (p_max**k
        # crosses the threshold from step 14 to 57) and 9 to 1000 overlaps
        rng = np.random.default_rng(3000)
        ns = (9, 9, 20, 50, 100, 300, 1000, 1000)
        p_max = np.linspace(0.5, 0.85, 24)
        P = np.zeros((len(p_max), max(ns)))
        for i, top in enumerate(p_max):
            n = ns[i % len(ns)]
            P[i, :n] = top * rng.random(n) ** rng.choice([0.5, 1.0, 3.0])
            P[i, 0] = top
            P[i, rng.integers(1, n, n // 4)] = 0.0
        assert len(P) <= rows_chunk(P.shape[1], _X_BUDGET)    # one sub-block
        calls = []
        head = batch_exact._exact_head

        def record(P, T, start, rows, top):
            first = T[rows].min()
            head(P, T, start, rows, top)
            calls.append((P[rows], start[rows], first))

        monkeypatch.setattr(batch_exact, "_exact_head", record)
        expected_time_bulk(P)
        (block, start, first), = calls
        assert len(block) == len(P)
        for row, k in zip(block, start):
            ks = np.arange(first + 1.0, _EXACT_HEAD + 1.0)
            falls = (row ** ks[:, None]).sum(axis=1) <= _TAIL_S_THRESHOLD
            assert k == (ks[falls.argmax()] if falls.any() else 0.0)
        assert np.count_nonzero(start) >= len(P) // 2
        assert len(np.unique(start[start > 0])) >= 5

    @pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3, 1e-5])
    def test_integral_ends_where_s_is_half_the_threshold(self, monkeypatch, gap):
        # each row's integral ends at a whole b >= 2a where a direct power
        # sum is at most half the tail's threshold; rows of 9, 50 and 1000
        # overlaps 1 - gap * u, some of them zero
        rng = np.random.default_rng(2901)
        P = np.zeros((6, 1000))
        for i, n in enumerate((9, 9, 50, 50, 1000, 1000)):
            P[i, :n] = 1.0 - gap * rng.random(n) ** rng.choice([0.5, 1.0, 2.0])
        P[1::2, 3:6] = 0.0
        integrals = recorded(monkeypatch, "_euler_maclaurin")
        expected_time_bulk(P)
        rows = 0
        for (L, a, *_), (_, b) in integrals:
            assert np.all(b == np.ceil(b)) and np.all(b >= 2.0 * a)
            assert np.all(np.exp(b[:, None] * L).sum(axis=1)
                          <= 0.5 * _TAIL_S_THRESHOLD)
            rows += len(b)
        assert rows == len(P)

    def test_integral_from_the_head_end_with_fast_columns_live(self, rng):
        # one slow column keeps each row alive past the exact head, while up
        # to a thousand fast columns (p**65 from 5e-7 to 0.04) still shape q
        # at step 65, where the integral starts
        P = np.zeros((4, 1000))
        P[:, 0] = [0.97, 0.98, 0.99, 0.995]
        P[0, 1:] = rng.uniform(0.8, 0.95, 999)
        P[1, 1:100] = rng.uniform(0.9, 0.96, 99)
        P[2, 1:] = rng.random(999) * 0.97
        P[3, 1:10] = rng.uniform(0.85, 0.9, 9)
        s_head = (P ** _EXACT_HEAD).sum(axis=1)
        assert np.all((s_head > 1e-4) & (s_head < 40.0))
        got = expected_time_bulk(P)
        for row, t in zip(P, got):
            want = expected_time_series(row, eps=1e-11).t
            assert abs(t - want) <= _QUAD_TOL * want

    def test_one_overlap(self):
        # n = 1: q_k = p**k, so T = p / (1 - p) exactly; the rows either
        # retire in the head or take the integral from its end, and the
        # last is past the series' step cap; zero-padded past the subset
        # sum's cut, so the evaluator takes them
        p = np.asarray([0.01, 0.3, 0.9, 0.99, 0.999, 0.99999, 1.0 - 1e-9])
        got = expected_time_bulk(past_the_cut(p[:, None]))
        assert_allclose(got, p / (1.0 - p), rtol=_QUAD_TOL)
        for x, t in zip(p[:-1], got):
            assert abs(t - expected_time_series([x], eps=1e-11).t) <= _QUAD_TOL * t

    def test_gauss_kronrod_rule(self):
        # K15 integrates x**k exactly up to k = 22, G7 up to k = 13, and the
        # Gauss nodes and weights are those of numpy's 7-point rule
        k = np.arange(23)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1.0), 0.0)
        powers = _GK_NODES[None, :] ** k[:, None]
        assert_allclose(powers @ _GK_WEIGHTS, exact, rtol=0, atol=1e-15)
        assert_allclose(powers[:14] @ _GAUSS_WEIGHTS, exact[:14], rtol=0, atol=1e-15)
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert_allclose(_GK_NODES[1::2], nodes, rtol=0, atol=1e-15)
        assert_allclose(_GAUSS_WEIGHTS[1::2], weights, rtol=0, atol=1e-15)
        assert not _GAUSS_WEIGHTS[::2].any()


def narrow_rows(n):
    """24 rows of n overlaps: zeros, 1e-300, duplicates, an all-zero row
    and 1 - 1e-12 entries among rows of small, middling and large overlaps."""
    rng = np.random.default_rng(2800 + n)
    P = rng.random((24, n)) ** rng.choice([0.02, 1.0, 6.0], size=(24, 1))
    P[::4, 0] = 0.0
    P[1::4, -1] = 1e-300
    P[2::4, -1] = P[2::4, 0]
    P[3::8, [0, -1]] = 1.0 - 1e-12
    P[5] = 0.0
    return P


def subset_bound(n, p_max):
    """The module docstring's rounding bound of the subset sum, relative to T."""
    lam = -math.log(p_max) / (1.0 - p_max)
    return (2 ** n - 1) * (n + 4) * lam * 2.0 ** -53


class TestSubsetSum:
    """Matrices of at most _SUBSET_COLUMNS columns, summed over column subsets."""

    NS = range(1, _SUBSET_COLUMNS + 1)

    @pytest.mark.parametrize("n", NS)
    def test_matches_series(self, n):
        P = narrow_rows(n)
        got = expected_time_bulk(P)
        assert got[5] == 0.0
        compared = 0
        for row, t in zip(P, got):
            try:
                want = expected_time_series(row, eps=1e-13).t
            except PrecisionLossError:          # the rows with 1 - 1e-12
                continue
            assert_allclose(t, want, rtol=1e-12, atol=0)
            compared += 1
        assert compared >= 21

    @pytest.mark.parametrize("n", NS)
    def test_matches_mpmath_within_the_bound(self, n):
        mp = pytest.importorskip("mpmath")
        P = narrow_rows(n)
        got = expected_time_bulk(P)
        with mp.workdps(40):
            for row, t in zip(P, got):
                p = [mp.mpf(float(x)) for x in row]
                want = mp.mpf(0)
                for mask in range(1, 1 << n):
                    members = [p[j] for j in range(n) if mask >> j & 1]
                    p_s = mp.fprod(members)
                    want += (-1) ** (len(members) - 1) * p_s / (1 - p_s)
                if row.max() == 0.0:
                    assert t == 0.0
                    continue
                assert abs(t - want) <= subset_bound(n, row.max()) * want

    @pytest.mark.parametrize("n", NS)
    def test_bulk_rows_match_fast(self, n):
        P = narrow_rows(n)
        got = expected_time_bulk(P)
        for row, t in zip(P, got):
            assert_allclose(expected_time_fast(row).t, t, rtol=1e-12, atol=0)

    def test_joins_the_evaluator_at_the_cut(self, rng):
        # the same rows of _SUBSET_COLUMNS overlaps by the subset sum and,
        # zero-padded past the cut, by the evaluator
        P = rng.random((60, _SUBSET_COLUMNS)) ** rng.choice([0.05, 1.0, 4.0],
                                                           size=(60, 1))
        P[::3, :3] = 0.0
        P[1::7, 0] = 1.0 - 1e-9
        assert_allclose(expected_time_bulk(P), expected_time_bulk(past_the_cut(P)),
                        rtol=_QUAD_TOL, atol=0)


class TestWorkCount:
    # powers p**x that the kernel forms over one evaluation of per_vector-
    # shaped inputs: 40 x 1000 overlaps for beta = 1, 0, -0.5 and 2000 short
    # rows of 6, which the subset sum takes without the kernel; the
    # saturated counts (the Jensen bound on the mean log overlap) and the
    # integrals' ends are read off bounds, so only the integral and the
    # tails take powers; a count, so host speed cannot move it
    POWERS = 1_017_323

    def test_kernel_cells(self, monkeypatch):
        cells = []
        powers = batch_exact._powers

        def counted(*args):
            out = powers(*args)
            cells.append(out.size)
            return out

        monkeypatch.setattr(batch_exact, "_powers", counted)
        for beta in (1.0, 0.0, -0.5):
            draws = power_tail(beta).sample(40 * 1000,
                                            derive_rng(801, STREAM_ENSEMBLE, 2, 0))
            expected_time_bulk(draws.reshape(40, 1000))
        expected_time_bulk(np.random.default_rng(801).random((2000, 6)) * 0.999)
        assert abs(sum(cells) - self.POWERS) <= 0.05 * self.POWERS


def _entry_points():
    """(id, call, rejects_one) for every function that takes an overlap vector."""
    rng = np.random.default_rng(0)
    matrix = lambda p: np.vstack([p, np.full(len(p), 0.25)])
    calls = [
        ("survival", lambda p: survival(p, 1), False),
        ("survival_bulk", lambda p: survival_bulk(p, [1.0, 2.0]), False),
        ("sandwich", lambda p: sandwich(p, 1), False),
        ("coarse_bounds", coarse_bounds, True),
        ("expected_time_series", expected_time_series, True),
        ("expected_time_subsets", expected_time_subsets, True),
        ("n_delta", lambda p: n_delta(p, 0.1), True),
        ("expected_time_fast", expected_time_fast, True),
        ("expected_time_bulk", lambda p: expected_time_bulk(matrix(p)), True),
        ("simulate_batch", lambda p: simulate_batch(p, rng), True),
        ("simulate_batch_wordlevel", lambda p: simulate_batch_wordlevel(p, rng), True),
        ("simulate_memoryless",
         lambda p: simulate_memoryless(p, rng, horizon=1000), False),
        ("simulate_full_memory", lambda p: simulate_full_memory(p, rng), True),
    ]
    calls += [(f"run_trials[{alg}]",
               lambda p, alg=alg: run_trials(alg, None, 0, 10, 0, fixed_p=p),
               alg != "memoryless")
              for alg in ("batch", "memoryless", "full_memory")]
    return calls


ENTRY_POINTS = _entry_points()


class TestBadOverlaps:
    @pytest.mark.parametrize("p", [[math.nan, 0.5], [0.5, math.nan], [-0.5, 0.5],
                                   [0.5, 1.5], [math.inf], [-math.inf, 0.5]],
                             ids=["nan", "nan-last", "negative", "above-one",
                                  "inf", "minus-inf"])
    @pytest.mark.parametrize("call", [c for _, c, _ in ENTRY_POINTS],
                             ids=[name for name, _, _ in ENTRY_POINTS])
    def test_outside_unit_interval_raises_value_error(self, call, p):
        with pytest.raises(ValueError) as info:
            call(np.asarray(p))
        assert not isinstance(info.value, DivergenceError)

    def test_matrix_entry_out_of_range_is_named(self):
        with pytest.raises(ValueError, match=r"got 1\.5 at index 1, 0$"):
            expected_time_bulk(np.array([[0.25, 0.5], [1.5, math.nan]]))

    @pytest.mark.parametrize("call,rejects_one", [(c, r) for _, c, r in ENTRY_POINTS],
                             ids=[name for name, _, _ in ENTRY_POINTS])
    def test_exactly_one(self, call, rejects_one):
        if rejects_one:
            with pytest.raises(DivergenceError):
                call(np.asarray([0.5, 1.0]))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                call(np.asarray([0.5, 1.0]))
