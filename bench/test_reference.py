"""Tests of the benchmark's reference functions against brute force.

    python3 -m pytest -q bench/test_reference.py
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta as riemann_zeta

import reference as ref


@pytest.mark.parametrize("beta", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_moment_matches_the_integral(beta, k):
    integral, _ = quad(lambda x: x ** k * (1 + beta) * (1 - x) ** beta, 0, 1,
                       limit=200)
    assert math.isclose(float(ref.moment(beta, k)), integral, rel_tol=1e-9)


def test_sampler_has_the_stated_moments():
    rng = np.random.default_rng(5)
    x = ref.sample_overlaps(-0.5, 400_000, rng)
    assert x.min() >= 0.0 and x.max() < 1.0
    for k in (1, 3):
        sigma = (x ** k).std() / math.sqrt(x.size)
        assert abs((x ** k).mean() - float(ref.moment(-0.5, k))) < 5 * sigma


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_batch_time_law_matches_simulated_lifetimes(beta):
    rng = np.random.default_rng(11)
    trials, n = 200_000, 3
    p = ref.sample_overlaps(beta, (trials, n), rng)
    k0 = rng.geometric(1.0 - p).max(axis=1)      # P(G > k) = p**k
    for k in (1, 2, 5, 20):
        f = float(ref.batch_time_cdf(beta, n, k))
        sigma = math.sqrt(f * (1 - f) / trials)
        assert abs((k0 <= k).mean() - f) < 5 * sigma
    assert float(ref.batch_time_cdf(beta, n, 0)) == 0.0


def _order_stat_cdf(f, trials, j):
    """P(X_(j) <= k) as the explicit binomial sum, given F(k) = f."""
    return sum(math.comb(trials, i) * f ** i * (1 - f) ** (trials - i)
               for i in range(j, trials + 1))


def test_order_stat_interval_is_the_tightest_one():
    cdf = lambda k: 1.0 - 0.8 ** k if k >= 0 else 0.0      # geometric on {1,..}
    trials, j, alpha = 9, 5, 0.01
    lo, hi = ref.order_stat_interval(cdf, trials, j, j, alpha)
    p = lambda k: _order_stat_cdf(cdf(k), trials, j)
    assert p(lo - 1) <= alpha / 2 < p(lo)
    assert p(hi - 1) < 1 - alpha / 2 <= p(hi)


def test_median_interval_covers_the_simulated_median():
    rng = np.random.default_rng(3)
    cdf = lambda k: 1.0 - 0.9 ** k if k >= 0 else 0.0
    for trials in (10, 11):
        lo, hi = ref.median_interval(cdf, trials, 0.02)
        medians = np.median(rng.geometric(0.1, size=(20_000, trials)), axis=1)
        assert ((medians < lo) | (medians > hi)).mean() <= 0.02


def test_quantile_index_matches_the_lower_rounding():
    assert ref.quantile_index(0.1, 2000) == 1800
    assert ref.quantile_index(0.1, 11) == 10
    assert ref.quantile_index(0.5, 1) == 1


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 9, 50])
def test_mean_min_gap_matches_the_integral(beta, n):
    a = 1.0 + beta
    integral, _ = quad(lambda x: (1 - x ** a) ** n, 0, 1, limit=200,
                       epsabs=0.0, epsrel=1e-12)
    assert math.isclose(ref.mean_min_gap(beta, n), integral, rel_tol=1e-9)


def test_mean_min_gap_of_the_uniform_law():
    assert math.isclose(ref.mean_min_gap(0.0, 9), 0.1, rel_tol=1e-12)


@pytest.mark.parametrize("learner, mean", [("full_memory", 0.75),
                                           ("memoryless", 1.5)])
def test_word_level_learners_at_one_wrong_concept(learner, mean):
    # beta = 2: E[1/(1-p)] = 3/2.  Half the trials start on the target; the
    # rest hold the wrong concept for Geom(1-p) words, once (full memory) or
    # a Geom(1/2) number of times (memoryless).
    rng = np.random.default_rng(17)
    t = ref.word_level_times(learner, 2.0, 1, 200_000, rng, cap=10**6)
    assert np.isfinite(t).all()
    assert abs(t.mean() - mean) < 5 * t.std() / math.sqrt(t.size)


def test_quantile_consistent_accepts_the_truth_and_refuses_a_shift():
    rng = np.random.default_rng(2)
    reference = rng.geometric(0.01, size=10_000).astype(float)
    sample = np.sort(rng.geometric(0.01, size=2000))
    j = ref.quantile_index(0.1, 2000)
    assert ref.quantile_consistent(float(sample[j - 1]), reference, 2000, j, 1e-7)
    assert not ref.quantile_consistent(float(sample[j - 1]) * 1.5, reference,
                                       2000, j, 1e-7)
    assert not ref.quantile_consistent(float(sample[j - 1]) / 1.5, reference,
                                       2000, j, 1e-7)


def _subset_time(p):
    """Inclusion-exclusion: T = sum over nonempty S of (-1)**(|S|-1) p_S/(1-p_S)."""
    total = 0.0
    for mask in range(1, 1 << len(p)):
        members = [p[i] for i in range(len(p)) if mask >> i & 1]
        prod = math.prod(members)
        total += (-1) ** (len(members) - 1) * prod / (1 - prod)
    return total


@pytest.mark.parametrize("seed", range(5))
def test_direct_expected_time_matches_inclusion_exclusion(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(int(rng.integers(1, 9))) * 0.999
    assert math.isclose(ref.direct_expected_time(p), _subset_time(p.tolist()),
                        rel_tol=1e-9)


def test_direct_expected_time_of_one_overlap():
    assert math.isclose(ref.direct_expected_time([0.999]), 999.0, rel_tol=1e-9)
    assert ref.direct_expected_time([0.0, 0.0]) == 0.0


def test_coarse_bounds():
    assert ref.coarse_bounds([0.5, 0.75]) == (4.0, 6.0)


# ----------------------------------------------------------------------
# certified-series references
# ----------------------------------------------------------------------


def test_references_cover_every_case():
    values = ref.load_references()
    keys = ({ref.series_key("zeta", b, s) for b, s in ref.ZETA_CASES}
            | {ref.series_key("moment_series", b, n)
               for b in ref.MOMENT_SERIES_BETAS for n in ref.SWEEP}
            | {ref.series_key("alpha1", 0.0, n) for n, _ in ref.ALPHA1_CASES})
    assert set(values) == keys


def test_references_match_closed_forms():
    v = ref.load_references()
    for s in (2.0, 3.0):
        assert math.isclose(v[ref.series_key("zeta", 0.0, s)],
                            riemann_zeta(s) - 1.0, rel_tol=1e-15)
    assert v[ref.series_key("zeta", 0.5, 1.0)] == 2.0           # 1/beta
    assert math.isclose(v[ref.series_key("alpha1", 0.0, 2)],
                        -(math.pi ** 2 / 6 - 1), rel_tol=1e-15)


@pytest.mark.parametrize("n", [100, 316, 1000])
def test_moment_series_reference_matches_brute_force(n):
    # beta = 1: m_j = 2/((j+1)(j+2)), and sum_{j>J} m_j = 2/(J+2) exactly;
    # the dropped higher-order terms are below n**2 * 2/J**3.
    J = 10**7
    j = np.arange(1, J + 1, dtype=np.float64)
    m = 2.0 / ((j + 1.0) * (j + 2.0))
    brute = float(np.sum(-np.expm1(n * np.log1p(-m)))) + n * 2.0 / (J + 2.0)
    assert math.isclose(ref.load_references()[ref.series_key("moment_series", 1.0, n)],
                        brute, rel_tol=1e-11)


def test_euler_maclaurin_does_not_depend_on_where_the_tail_starts():
    mp = pytest.importorskip("mpmath")
    import make_references as mk
    mp.mp.dps = 30
    f = lambda x: mk.moment(-0.5, x) ** 2.5            # the slowest tail here
    near, far = mk.em_sum(f, head=50, terms=8), mk.em_sum(f, head=400, terms=4)
    assert abs(near - far) < mp.mpf(10) ** -20
    assert math.isclose(float(far), ref.load_references()[
        ref.series_key("zeta", -0.5, 2.5)], rel_tol=1e-15)
