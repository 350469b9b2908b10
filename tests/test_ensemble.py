"""Ensemble expectations, the alpha = 1 split, extremes, and sandwich checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special, stats
from scipy.integrate import quad

from batchlab import ensemble as en
from batchlab.batch_exact import expected_time_bulk
from batchlab.distributions import power_tail, scaled, uniform
from batchlab.errors import DivergenceError, PrecisionLossError
from batchlab.rng import STREAM_ENSEMBLE, STREAM_EXTREMES, derive_rng
from tests.conftest import MASTER_SEED
from tests.oracles import expected_time_subsets_bulk
from tests.test_moment_zeta import mpmath_moment, mpmath_sum


class TestZetaSumRoute:
    def test_telescoping_base_case(self):
        assert_allclose(en.expected_time_zeta_sum(power_tail(1.0), 1).value,
                        1.0, atol=1e-9)

    def test_n2_binomial_combination(self):
        from batchlab.moment_zeta import zeta
        pt = power_tail(1.0)
        want = 2.0 * zeta(pt, 1.0, eps=1e-11).value - zeta(pt, 2.0, eps=1e-11).value
        assert_allclose(en.expected_time_zeta_sum(pt, 2).value, want, rtol=1e-10)

    def test_uniform_diverges(self):
        with pytest.raises(DivergenceError):
            en.expected_time_zeta_sum(uniform(), 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_agreement_with_moment_series(self, n):
        a = en.expected_time_zeta_sum(power_tail(1.0), n).value
        b = en.expected_time_moment_series(power_tail(1.0), n, eps=1e-10).value
        assert abs(a - b) <= 1e-8

    def test_cancellation_reported_and_bounded(self):
        # within the n <= 30 window these families stay well conditioned
        # (first moment <= 1/2, so zeta values decay geometrically)
        r = en.expected_time_zeta_sum(power_tail(1.0), 30)
        assert 1.0 <= r.cancellation_ulps < en._CONDITION_LIMIT

    def test_cancellation_refusal_guard(self, monkeypatch):
        monkeypatch.setattr(en, "_CONDITION_LIMIT", 100.0)
        with pytest.raises(PrecisionLossError):
            en.expected_time_zeta_sum(power_tail(1.0), 30)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            en.expected_time_zeta_sum(power_tail(1.0), 31)


class TestMomentSeriesRoute:
    def test_telescoping_n1(self):
        r = en.expected_time_moment_series(power_tail(1.0), 1, eps=1e-10)
        assert_allclose(r.value, 1.0, atol=1e-9)
        assert r.error_bound <= 1e-10

    def test_n1_equals_zeta_at_one(self):
        from batchlab.moment_zeta import zeta
        for beta in (0.5, 1.0, 2.0):
            d = power_tail(beta)
            assert_allclose(en.expected_time_moment_series(d, 1, eps=1e-10).value,
                            zeta(d, 1.0, eps=1e-10).value, atol=1e-9)

    def test_alpha_at_most_one_diverges(self):
        with pytest.raises(DivergenceError):
            en.expected_time_moment_series(uniform(), 5)
        with pytest.raises(DivergenceError):
            en.expected_time_moment_series(power_tail(-0.5), 5)

    def test_scaled_support_converges(self):
        r = en.expected_time_moment_series(scaled(0.5, uniform()), 3, eps=1e-10)
        assert 0.0 < r.value < 3.0

    def test_against_subset_formula_monte_carlo(self):
        # E_p[T(p)] estimated from 1e6 fresh vectors via inclusion-exclusion
        pt = power_tail(1.0)
        rng = derive_rng(MASTER_SEED, 501)
        P = pt.sample(10**6 * 5, rng).reshape(10**6, 5)
        tvals = expected_time_subsets_bulk(P)
        series = en.expected_time_moment_series(pt, 5, eps=1e-10).value
        se = tvals.std(ddof=1) / math.sqrt(tvals.size)
        assert abs(tvals.mean() - series) <= 3.0 * se

    @pytest.mark.parametrize("n", [10, 100])
    def test_against_per_sample_times_monte_carlo(self, n):
        pt = power_tail(1.0)
        rng = derive_rng(MASTER_SEED, 502, n)
        P = pt.sample(10**5 * n, rng).reshape(10**5, n)
        mc_words = expected_time_bulk(P) + 1.0    # word-count convention
        series = en.expected_time_moment_series(pt, n, eps=1e-8).value
        se = mc_words.std(ddof=1) / math.sqrt(mc_words.size)
        assert abs((mc_words.mean() - 1.0) - series) <= 4.0 * se

    @pytest.mark.parametrize("beta,n,eps",
                             [(b, n, 1e-8) for b in (0.3, 0.5, 1.0, 2.5)
                              for n in (1, 5, 30, 1000)]
                             + [(0.5, 31623, 1e-6), (0.5, 100000, 1e-6)])
    def test_within_bound_of_mpmath(self, beta, n, eps):
        mp = pytest.importorskip("mpmath")
        r = en.expected_time_moment_series(power_tail(beta), n, eps=eps)
        with mp.workdps(20):
            a = mp.mpf(beta) + 1
            want = mpmath_sum(
                mp, lambda x: -mp.expm1(n * mp.log1p(-mpmath_moment(mp, beta, x))),
                n * mp.gamma(a + 1), a, a)
            assert 0.0 < r.error_bound
            assert abs(r.value - want) <= r.error_bound

    def test_high_orders_cut_the_series_early(self):
        # a tail bracket cut at C(n,3) m**3 needs J = 1,024,000 here
        r = en.expected_time_moment_series(power_tail(0.5), 10**5, eps=1e-6)
        assert r.j_used <= 65536

    def test_tight_eps_at_large_n(self):
        # a tail bracket cut at C(n,3) m**3 stalls at J = 2**26 here
        d = power_tail(0.5)
        tight = en.expected_time_moment_series(d, 10**7, eps=1e-9)
        loose = en.expected_time_moment_series(d, 10**7, eps=1e-6)
        assert abs(tight.value - loose.value) <= tight.error_bound + loose.error_bound

    def test_truncation_honesty(self):
        loose = en.expected_time_moment_series(power_tail(1.0), 50, eps=1e-4)
        tight = en.expected_time_moment_series(power_tail(1.0), 50, eps=1e-9)
        assert abs(loose.value - tight.value) <= loose.error_bound

    @given(beta=st.floats(min_value=0.2, max_value=20.0),
           n=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_batch_never_slower_than_memoryless(self, beta, n):
        # E[k0] = 1 + series <= n(1+beta)/beta, the memoryless ensemble
        # mean n E[1/(1-p)]; equality at n = 1, where k0 is one lifetime
        r = en.expected_time_moment_series(power_tail(beta), n)
        memoryless = n * (1.0 + beta) / beta
        assert r.value + 1.0 <= memoryless + r.error_bound
        if n == 1:
            assert r.value + 1.0 >= memoryless - r.error_bound


class TestAlpha1Split:
    def test_uniform_n2_is_basel_sum(self):
        # T2 = -sum m_j^2 = -(pi^2/6 - 1)
        r = en.alpha1_decomposition(uniform(), 2, eps=1e-9)
        assert_allclose(r.t2, -(math.pi**2 / 6.0 - 1.0), atol=1e-8)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_against_zeta_sum(self, n):
        # T2 = sum_{k=2}^n C(n,k) (-1)**(k-1) zeta_F(k), zeta_F(k) = zeta(k, 2)
        terms = [math.comb(n, k) * (-1) ** (k - 1) * special.zeta(k, 2)
                 for k in range(2, n + 1)]
        want = math.fsum(terms)
        cancellation = 2.0 ** -52 * math.fsum(abs(t) for t in terms)
        r = en.alpha1_decomposition(uniform(), n, eps=1e-12)
        assert abs(r.t2 - want) <= r.error_bound + cancellation

    def test_log_constant_extraction(self):
        r = en.alpha1_decomposition(uniform(), 2)
        assert_allclose(r.c, 1.0, atol=1e-8)
        assert r.c == uniform().tail_parameters()[1]

    @pytest.mark.parametrize("n,eps", [(3, 1e-10), (30, None), (1000, 1e-3)])
    def test_within_bound_of_mpmath(self, n, eps):
        mp = pytest.importorskip("mpmath")
        r = en.alpha1_decomposition(uniform(), n, eps=eps)
        with mp.workdps(20):
            want = -mpmath_sum(
                mp, lambda x: mp.expm1(n * mp.log1p(-1 / (x + 1))) + n / (x + 1),
                math.comb(n, 2), 2, 1)
            assert 0.0 < r.error_bound
            assert abs(r.t2 - want) <= r.error_bound

    def test_growth_ratio_at_desk_scale(self):
        n = 10**4
        r = en.alpha1_decomposition(uniform(), n, eps=1.0)
        ratio = r.t2 / (n * math.log(n))
        assert abs(ratio - (-r.c)) <= 0.1 * abs(r.c)

    def test_rejects_wrong_regime(self):
        with pytest.raises(ValueError):
            en.alpha1_decomposition(power_tail(1.0), 10)
        with pytest.raises(ValueError):
            en.alpha1_decomposition(scaled(0.5, uniform()), 10)

    def test_law_of_large_numbers_scale(self):
        # per-sample expected times over 1e4 fresh vectors: the trimmed mean
        # of T/n sits at Theta(1) even though E[T] does not exist
        n = 1000
        rng = derive_rng(MASTER_SEED, 77)
        P = uniform().sample(10**4 * n, rng).reshape(10**4, n)
        t_over_n = expected_time_bulk(P) / n
        trimmed = stats.trim_mean(t_over_n, 0.05)
        assert 0.5 <= trimmed <= 5.0


def _exact_binomial_sum(m, n, first):
    """sum over m of 1 - (1-m)**n (first = 1) or (1-m)**n - 1 + n*m, exactly."""
    total = sum(1 - (1 - Fraction(x)) ** n for x in m)
    return total if first == 1 else n * sum(map(Fraction, m)) - total


class TestBonferroniBracket:
    # below 1e-100 the powers m**s the expansion reaches can underflow, and
    # fsum(m**s) then no longer holds sum m**s
    @given(n=st.integers(min_value=1, max_value=200),
           m=st.lists(st.just(0.0) | st.floats(min_value=1e-100, max_value=1.0,
                                               exclude_max=True),
                      min_size=1, max_size=20),
           first=st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_contains_the_sum(self, n, m, first):
        powers = np.asarray(m)

        def tail(s):
            return [math.fsum(powers ** s)] * 2

        lower, upper, _ = en._bonferroni_bracket(n, tail, first)
        assert lower <= _exact_binomial_sum(m, n, first) <= upper

    @given(n=st.integers(min_value=2, max_value=50),
           m=st.lists(st.floats(min_value=1e-3, max_value=0.5), min_size=1,
                      max_size=5),
           first=st.sampled_from([1, 2]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_takes_the_outer_end_of_each_tail(self, n, m, first, data):
        # tails that hold the sum anywhere inside a wide [lo, hi]
        powers = np.asarray(m)
        slack = st.floats(min_value=0.0, max_value=0.5)

        def tail(s):
            v = math.fsum(powers ** s)
            return v * (1.0 - data.draw(slack)), v * (1.0 + data.draw(slack))

        lower, upper, _ = en._bonferroni_bracket(n, tail, first)
        assert lower <= _exact_binomial_sum(m, n, first) <= upper

    @pytest.mark.parametrize("n,first", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_exact_where_the_expansion_ends(self, n, first):
        m = [0.9, 0.5, 0.25, 1e-3]
        powers = np.asarray(m)
        lower, upper, _ = en._bonferroni_bracket(
            n, lambda s: [math.fsum(powers ** s)] * 2, first)
        want = _exact_binomial_sum(m, n, first)
        assert lower <= want <= upper
        assert upper - lower <= 1e-14 * max(1.0, abs(float(want)))


class TestIntegralRoute:
    def test_matches_closed_form(self):
        # Gamma closed form vs quadrature of the integrated-by-parts form
        # c*alpha * u**(alpha-2) * exp(-c u**alpha), weighted at 0 for alpha < 2
        for beta in (0.5, 1.0, 3.0):
            alpha, c = power_tail(beta).tail_parameters()

            def by_parts(u):
                return c * alpha * math.exp(-c * u ** alpha)

            if alpha < 2.0:
                head, _ = quad(by_parts, 0.0, 1.0, weight="alg",
                               wvar=(alpha - 2.0, 0.0), epsabs=1e-13, epsrel=1e-11)
            else:
                head, _ = quad(lambda u: by_parts(u) * u ** (alpha - 2.0), 0.0, 1.0,
                               epsabs=1e-13, epsrel=1e-11)
            tail, _ = quad(lambda u: by_parts(u) * u ** (alpha - 2.0), 1.0, np.inf,
                           epsabs=1e-13, epsrel=1e-11)
            assert_allclose(en.expected_time_integral(power_tail(beta), 1),
                            head + tail, rtol=1e-6)

    def test_agrees_with_series_in_asymptotic_regime(self):
        d = power_tail(1.0)
        n = 10**4
        got = en.expected_time_integral(d, n)
        series = en.expected_time_moment_series(d, n, eps=1e-4).value
        assert 0.95 <= got / series <= 1.05

    def test_exact_rate_scaling(self):
        d = power_tail(1.0)
        assert_allclose(en.expected_time_integral(d, 2000)
                        / en.expected_time_integral(d, 1000),
                        2.0 ** 0.5, rtol=1e-12)

    def test_divergence_below_alpha_one(self):
        with pytest.raises(DivergenceError):
            en.expected_time_integral(uniform(), 100)

    def test_no_power_tail_is_a_value_error(self):
        # a < 1 has no tail constant to integrate; nothing diverges
        d = scaled(0.5, uniform())
        with pytest.raises(ValueError, match="power tail") as direct:
            en.expected_time_integral(d, 100)
        with pytest.raises(ValueError, match="power tail") as routed:
            en.ensemble_estimate(d, 100, "integral_asymptotic")
        for exc in (direct, routed):
            assert not isinstance(exc.value, DivergenceError)


class TestConcentration:
    def test_lln_regime(self):
        cs = en.sum_inverse_gap_concentration(power_tail(1.0), 10**4, 2000,
                                              MASTER_SEED)
        assert cs.regime == "lln"
        assert_allclose(cs.target, 2.0, rtol=1e-12)   # (1+beta)/beta
        assert abs(cs.median - 2.0) < 0.1
        same = en.sum_inverse_gap_concentration(scaled(1.0, power_tail(1.0)),
                                                10**4, 2000, MASTER_SEED)
        assert same.regime == "lln" and same.target == 2.0
        assert abs(same.median - 2.0) < 0.1
        tighter = en.sum_inverse_gap_concentration(power_tail(1.0), 10**5, 2000,
                                                   MASTER_SEED)
        assert tighter.iqr < cs.iqr

    def test_log_regime(self):
        cs = en.sum_inverse_gap_concentration(uniform(), 10**4, 2000, MASTER_SEED)
        assert cs.regime == "log"
        assert 0.7 <= cs.median <= 1.3

    def test_log_regime_needs_two_overlaps(self):
        # n log n is 0 at n = 1; other regimes normalize n = 1 finitely
        with pytest.raises(ValueError, match="n must be >= 2"):
            en.sum_inverse_gap_concentration(uniform(), 1, 50, 1)
        cs = en.sum_inverse_gap_concentration(power_tail(1.0), 1, 50, 1)
        assert np.isfinite([cs.median, cs.iqr]).all()

    def test_stable_regime_ratio_stability(self):
        small = en.sum_inverse_gap_concentration(power_tail(-0.5), 100, 2000,
                                                 MASTER_SEED)
        large = en.sum_inverse_gap_concentration(power_tail(-0.5), 10**4, 2000,
                                                 MASTER_SEED)
        assert small.regime == "stable" and small.target is None
        assert 1.0 / 3.0 <= large.median / small.median <= 3.0


class TestExtremeValue:
    def test_uniform_minimum_mean(self):
        # min of n+0 uniform gaps has mean 1/(n+1)
        ev = en.extreme_value(uniform(), [9], 10**5, MASTER_SEED)
        assert abs(ev.mean_min_q[0] - 0.1) <= 4.0 * ev.stderr[0]

    def test_uniform_exponential_limit_ks(self):
        ev = en.extreme_value(uniform(), [1000], 10**5, MASTER_SEED)
        assert ev.ks_distance < 0.01

    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    def test_regression_slope(self, beta):
        d = uniform() if beta == 0.0 else power_tail(beta)
        ev = en.extreme_value(d, [100, 316, 1000, 3162, 10000], 20000,
                              MASTER_SEED)
        assert abs(ev.fitted_slope - (-1.0 / (1.0 + beta))) < 0.05

    def test_fitted_constant_matches_limit_cdf_form(self):
        # of the two candidate closed forms for the scaled-minimum constant,
        # the empirical fit selects the one implied by the limit CDF
        # G(x) = 1 - exp(-x**(1+beta)): integral exp(-u**(1+beta)) du,
        # which is Gamma(1 + 1/(1+beta)) = sqrt(pi)/2 at beta = 1; the
        # alternative reading integral exp(-u**(1/(1+beta))) du = 2 does not
        ev = en.extreme_value(power_tail(1.0), [316, 1000, 3162, 10000],
                              30000, MASTER_SEED)
        g_form = math.gamma(1.0 + 0.5)
        assert abs(ev.fitted_C - g_form) < 0.05
        assert abs(ev.fitted_C - 2.0) > 1.0

    def test_rejects_no_power_tail(self):
        with pytest.raises(ValueError):
            en.extreme_value(scaled(0.5, uniform()), [10], 100, MASTER_SEED)

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0),
                                      power_tail(-0.5)], ids=lambda d: d.spec)
    @pytest.mark.parametrize("n", [1, 30, 1000])
    def test_gaps_same_law_as_matrix_minimum(self, dist, n):
        # the report's gaps come from one uniform per trial on the streams
        # (seed, STREAM_EXTREMES, j, chunk); rebuild them, tie them to the
        # report's mean, and compare with minima of drawn overlap vectors
        trials = 2000
        ev = en.extreme_value(dist, [n], trials, MASTER_SEED)
        alpha, _ = dist.tail_parameters()
        v = derive_rng(MASTER_SEED, STREAM_EXTREMES, 0, 0).random(trials)
        gaps = en._min_gap_quantile(v, n, alpha)
        assert ev.mean_min_q[0] == float(gaps.mean())
        rng = np.random.default_rng(MASTER_SEED)
        matrix = (1.0 - dist.sample(trials * n, rng).reshape(trials, n)).min(axis=1)
        assert stats.ks_2samp(gaps, matrix).pvalue > 1e-3

    def test_no_floor_on_tiny_gaps(self):
        # at beta = -0.9 and n = 100 the scaled gaps live near 1e-20, below
        # the 2**-53 resolution of an overlap drawn as p; inversion draws
        # the gap itself
        ev = en.extreme_value(power_tail(-0.9), [10, 100], 2000, 5)
        assert ev.ks_distance < 0.05


class TestRegimeWindows:
    def test_sublinear_regime(self):
        rep = en.regime_window_check(power_tail(1.0), 1000, 1000, MASTER_SEED)
        assert rep.regime == "sublinear"
        assert rep.fraction_within >= 0.99

    def test_linear_log_regime(self):
        rep = en.regime_window_check(uniform(), 1000, 1000, MASTER_SEED)
        assert rep.regime == "linear-log"
        assert rep.fraction_within >= 0.99

    def test_tight_regime_below_analysis(self):
        rep = en.regime_window_check(power_tail(-0.5), 1000, 1000, MASTER_SEED)
        assert rep.regime == "tight-outside-analyzed-regime"
        assert rep.fraction_within >= 0.99

    def test_outside_analyzed_regime_label(self):
        rep = en.regime_window_check(power_tail(-0.7), 200, 200, MASTER_SEED)
        assert "outside-analyzed-regime" in rep.regime
        mild = en.regime_window_check(power_tail(-0.3), 200, 200, MASTER_SEED)
        assert mild.regime == "tight"

    def test_values_rebuilt_from_stream(self):
        # the rows of chunk 0 come from (seed, STREAM_ENSEMBLE, 2, 0); the
        # benchmark rebuilds them from that stream to check this report
        n, trials = 300, 200
        rep = en.regime_window_check(uniform(), n, trials, MASTER_SEED)
        rng = derive_rng(MASTER_SEED, STREAM_ENSEMBLE, 2, 0)
        t = expected_time_bulk(uniform().sample(trials * n, rng)
                               .reshape(trials, n)) + 1.0
        assert rep.median_t == float(np.quantile(t, 0.5))
        within = (t >= rep.window_low) & (t <= rep.window_high)
        assert rep.fraction_within == float(within.mean())

    def test_benchmark_rows_are_chunk_0(self):
        # the per_vector benchmark rebuilds a 40 x 1000 check as chunk 0 of
        # its stream, so these rows must stay in one chunk of rows_chunk(n)
        n, trials = 1000, 40
        rep = en.regime_window_check(power_tail(1.0), n, trials, MASTER_SEED)
        rng = derive_rng(MASTER_SEED, STREAM_ENSEMBLE, 2, 0)
        t = expected_time_bulk(power_tail(1.0).sample(trials * n, rng)
                               .reshape(trials, n)) + 1.0
        q005, med, q995 = np.quantile(t, [0.005, 0.5, 0.995])
        assert (rep.q005, rep.median_t, rep.q995) == (q005, med, q995)


class TestDispatcher:
    def test_each_method_runs(self):
        pt = power_tail(1.0)
        for method in en.METHODS:
            trials = 500 if method == "monte_carlo" else None
            est = en.ensemble_estimate(pt, 20, method, trials=trials,
                                       seed=MASTER_SEED)
            assert est.method == method
            assert est.value > 0.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            en.ensemble_estimate(uniform(), 10, "psychic")

    def test_monte_carlo_reproducible(self):
        a = en.ensemble_estimate(uniform(), 50, "monte_carlo", trials=2000,
                                 seed=MASTER_SEED, threads=1)
        b = en.ensemble_estimate(uniform(), 50, "monte_carlo", trials=2000,
                                 seed=MASTER_SEED, threads=3)
        assert a == b
