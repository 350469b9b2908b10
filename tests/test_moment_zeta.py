"""Moment zeta function, Mellin transform, and the expectation identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from batchlab.distributions import power_tail, scaled, uniform
from batchlab.errors import DivergenceError
from batchlab.moment_zeta import (_QUANTILE_BLOCK, _upper_quantile, mellin,
                                  verify_zeta_expectation, zeta)
from batchlab.rng import STREAM_ZETA_CHECK, derive_rng, rows_chunk
from tests.conftest import MASTER_SEED
from tests.test_distributions import quad_moment


def direct_sum_oracle(dist, s, terms=10**7):
    """Brute-force zeta oracle: explicit summation plus an integral-rule tail.

    Independent of the adaptive truncation under test: fixed term count and
    a plain midpoint integral estimate of the remainder.
    """
    total = 0.0
    for lo in range(1, terms + 1, 2 * 10**6):
        hi = min(lo + 2 * 10**6 - 1, terms)
        k = np.arange(lo, hi + 1, dtype=np.float64)
        total += float((dist.moments(k) ** s).sum())
    alpha, c = dist.tail_parameters()
    tail = c**s * (terms + 0.5) ** (1.0 - alpha * s) / (alpha * s - 1.0)
    return total + tail


class TestMellin:
    def test_uniform_closed_form(self):
        # M(f)(s) = 1/s for the uniform density
        assert_allclose(mellin(uniform(), 3.0), 1.0 / 3.0, rtol=1e-11)
        assert_allclose(mellin(uniform(), 0.7), 1.0 / 0.7, rtol=1e-11)

    def test_powertail_equals_first_moment(self):
        assert_allclose(mellin(power_tail(1.0), 2.0), 1.0 / 3.0, rtol=1e-10)

    @pytest.mark.parametrize("dist", [
        uniform(), power_tail(-0.5), power_tail(0.3), power_tail(1.0),
        power_tail(2.5), scaled(0.5, uniform()),
        scaled(0.25, scaled(0.5, power_tail(-0.9)))], ids=lambda d: d.spec)
    def test_transform_interpolates_moments(self, dist):
        # the closed form m_{s-1} against quadrature of f(x) x**(s-1)
        for s in (0.05, 0.3, 0.7, 1.5, 2.7, 11.0, 51.0, 101.0):
            assert_allclose(mellin(dist, s), quad_moment(dist, s - 1.0),
                            rtol=1e-10, atol=1e-300)

    def test_divergence_at_nonpositive_s(self):
        with pytest.raises(DivergenceError):
            mellin(uniform(), 0.0)
        with pytest.raises(DivergenceError):
            mellin(power_tail(1.0), -1.0)


class TestZetaValues:
    def test_uniform_s2_against_basel(self):
        # sum 1/(k+1)^2 = pi^2/6 - 1
        z = zeta(uniform(), 2.0, eps=1e-9)
        assert_allclose(z.value, math.pi**2 / 6.0 - 1.0, atol=1e-8)
        assert z.error_bound <= 1e-9

    def test_uniform_s2_against_direct_sum(self):
        z = zeta(uniform(), 2.0, eps=1e-9)
        assert_allclose(z.value, direct_sum_oracle(uniform(), 2.0), atol=1e-8)

    def test_uniform_s3_against_direct_sum(self):
        z = zeta(uniform(), 3.0, eps=1e-9)
        assert_allclose(z.value, direct_sum_oracle(uniform(), 3.0), atol=1e-8)

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0])
    def test_uniform_is_hurwitz_zeta(self, s):
        # m_k = 1/(k+1), so zeta_F(s) = zeta(s, 2)
        from scipy.special import zeta as hurwitz
        z = zeta(uniform(), s)
        assert abs(z.value - hurwitz(s, 2.0)) <= z.error_bound

    def test_powertail_telescoping(self):
        # sum 2/((k+1)(k+2)) telescopes to 1 exactly
        z = zeta(power_tail(1.0), 1.0, eps=1e-9)
        assert_allclose(z.value, 1.0, atol=1e-8)

    def test_scaled_geometric_sum(self):
        # m_k = (a^k)/(k+1): zeta(1) = sum a^k/(k+1) = -ln(1-a)/a - 1
        a = 0.5
        z = zeta(scaled(a, uniform()), 1.0, eps=1e-12)
        assert_allclose(z.value, -math.log(1.0 - a) / a - 1.0, atol=1e-11)

    @pytest.mark.parametrize("dist,s", [(uniform(), 1.0), (uniform(), 0.5),
                                        (power_tail(1.0), 0.5),
                                        (power_tail(-0.5), 2.0)],
                             ids=["U-s1", "U-s0.5", "PT1-s0.5", "PTneg-s2"])
    def test_divergence_signal(self, dist, s):
        with pytest.raises(DivergenceError):
            zeta(dist, s)

    def test_strictly_decreasing_in_s(self):
        for dist, s_grid in ((uniform(), (1.5, 2.0, 3.0, 5.0, 10.0)),
                             (power_tail(1.0), (0.8, 1.0, 1.5, 2.0, 5.0))):
            values = [zeta(dist, s, eps=1e-8).value for s in s_grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_near_divergence_eps_unattainable_is_signaled(self):
        # close to s*alpha = 1 the certified bracket cannot reach tight eps
        # within the step cap; an honest precision signal is raised
        from batchlab.errors import PrecisionLossError
        with pytest.raises(PrecisionLossError):
            zeta(uniform(), 1.1, eps=1e-20)

    def test_near_divergence_within_bound(self):
        mp = pytest.importorskip("mpmath")
        z = zeta(uniform(), 1.1, eps=1e-10)
        with mp.workdps(30):
            assert 0.0 < z.error_bound
            assert abs(z.value - (mp.zeta(1.1) - 1)) <= z.error_bound

    def test_dominant_first_term_at_large_s(self):
        # zeta(s) / m_1**s -> 1
        for dist in (uniform(), power_tail(1.0)):
            z = zeta(dist, 200.0, eps=1e-280)
            assert_allclose(z.value / dist.moment(1) ** 200, 1.0, rtol=1e-6)

    def test_truncation_honesty(self):
        # a much tighter eps changes the value by less than the looser bound
        for dist, s in ((uniform(), 2.0), (power_tail(1.0), 1.0)):
            loose = zeta(dist, s, eps=1e-6)
            tight = zeta(dist, s, eps=1e-10)
            assert abs(loose.value - tight.value) <= loose.error_bound
            assert tight.k_used > loose.k_used


ZETA_LAWS = st.one_of(
    st.floats(min_value=-0.9, max_value=3.0).map(power_tail),
    st.sampled_from([uniform(), scaled(0.5, uniform()),
                     scaled(0.9, power_tail(1.0))]))


class TestZetaBoundProperty:
    @given(dist=ZETA_LAWS, p=st.floats(min_value=1.5, max_value=6.0),
           eps=st.floats(min_value=1e-13, max_value=1e-6),
           shrink=st.floats(min_value=2.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_value_within_bound_that_shrinks_with_eps(self, dist, p, eps, shrink):
        # s * alpha = p for the power tails; the scaled laws take s = p.  A
        # tighter eps sums at least as far, so the bound cannot grow; it
        # stays the same where the looser run's K already met the tighter eps
        s = p / dist.tail_parameters()[0] if dist.has_power_tail else p
        loose = zeta(dist, s, eps=eps)
        tight = zeta(dist, s, eps=eps / shrink)
        assert abs(loose.value - tight.value) <= loose.error_bound
        assert tight.k_used >= loose.k_used
        assert 0.0 < tight.error_bound <= loose.error_bound


def mpmath_moment(mp, beta, x):
    """m_x = Gamma(beta+2) Gamma(x+1) / Gamma(x+beta+2) for the float beta."""
    with mp.extradps(5 + int(mp.log10(x))):
        b = mp.mpf(beta)
        value = mp.exp(mp.loggamma(b + 2) + mp.loggamma(x + 1)
                       - mp.loggamma(x + b + 2))
    return +value


def mpmath_sum(mp, f, lead, p, alpha, head=64, far=10**20):
    """sum_{k>=1} f(k) at 20 digits: direct below ``head``, Euler-Maclaurin.

    The tail integral runs over x = head*e**u up to ``far``.  Beyond it
    f(x) = lead * (x + (alpha+1)/2)**-p * (1 + O(x**-2)) for the power-tail
    moments, so the rest of the integral is taken in closed form.
    """
    with mp.workdps(20):
        a, far = mp.mpf(head), mp.mpf(far)
        total = mp.fsum(f(mp.mpf(k)) for k in range(1, head))
        total += mp.quad(lambda u: f(a * mp.exp(u)) * a * mp.exp(u),
                         mp.linspace(0, mp.log(far / a), 6))
        total += lead * (far + (alpha + 1) / 2) ** (1 - p) / (p - 1)
        total += f(a) / 2
        for j in range(1, 7):
            total -= (mp.bernoulli(2 * j) / mp.factorial(2 * j)
                      * mp.diff(f, a, 2 * j - 1))
        return total


ORACLE_BETAS = (-0.9, -0.5, -0.25, 0.0, 0.3, 0.5, 1.0, 2.5)


class TestCertifiedTail:
    @pytest.mark.parametrize("beta", ORACLE_BETAS + (7.7,))
    def test_offset_monotone(self, beta):
        # m_k = c*(k + w_k)**-alpha with w_k monotone toward (alpha+1)/2
        # (Elezovic, Giordano & Pecaric 2000): the fact the tail bracket uses
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            alpha = mp.mpf(beta) + 1
            c = mp.gamma(alpha + 1)
            ks = [1, 10, 100] + [1000 * 2**i for i in range(17)]
            w = [(c / mpmath_moment(mp, beta, mp.mpf(k))) ** (1 / alpha) - k
                 for k in ks]
            limit = (alpha + 1) / 2
            steps = [b - a for a, b in zip(w, w[1:])]
            if beta == 0.0:
                assert all(abs(x - 1) < 1e-20 for x in w)
            else:
                sign = 1 if alpha > 1 else -1
                assert all(sign * d > 0 for d in steps)
                assert all(sign * (limit - x) > 0 for x in w)
            assert abs(w[-1] - limit) < 1e-6

    @pytest.mark.parametrize("beta,alpha_s,eps",
                             [(b, a, 1e-9) for b in ORACLE_BETAS
                              for a in (1.05, 1.5, 2.5, 4.0)]
                             + [(-0.5, 1.25, 1e-9), (0.3, 1.0000002, 1e-6),
                                (0.1, 1.0000003, 1e-6)])
    def test_zeta_within_bound_of_mpmath(self, beta, alpha_s, eps):
        mp = pytest.importorskip("mpmath")
        alpha = beta + 1.0
        s = alpha_s / alpha
        z = zeta(power_tail(beta), s, eps=eps)
        with mp.workdps(20):
            sm = mp.mpf(s)
            a = mp.mpf(beta) + 1
            want = mpmath_sum(mp, lambda x: mpmath_moment(mp, beta, x) ** sm,
                              mp.gamma(a + 1) ** sm, a * sm, a)
            assert 0.0 < z.error_bound
            assert abs(z.value - want) <= z.error_bound


class TestZetaExpectation:
    def test_uniform_n2_matches_zeta(self):
        chk = verify_zeta_expectation(uniform(), 2, 10**6, MASTER_SEED)
        assert abs(chk.mc_estimate - chk.zeta_value) <= 4.0 * chk.stderr
        assert_allclose(chk.zeta_value, math.pi**2 / 6.0 - 1.0, atol=1e-8)
        assert not chk.variance_finite        # n*alpha = 2 boundary case

    def test_uniform_n1_diverges(self):
        with pytest.raises(DivergenceError):
            verify_zeta_expectation(uniform(), 1, 1000, MASTER_SEED)

    def test_powertail_n1_telescoping_value(self):
        chk = verify_zeta_expectation(power_tail(1.0), 1, 10**6, MASTER_SEED)
        assert_allclose(chk.zeta_value, 1.0, atol=1e-8)
        assert abs(chk.mc_estimate - 1.0) <= 4.0 * chk.stderr
        assert not chk.variance_finite
        assert chk.trimmed_mean <= chk.mc_estimate

    def test_variance_finite_regime(self):
        chk = verify_zeta_expectation(power_tail(1.0), 2, 10**5, MASTER_SEED)
        assert chk.variance_finite            # n*alpha = 4 > 2

    def test_thread_count_does_not_change_results(self):
        a = verify_zeta_expectation(uniform(), 3, 200000, MASTER_SEED, threads=1)
        b = verify_zeta_expectation(uniform(), 3, 200000, MASTER_SEED, threads=4)
        assert a == b


def concept_major_oracle(dist, n, trials, seed):
    """The odds y/(1-y) with every chunk's draws dealt out by hand.

    Chunk i of ``rows_chunk(n)`` trials re-derives its stream, draws
    ``count * n`` overlaps and gives draw ``j * count + r`` to trial r as
    factor j; each y multiplies its factors in the order j = 0, 1, ....
    """
    size, odds = rows_chunk(n), []
    for i, lo in enumerate(range(0, trials, size)):
        count = min(size, trials - lo)
        x = dist.sample(count * n, derive_rng(seed, STREAM_ZETA_CHECK, i))
        factors = x[np.arange(n)[None, :] * count + np.arange(count)[:, None]]
        y = factors[:, 0].copy()
        for j in range(1, n):
            y *= factors[:, j]
        odds.append(y / (1.0 - y))
    return np.concatenate(odds)


class TestConceptMajorProducts:
    # n = 50 spans three chunks of rows_chunk(50) = 65536 trials
    @pytest.mark.parametrize("n, trials", [(1, 1000), (3, 70000), (50, 140000)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_mean_equals_the_oracle(self, n, trials, threads):
        dist = power_tail(1.0)
        chk = verify_zeta_expectation(dist, n, trials, MASTER_SEED, threads=threads)
        z = concept_major_oracle(dist, n, trials, MASTER_SEED)
        assert chk.mc_estimate == float(z.mean())


class TestExactStatistics:
    # 255-257 straddle one block of _upper_quantile; 70000 and 200000 span
    # two and four chunks of rows_chunk(3) = 65536 trials
    @pytest.mark.parametrize("trials", [1, 2, 255, 256, 257, 70000, 200000])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_statistics_equal_numpy(self, trials, threads):
        dist = uniform()
        chk = verify_zeta_expectation(dist, 3, trials, MASTER_SEED, threads=threads)
        z = concept_major_oracle(dist, 3, trials, MASTER_SEED)
        assert chk.mc_estimate == float(np.mean(z))
        if trials > 1:
            assert chk.stderr == float(np.std(z, ddof=1) / np.sqrt(trials))
        else:
            assert chk.stderr == math.inf
        assert chk.trimmed_mean == float(np.minimum(z, np.quantile(z, 0.9999)).mean())

    def test_quantile_at_every_small_size(self):
        z = 1.0 / np.random.default_rng(MASTER_SEED).random(1200) - 1.0
        for size in range(1, z.size + 1):
            assert _upper_quantile(z[:size], 0.9999) == np.quantile(z[:size], 0.9999)

    @given(size=st.integers(1, 3000), pool=st.integers(1, 20),
           q=st.sampled_from([0.9999, 0.999, 0.995]) | st.floats(0.9, 1.0),
           last_block_max=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_quantile_selection_equals_numpy(self, size, pool, q, last_block_max,
                                             seed):
        # few distinct values give ties; the maximum can sit in the last,
        # possibly partial, block
        rng = np.random.default_rng(seed)
        z = rng.choice(rng.pareto(1.0, pool), size)
        if last_block_max:
            z[rng.integers(size - 1 - (size - 1) % _QUANTILE_BLOCK, size)] = 2 * z.max() + 1
        assert _upper_quantile(z, q) == np.quantile(z, q)

    def test_peak_allocation(self):
        # the odds (1.5 MiB) and one scratch array of the same size, with
        # no full-size copy for the deviations, the quantile or the minimum
        verify_zeta_expectation(uniform(), 3, 1000, MASTER_SEED)
        tracemalloc.start()
        try:
            verify_zeta_expectation(uniform(), 3, 200000, MASTER_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20
