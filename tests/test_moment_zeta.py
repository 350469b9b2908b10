"""Moment zeta function, Mellin transform, and the expectation identity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from batchlab.distributions import power_tail, scaled, uniform
from batchlab.errors import DivergenceError
from batchlab.moment_zeta import mellin, verify_zeta_expectation, zeta
from tests.conftest import MASTER_SEED


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

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0),
                                      power_tail(-0.5), scaled(0.5, uniform())],
                             ids=lambda d: d.spec)
    def test_transform_interpolates_moments(self, dist):
        for k in list(range(1, 51)) + [75, 100]:
            assert_allclose(mellin(dist, k + 1.0), dist.moment(k),
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
