"""Distribution families: densities, CDFs, samplers, moments, tail data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from batchlab.distributions import parse_dist, power_tail, scaled, uniform

# ids are the specs the laws are parsed from; powertail:beta=0 is uniform
FAMILIES = [pytest.param(parse_dist(spec), id=spec) for spec in (
    "uniform", "powertail:beta=0", "powertail:beta=1", "powertail:beta=3",
    "powertail:beta=-0.5", "scaled:a=0.5,inner=powertail:beta=1")]


def quad_moment(dist, k):
    """Independent quadrature oracle for m_k = integral of x**k against the
    density, at any real order k > -1.

    The law of a*X reduces by the change of variables x -> a*y to a**k times
    a moment of X.  A Gauss-Jacobi weight y**k * (1-y)**beta carries both
    endpoint factors of X's density (1+beta) * (1-y)**beta, which is the
    family definition, not the code under test.
    """
    val, _ = quad(lambda y: 1.0 + dist.beta, 0.0, 1.0, weight="alg",
                  wvar=(k, dist.beta), epsabs=1e-13, epsrel=1e-12)
    return dist.a**k * val


class TestDensityCdf:
    def test_uniform_point(self):
        u = uniform()
        assert u.density(0.3) == 1.0
        assert u.cdf(0.3) == 0.3

    def test_powertail_point(self):
        pt = power_tail(1.0)
        assert_allclose(pt.density(0.5), 1.0, rtol=1e-15)
        assert_allclose(pt.cdf(0.5), 0.75, rtol=1e-15)

    def test_powertail_beta0_reduces_to_uniform(self):
        pt = power_tail(0.0)
        u = uniform()
        x = np.linspace(0.0, 1.0, 101)
        assert_allclose(pt.density(x), u.density(x), atol=1e-14)
        assert_allclose(pt.cdf(x), u.cdf(x), atol=1e-14)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_density_integrates_to_one(self, dist):
        assert_allclose(quad_moment(dist, 0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_cdf_monotone_and_normalized(self, dist):
        x = np.linspace(0.0, 1.0, 501)
        c = dist.cdf(x)
        assert dist.cdf(0.0) == 0.0
        assert_allclose(dist.cdf(1.0), 1.0, atol=1e-12)
        assert np.all(np.diff(c) >= -1e-15)

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 3.0])
    def test_local_power_behavior_at_one(self, beta):
        # density(1-x) / x**beta -> 1 + beta as x -> 0+
        pt = power_tail(beta)
        for x in (1e-3, 1e-5, 1e-7):
            assert_allclose(pt.density(1.0 - x) / x**beta, 1.0 + beta, rtol=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            uniform().density(1.5)
        with pytest.raises(ValueError):
            uniform().cdf(-0.1)

    @pytest.mark.parametrize("dist", [uniform(), power_tail(1.0),
                                      scaled(0.5, power_tail(-0.5))])
    def test_nan_is_outside_the_domain(self, dist):
        for x in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                dist.density(x)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                dist.cdf(x)
        assert dist.cdf(np.empty(0)).shape == (0,)


class TestSampling:
    def test_empty(self, rng):
        assert uniform().sample(0, rng).shape == (0,)

    def test_uniform_draws_are_the_generator_stream(self):
        # beta = 0 and a = 1 leave the generator's uniforms untouched
        x = uniform().sample(1000, np.random.default_rng(5))
        assert np.array_equal(x, np.random.default_rng(5).random(1000))

    def test_uniform_mean(self, rng):
        x = uniform().sample(10**5, rng)
        assert abs(x.mean() - 0.5) < 0.005          # 3 sigma = 0.0027

    def test_powertail_mean_vs_quadrature(self, rng):
        pt = power_tail(1.0)
        m1 = quad_moment(pt, 1)
        assert_allclose(m1, 1.0 / 3.0, rtol=1e-9)
        x = pt.sample(10**5, rng)
        assert abs(x.mean() - m1) < 0.005

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_samples_in_range(self, dist, rng):
        x = dist.sample(20000, rng)
        assert x.min() >= 0.0
        assert x.max() < 1.0

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_sampler_matches_cdf_dkw(self, dist, rng):
        # Dvoretzky-Kiefer-Wolfowitz band at 99% confidence
        n = 10**5
        x = np.sort(dist.sample(n, rng))
        eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        c = dist.cdf(x)
        assert float(np.max(np.abs(ecdf_hi - c))) < eps
        assert float(np.max(np.abs(c - ecdf_lo))) < eps


class TestMoments:
    def test_uniform_k2(self):
        assert_allclose(uniform().moment(2), 1.0 / 3.0, rtol=1e-15)

    def test_integer_beta_moments_are_the_rational_forms(self):
        # bit for bit: the product starts at k + 1 and a**k is skipped at a = 1
        k = np.arange(1, 2001, dtype=np.float64)
        assert np.array_equal(uniform().moments(k), 1.0 / (k + 1.0))
        assert np.array_equal(power_tail(1.0).moments(k),
                              2.0 / ((k + 1.0) * (k + 2.0)))

    def test_powertail_closed_forms(self):
        pt = power_tail(1.0)
        assert_allclose(pt.moment(1), 1.0 / 3.0, rtol=1e-12)
        assert_allclose(pt.moment(3), 0.1, rtol=1e-12)  # 2/((k+1)(k+2)) at k=3

    @pytest.mark.parametrize("dist", FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 7, 25, 100])
    def test_moment_matches_quadrature(self, dist, k):
        assert_allclose(dist.moment(k), quad_moment(dist, k),
                        rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_moment_monotone_decreasing(self, dist):
        ks = np.arange(1, 10001, dtype=np.float64)
        m = dist.moments(ks)
        assert np.all(np.diff(m) <= 0.0)

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_moment_log_convex(self, dist):
        # Cauchy-Schwarz: m_k**2 <= m_{k-1} m_{k+1}
        ks = np.arange(1, 2002, dtype=np.float64)
        m = dist.moments(ks)
        mid, lo, hi = m[1:-1], m[:-2], m[2:]
        assert np.all(mid**2 <= lo * hi * (1.0 + 1e-12))

    @pytest.mark.parametrize("beta", [-0.9, -0.5, 0.3, 2.5, 0.0, 3.0, 0.5, 3.7])
    def test_moments_against_mpmath(self, beta):
        # non-integer beta to 1e-10 over the k-range the series and the
        # batch-time quantile visit; k + beta + 2 is formed in mpmath: in
        # float64 at k = 1e15 it rounds by up to 1/16, and Gamma moves by a
        # factor of up to k**(1/16), about 9
        mp = pytest.importorskip("mpmath")
        dist = power_tail(beta)
        ks = [10.0, 1e4, 1e6, 2.0**26, 1e10, 1e15]
        assert dist.moment_rtol <= 1e-10
        with mp.workdps(40):
            b = mp.mpf(beta)
            for k, m in zip(ks, dist.moments(np.asarray(ks))):
                k = mp.mpf(k)
                want = mp.gamma(b + 2) * mp.gamma(k + 1) / mp.gamma(k + b + 2)
                assert abs(m / want - 1) <= dist.moment_rtol

    def test_scaled_moments_scale_geometrically(self):
        inner = power_tail(1.0)
        sc = scaled(0.5, inner)
        for k in (1, 2, 10):
            assert_allclose(sc.moment(k), 0.5**k * inner.moment(k), rtol=1e-13)


class TestTailParameters:
    def test_values(self):
        assert uniform().tail_parameters() == (1.0, 1.0)
        assert power_tail(1.0).tail_parameters()[0] == 2.0
        assert power_tail(-0.5).tail_parameters()[0] == 0.5

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 3.0])
    def test_ratio_test_on_moments(self, beta):
        # m_k * k**alpha approaches the tail constant; within 2% by k = 1e4
        dist = power_tail(beta)
        alpha, c = dist.tail_parameters()
        for k in (10**3, 10**4):
            assert abs(dist.moment(k) * k**alpha / c - 1.0) < 0.02

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 3.0])
    def test_normalized_moments_increase_to_constant(self, beta):
        # m_k * k**alpha climbs to c, also where the moments use poch
        dist = power_tail(beta)
        alpha, c = dist.tail_parameters()
        ks = np.arange(1, 10001, dtype=np.float64)
        r = dist.moments(ks) * ks**alpha
        assert np.all(np.diff(r) >= -1e-14)
        assert r[-1] <= c * (1.0 + 1e-12)

    def test_alpha_of_every_law(self):
        # a < 1 decays geometrically: faster than any power
        assert uniform().alpha == 1.0
        assert power_tail(2.5).alpha == 3.5
        assert scaled(0.5, uniform()).alpha == math.inf
        assert scaled(0.5, scaled(0.5, power_tail(1.0))).alpha == math.inf
        for beta in (-0.5, 0.0, 1.0, 2.5):
            assert power_tail(beta).tail_parameters()[0] == power_tail(beta).alpha

    def test_scaled_has_no_power_tail(self):
        sc = scaled(0.5, uniform())
        assert not sc.has_power_tail
        with pytest.raises(ValueError, match="no power tail"):
            sc.tail_parameters()

    def test_scaled_with_a_one_delegates(self):
        sc = scaled(1.0, power_tail(1.0))
        assert sc.has_power_tail
        assert sc.tail_parameters() == power_tail(1.0).tail_parameters()


class TestFold:
    def test_powertail_beta0_is_uniform(self):
        assert uniform() == power_tail(0.0)
        assert power_tail(0.0).spec == "uniform"

    @pytest.mark.parametrize("dist", FAMILIES)
    def test_scaled_by_one_is_the_inner_law(self, dist):
        assert scaled(1.0, dist) == dist

    def test_nested_scaled_folds(self):
        dist = parse_dist("scaled:a=0.25,inner=scaled:a=0.5,inner=uniform")
        assert dist == scaled(0.125, uniform())
        assert dist.spec == "scaled:a=0.125,inner=uniform"


class TestSpecStrings:
    @pytest.mark.parametrize("spec", [
        "uniform",
        "powertail:beta=1",
        "powertail:beta=-0.5",
        "scaled:a=0.5,inner=powertail:beta=2",
        "powertail:beta=0.1234567",
        "scaled:a=0.99999999,inner=uniform",
        "powertail:beta=1e-07",
    ])
    def test_round_trip(self, spec):
        assert parse_dist(spec).spec == spec

    # the largest beta is 169.6: past it Gamma(beta + 2) overflows
    @given(beta=st.floats(min_value=-1.0, max_value=169.0, exclude_min=True),
           a=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_spec_names_the_same_law(self, beta, a):
        # ":g" keeps six digits; a spec must never name a neighbouring law
        for dist in (power_tail(beta), scaled(a, power_tail(beta))):
            assert parse_dist(dist.spec) == dist

    @pytest.mark.parametrize("bad", [
        "gaussian", "powertail", "powertail:beta=x", "powertail:beta=-1",
        "scaled:a=0.5", "scaled:a=2,inner=uniform", "scaled:a=0,inner=uniform",
        "powertail:beta=inf", "powertail:beta=1e300", "powertail:beta=nan",
        "scaled:a=0.5,inner=powertail:beta=inf",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_dist(bad)


class TestHypothesisProperties:
    @given(beta=st.floats(min_value=-0.9, max_value=5.0),
           x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_cdf_in_unit_interval(self, beta, x):
        d = power_tail(beta)
        c = d.cdf(x)
        assert 0.0 <= c <= 1.0
        assert d.density(x) >= 0.0

    @given(beta=st.floats(min_value=-0.9, max_value=5.0),
           k=st.integers(min_value=1, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_moment_in_unit_interval_and_decreasing(self, beta, k):
        d = power_tail(beta)
        mk, mk1 = d.moment(k), d.moment(k + 1)
        assert 0.0 < mk < 1.0
        assert mk1 <= mk
