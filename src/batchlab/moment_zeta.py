"""Moment zeta function, Mellin transform, and the certified tail engine.

For a law F on [0, 1] with moments m_k, the moment zeta function is

    zeta_F(s) = sum_{k>=1} m_k**s,

convergent exactly when s * alpha > 1, where alpha is the moment tail
exponent (m_k ~ c * k**-alpha).  ``zeta``, the moment series and the alpha = 1
split of :mod:`batchlab.ensemble` are sums over moments cut at K by one
driver, ``_certified_sum``, and one bracket, ``_power_sum_tail``, bounds every
discarded sum_{j>K} m_j**s to within O(K**-2) of the tail.

The Mellin transform M(f)(s) = integral_0^1 f(x) x**(s-1) dx is m_{s-1}:
``mellin`` reads it off the closed-form moments at real order s - 1 > -1,
and the tests check it against quadrature of the density.

The geometric-series identity behind the learning-time formulas is

    E[ y / (1 - y) ] = zeta_F(n),   y = x_1 * ... * x_n,

equivalently E[1/(1 - y)] = 1 + zeta_F(n): the k = 0 term of the expansion
falls outside the k >= 1 moment sum, so the Monte Carlo check here averages
y/(1 - y).  Both sides are undefined when n * alpha <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _ULP, OverlapDistribution
from .errors import ConfigError, DivergenceError, PrecisionLossError, count
# map_chunks is looked up in this module at call time, so that
# bench/layertrace.py can patch it here
from .rng import STREAM_ZETA_CHECK, derive_rng, map_chunks, rows_chunk

_K_START = 1_000
_K_CAP = 1 << 26
_SUM_CHUNK = 1 << 20
# covers pairwise summation of up to 2**26 positive terms, the bracket
# arithmetic and the n*m cancellation of the alpha = 1 term (< 2e-14 of |T2|)
_ROUNDING_RTOL = 1e-13
_VERIFY_EPS = 1e-9          # truncation of the zeta value a Monte Carlo check quotes
_VERIFY_QUANTILE = 0.9999   # the cut above which a Monte Carlo check winsorizes
_QUANTILE_BLOCK = 256       # values per block maximum in _upper_quantile


@dataclass(frozen=True)
class ZetaValue:
    """zeta_F(s) with the truncation actually used and a rigorous bound."""

    value: float
    s: float
    k_used: int
    error_bound: float


@dataclass(frozen=True)
class ZetaExpectationCheck:
    """Monte Carlo check of E[y/(1-y)] = zeta_F(n), y the overlap product."""

    mc_estimate: float
    zeta_value: float
    stderr: float
    variance_finite: bool
    trimmed_mean: float
    trials: int
    n: int


# ----------------------------------------------------------------------
# Mellin transform
# ----------------------------------------------------------------------


def mellin(dist: OverlapDistribution, s: float) -> float:
    """M(f)(s) = integral_0^1 f(x) x**(s-1) dx, for s > 0.

    M(f)(s) = m_{s-1}: the closed forms of ``dist.moments`` at the real
    order s - 1 > -1.  Raises ConfigError for an s that is not finite.
    """
    if not math.isfinite(s):
        raise ConfigError("s must be finite")
    if s <= 0.0:
        raise DivergenceError(f"Mellin transform diverges for s = {s} <= 0")
    return float(dist.moments(np.asarray([s - 1.0]))[0])


# ----------------------------------------------------------------------
# zeta_F(s) with certified truncation
# ----------------------------------------------------------------------


def zeta(dist: OverlapDistribution, s: float, eps: float = 1e-9) -> ZetaValue:
    """zeta_F(s) = sum_{k>=1} m_k**s, with truncation error at most eps.

    K starts at 1000 and doubles until half the width of the certified
    bracket on sum_{k>K} m_k**s is at most eps/2; the bracket midpoint is
    added to the partial sum.  ``error_bound`` is that half-width plus an
    allowance for rounding, moment_rtol * s * |value| (a moment's relative
    error is scaled by s in m**s), summation rounding, and 2**-52 * p/(p-1)
    of the tail for the rounding of p = s*alpha.  It is never 0 and may
    exceed eps when the value is large or p is near 1.  Raises
    PrecisionLossError when K = 2**26 does not meet eps, and ConfigError
    before summing for an s that is not finite or an eps that is not.
    """
    if not math.isfinite(s):
        raise ConfigError("s must be finite")
    if not 0.0 < eps < math.inf:
        raise ConfigError("eps must be positive and finite")
    if dist.has_power_tail:
        alpha, _ = dist.tail_parameters()
        if s * alpha <= 1.0:
            raise DivergenceError(
                f"zeta_F(s) diverges: s*alpha = {s * alpha:g} <= 1 "
                f"(defined only for s > 1/alpha = {1.0 / alpha:g})")
    elif s <= 0.0:
        raise DivergenceError("zeta_F(s) requires s > 0")
    value, k_used, bound = _certified_sum(
        dist, lambda m: m ** s, lambda tail: tail(s), lambda partial: eps, s, "zeta")
    return ZetaValue(value=value, s=s, k_used=k_used, error_bound=bound)


def _certified_sum(dist, term, bracket, goal, power, what):
    """(value, K, error_bound) for sum_{j>=1} term(m_j), term(m) >= 0.

    Sums j = 1..K in chunks, doubling K from _K_START to _K_CAP until the
    half-width of ``bracket(tail)``, a [lower, upper] on sum_{j>K} term(m_j)
    from tail(s) = [lower, upper] on sum_{j>K} m_j**s, is at most
    goal(partial)/2; the midpoint is added.  The error bound adds a rounding
    allowance that the stop rule ignores.  term(m) ~ m**power as m -> 0 and
    |d log term / d log m| <= power scales the moments' relative error; the
    two roundings in p = alpha*power move the tail by 2**-52 * p/(p-1).
    """
    partial, k_done, k_target = 0.0, 0, _K_START
    while True:
        for start in range(k_done + 1, k_target + 1, _SUM_CHUNK):
            m = dist.moments(np.arange(start, min(start + _SUM_CHUNK, k_target + 1),
                                       dtype=np.float64))
            with np.errstate(under="ignore"):
                partial += float(np.sum(term(m)))
        k_done = k_target
        lo, hi = bracket(_power_sum_tail(dist, k_done, float(m[-1])))
        half = 0.5 * abs(hi - lo)
        if half <= 0.5 * goal(partial):
            value = partial + 0.5 * (lo + hi)
            p = power * dist.tail_parameters()[0] if dist.has_power_tail else np.inf
            rounding = ((power * dist.moment_rtol + _ROUNDING_RTOL) * abs(value)
                        + _ULP * 0.5 * abs(lo + hi) / (1.0 - 1.0 / p))
            return value, k_done, half + rounding
        if k_done >= _K_CAP:
            raise PrecisionLossError(
                f"{what} truncation stalled at K = {k_done}: tail half-width "
                f"{half:g} exceeds {0.5 * goal(partial):g}")
        k_target = min(2 * k_done, _K_CAP)


def _power_sum_tail(dist, k, m_k):
    """tail(s): a certified [lower, upper] for sum_{j>k} m_j**s, given m_k.

    Power tails: m_j = c*Gamma(j+1)/Gamma(j+1+alpha) = c*(j + w_j)**-alpha,
    where w_j decreases for alpha < 1 and increases for alpha > 1 toward
    (alpha+1)/2 (Elezovic, Giordano & Pecaric, Math. Inequal. Appl. 3, 2000).
    So w_j for j > k lies between w_k, given a few ulps of slack for its
    rounding, and (alpha+1)/2; the error of m_k itself moves the tail by
    less than s*moment_rtol, inside the callers' rounding allowance.
    g(x) = (x + w)**(-alpha*s) is convex and decreasing: the midpoint rule
    with the smaller w bounds the tail above, the trapezoid rule with the
    larger w bounds it below.  Scaled laws with a < 1 have m_j <= a**j: a
    geometric upper bound, 0 below.

    Both w_k and the rule values are taken from log c and log m_k, since
    c = Gamma(alpha+1) and c**s overflow for large alpha while m_k and the
    tail are still normal.  The log form's rounding, about
    |s log c + (1-p) log x| ulps of the tail at the exponent of each rule,
    sits inside the callers' _ROUNDING_RTOL * |value|.  Everything but the
    rules' exponents is worked out once per k, since a Bonferroni bracket
    asks for many orders s at the same k.  Raises PrecisionLossError when
    m_k is not positive: the moments have underflowed and the partial sum
    has lost its terms.
    """
    if not dist.has_power_tail:
        def geometric(s):
            a_s = dist.a ** s
            return 0.0, (a_s ** (k + 1) / (1.0 - a_s) if a_s < 1.0 else np.inf)
        return geometric
    alpha, c = dist.tail_parameters()
    if not m_k > 0.0:
        raise PrecisionLossError(f"moment m_K underflows at K = {k}: the tail "
                                 f"exponent {alpha:g} is too large for float64")
    log_c = math.log(c)
    w_k = math.exp((log_c - math.log(m_k)) / alpha) - k
    slack = 4.0 * _ULP * (k + 1.0) * (1.0 + 1.0 / alpha)
    w_lo = min(w_k, 0.5 * (alpha + 1.0)) - slack
    w_hi = max(w_k, 0.5 * (alpha + 1.0)) + slack
    log_mid = math.log(k + 0.5 + w_lo)
    log_x = math.log(k + 1.0 + w_hi)

    def tail(s):
        p = alpha * s
        s_log_c = s * log_c
        upper = math.exp(s_log_c + (1.0 - p) * log_mid) / (p - 1.0)
        lower = (math.exp(s_log_c + (1.0 - p) * log_x) / (p - 1.0)
                 + 0.5 * math.exp(s_log_c - p * log_x))
        return lower, upper
    return tail


# ----------------------------------------------------------------------
# Monte Carlo verification of the zeta identity
# ----------------------------------------------------------------------


def verify_zeta_expectation(
    dist: OverlapDistribution,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> ZetaExpectationCheck:
    """Estimate E[y/(1-y)], y = x_1*...*x_n, and compare with zeta_F(n).

    The summand has finite variance only when n * alpha > 2.  At or below
    that threshold the plain mean is still reported (the mean itself exists
    for n * alpha > 1) but ``variance_finite`` is False: a 4-stderr
    acceptance test is then inapplicable, and ``trimmed_mean`` (top 0.01%
    winsorized) is the robust diagnostic to quote.

    Trials come in chunks of ``rows_chunk(n)``; chunk i draws its
    ``count * n`` overlaps from the stream ``derive_rng(seed,
    STREAM_ZETA_CHECK, i)`` concept-major: draw ``j * count + r`` is factor
    j of trial r.  Each y is then a product over axis 0 of an
    ``(n, count)`` block, multiplied in the order j = 0, 1, ..., n - 1,
    which costs a small fraction of a reduction over a short inner axis.

    The odds are reduced in place: each chunk writes its products into its
    own slice of one ``trials``-long array and turns them into odds there,
    with its first row of draws as scratch for 1 - y.  One more array of
    that size holds the squared deviations and then the winsorized values,
    and the 0.9999 quantile is selected by :func:`_upper_quantile` without
    a sorted copy.  ``mc_estimate``, ``stderr`` and ``trimmed_mean`` equal
    ``np.mean``, ``np.std(ddof=1) / sqrt(trials)`` and
    ``np.minimum(z, np.quantile(z, 0.9999)).mean()`` over the odds z, bit
    for bit.

    Raises ConfigError for an n or trials that is not a whole number >= 1
    (``3.0`` passes), and DivergenceError when n * alpha <= 1: the
    expectation is undefined exactly when the zeta function is.
    """
    n, trials = count("n", n), count("trials", trials)
    if dist.has_power_tail:
        alpha, _ = dist.tail_parameters()
        if n * alpha <= 1.0:
            raise DivergenceError(
                f"E[1/(1 - x_1...x_n)] is undefined for n*alpha = {n * alpha:g} <= 1")
        variance_finite = n * alpha > 2.0
    else:
        variance_finite = True

    z = np.empty(trials)

    def odds_of_product(i: int, lo: int, hi: int) -> None:
        x = dist.sample((hi - lo) * n, derive_rng(seed, STREAM_ZETA_CHECK, i))
        x = x.reshape(n, hi - lo)
        y = np.prod(x, axis=0, out=z[lo:hi])
        np.divide(y, np.subtract(1.0, y, out=x[0]), out=y)

    map_chunks(odds_of_product, trials, threads=threads, chunk_size=rows_chunk(n))

    mean = z.mean()
    d = np.subtract(z, mean, out=np.empty_like(z))
    variance = np.square(d, out=d).sum() / (trials - 1) if trials > 1 else np.inf
    stderr = float(np.sqrt(variance) / np.sqrt(trials))
    cut = _upper_quantile(z, _VERIFY_QUANTILE)
    trimmed = float(np.minimum(z, cut, out=d).mean())
    return ZetaExpectationCheck(
        mc_estimate=float(mean),
        zeta_value=zeta(dist, float(n), eps=_VERIFY_EPS).value,
        stderr=stderr,
        variance_finite=variance_finite,
        trimmed_mean=trimmed,
        trials=trials,
        n=n,
    )


def _upper_quantile(z: np.ndarray, q: float) -> float:
    """``np.quantile(z, q)`` (linear rule) of finite values, cheap for q near 1.

    The rule needs the order statistics at ascending ranks floor(v) and
    floor(v) + 1, v = (N - 1) * q, so the ``need = N - floor(v)`` largest
    values.  The maxima of blocks of _QUANTILE_BLOCK values bound them: at
    least ``need`` values reach the need-th largest block maximum c, so
    ``z[z >= c]`` holds every value needed and only that short array is
    sorted (all of z when there are fewer blocks than ``need``).  The two
    values are then combined as numpy's ``_lerp`` does, from the nearer
    end, which the plain a + (b - a) * g misses at some N.
    """
    size = z.size
    v = (size - 1) * q
    lo = math.floor(v)
    g = v - lo
    need = size - lo
    maxima = np.maximum.reduceat(z, np.arange(0, size, _QUANTILE_BLOCK))
    if need <= maxima.size:
        c = np.partition(maxima, maxima.size - need)[maxima.size - need]
        top = np.sort(z[z >= c])
    else:
        top = np.sort(z)
    a = top[top.size - need]
    b = top[top.size - need + min(1, need - 1)]
    diff = b - a
    return b - diff * (1.0 - g) if g >= 0.5 else a + diff * g
