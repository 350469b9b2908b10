"""Moment zeta function and Mellin-transform machinery.

For a law F on [0, 1] with moments m_k, the moment zeta function is

    zeta_F(s) = sum_{k>=1} m_k**s,

convergent exactly when s * alpha > 1, where alpha is the moment tail
exponent (m_k ~ c * k**-alpha).  Truncation control is rigorous for the
implemented families: m_k * k**alpha increases monotonically to c, which
yields a certified two-sided bracket on every discarded tail.

The geometric-series identity behind the learning-time formulas is

    E[ y / (1 - y) ] = zeta_F(n),   y = x_1 * ... * x_n,

equivalently E[1/(1 - y)] = 1 + zeta_F(n): the k = 0 term of the expansion
falls outside the k >= 1 moment sum, so the Monte Carlo check here averages
y/(1 - y).  Both sides are undefined when n * alpha <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .distributions import SCALED, OverlapDistribution
from .errors import DivergenceError, PrecisionLossError
# map_chunks is unused here; bench/layertrace.py patches it in this module
from .rng import STREAM_ZETA_CHECK, map_chunks  # noqa: F401
from .simulators import _map_overlap_rows

_K_START = 1_000
_K_CAP = 1 << 24
_SUM_CHUNK = 1 << 20


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

    Satisfies m_k = M(f)(k+1).  Endpoint singularities (x**(s-1) at 0 for
    s < 1, (1-x)**beta at 1 for non-smooth beta) are handled by Gauss-Jacobi
    weighted quadrature rather than naive adaptive panels.
    """
    if s <= 0.0:
        raise DivergenceError(f"Mellin transform diverges for s = {s} <= 0")
    if dist.family == SCALED:
        # pushforward by x -> a*x rescales the transform exactly
        return dist.a ** (s - 1.0) * mellin(dist.inner, s)

    mid = 0.5
    total = 0.0
    # [0, 1/2]: weight x**(s-1) when it is not smooth at 0
    if s < 2.0 and s != 1.0:
        val, _ = quad(lambda x: dist.density(x), 0.0, mid,
                      weight="alg", wvar=(s - 1.0, 0.0),
                      epsabs=1e-14, epsrel=1e-12, limit=200)
    else:
        val, _ = quad(lambda x: dist.density(x) * x ** (s - 1.0), 0.0, mid,
                      epsabs=1e-14, epsrel=1e-12, limit=200)
    total += val
    # [1/2, 1]: weight (1-x)**beta unless the density is polynomial there
    beta = dist.beta if dist.family == "powertail" else 0.0
    if beta == int(beta) and beta >= 0.0:
        val, _ = quad(lambda x: dist.density(x) * x ** (s - 1.0), mid, 1.0,
                      epsabs=1e-14, epsrel=1e-12, limit=200)
    else:
        coef = 1.0 + beta
        val, _ = quad(lambda x: coef * x ** (s - 1.0), mid, 1.0,
                      weight="alg", wvar=(0.0, beta),
                      epsabs=1e-14, epsrel=1e-12, limit=200)
    total += val
    return total


# ----------------------------------------------------------------------
# zeta_F(s) with certified truncation
# ----------------------------------------------------------------------


def zeta(dist: OverlapDistribution, s: float, eps: float = 1e-9) -> ZetaValue:
    """zeta_F(s) = sum_{k>=1} m_k**s with absolute error at most eps.

    The tail beyond the last summed index K is bracketed by integral
    comparison: m_k * k**alpha climbs monotonically to the tail constant c,
    so c**s * K**(1-alpha*s)/(alpha*s-1) bounds the tail above and
    (m_K * K**alpha)**s * (K+1)**(1-alpha*s)/(alpha*s-1) bounds it below.
    The midpoint is added to the partial sum and half the bracket width is
    the reported (rigorous) error bound.  K starts at 1000 and doubles until
    the bound meets eps.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if dist.has_power_tail:
        alpha, c = dist.tail_parameters()
        if s * alpha <= 1.0:
            raise DivergenceError(
                f"zeta_F(s) diverges: s*alpha = {s * alpha:g} <= 1 "
                f"(defined only for s > 1/alpha = {1.0 / alpha:g})")
    else:
        alpha, c = None, None
        if s <= 0.0:
            raise DivergenceError("zeta_F(s) requires s > 0")

    partial = 0.0
    k_done = 0
    k_target = _K_START
    while True:
        part, m_last = _sum_moments(dist, k_done + 1, k_target, lambda m: m ** s)
        partial += part
        k_done = k_target

        lo_tail, hi_tail = _tail_bracket(dist, alpha, c, s, k_done, m_last)
        err = 0.5 * (hi_tail - lo_tail)
        if err <= 0.5 * eps:
            return ZetaValue(value=partial + 0.5 * (hi_tail + lo_tail),
                             s=s, k_used=k_done, error_bound=err)
        if k_done >= _K_CAP:
            detail = (f" (s*alpha - 1 = {s * alpha - 1.0:g} is too small)"
                      if alpha is not None else "")
            raise PrecisionLossError(
                f"zeta truncation stalled at K = {k_done}: tail bound {err:g} "
                f"exceeds eps = {eps:g}{detail}")
        k_target = min(2 * k_done, _K_CAP)


def _sum_moments(dist, lo: int, hi: int, term) -> tuple[float, float]:
    """(sum of term(m_j) for j = lo..hi, m_hi), in chunks of _SUM_CHUNK moments."""
    total = 0.0
    for start in range(lo, hi + 1, _SUM_CHUNK):
        js = np.arange(start, min(start + _SUM_CHUNK - 1, hi) + 1, dtype=np.float64)
        m = dist.moments(js)
        with np.errstate(under="ignore"):
            total += float(np.sum(term(m)))
    return total, float(m[-1])


def _tail_bracket(dist, alpha, c, s, k, m_k):
    """Certified [lower, upper] for sum_{j>k} m_j**s."""
    with np.errstate(under="ignore"):
        if alpha is None:
            # geometric decay: m_j <= a**j for scaled support
            a_s = dist.a ** s
            upper = a_s ** (k + 1) / (1.0 - a_s) if a_s < 1.0 else np.inf
            return 0.0, float(upper)
        denom = alpha * s - 1.0
        upper = c ** s * k ** (-denom) / denom
        lower = (m_k * k ** alpha) ** s * (k + 1.0) ** (-denom) / denom
    return float(min(lower, upper)), float(upper)


# ----------------------------------------------------------------------
# Monte Carlo verification of the zeta identity
# ----------------------------------------------------------------------


def verify_zeta_expectation(
    dist: OverlapDistribution,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
    eps: float = 1e-9,
) -> ZetaExpectationCheck:
    """Estimate E[y/(1-y)], y = x_1*...*x_n, and compare with zeta_F(n).

    The summand has finite variance only when n * alpha > 2.  At or below
    that threshold the plain mean is still reported (the mean itself exists
    for n * alpha > 1) but ``variance_finite`` is False: a 4-stderr
    acceptance test is then inapplicable, and ``trimmed_mean`` (top 0.01%
    winsorized) is the robust diagnostic to quote.

    Raises DivergenceError when n * alpha <= 1: the expectation is undefined
    exactly when the zeta function is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dist.has_power_tail:
        alpha, _ = dist.tail_parameters()
        if n * alpha <= 1.0:
            raise DivergenceError(
                f"E[1/(1 - x_1...x_n)] is undefined for n*alpha = {n * alpha:g} <= 1")
        variance_finite = n * alpha > 2.0
    else:
        variance_finite = True

    z = _map_overlap_rows(_odds_of_product, dist, n, trials, seed,
                          (STREAM_ZETA_CHECK,), threads=threads)

    mean = float(z.mean())
    stderr = float(z.std(ddof=1) / np.sqrt(z.size)) if z.size > 1 else np.inf
    cut = np.quantile(z, 0.9999)
    trimmed = float(np.minimum(z, cut).mean())
    return ZetaExpectationCheck(
        mc_estimate=mean,
        zeta_value=zeta(dist, float(n), eps=eps).value,
        stderr=stderr,
        variance_finite=variance_finite,
        trimmed_mean=trimmed,
        trials=trials,
        n=n,
    )


def _odds_of_product(P, rng):
    y = np.prod(P, axis=1)
    return y / (1.0 - y)
