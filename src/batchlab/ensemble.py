"""Expected learning-time behavior under the overlap law.

For tail exponent alpha = beta + 1 > 1 the ensemble expectation
E[T] exists and three routes compute it:

* ``expected_time_zeta_sum``      -- alternating binomial sum of zeta values
  (exact but loses ~n bits to cancellation; small-n oracle only),
* ``expected_time_moment_series`` -- sum over j of 1 - (1-m_j)**n, cut at J
  with a certified tail bracket (the production path),
* ``expected_time_integral``      -- the n**(1/alpha) limit integral in
  closed form (asymptotic regime only).

At alpha = 1 the expectation does not exist: T splits into a stable-law part
T1 = sum(1/(1-p_i) - 1) and a finite deterministic part T2 whose n*log(n)
growth cancels the center of T1.  ``alpha1_decomposition`` computes T2 and
the c*n*log(n) component, c = lim j*m_j from ``tail_parameters``.  The
moment series and T2 are cut by the driver and tail bracket of zeta_F
(:mod:`batchlab.moment_zeta`), each tail a Bonferroni combination of the
certified tails of sum m_j, m_j**2 and m_j**3.

Extreme-value and concentration diagnostics round out the picture: the
smallest gap min(1 - p_i) has the exact law P(min q > x) = (1 - x**alpha)**n
and is drawn from it by inversion; scaled by n**(1/(1+beta)) it has the limit
CDF G(x) = 1 - exp(-x**(1+beta)).  sum(1/(1-p_i)) obeys a regime-dependent
normalization (law of large numbers / log scaling / stable tightness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import calibration
# expected_time_fast is unused here; bench/layertrace.py wraps it in this module
from .batch_exact import expected_time_bulk, expected_time_fast  # noqa: F401
from .distributions import OverlapDistribution
from .errors import DivergenceError, PrecisionLossError
from .moment_zeta import _certified_sum, zeta
# bench/layertrace.py patches map_chunks in this module, so the name stays
from .rng import STREAM_ENSEMBLE, STREAM_EXTREMES, map_chunks  # noqa: F401
from .simulators import (_map_overlap_rows, _map_uniform_rows,
                         _median_ci_halfwidth, run_trials)

_CONDITION_LIMIT = 1e6      # ulp-loss refusal threshold for the zeta sum

METHODS = ("zeta_sum", "moment_series", "integral_asymptotic", "monte_carlo")


@dataclass(frozen=True)
class EnsembleEstimate:
    """One expected-time estimate: value, method, and error bound if any."""

    n: int
    method: str
    value: float
    error_bound: Optional[float]


class ZetaSumTime(NamedTuple):
    value: float
    cancellation_ulps: float


class MomentSeriesTime(NamedTuple):
    value: float
    j_used: int
    error_bound: float


class Alpha1Decomposition(NamedTuple):
    t2: float
    c_log_term: float
    c: float
    error_bound: float


# ----------------------------------------------------------------------
# route 1: alternating binomial sum over zeta values
# ----------------------------------------------------------------------


def expected_time_zeta_sum(dist: OverlapDistribution, n: int,
                           zeta_eps: float = 1e-11) -> ZetaSumTime:
    """T = sum_{k=1}^n C(n,k) (-1)**(k-1) zeta_F(k), exactly-rounded fsum.

    Requires alpha > 1 so that zeta_F(1) exists, and n <= 30: the sum loses
    about n bits to cancellation.  Refuses (PrecisionLossError) when the
    estimated ulp loss sum|t_k| / |T| exceeds 1e6.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 30:
        raise ValueError("zeta-sum route is limited to n <= 30; "
                         "use expected_time_moment_series")
    terms = []
    for k in range(1, n + 1):
        zk = zeta(dist, float(k), eps=zeta_eps).value
        terms.append(math.comb(n, k) * (zk if k % 2 == 1 else -zk))
    value = math.fsum(terms)
    gross = math.fsum(abs(t) for t in terms)
    condition = gross / abs(value) if value != 0.0 else math.inf
    if condition > _CONDITION_LIMIT:
        raise PrecisionLossError(
            f"alternating zeta sum at n = {n} loses ~{condition:.3g} ulps "
            f"(> {_CONDITION_LIMIT:g}); use expected_time_moment_series")
    return ZetaSumTime(value, condition)


# ----------------------------------------------------------------------
# route 2: moment series with certified truncation
# ----------------------------------------------------------------------


def expected_time_moment_series(dist: OverlapDistribution, n: int,
                                eps: float = 1e-6) -> MomentSeriesTime:
    """T = sum_{j>=1} [1 - (1-m_j)**n], with truncation error at most eps.

    Terms use expm1/log1p forms.  A discarded term lies between the
    Bonferroni bounds n*m - C(n,2)*m**2 and that plus C(n,3)*m**3, so the
    certified tails of sum m_j**s, s = 1, 2, 3, bracket the tail; J doubles
    from 1000 until the half-width is at most eps/2, and the midpoint is
    added.  ``error_bound`` adds moment_rtol * |value| (a term's relative
    sensitivity to m, n*m*(1-m)**(n-1) / (1-(1-m)**n), is at most 1),
    summation rounding and 2**-52 * alpha/(alpha-1) of the tail for the
    rounding of alpha, so it is never 0.  Diverges (DivergenceError) for
    alpha <= 1, where sum n*m_j is infinite: use :func:`alpha1_decomposition`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if dist.has_power_tail:
        alpha, _ = dist.tail_parameters()
        if alpha <= 1.0:
            raise DivergenceError(
                f"E[T] does not exist for alpha = {alpha:g} <= 1; "
                "the series tail sum n*m_j diverges (see alpha1_decomposition)")
    pairs, triples = math.comb(n, 2), math.comb(n, 3)

    def bracket(tail):
        (s1_lo, s1_hi), (s2_lo, s2_hi), (_, s3_hi) = tail(1.0), tail(2.0), tail(3.0)
        return (n * s1_lo - pairs * s2_hi,
                n * s1_hi - pairs * s2_lo + triples * s3_hi)

    value, j_used, bound = _certified_sum(
        dist, lambda m: -np.expm1(n * np.log1p(-m)), bracket,
        lambda partial: eps, 1.0, "moment series")
    return MomentSeriesTime(value, j_used, bound)


# ----------------------------------------------------------------------
# alpha = 1: the T2 part and the c n log n term
# ----------------------------------------------------------------------


def alpha1_decomposition(dist: OverlapDistribution, n: int,
                         eps: Optional[float] = None) -> Alpha1Decomposition:
    """T2 = -sum_j [(1-m_j)**n - 1 + n m_j], finite at alpha = 1, plus the
    c*n*log(n) component with c = lim j*m_j from ``tail_parameters``.

    T2 grows like -(n log n - const*n).  Each discarded term lies between
    C(n,2)*m**2 - C(n,3)*m**3 and C(n,2)*m**2, so the tail is bracketed by
    the certified tails of sum m_j**2 and m_j**3.  ``eps`` bounds the
    truncation error (default: 1e-8 relative to the running sum; the tail
    shrinks like n**3/J**2, so tight absolute targets at large n are
    expensive).  ``error_bound`` adds a rounding allowance.  Requires n >= 2
    and a tail exponent of exactly 1.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for the alpha = 1 split")
    if not dist.has_power_tail:
        raise ValueError("alpha = 1 split needs a power-tail family")
    alpha, c = dist.tail_parameters()
    if abs(alpha - 1.0) > 1e-12:
        raise ValueError(f"alpha = 1 split is only valid at alpha = 1, got {alpha:g}")
    pairs, triples = math.comb(n, 2), math.comb(n, 3)

    def bracket(tail):
        (s2_lo, s2_hi), (_, s3_hi) = tail(2.0), tail(3.0)
        return pairs * s2_lo - triples * s3_hi, pairs * s2_hi

    def goal(partial):
        return eps if eps is not None else 1e-8 * max(1.0, abs(partial))

    # |d log term / d log m| <= 2: the term is convex in m with a falling slope
    value, _, bound = _certified_sum(
        dist, lambda m: np.expm1(n * np.log1p(-m)) + n * m, bracket, goal,
        2.0, "alpha = 1 split")
    return Alpha1Decomposition(t2=-value, c_log_term=c * n * math.log(n),
                               c=c, error_bound=bound)


# ----------------------------------------------------------------------
# route 3: the limit integral
# ----------------------------------------------------------------------


def expected_time_integral(dist: OverlapDistribution, n: int) -> float:
    """T ~ n**(1/alpha) * integral_0^inf (1 - exp(-c u**alpha)) / u**2 du.

    The integral has the closed form c**(1/alpha) * Gamma(1 - 1/alpha).
    Asymptotic: agrees with the moment series to ~5% only once n is large
    (>= ~1e4).
    """
    if not dist.has_power_tail:
        raise DivergenceError("limit integral requires a power-tail family")
    alpha, c = dist.tail_parameters()
    if alpha <= 1.0:
        raise DivergenceError(f"limit integral diverges for alpha = {alpha:g} <= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** (1.0 / alpha) * c ** (1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha)


# ----------------------------------------------------------------------
# concentration of S = sum 1/(1-p_i)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationSummary:
    """Empirical law of the regime-normalized statistic of S = sum 1/(1-p_i)."""

    n: int
    trials: int
    regime: str                 # "lln" (beta>0) | "log" (beta=0) | "stable" (beta<0)
    normalizer: str
    median: float
    iqr: float
    q05: float
    q95: float
    target: Optional[float]


def sum_inverse_gap_concentration(dist: OverlapDistribution, n: int,
                                  trials: int, seed: int,
                                  threads: int = 1) -> ConcentrationSummary:
    """Sample S = sum_i 1/(1-p_i) and normalize per the stable-law regime.

    beta > 0: S/n -> E[1/(1-p)] = alpha/(alpha-1) (law of large numbers;
    every law with a power tail is exactly powertail(alpha-1));
    beta = 0: S/(n log n) -> 1;
    beta < 0: S/n**(1/(1+beta)) is tight with no point limit.
    """
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    alpha, _ = dist.tail_parameters()
    beta = alpha - 1.0

    s = _map_overlap_rows(lambda P, rng: (1.0 / (1.0 - P)).sum(axis=1),
                          dist, n, trials, seed, (STREAM_ENSEMBLE, 1),
                          threads=threads)
    if beta > 0.0:
        stat, normalizer = s / n, "n"
        target = alpha / (alpha - 1.0)
        regime = "lln"
    elif beta == 0.0:
        stat, normalizer = s / (n * math.log(n)), "n*log(n)"
        target, regime = 1.0, "log"
    else:
        rate = n ** (1.0 / (beta + 1.0))
        stat, normalizer = s / rate, f"n**{1.0 / (beta + 1.0):g}"
        target, regime = None, "stable"
    q05, q25, med, q75, q95 = np.quantile(stat, [0.05, 0.25, 0.5, 0.75, 0.95])
    return ConcentrationSummary(n=n, trials=trials, regime=regime,
                                normalizer=normalizer, median=float(med),
                                iqr=float(q75 - q25), q05=float(q05),
                                q95=float(q95), target=target)


# ----------------------------------------------------------------------
# extreme values of the minimum gap
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremeValueReport:
    """Mean minimum gap across an n sweep, its scaling fit, and KS distance.

    ``fitted_slope`` estimates -1/(1+beta) from log E[min q] on log n;
    ``fitted_C`` is exp(intercept).  ``ks_distance`` compares the empirical
    law of n**(1/(1+beta)) * min q at the largest n against the limit CDF
    G(x) = 1 - exp(-x**(1+beta)).
    """

    n_values: tuple
    mean_min_q: tuple
    stderr: tuple
    fitted_C: float
    fitted_slope: float
    ks_distance: float
    ks_n: int
    trials: int


def _min_gap_quantile(v: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Quantile of min q over n gaps with P(q <= x) = x**alpha, at 1 - v.

    P(min q > x) = (1 - x**alpha)**n, so min q = (1 - v**(1/n))**(1/alpha),
    with 1 - v**(1/n) as -expm1(log(v)/n) to keep small gaps exact.
    """
    with np.errstate(divide="ignore"):
        return (-np.expm1(np.log(v) / n)) ** (1.0 / alpha)


def extreme_value(dist: OverlapDistribution, n_values: Sequence[int],
                  trials: int, seed: int, threads: int = 1) -> ExtremeValueReport:
    """Monte Carlo extremes of q_min = min_i (1 - p_i) across an n sweep.

    Every law with a power tail has P(1 - p <= x) = x**alpha exactly, so each
    trial's minimum gap is drawn by inversion of its law from one uniform of
    the chunk streams ``(seed, STREAM_EXTREMES, j, i)`` for the j-th n; no
    overlap vector is drawn.
    """
    if not n_values:
        raise ValueError("need at least one n value")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    alpha, _ = dist.tail_parameters()
    beta = alpha - 1.0

    n_values = [int(v) for v in n_values]
    means, errs = [], []
    ks_n = max(n_values)
    ks_sample = None
    for j, n in enumerate(n_values):
        qmin = _map_uniform_rows(lambda v, n=n: _min_gap_quantile(v, n, alpha),
                                 trials, seed, (STREAM_EXTREMES, j), threads)
        means.append(float(qmin.mean()))
        errs.append(float(qmin.std(ddof=1) / math.sqrt(qmin.size)))
        if n == ks_n:
            ks_sample = qmin

    scaled = np.sort(ks_sample * ks_n ** (1.0 / (beta + 1.0)))
    g = -np.expm1(-scaled ** (beta + 1.0))
    grid = np.arange(1, scaled.size + 1) / scaled.size
    ks = float(max((grid - g).max(), (g - (grid - 1.0 / scaled.size)).max()))

    if len(n_values) >= 2:
        slope, intercept = np.polyfit(np.log(n_values), np.log(means), 1)
        fitted_c = float(math.exp(intercept))
    else:
        slope, fitted_c = math.nan, math.nan
    return ExtremeValueReport(n_values=tuple(n_values), mean_min_q=tuple(means),
                              stderr=tuple(errs), fitted_C=fitted_c,
                              fitted_slope=float(slope), ks_distance=ks,
                              ks_n=ks_n, trials=trials)


# ----------------------------------------------------------------------
# order-of-magnitude sandwich of the regime windows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeWindowReport:
    """Per-sample expected times against the frozen regime window.

    The window is [C1 * n**(1/(1+beta)), C2 * n] for beta > 0,
    [C1 * n, C2 * n log n] for beta = 0, and
    [rate / C, C * rate] with rate = n**(1/(1+beta)) for beta < 0,
    checked on the word count T + 1.  This is the only quantitative handle
    for beta <= -1/2, where the series analysis stops.
    """

    n: int
    trials: int
    beta: float
    regime: str
    fraction_within: float
    window_low: float
    window_high: float
    c1_empirical: float
    c2_empirical: float
    q005: float
    q995: float
    median_t: float


def regime_window_check(dist: OverlapDistribution, n: int, trials: int,
                        seed: int, threads: int = 1) -> RegimeWindowReport:
    """Sample p-vectors, compute per-sample expected word counts, and report
    how they sit inside the frozen order-of-magnitude window."""
    if n < 2 or trials < 1:
        raise ValueError("n must be >= 2 and trials >= 1")
    alpha, _ = dist.tail_parameters()
    beta = alpha - 1.0

    t = _map_overlap_rows(lambda P, rng: expected_time_bulk(P) + 1.0,
                          dist, n, trials, seed, (STREAM_ENSEMBLE, 2),
                          threads=threads)
    rate = n ** (1.0 / (1.0 + beta))
    if beta > 0.0:
        c1, c2 = calibration.POSITIVE_BETA_WINDOW
        low, high = c1 * rate, c2 * n
        c1_emp, c2_emp = float((t / rate).min()), float((t / n).max())
        regime = "sublinear"
    elif beta == 0.0:
        c1, c2 = calibration.ZERO_BETA_WINDOW
        low, high = c1 * n, c2 * n * math.log(n)
        c1_emp = float((t / n).min())
        c2_emp = float((t / (n * math.log(n))).max())
        regime = "linear-log"
    else:
        c = calibration.NEGATIVE_BETA_WINDOW
        low, high = rate / c, c * rate
        ratio = t / rate
        c1_emp, c2_emp = float(ratio.min()), float(ratio.max())
        regime = "tight" if beta > -0.5 else "tight-outside-analyzed-regime"
    within = float(((t >= low) & (t <= high)).mean())
    q005, med, q995 = np.quantile(t, [0.005, 0.5, 0.995])
    return RegimeWindowReport(n=n, trials=trials, beta=beta, regime=regime,
                        fraction_within=within, window_low=float(low),
                        window_high=float(high), c1_empirical=c1_emp,
                        c2_empirical=c2_emp, q005=float(q005),
                        q995=float(q995), median_t=float(med))


# ----------------------------------------------------------------------
# method dispatcher (CLI surface)
# ----------------------------------------------------------------------


def ensemble_estimate(dist: OverlapDistribution, n: int, method: str,
                      trials: int = 2000, seed: int = 0,
                      threads: int = 1, eps: float = 1e-6) -> EnsembleEstimate:
    """Evaluate one expected-time estimate by the named method.

    ``monte_carlo`` reports the median simulated learning time (the robust
    statistic that remains meaningful when alpha <= 1 and E[T] does not
    exist); the other methods require alpha > 1.
    """
    if method == "zeta_sum":
        r = expected_time_zeta_sum(dist, n)
        return EnsembleEstimate(n, method, r.value, None)
    if method == "moment_series":
        r = expected_time_moment_series(dist, n, eps=eps)
        return EnsembleEstimate(n, method, r.value, r.error_bound)
    if method == "integral_asymptotic":
        return EnsembleEstimate(n, method, expected_time_integral(dist, n), None)
    if method == "monte_carlo":
        times = run_trials("batch", dist, n, trials, seed, threads=threads).times
        return EnsembleEstimate(n, method, float(np.median(times)),
                                _median_ci_halfwidth(times))
    raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
