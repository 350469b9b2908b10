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
(:mod:`batchlab.moment_zeta`), each tail bracketed by the Bonferroni partial
sums of its inclusion-exclusion expansion over the certified tails of
sum m_j**r, r = 1, 2, ..., to whatever order the terms themselves call for.

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
from .distributions import _ULP, OverlapDistribution
from .errors import ConfigError, DivergenceError, PrecisionLossError, count
from .moment_zeta import _certified_sum, zeta
# bench/layertrace.py patches map_chunks in this module, so the name stays
from .rng import STREAM_ENSEMBLE, STREAM_EXTREMES, map_chunks  # noqa: F401
from .simulators import (DEFAULT_TRIALS, _map_overlap_rows, _map_rows,
                         _median_ci_halfwidth, run_trials)

_CONDITION_LIMIT = 1e6      # ulp-loss refusal threshold for the zeta sum
_ZETA_EPS = 1e-11           # truncation of each zeta value in the zeta sum
DEFAULT_EPS = 1e-6          # truncation of the moment series when none is given

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


def expected_time_zeta_sum(dist: OverlapDistribution, n: int) -> ZetaSumTime:
    """T = sum_{k=1}^n C(n,k) (-1)**(k-1) zeta_F(k), exactly-rounded fsum.

    Requires alpha > 1 so that zeta_F(1) exists, and n <= 30: the sum loses
    about n bits to cancellation.  Refuses (PrecisionLossError) when the
    estimated ulp loss sum|t_k| / |T| exceeds 1e6.
    """
    n = count("n", n)
    if n > 30:
        raise ConfigError("n must be <= 30 for the zeta sum; "
                          "use expected_time_moment_series")
    terms = []
    for k in range(1, n + 1):
        zk = zeta(dist, float(k), eps=_ZETA_EPS).value
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
                                eps: float = DEFAULT_EPS) -> MomentSeriesTime:
    """T = sum_{j>=1} [1 - (1-m_j)**n], with truncation error at most eps.

    Terms use expm1/log1p forms.  A discarded term 1 - (1-m)**n is
    bracketed by the Bonferroni partial sums of
    sum_{r>=1} (-1)**(r-1) C(n,r) m**r, so the certified tails of
    sum m_j**r bracket the tail (:func:`_bonferroni_bracket`); J doubles from
    1000 until the half-width is at most eps/2, and the midpoint is added.
    The half-width is about n*J**(-1-alpha), so J grows like
    (n/eps)**(1/(alpha+1)): 2,048,000 at beta = 0.5, n = 1e7, eps = 1e-9.
    ``error_bound`` adds moment_rtol * |value| (a term's relative
    sensitivity to m, n*m*(1-m)**(n-1) / (1-(1-m)**n), is at most 1), the
    tail's sensitivity to the error of m_J, summation rounding and
    2**-52 * alpha/(alpha-1) of the tail for the rounding of alpha, so it is
    never 0.  The summing engine raises DivergenceError before summing for
    alpha <= 1, where sum n*m_j is infinite: use :func:`alpha1_decomposition`.
    """
    n = count("n", n)
    if not 0.0 < eps < math.inf:
        raise ConfigError("eps must be positive and finite")
    value, j_used, bound = _binomial_series(
        dist, n, 1, lambda m: -np.expm1(n * np.log1p(-m)), lambda partial: eps,
        "moment series")
    return MomentSeriesTime(value, j_used, bound)


# ----------------------------------------------------------------------
# alpha = 1: the T2 part and the c n log n term
# ----------------------------------------------------------------------


def alpha1_decomposition(dist: OverlapDistribution, n: int,
                         eps: Optional[float] = None) -> Alpha1Decomposition:
    """T2 = -sum_j [(1-m_j)**n - 1 + n m_j], finite at alpha = 1, plus the
    c*n*log(n) component with c = lim j*m_j from ``tail_parameters``.

    T2 grows like -(n log n - const*n).  A discarded term
    (1-m)**n - 1 + n*m = sum_{r>=2} (-1)**r C(n,r) m**r is bracketed by its
    Bonferroni partial sums, so the certified tails of sum m_j**r, r >= 2,
    bracket the tail (:func:`_bonferroni_bracket`).  ``eps`` bounds the
    truncation error (default: 1e-8 relative to the running sum).  The
    half-width is about n**2/J**3, so J grows like (n**2/eps)**(1/3): an
    absolute eps = 1e-6 at n = 1e7 takes about 0.2 s.  ``error_bound`` adds
    the tail's sensitivity to the error of m_J and a rounding allowance.
    Requires n >= 2, a tail exponent of exactly 1 and a finite eps > 0.
    """
    n = count("n", n, least=2)
    alpha, c = dist.tail_parameters()
    if abs(alpha - 1.0) > 1e-12:
        raise ConfigError(f"dist must have alpha = 1 for this split, got {alpha:g}")
    if eps is not None and not 0.0 < eps < math.inf:
        raise ConfigError("eps must be positive and finite")

    def goal(partial):
        return eps if eps is not None else 1e-8 * max(1.0, abs(partial))

    value, _, bound = _binomial_series(
        dist, n, 2, lambda m: np.expm1(n * np.log1p(-m)) + n * m, goal,
        "alpha = 1 split")
    return Alpha1Decomposition(t2=-value, c_log_term=c * n * math.log(n),
                               c=c, error_bound=bound)


# ----------------------------------------------------------------------
# binomial moment sums and their Bonferroni tail brackets
# ----------------------------------------------------------------------


def _binomial_series(dist, n, first, term, goal, what):
    """(value, J, error_bound) for sum_j term(m_j), where
    term(m) = sum_{r>=first} (-1)**(r-first) C(n,r) m**r, first = 1 or 2.

    ``_certified_sum`` cuts the sum at J with :func:`_bonferroni_bracket` on
    the tail.  Such a term is ~ m**first as m -> 0 and
    |d log term / d log m| <= first (it is concave for first = 1, and convex
    with a falling slope for first = 2).  The error of m_J moves the tail of
    order r by at most r*moment_rtol relative, so ``error_bound`` adds
    moment_rtol times the tail's sensitivity; the stop rule ignores it, like
    the other rounding.
    """
    sensitivity = 0.0

    def bracket(tail):
        nonlocal sensitivity
        lower, upper, sensitivity = _bonferroni_bracket(n, tail, first)
        return lower, upper

    value, j_used, bound = _certified_sum(dist, term, bracket, goal,
                                          float(first), what)
    return value, j_used, bound + dist.moment_rtol * sensitivity


def _bonferroni_bracket(n, tail, first):
    """(lower, upper, sensitivity) for sum_{r>=first} (-1)**(r-first) C(n,r) S_r,
    given tail(r) = [lo, hi] on each S_r = sum_j m_j**r with 0 <= m_j < 1.

    For each m the sum is 1 - (1-m)**n (first = 1) or (1-m)**n - 1 + n*m
    (first = 2), and 1 - (1-m)**n is the chance of a union of n independent
    events of chance m.  By the Bonferroni inequalities every partial sum
    that ends on a + term bounds it above and every one that ends on a -
    term below; at r = n the partial sum is exact.  An upper bound takes hi
    on + terms and lo on - terms, a lower bound the reverse; the tightest of
    each is kept, widened by the rounding of C(n,r) (a running product of
    (n-r+1)/r), the terms and their sums.  The expansion stops at r = n,
    when a term stops shrinking or when it falls below one ulp of the
    partial sum.  ``sensitivity`` is sum_r r*C(n,r)*hi_r over the orders
    visited: the move of the bracket per unit relative error of the m_j.
    """
    lower, upper = -math.inf, math.inf
    up = down = gross = rounding = sensitivity = 0.0
    binom, previous = 1.0, math.inf
    for r in range(1, n + 1):
        binom *= (n - r + 1) / r
        if r < first:
            continue
        lo, hi = tail(float(r))
        t_lo, t_hi = binom * lo, binom * hi
        plus = (r - first) % 2 == 0
        if plus:
            up, down = up + t_hi, down + t_lo
        else:
            up, down = up - t_lo, down - t_hi
        gross += t_hi
        rounding += _ULP * ((r + 1) * t_hi + gross)
        sensitivity += r * t_hi
        if (plus or r == n) and up + rounding < upper:
            upper = up + rounding
        if (not plus or r == n) and down - rounding > lower:
            lower = down - rounding
        if r > first and not (t_hi < previous and t_hi > _ULP * abs(up)):
            break
        previous = t_hi
    return lower, upper, sensitivity


# ----------------------------------------------------------------------
# route 3: the limit integral
# ----------------------------------------------------------------------


def expected_time_integral(dist: OverlapDistribution, n: int) -> float:
    """T ~ n**(1/alpha) * integral_0^inf (1 - exp(-c u**alpha)) / u**2 du.

    The integral has the closed form c**(1/alpha) * Gamma(1 - 1/alpha).
    It is the leading term only: for the power-tail laws, the certified
    moment series minus this value tends to the constant -(beta+3)/2, so at
    n = 1e4 it lies above the series by 0.1% (beta = 0.5), 0.8% (beta = 1)
    and 4.9% (beta = 2).  ROADMAP item G is the two-term expansion.
    """
    alpha, c = dist.tail_parameters()
    if alpha <= 1.0:
        raise DivergenceError(f"limit integral diverges for alpha = {alpha:g} <= 1")
    n = count("n", n)
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
    beta = 0: S/(n log n) -> 1, so n must be at least 2;
    beta < 0: S/n**(1/(1+beta)) is tight with no point limit.
    """
    n, trials = count("n", n), count("trials", trials)
    alpha, _ = dist.tail_parameters()
    beta = alpha - 1.0
    if beta == 0.0 and n < 2:
        raise ConfigError("n must be >= 2 for beta = 0, whose normalizer n log n "
                          "is 0 at n = 1")

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
    overlap vector is drawn.  Needs a strictly increasing n-sweep of whole
    entries >= 1 (``10.0`` passes, ``10.7`` is refused) and trials >= 2.
    """
    if not n_values:
        raise ConfigError("n-sweep must hold at least one n value")
    n_values = [count("n-sweep entry", v) for v in n_values]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigError("n-sweep must be strictly increasing")
    trials = count("trials", trials, least=2)
    alpha, _ = dist.tail_parameters()
    beta = alpha - 1.0

    means, errs = [], []
    for j, n in enumerate(n_values):
        qmin = _map_rows(
            lambda rng, count, n=n: _min_gap_quantile(rng.random(count), n, alpha),
            trials, seed, (STREAM_EXTREMES, j), threads)
        means.append(float(qmin.mean()))
        errs.append(float(qmin.std(ddof=1) / math.sqrt(qmin.size)))

    ks_n = n_values[-1]         # the largest n, whose sample qmin still holds
    scaled = np.sort(qmin * ks_n ** (1.0 / (beta + 1.0)))
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
    n, trials = count("n", n, least=2), count("trials", trials)
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
                      trials: Optional[int] = None, seed: int = 0, threads: int = 1,
                      eps: Optional[float] = None) -> EnsembleEstimate:
    """Evaluate one expected-time estimate by the named method.

    ``monte_carlo`` reports the median simulated learning time (the robust
    statistic that remains meaningful when alpha <= 1 and E[T] does not
    exist), from trials >= 2 so that its interval has two ends; the other
    methods require alpha > 1.  ``trials`` is read by ``monte_carlo`` only
    and ``eps`` by ``moment_series`` only, so either one given to another
    method is refused.
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    n = count("n", n)
    if trials is not None and method != "monte_carlo":
        raise ConfigError(f"trials is read by method monte_carlo only, not {method}")
    if eps is not None and method != "moment_series":
        raise ConfigError(f"eps is read by method moment_series only, not {method}")
    if method == "zeta_sum":
        r = expected_time_zeta_sum(dist, n)
        return EnsembleEstimate(n, method, r.value, None)
    if method == "moment_series":
        r = expected_time_moment_series(dist, n, eps=DEFAULT_EPS if eps is None else eps)
        return EnsembleEstimate(n, method, r.value, r.error_bound)
    if method == "integral_asymptotic":
        return EnsembleEstimate(n, method, expected_time_integral(dist, n), None)
    trials = count("trials", DEFAULT_TRIALS if trials is None else trials, least=2)
    times = run_trials("batch", dist, n, trials, seed, threads=threads).times
    return EnsembleEstimate(n, method, float(np.median(times)),
                            _median_ci_halfwidth(times))
