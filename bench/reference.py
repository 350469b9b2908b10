"""Reference computations the benchmark checks batchlab against.

Nothing here imports batchlab.  Each function is derived from the model
itself, not from the program's code:

* the overlap moments m_k = Gamma(beta+2) / poch(k+1, beta+1) of the
  power-tail law (uniform is beta = 0);
* the exact law of the batch learning time with a fresh overlap vector per
  trial, P(k0 <= k) = (1 - m_k)**n, and distribution-free intervals for its
  order statistics;
* the exact mean of the minimum gap, Gamma(n+1) Gamma(1+1/a) / Gamma(n+1+1/a)
  with a = 1 + beta;
* a word-level simulation of the memoryless and full-memory learners;
* a direct k-by-k sum of the expected time T = sum_k q_k of one vector;
* the certified-series references in ``references.json``, written by
  ``make_references.py`` with mpmath.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import bdtr, bdtrc, gamma, gammaln, poch

REFERENCES_FILE = Path(__file__).with_name("references.json")

#: Half-decade n sweep of the scaling and moment-series runs.
SWEEP = (100, 316, 1000, 3162, 10000, 31623, 100000)
#: (beta, s) of every zeta_F(s) the series workload evaluates.
ZETA_CASES = ((0.0, 2.0), (0.0, 3.0), (0.5, 1.0), (-0.5, 2.5), (-0.5, 3.0),
              (-0.25, 2.0))
#: beta of the two moment-series sweeps: rational moments and gammaln moments.
MOMENT_SERIES_BETAS = (1.0, 0.5)
#: (n, eps) of the alpha = 1 decompositions of the uniform law.
ALPHA1_CASES = ((2, 1e-9), (10000, 1.0))


# ----------------------------------------------------------------------
# the power-tail law and the exact batch time law
# ----------------------------------------------------------------------


def sample_overlaps(beta: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Draws with density (1+beta)(1-x)**beta by inversion, all in [0, 1)."""
    u = rng.random(shape)
    return -np.expm1(np.log1p(-u) / (1.0 + beta))


def moment(beta: float, k) -> np.ndarray:
    """m_k = E[p**k] = Gamma(beta+2) / poch(k+1, beta+1) for real k >= 0."""
    return gamma(beta + 2.0) / poch(np.asarray(k, dtype=np.float64) + 1.0,
                                    beta + 1.0)


def batch_time_cdf(beta: float, n: int, k) -> np.ndarray:
    """P(k0 <= k) = (1 - m_k)**n; k0 >= 1 for every n >= 1."""
    k = np.asarray(k, dtype=np.float64)
    m = moment(beta, np.maximum(k, 1.0))
    return np.where(k < 1.0, 0.0, np.exp(n * np.log1p(-m)))


def _first_integer(pred, start: int = 0) -> int:
    """Smallest integer k >= start with pred(k) true; pred is monotone."""
    if pred(start):
        return start
    lo, hi = start, max(start + 1, 1)
    while not pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def order_stat_interval(cdf, trials: int, j_low: int, j_high: int,
                        alpha: float) -> tuple[int, int]:
    """[lo, hi] with P(X_(j_low) >= lo and X_(j_high) <= hi) >= 1 - alpha.

    X_(j) is the j-th smallest of ``trials`` i.i.d. draws from the law on
    the integers with CDF ``cdf``; P(X_(j) <= k) = P(Bin(trials, F(k)) >= j).
    """
    def p_at_most(j, k):
        return float(bdtrc(j - 1, trials, float(cdf(k))))

    lo = _first_integer(lambda k: p_at_most(j_low, k) > alpha / 2.0)
    hi = _first_integer(lambda k: p_at_most(j_high, k) >= 1.0 - alpha / 2.0)
    return lo, hi


def median_interval(cdf, trials: int, alpha: float) -> tuple[int, int]:
    """Interval that holds the sample median (numpy convention) w.p. >= 1-alpha."""
    if trials % 2:
        j = (trials + 1) // 2
        return order_stat_interval(cdf, trials, j, j, alpha)
    return order_stat_interval(cdf, trials, trials // 2, trials // 2 + 1, alpha)


def quantile_index(delta: float, trials: int) -> int:
    """1-based order statistic that estimates the (1-delta)-quantile."""
    return max(math.ceil((1.0 - delta) * trials), 1)


# ----------------------------------------------------------------------
# extreme values of the minimum gap
# ----------------------------------------------------------------------


def mean_min_gap(beta: float, n: int) -> float:
    """E[min_i (1 - p_i)] = integral_0^1 (1 - x**a)**n dx, a = 1 + beta."""
    inv_a = 1.0 / (1.0 + beta)
    return math.exp(gammaln(n + 1.0) + gammaln(1.0 + inv_a)
                    - gammaln(n + 1.0 + inv_a))


# ----------------------------------------------------------------------
# word-level simulation of the memoryless and full-memory learners
# ----------------------------------------------------------------------


def word_level_times(learner: str, beta: float, n: int, trials: int,
                     rng: np.random.Generator, cap: int) -> np.ndarray:
    """Teacher words until each learner holds the target; inf past ``cap``.

    Concept 0 is the target and wrong concept i has overlap p_i, drawn
    fresh for every trial.  Each word keeps a wrong held concept with
    probability p_i and rejects it otherwise; the memoryless learner then
    picks uniformly among all n+1 concepts, the full-memory learner among
    those never rejected (a walk along a uniform random order).
    """
    if learner not in ("memoryless", "full_memory"):
        raise ValueError(f"unknown learner {learner!r}")
    P = sample_overlaps(beta, (trials, n), rng)
    rows = np.arange(trials)
    if learner == "full_memory":
        order = np.argsort(rng.random((trials, n + 1)), axis=1)
        pos = np.zeros(trials, dtype=np.int64)
        current = order[:, 0].copy()
    else:
        current = rng.integers(0, n + 1, size=trials)
    times = np.full(trials, np.inf)
    times[current == 0] = 0.0
    active = rows[current != 0]
    for word in range(1, cap + 1):
        if not active.size:
            break
        rejected = active[rng.random(active.size) >= P[active, current[active] - 1]]
        if learner == "full_memory":
            pos[rejected] += 1
            current[rejected] = order[rejected, pos[rejected]]
        else:
            current[rejected] = rng.integers(0, n + 1, size=rejected.size)
        times[rejected[current[rejected] == 0]] = word
        active = active[current[active] != 0]
    return times


def quantile_consistent(value: float, reference: np.ndarray, trials: int,
                        j: int, alpha: float) -> bool:
    """Whether ``value`` is a plausible j-th order statistic of ``trials``
    draws from the law that ``reference`` samples.

    The reference's empirical CDF is widened by the DKW band at level alpha;
    ``value`` is refused when even the most favourable CDF in the band puts
    it in a binomial tail of mass below alpha/2.  Censored (inf) reference
    draws only ever count as larger than ``value``.
    """
    band = math.sqrt(math.log(2.0 / alpha) / (2.0 * reference.size))
    f_at = float((reference <= value).mean())
    f_below = float((reference <= value - 1.0).mean())
    too_small = bdtrc(j - 1, trials, min(1.0, f_at + band)) < alpha / 2.0
    too_large = bdtr(j - 1, trials, max(0.0, f_below - band)) < alpha / 2.0
    return not (too_small or too_large)


# ----------------------------------------------------------------------
# per-vector expected time by direct summation
# ----------------------------------------------------------------------


def direct_expected_time(p, rtol: float = 1e-10, block: int = 1 << 14) -> float:
    """T = sum_{k>=1} [1 - prod_i (1 - p_i**k)], summed k by k.

    Columns with p_i**k below 1e-20 are dropped as k grows.  The sum stops
    once the remainder bound n * p_max**(k+1) / (1 - p_max) is below
    rtol * T.
    """
    p = np.sort(np.asarray(p, dtype=np.float64))[::-1]
    p = p[p > 0.0]
    if not p.size:
        return 0.0
    logp = np.log(p)
    total, k = 0.0, 0
    while True:
        live = int(np.searchsorted(-logp, 46.0 / (k + 1))) or 1
        ks = np.arange(k + 1, k + block + 1, dtype=np.float64)
        with np.errstate(under="ignore"):
            pk = np.exp(np.multiply.outer(ks, logp[:live]))
            total += float((-np.expm1(np.log1p(-pk).sum(axis=1))).sum())
        k += block
        remainder = p.size * math.exp((k + 1) * logp[0]) / -math.expm1(logp[0])
        if remainder <= rtol * total:
            return total


def coarse_bounds(p) -> tuple[float, float]:
    """(max_i 1/(1-p_i), sum_i 1/(1-p_i)): the sandwich around T + 1."""
    inv = 1.0 / (1.0 - np.asarray(p, dtype=np.float64))
    return float(inv.max()), float(inv.sum())


# ----------------------------------------------------------------------
# certified-series references
# ----------------------------------------------------------------------


def series_key(kind: str, beta: float, x) -> str:
    """Key of one reference value: kind is zeta (x = s), moment_series or
    alpha1 (x = n)."""
    return f"{kind}|beta={float(beta)!r}|{float(x)!r}"


def load_references() -> dict:
    with open(REFERENCES_FILE) as fh:
        return {k: float(v) for k, v in json.load(fh)["values"].items()}
