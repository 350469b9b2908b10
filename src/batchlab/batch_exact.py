"""Deterministic learning-time computations for a fixed overlap vector.

For overlaps p = (p_1, ..., p_n), all < 1, the batch learner survives step k
with probability q_k = 1 - prod_i (1 - p_i**k).  Two independent exact
formulas for the expected time are implemented:

* the step-sum T = sum_{k>=1} q_k  (series with geometric tail bound), and
* the inclusion-exclusion subset sum over nonempty S of
  (-1)**(|S|-1) * p_S/(1 - p_S), p_S the product over S.

They agree to full precision and serve as each other's oracle.  Note the
off-by-one between the two natural "time" conventions: the expected number
of teacher words consumed is E[k0] = 1 + T for n >= 1 (the k = 0 term of
the tail-sum identity), so both are returned.  Simulator comparisons use
``steps_expectation``.

Every power p_i**x is taken by one kernel, which works on log overlaps
sorted in descending order (zero overlaps dropped) and cuts the columns
whose powers are below e**-40 of the leading one.

For ensembles of large vectors (scales up to ~n**2 steps for negative tail
exponents) one evaluator, vectorized over the rows of an overlap matrix,
replaces the exact k-by-k sum: an exact head of 256 steps, from which a row
retires to a closed-form geometric tail once S(k) = sum p_i**k is
negligible, then, for the rows still alive, an Euler-Maclaurin corrected
Gauss-Legendre integral on a geometric grid, then the same closed-form
tail.  :func:`expected_time_bulk` runs it on a matrix and
:func:`expected_time_fast` on one vector; a row's value does not depend on
the other rows beyond rounding.  Accuracy is ~1e-5 relative, checked against the exact
series where both run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import xlogy

from .errors import DivergenceError, PrecisionLossError
from .rng import rows_chunk

SUBSET_LIMIT = 25
_TAIL_S_THRESHOLD = 1e-4   # retire a vector to closed-form tail once S(k) <= this
_TAIL_ORDERS = 5           # log1p expansion orders kept in closed-form tails
_EXACT_HEAD = 256          # exact k-summation range before the integral part
_K_CAP = 1 << 25
_DEAD = 40.0               # powers below e**-40 of the leading one are cut
_X_BUDGET = 1 << 16        # powers per kernel call when several x share one
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class TimeEstimate(NamedTuple):
    """Expected learning time in both conventions (T and E[word count] = T+1)."""

    t: float
    steps_expectation: float


def _as_p(p, forbid_one: bool = True) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError("overlap vector must be one-dimensional")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("overlap probabilities must lie in [0, 1]")
    if forbid_one and arr.size and arr.max() >= 1.0:
        raise DivergenceError("an overlap probability of exactly 1 makes the "
                              "expected learning time infinite")
    return arr


def _log_desc(arr: np.ndarray) -> np.ndarray:
    """log p of the nonzero overlaps, in descending order."""
    return np.log(-np.sort(-arr[arr > 0.0]))


def _powers(logp: np.ndarray, x, top: np.ndarray) -> np.ndarray:
    """p**x = exp(x * log p) over the live leading columns of ``logp``.

    ``logp`` is (n,) or (rows, n) with every row in descending order, and
    ``top`` (n,) bounds its columns from above, also descending.  Columns j
    with top_j * x <= top_0 * x - 40 for every x are dead and cut: each of
    their powers is below e**-40 = 4e-18 of the leading one, so a sum that
    holds the leading power moves by at most n * 4e-18 relative.  ``x``
    broadcasts against the rows of ``logp`` (shape (..., rows), or any
    shape for one vector); the result has the broadcast shape plus a last
    axis over the live columns.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", under="ignore"):
        x_min = np.min(x, initial=np.inf)
        live = int(np.searchsorted(-top, _DEAD / x_min - top[0]))
        return np.exp(x[..., None] * logp[..., :live])


def _q(pk: np.ndarray) -> np.ndarray:
    """q = 1 - prod(1 - p**x) along the last axis, in log space."""
    return -np.expm1(np.log1p(-pk).sum(axis=-1))


# ----------------------------------------------------------------------
# survival probabilities and coarse bounds
# ----------------------------------------------------------------------


def survival(p, k: int) -> float:
    """q_k = 1 - prod_i (1 - p_i**k), in log space to dodge underflow."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(survival_bulk(p, [float(k)])[0])


def survival_bulk(p, ks) -> np.ndarray:
    """Vectorized survival over an array of step counts."""
    ks = np.asarray(ks, dtype=np.float64)
    logp = _log_desc(_as_p(p, forbid_one=False))
    if logp.size == 0:
        return np.zeros_like(ks)
    return _q(_powers(logp, ks, logp))


def sandwich(p, k: int) -> tuple[float, float]:
    """(max_i p_i**k, min(1, sum_i p_i**k)): certified bracket around q_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    logp = _log_desc(_as_p(p, forbid_one=False))
    if logp.size == 0:
        return 0.0, 0.0
    pk = _powers(logp, float(k), logp)
    return float(pk[0]), float(min(1.0, pk.sum()))


def coarse_bounds(p) -> tuple[float, float]:
    """(sum_i 1/(1-p_i), max_i 1/(1-p_i)).

    The sandwich holds for the word count T + 1:
    max 1/(1-p_i) <= T + 1 <= sum 1/(1-p_i) (the lower bound can exceed T
    itself, e.g. p = (0.5) where T = 1 but max 1/(1-p) = 2).
    """
    arr = _as_p(p)
    if arr.size == 0:
        return 0.0, 0.0
    inv = 1.0 / (1.0 - arr)
    return float(inv.sum()), float(inv.max())


# ----------------------------------------------------------------------
# exact expected time, two ways
# ----------------------------------------------------------------------


def expected_time_series(p, eps: float = 1e-12, k_cap: int = _K_CAP) -> TimeEstimate:
    """T = sum_{k>=1} q_k, truncated when n * p_max**(K+1) / (1-p_max) < eps.

    Returns (T, T + 1) for n >= 1 and (0, 0) for the empty vector.  Raises
    PrecisionLossError if the geometric bound cannot reach eps within k_cap
    steps (use :func:`expected_time_fast` for such scales).
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    arr = _as_p(p)
    if arr.size == 0:
        return TimeEstimate(0.0, 0.0)
    logp = _log_desc(arr)
    n = logp.size
    if n == 0:
        return TimeEstimate(0.0, 1.0)
    p_max = float(arr.max())
    block = max(64, min(4096, int(4e6) // n))
    total = 0.0
    k = 0
    while True:
        ks = np.arange(k + 1, k + block + 1, dtype=np.float64)
        total += float(_q(_powers(logp, ks, logp)).sum())
        k += block
        tail = n * float(_powers(logp[:1], k + 1.0, logp)[0]) / (1.0 - p_max)
        if tail < eps:
            return TimeEstimate(total, total + 1.0)
        if k >= k_cap:
            raise PrecisionLossError(
                f"series tail bound {tail:g} still above eps = {eps:g} after "
                f"{k} steps (p_max = {p_max}); use expected_time_fast")


def expected_time_subsets(p) -> float:
    """Inclusion-exclusion value of T, exact up to rounding; n <= 25.

    Subsets are enumerated in Gray-code order so the running product changes
    by one incremental update per subset; the product is carried as a log
    sum, immune to underflow from subnormal entries.  Zero entries are
    pruned first (their subsets contribute nothing).  Terms are accumulated
    with exact (fsum) rounding.
    """
    arr = _as_p(p)
    arr = arr[arr > 0.0]
    m = arr.size
    if m == 0:
        return 0.0
    if m > SUBSET_LIMIT:
        raise ValueError(f"subset enumeration limited to n <= {SUBSET_LIMIT} "
                         f"nonzero entries, got {m}")
    return math.fsum(_subset_terms(np.log(arr).tolist(), m))


def _subset_terms(logp: list, m: int):
    logprod = 0.0
    size = 0
    for i in range(1, 1 << m):
        # Gray code g = i ^ (i >> 1); between i-1 and i, bit ctz(i) of g flips
        j = (i & -i).bit_length() - 1
        if ((i ^ (i >> 1)) >> j) & 1:
            logprod += logp[j]
            size += 1
        else:
            logprod -= logp[j]
            size -= 1
        # true subset products are < 1; clamp away rounding drift across 0
        ps = min(math.exp(logprod), 1.0 - 2.0**-53)
        term = ps / (1.0 - ps)
        yield term if (size & 1) else -term


def n_delta(p, delta: float) -> int:
    """Smallest k >= 1 with survival(p, k) <= delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    arr = _as_p(p)
    if arr.size == 0 or arr.max() == 0.0:
        return 1
    if survival(arr, 1) <= delta:
        return 1
    lo = 1
    hi = 2
    while survival(arr, hi) > delta:
        lo = hi
        hi *= 2
    # invariant: survival(lo) > delta >= survival(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survival(arr, mid) > delta:
            lo = mid
        else:
            hi = mid
    return hi


# ----------------------------------------------------------------------
# large-scale evaluation (ensemble Monte Carlo)
# ----------------------------------------------------------------------


def expected_time_fast(p) -> TimeEstimate:
    """Expected time for a single (possibly huge-scale) vector.

    The one-row case of :func:`expected_time_bulk`, with the same value.
    Relative accuracy ~1e-5; intended for the ensemble Monte Carlo where
    scales reach ~n**2 steps.
    """
    arr = _as_p(p)
    if arr.size == 0:
        return TimeEstimate(0.0, 0.0)
    t = float(_expected_times(arr[None, :])[0])
    return TimeEstimate(t, t + 1.0)


def expected_time_bulk(P: np.ndarray) -> np.ndarray:
    """Expected times T for each row of P.

    Rows are evaluated together, in blocks of bounded memory, by the exact
    head, the Euler-Maclaurin integral and the closed-form tail described
    in the module docstring.  Accuracy ~1e-5 relative.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError("P must be (rows, n)")
    if P.size and P.max() >= 1.0:
        raise DivergenceError("overlap probability of exactly 1 in bulk input")
    rows, n = P.shape
    T = np.zeros(rows)
    if n == 0:
        return T
    step = rows_chunk(n)
    for lo in range(0, rows, step):
        T[lo:lo + step] = _expected_times(P[lo:lo + step])
    return T


def _expected_times(P: np.ndarray) -> np.ndarray:
    """T for each row of a (rows, n) block of overlaps in [0, 1)."""
    P = -np.sort(-P, axis=1)
    positives = np.count_nonzero(P, axis=1)
    if not positives.any():
        return np.zeros(len(P))
    P = P[:, :positives.max()]                  # the all-zero columns go
    with np.errstate(divide="ignore"):
        logp = np.log(P)
    top = logp.max(axis=0)
    T = np.zeros(len(P))
    start = np.zeros(len(P))                    # where each row's tail starts
    rows, L, k = np.arange(len(P)), logp, 0
    while rows.size and k < _EXACT_HEAD:
        last = min(k + rows_chunk(L.size, _X_BUDGET), _EXACT_HEAD)
        ks = np.arange(k + 1, last + 1, dtype=np.float64)
        pk = _powers(L, ks[:, None], top)        # (steps, rows, live)
        # a row takes each step up to the first with S(k) <= threshold
        alive = np.logical_and.accumulate(pk.sum(axis=2) > _TAIL_S_THRESHOLD)
        taken = np.vstack([np.ones((1, len(rows)), bool), alive[:-1]])
        T[rows] += (_q(pk) * taken).sum(axis=0)
        done = ~alive[-1]
        if done.any():
            start[rows[done]] = k + taken[:, done].sum(axis=0)
            rows, L = rows[~done], L[~done]
        k = last
    if rows.size:
        middle, start[rows] = _euler_maclaurin(L, positives[rows], top)
        T[rows] += middle
    return T + _closed_form_tail(logp, start, top)


def _euler_maclaurin(L: np.ndarray, positives: np.ndarray, top: np.ndarray):
    """(sum_{k=a}^{b} q_k, b) per row, a = head + 1 and b where S(b) is small.

    The sum is the Gauss-Legendre integral of q(x) over panels of a
    geometric grid, plus (q(a) + q(b))/2 + (q'(b) - q'(a))/12.
    """
    a = _EXACT_HEAD + 1.0
    # S(x) is dominated by exp(x * log p_max); solve for the cut generously
    x_cut = np.maximum(2.0 * a, np.log(np.maximum(positives, 2)
                                       / (0.5 * _TAIL_S_THRESHOLD))
                       / np.maximum(-L[:, 0], 1e-300))
    b = np.full(len(L), a)
    grow = _powers(L, b, top).sum(axis=1) > _TAIL_S_THRESHOLD
    while grow.any():
        b[grow] = np.minimum(2.0 * b[grow], x_cut[grow])
        grow &= b < x_cut
        grow[grow] = _powers(L[grow], b[grow], top).sum(axis=1) > _TAIL_S_THRESHOLD
    b = np.ceil(b)

    # panels of equal width in u = log x; a row past its last panel adds 0
    panels = np.maximum(1.0, np.ceil(np.log2(b / a) * 1.5))
    i = np.arange(panels.max())[:, None]
    width = (np.log(b) - math.log(a)) / panels
    lu = math.log(a) + width * np.minimum(i, panels)
    half = np.where(i < panels, 0.5 * width, 0.0)
    xs = np.exp((lu + half)[:, None] + half[:, None] * _GL_NODES[:, None])
    xs = xs.reshape(-1, len(L))                 # (panels * nodes, rows)
    w = (half[:, None] * _GL_WEIGHTS[:, None]).reshape(xs.shape) * xs
    step = rows_chunk(L.size, _X_BUDGET)
    integral = sum((w[j:j + step] * _q(_powers(L, xs[j:j + step], top))).sum(axis=0)
                   for j in range(0, len(xs), step))

    ends = []
    for x in (np.full(len(L), a), b):
        px = _powers(L, x, top)
        log_l = np.log1p(-px).sum(axis=1)
        # q'(x) = prod(1 - p**x) * sum(p**x log p / (1 - p**x)), 0 for p = 0
        slope = np.exp(log_l) * (xlogy(px, px) / (1.0 - px)).sum(axis=1) / x
        ends.append((-np.expm1(log_l), slope))
    (fa, dfa), (fb, dfb) = ends
    return integral + 0.5 * (fa + fb) + (dfb - dfa) / 12.0, b


def _closed_form_tail(logp: np.ndarray, k: np.ndarray, top: np.ndarray) -> np.ndarray:
    """sum_{j>k} q_j per row, k per row, once S(k+1) = sum p_i**(k+1) is small.

    Uses q_j <= -sum log1p(-p_i**j) expanded in powers (orders r) with exact
    geometric sums, minus half the certified second-order correction.
    """
    first = np.zeros(len(logp))
    for r in range(1, _TAIL_ORDERS + 1):
        num = _powers(logp, r * (k + 1.0), top)
        den = 1.0 - _powers(logp[:, :num.shape[1]], float(r), top)
        first += (num / den).sum(axis=1) / r
    s_next = _powers(logp, k + 1.0, top).sum(axis=1)
    return first * (1.0 - 0.25 * s_next)
