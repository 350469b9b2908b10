"""Deterministic learning-time computations for a fixed overlap vector.

For overlaps p = (p_1, ..., p_n), all < 1, the batch learner survives step k
with probability q_k = 1 - prod_i (1 - p_i**k).  The exact expected time
is the step-sum T = sum_{k>=1} q_k (series with geometric tail bound); the
tests check it to full precision against the inclusion-exclusion subset
sum over nonempty S of (-1)**(|S|-1) * p_S/(1 - p_S), p_S the product over
S, in ``tests/oracles.py``.  Note the off-by-one between the two natural
"time" conventions: the expected number of teacher words consumed is
E[k0] = 1 + T for n >= 1 (the k = 0 term of the tail-sum identity), so
both are returned.  Simulator comparisons use ``steps_expectation``.

Every power p_i**x of the exact routes and of the integral is taken by one
kernel, which works on log overlaps sorted in descending order (zero
overlaps dropped), cuts the columns whose powers are below e**-40 of the
leading one and raises the rest to at least that level.

For ensembles of large vectors (scales up to ~n**2 steps for negative tail
exponents) one evaluator, vectorized over the rows of an overlap matrix,
replaces the exact k-by-k sum.  The rows of the whole matrix are put in
one p_max order and taken in sub-blocks of about 2**16 overlaps, so that
each sub-block cuts its own dead columns and retires its own rows.  Per row:

1. *Saturated steps are counted.*  prod_i(1 - p_i**k) <= exp(-S(k)), with
   S(k) = sum_i p_i**k, so q_k rounds to exactly 1.0 while S(k) >= 40.
   Over the j largest overlaps, with mu_j the mean of their logs, Jensen's
   inequality gives S(k) >= sum_{i<=j} p_(i)**k >= j * e**(k mu_j), so
   every k <= max_{j>=40} log(j/40) / -mu_j has S(k) >= 40; that many
   steps are added as is, read off one cumulative sum of the sorted row's
   logs with no search (q_k is 1.0 from S(k) >= 37.5 on, which covers the
   rounding of the bound).  mu_j >= log p_(j), so the bound is at least
   the one from j * p_(j)**k alone.  It is the true count for an
   all-equal row and can fall short of it otherwise (a row of fewer than
   40 positive overlaps gets 0), and a saturated step past it adds
   q = 1.0 exactly in the head or the integral.
2. *Exact head* up to step 64: p**(k+1) = p**k * p from p**1 = p, at most
   64 * 2**-53 relative from the recurrence, and q_k = 1 - prod(1 - p**k)
   as a product over the columns, off by about n * 2**-53 / q_k relative.
   q_1, which can be as small as the overlaps, is taken in log space.  A
   row retires once S(k) <= 1e-4; every step it took before had
   S > 1e-4 and so q > 1 - exp(-1e-4), so the product form moves T by at
   most about n * 1.1e-12 relative.  A float sum of powers is never below
   its leading one, p_max**k, so S is summed only once some row's
   p_max**k is at most 1e-4.
3. *Euler-Maclaurin*: for the rows the head left alive or never took
   (tail start still 0), sum_{k=a}^{b} q_k = integral + (q(a) + q(b))/2 +
   (q'(b) - q'(a))/12 from a = 65, or from the step after the saturated
   ones where those run past the head, to b = ceil(x_cut), where x_cut,
   at least 2a, solves m * p_max**x = 5e-5 for the row's m positive
   overlaps, so S(b) <= m * p_max**b <= 5e-5.  The
   remainder is that of the first Bernoulli term left out.  For one column,
   q = p**x with t = -log p, it is p**a (1/(1 - e**-t) - 1/t - 1/2 - t/12),
   at most p**a t**3 / 720, which is at most (4 / (e (a - 1)))**4 / 720 of
   the column's whole sum p/(1 - p): 3.9e-10 at a = 65, which is why the
   head can end at step 64, well inside the quadrature budget below.
   The integral is taken in u = log x by the Gauss-Kronrod 7/15 rule on
   panels, at first of ratio 4 in x.  A panel whose error estimate
   |K15 - G7| exceeds its share (its width over the row's span in u) of the
   row's budget, 1e-7 of T, is halved and taken again in the next round, so
   the estimates of a row's final panels add up to at most 1e-7 of its T.
   A round takes the nodes of every pending panel of the sub-block in
   ascending x, in chunks that each keep the columns live at their first
   node.
4. The same *closed-form tail* as a row that retired in the head.

:func:`expected_time_bulk` runs it on a matrix and :func:`expected_time_fast`
on one vector; a row's value does not depend on the other rows beyond
rounding.  The quadrature budget holds a value to about 1e-7 relative;
against the exact series, where both run, the rows of the tests and of
the benchmark's inputs come within about 1e-9, most of it the
Euler-Maclaurin remainder at a = 65.

A matrix of at most _SUBSET_COLUMNS = 8 columns skips the evaluator and
sums over its 2**n - 1 nonempty column subsets S in closed form:
T = sum_S (-1)**(|S|-1) e**L_S / (-expm1(L_S)), L_S = sum_{i in S} log p_i,
where expm1 keeps 1 - p_S exact near 1.  A zero overlap enters as the
finite log _LOG_ZERO, so that 0 * log 0 never meets the subset table and
the terms of its subsets are exactly 0.  Rounding: L_S is off by at most
about (|S| + 1) * 2**-53 * |L_S|, which moves the term by that over
1 - p_S relative.  |L_S| p_S/(1 - p_S)**2 grows with p_S <= p_max, so every
term is off by at most about (n + 4) * lam * 2**-53 * t_max, with
t_max = p_max/(1 - p_max) and lam = -log(p_max)/(1 - p_max) >= 1 (lam < 2
for p_max > 0.2, lam < 745 for any positive float).  t_max <= T since
q_k >= p_max**k, so the sum is off by about (2**n - 1) * (n + 4) * lam *
2**-53 of T at most: 3.4e-13 * lam at n = 8, against 1e-7 for the
evaluator.  The cut sits below the crossover measured on 2000 rows (ms,
evaluator at p_max < 0.999 and < 0.9 against the closed form): n = 6:
9.6 / 5.8 vs 0.6; n = 8: 11.4 / 6.3 vs 2.3; n = 9: 13.0 / 7.8 vs 5.1-6.2;
n = 10: 14.7 / 8.8 vs 10.0; n = 11: 15.8 / 9.8 vs 21.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DivergenceError, PrecisionLossError, count
from .rng import rows_chunk

_TAIL_S_THRESHOLD = 1e-4   # retire a vector to closed-form tail once S(k) <= this
_TAIL_ORDERS = 5           # log1p expansion orders kept in closed-form tails
_EXACT_HEAD = 64           # exact k-summation range before the integral part
_K_CAP = 1 << 25
_DEAD = 40.0               # powers below e**-40 of the leading one are cut
_X_BUDGET = 1 << 16        # overlaps per sub-block; powers per kernel call
_QUAD_TOL = 1e-7           # quadrature error budget per row, relative to its T
_PANEL = math.log(4.0)     # first-round panel width in log x
_SUBSET_COLUMNS = 8        # matrices this narrow are summed over column subsets
_SUBSET_BUDGET = 1 << 14   # subset terms per block of rows
_LOG_ZERO = -1e300         # log of a zero overlap: e**L is 0 for its subsets
# membership (column j of subset mask i + 1) and sign (-1)**(|S|-1) of the
# nonempty subsets of _SUBSET_COLUMNS columns; those of n columns come first
_SUBSETS = ((np.arange(1, 1 << _SUBSET_COLUMNS)
             >> np.arange(_SUBSET_COLUMNS)[:, None]) & 1).astype(np.float64)
_SUBSET_SIGNS = 2.0 * (_SUBSETS.sum(axis=0) % 2) - 1.0
# Gauss-Kronrod 7/15 rule on [-1, 1]: the 15 nodes, their Kronrod weights,
# and the weights of the 7-point Gauss rule, which uses every other node
_GK_NODES = np.array([
    -0.991455371120812639, -0.949107912342758525, -0.864864423359769073,
    -0.741531185599394440, -0.586087235467691130, -0.405845151377397167,
    -0.207784955007898468, 0.0, 0.207784955007898468, 0.405845151377397167,
    0.586087235467691130, 0.741531185599394440, 0.864864423359769073,
    0.949107912342758525, 0.991455371120812639])
_GK_WEIGHTS = np.array([
    0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
    0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
    0.204432940075298892, 0.209482141084727828, 0.204432940075298892,
    0.190350578064785410, 0.169004726639267903, 0.140653259715525919,
    0.104790010322250184, 0.063092092629978553, 0.022935322010529225])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168869693, 0.0, 0.279705391489276668, 0.0,
    0.381830050505118945, 0.0, 0.417959183673469388, 0.0,
    0.381830050505118945, 0.0, 0.279705391489276668, 0.0,
    0.129484966168869693, 0.0])


class TimeEstimate(NamedTuple):
    """Expected learning time in both conventions (T and E[word count] = T+1)."""

    t: float
    steps_expectation: float


def _as_p(p, forbid_one: bool = True) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if arr.ndim != 1:
        raise ConfigError("overlap vector must be one-dimensional")
    return _checked(arr, forbid_one)


def _checked(arr: np.ndarray, forbid_one: bool = True) -> np.ndarray:
    """``arr`` if every entry lies in [0, 1], and below 1 when ``forbid_one``.

    NaN fails the range test (no comparison with it is true) like any entry
    outside [0, 1], and the ConfigError names the first such entry and its
    index; only an entry of exactly 1 raises DivergenceError.
    """
    if arr.size:
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= 1.0):
            i = np.argwhere(~((arr >= 0.0) & (arr <= 1.0)))[0]
            raise ConfigError("p entries must lie in [0, 1], got "
                             f"{arr[tuple(i)]} at index "
                             f"{', '.join(map(str, i))}")
        if forbid_one and hi == 1.0:
            raise DivergenceError("an overlap probability of exactly 1 makes the "
                                  "expected learning time infinite")
    return arr


def _log_desc(arr: np.ndarray) -> np.ndarray:
    """log p of the nonzero overlaps, in descending order."""
    return np.log(-np.sort(-arr[arr > 0.0]))


def _live(top: np.ndarray, x_min):
    """How many leading columns of ``top`` are not dead at any x >= x_min;
    an array of x_min gives an array of counts.  An x_min of at most
    1e-300 (0 included) keeps every column, as it would in the limit."""
    return np.searchsorted(-top, _DEAD / np.maximum(x_min, 1e-300) - top[0])


def _powers(logp: np.ndarray, x, top: np.ndarray) -> np.ndarray:
    """p**x = exp(x * log p) over the live leading columns of ``logp``.

    ``logp`` is (n,) or (rows, n) with every row in descending order, and
    ``top`` (n,) bounds its columns from above, also descending.  Columns j
    with top_j * x <= top_0 * x - 40 for every x are dead and cut, and a
    kept power below e**-40 of its row's leading one is raised to that
    level, so that exp meets no subnormal result (about 100 times the cost
    of a normal one) while the leading power is normal.  Either way only
    powers below e**-40 = 4e-18 of the leading one change, so a sum that
    holds the leading power moves by at most n * 4e-18 relative.  ``x``
    broadcasts against the rows of ``logp`` (shape (..., rows), or any
    shape for one vector); the result has the broadcast shape plus a last
    axis over the live columns.
    """
    x = np.asarray(x, dtype=np.float64)
    live = _live(top, np.min(x, initial=np.inf))
    z = x[..., None] * logp[..., :live]
    np.maximum(z, z[..., :1] - _DEAD, out=z)
    with np.errstate(under="ignore"):
        return np.exp(z, out=z)


def _q(pk: np.ndarray) -> np.ndarray:
    """q = 1 - prod(1 - p**x) along the last axis, in log space.

    ``pk`` is overwritten.
    """
    np.negative(pk, out=pk)
    return -np.expm1(np.log1p(pk, out=pk).sum(axis=-1))


# ----------------------------------------------------------------------
# survival probabilities and coarse bounds
# ----------------------------------------------------------------------


def survival(p, k: int) -> float:
    """q_k = 1 - prod_i (1 - p_i**k), in log space to dodge underflow."""
    return float(survival_bulk(p, [float(count("k", k))])[0])


def survival_bulk(p, ks) -> np.ndarray:
    """Vectorized survival over an array of step counts, whole numbers >= 1."""
    ks = np.asarray(ks, dtype=np.float64)
    steps = np.isfinite(ks) & (ks >= 1.0) & (ks == np.floor(ks))
    if not steps.all():
        raise ConfigError(f"ks must be whole numbers >= 1, got {ks[~steps][:3]}")
    logp = _log_desc(_as_p(p, forbid_one=False))
    if logp.size == 0:
        return np.zeros_like(ks)
    with np.errstate(divide="ignore"):          # log1p(-1) at an overlap of 1
        return _q(_powers(logp, ks, logp))


def sandwich(p, k: int) -> tuple[float, float]:
    """(max_i p_i**k, min(1, sum_i p_i**k)): certified bracket around q_k."""
    k = count("k", k)
    logp = _log_desc(_as_p(p, forbid_one=False))
    if logp.size == 0:
        return 0.0, 0.0
    pk = _powers(logp, float(k), logp)
    return float(pk[0]), float(min(1.0, pk.sum()))


def coarse_bounds(p) -> tuple[float, float]:
    """(sum_i 1/(1-p_i), max_i 1/(1-p_i)).

    The sandwich holds for the word count T + 1:
    max 1/(1-p_i) <= T + 1 <= sum 1/(1-p_i) (the lower bound can exceed T
    itself, e.g. p = (0.5) where T = 1 but max 1/(1-p) = 2).  The upper
    bound is the memoryless learner's mean settle time on the same vector
    (n wrong holds on average, each of mean S/n), so T + 1 <= S is the
    per-vector form of "batch is never worse than memoryless" in
    expectation.
    """
    arr = _as_p(p)
    if arr.size == 0:
        return 0.0, 0.0
    inv = 1.0 / (1.0 - arr)
    return float(inv.sum()), float(inv.max())


# ----------------------------------------------------------------------
# exact expected time
# ----------------------------------------------------------------------


def expected_time_series(p, eps: float = 1e-12) -> TimeEstimate:
    """T = sum_{k>=1} q_k, truncated when n * p_max**(K+1) / (1-p_max) < eps.

    K is a whole number of blocks of steps, the first whose bound meets
    eps.  Returns (T, T + 1) for n >= 1 and (0, 0) for the empty vector.
    Raises PrecisionLossError, before summing, if the bound cannot reach eps
    within 2**25 steps (use :func:`expected_time_fast` for such scales).
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError("eps must be positive and finite")
    arr = _as_p(p)
    if arr.size == 0:
        return TimeEstimate(0.0, 0.0)
    logp = _log_desc(arr)
    n = logp.size
    if n == 0:
        return TimeEstimate(0.0, 1.0)
    p_max = float(arr.max())
    block = max(64, min(4096, int(4e6) // n))
    tail = lambda k: n * np.exp((k + 1.0) * logp[0]) / (1.0 - p_max)
    blocks = int(_first_step(lambda idx, m: tail(m * block) < eps, 1)[0])
    if (blocks - 1) * block >= _K_CAP:
        k = -(-_K_CAP // block) * block
        raise PrecisionLossError(
            f"series tail bound {float(tail(k)):g} still above eps = {eps:g} "
            f"after {k} steps (p_max = {p_max}); use expected_time_fast")
    total = 0.0
    for k in range(0, blocks * block, block):
        ks = np.arange(k + 1, k + block + 1, dtype=np.float64)
        total += float(_q(_powers(logp, ks, logp)).sum())
    return TimeEstimate(total, total + 1.0)


def n_delta(p, delta: float) -> int:
    """Smallest k >= 1 with survival(p, k) <= delta."""
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    logp = _log_desc(_as_p(p))
    if logp.size == 0:
        return 1
    return int(_first_step(lambda idx, k: _q(_powers(logp, k, logp)) <= delta, 1)[0])


# ----------------------------------------------------------------------
# large-scale evaluation (ensemble Monte Carlo)
# ----------------------------------------------------------------------


def expected_time_fast(p) -> TimeEstimate:
    """Expected time for a single (possibly huge-scale) vector.

    The one-row case of :func:`expected_time_bulk`, with the same value.
    Relative accuracy about 1e-7 (the quadrature budget); at most 8
    overlaps are summed over their subsets, to the bound in the module
    docstring (under 1e-12 relative where p_max > 0.2).  Intended for the
    ensemble Monte Carlo, where scales reach ~n**2 steps, and for vectors
    past the step cap of :func:`expected_time_series`.
    """
    arr = _as_p(p)
    if arr.size == 0:
        return TimeEstimate(0.0, 0.0)
    t = float(expected_time_bulk(arr[None, :])[0])
    return TimeEstimate(t, t + 1.0)


def expected_time_bulk(P: np.ndarray) -> np.ndarray:
    """Expected times T for each row of P.

    A matrix of at most 8 columns is summed over its column subsets in
    closed form, good to about (2**n - 1) * (n + 4) * lam * 2**-53 relative
    (lam = -log(p_max)/(1 - p_max), see the module docstring).  The rows of
    a wider one, in one p_max order over the whole matrix, are taken in
    sub-blocks of about _X_BUDGET overlaps, each sorted as it is taken, by
    the saturated count, the exact head to step 64, the Euler-Maclaurin
    sum with its error-sized Gauss-Kronrod integral and the closed-form
    tail described in the module docstring.  Accuracy about 1e-7 relative:
    the quadrature error estimates of a row add up to at most 1e-7 of its T.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ConfigError("P must be (rows, n)")
    _checked(P)
    rows, n = P.shape
    if n <= _SUBSET_COLUMNS:
        return _subset_times(P)
    T = np.zeros(rows)
    order = np.argsort(P.max(axis=1), kind="stable")
    step = rows_chunk(n, _X_BUDGET)
    for lo in range(0, rows, step):
        block = order[lo:lo + step]
        T[block] = _sub_block_times(-np.sort(-P[block], axis=1))
    return T


def _subset_times(P: np.ndarray) -> np.ndarray:
    """T for each row of P, n <= _SUBSET_COLUMNS, summed over column subsets.

    Rows are taken in blocks of at most _SUBSET_BUDGET subset terms, held in
    two arrays, so the temporaries stay small enough for the heap to reuse.
    """
    rows, n = P.shape
    m = (1 << n) - 1
    # a contiguous copy: matmul takes it about 20% faster than the slice
    subsets, signs = _SUBSETS[:n, :m].copy(), _SUBSET_SIGNS[:m]
    logp = np.log(P, out=np.full(P.shape, _LOG_ZERO), where=P > 0.0)
    T = np.empty(rows)
    step = rows_chunk(m, _SUBSET_BUDGET)
    for lo in range(0, rows, step):
        L = logp[lo:lo + step] @ subsets
        with np.errstate(under="ignore"):
            terms = np.exp(L)
        np.negative(np.expm1(L, out=L), out=L)
        T[lo:lo + step] = np.divide(terms, L, out=terms) @ signs
    return T


def _sub_block_times(P: np.ndarray) -> np.ndarray:
    """T for each row of P, every row in descending order."""
    positives = np.count_nonzero(P, axis=1)
    if not positives.any():
        return np.zeros(len(P))
    P = P[:, :positives.max()]                  # the all-zero columns go
    with np.errstate(divide="ignore"):
        logp = np.log(P)
    top = logp.max(axis=0)
    # S(k) >= sum_{i<=j} p_(i)**k >= j * e**(k mu_j) over the j largest
    # overlaps (Jensen), mu_j the mean of their logs, so S(k) >= 40 and q_k
    # rounds to exactly 1.0 at every k up to this bound; mu_j >= log p_(j),
    # and mu_j is -inf from a zero overlap on, where j adds 0
    j = np.arange(_DEAD, P.shape[1] + 1.0)
    mu = np.cumsum(logp, axis=1)[:, int(_DEAD) - 1:] / j
    saturated = np.floor(np.max(np.log(j / _DEAD) / -mu, axis=1, initial=0.0))
    T = saturated.copy()
    start = np.zeros(len(P))                    # where each row's tail starts
    _exact_head(P, T, start, np.flatnonzero(saturated < _EXACT_HEAD), top)
    rows = np.flatnonzero(start == 0)           # not retired in the head
    if rows.size:
        a = np.maximum(saturated[rows], _EXACT_HEAD) + 1.0
        middle, start[rows] = _euler_maclaurin(logp[rows], a, positives[rows], top,
                                               T[rows])
        T[rows] += middle
    return T + _closed_form_tail(logp, start, top)


def _exact_head(P, T, start, rows, top) -> None:
    """Add q_k for k up to _EXACT_HEAD to T[rows].

    A row takes each step up to the first with S(k) <= _TAIL_S_THRESHOLD,
    records that k in ``start`` and retires; a row alive after the head
    keeps ``start`` at 0.  The head starts after the fewest saturated steps
    among ``rows``: T[rows] is reset to that count, and a row's own
    saturated steps after it add q = 1.0 exactly.  Each pass takes one step
    for every row still alive: the power by the recurrence
    p**(k+1) = p**k * p from p**1 = p, one rounding per step, held as
    (columns, rows) so that the product runs over axis 0.  The float sum
    S(k) is never below a row's leading power p_max**k, so it is only taken
    once that power is at most _TAIL_S_THRESHOLD in some row.
    """
    if not rows.size:
        return
    first = int(T[rows].min())
    T[rows] = first
    p = P[rows].T.copy()
    pk = np.ones_like(p)                        # p**(k-1)
    factors = np.empty_like(p)                  # 1 - p**k
    for k, width in enumerate(_live(top, np.arange(1.0, _EXACT_HEAD + 1.0)), 1):
        p, pk, factors = p[:width], pk[:width], factors[:width]
        pk *= p
        if k <= first:
            continue
        if k == 1:
            # q_1 may be as small as p_max, so it is taken in log space
            T[rows] += _q(pk.T.copy())
        else:
            np.subtract(1.0, pk, out=factors)
            T[rows] += 1.0 - np.multiply.reduce(factors, axis=0)
        if pk[0].min() > _TAIL_S_THRESHOLD:
            continue
        done = pk.sum(axis=0) <= _TAIL_S_THRESHOLD
        if done.any():
            start[rows[done]] = k
            keep = ~done
            rows = rows[keep]
            if not rows.size:
                break
            # compress keeps C order, where p[:, keep] would return F order
            p, pk = p.compress(keep, axis=1), pk.compress(keep, axis=1)
            factors = np.empty_like(p)


def _first_step(done, size: int) -> np.ndarray:
    """Smallest integer k >= 1 with ``done(idx, k)`` true, for each of ``size``.

    ``done(idx, k)`` tests the entries ``idx`` at the steps ``k`` (arrays
    of one length) and must be monotone in k; it is never called with
    empty arrays.  k is found by doubling and then bisection: O(log k)
    calls.  Past 2**53 the float64 grid is coarser than 1 and the bisection
    stops once the midpoint rounds onto an end, so k is then good to the
    float64 spacing; a k past the float64 range comes back as inf, also
    where ``done`` never holds.
    """
    lo = np.zeros(size)                         # not done at lo (k = 0 by fiat)
    hi = np.ones(size)                          # done at hi once doubling stops
    idx = np.arange(size)
    for doubling in range(1024):                # every pending hi is 2**doubling
        if not idx.size:
            break
        idx = idx[~done(idx, hi[idx])]
        lo[idx] = hi[idx]
        hi[idx] *= 2.0 if doubling < 1023 else math.inf     # 2**1024 is past float64
    idx = np.flatnonzero(hi - lo > 1.0)
    while idx.size:
        mid = np.floor(lo[idx] + 0.5 * (hi[idx] - lo[idx]))
        inner = (mid > lo[idx]) & (mid < hi[idx])
        idx, mid = idx[inner], mid[inner]
        if not idx.size:
            break
        below = done(idx, mid)
        hi[idx[below]] = mid[below]
        lo[idx[~below]] = mid[~below]
    return hi


def _euler_maclaurin(L: np.ndarray, a: np.ndarray, positives: np.ndarray,
                     top: np.ndarray, scale: np.ndarray):
    """(sum_{k=a}^{b} q_k, b) per row, a given per row and b where S(b) is small.

    b = ceil(x_cut), x_cut = max(2a, log(m / 5e-5) / -log p_max) for the
    row's m positive overlaps (m >= 2 in the log), so that
    S(b) <= m * p_max**b <= _TAIL_S_THRESHOLD / 2 with no power taken.
    Since S(x) >= p_max**x, where the log term rules x_cut is at most
    log(2m / 1e-4) / log(1e4) times the step where S falls to 1e-4: 1.83
    times at m = 1000.

    The sum is the integral of q(x) from a to b plus (q(a) + q(b))/2 +
    (q'(b) - q'(a))/12.  The integral is taken in u = log x by the
    Gauss-Kronrod 7/15 rule on panels, at first of ratio 4 in x.  A panel
    whose error estimate |K15 - G7| exceeds its share (its width in u over
    the row's) of the budget _QUAD_TOL * (scale + integral) is halved and
    taken again in the next round, so the estimates of a row's final panels
    add up to at most its budget.
    """
    x_cut = np.maximum(2.0 * a, np.log(np.maximum(positives, 2)
                                       / (0.5 * _TAIL_S_THRESHOLD))
                       / np.maximum(-L[:, 0], 1e-300))
    b = np.ceil(x_cut)

    # each row's span in u = log x, cut into equal panels of width <= log 4
    span = np.log(b) - np.log(a)
    count = np.maximum(1, np.ceil(span / _PANEL)).astype(np.intp)
    row = np.repeat(np.arange(len(L)), count)
    width = (span / count)[row]
    nth = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    left = np.log(a)[row] + width * nth
    integral = np.zeros(len(L))
    budget = None
    while row.size:
        value, error = _kronrod(L, row, left, width, top)
        if budget is None:
            budget = _QUAD_TOL * (scale + np.bincount(row, value, len(L)))
        # halving stops at 2**-30 of log 4, so rounding noise cannot split forever
        split = ((error * span[row] > budget[row] * width)
                 & (width > _PANEL * 2.0 ** -30))
        integral += np.bincount(row[~split], value[~split], len(L))
        row, left = np.repeat(row[split], 2), np.repeat(left[split], 2)
        width = np.repeat(0.5 * width[split], 2)
        left[1::2] += width[1::2]

    ends = []
    for x in (a, b):
        px = _powers(L, x, top)
        log_l = np.log1p(-px).sum(axis=1)
        # q'(x) = prod(1 - p**x) * sum(p**x log p / (1 - p**x)), 0 for p = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(px > 0.0, px * np.log(px), 0.0)
        slope = np.exp(log_l) * (plogp / (1.0 - px)).sum(axis=1) / x
        ends.append((-np.expm1(log_l), slope))
    (fa, dfa), (fb, dfb) = ends
    return integral + 0.5 * (fa + fb) + (dfb - dfa) / 12.0, b


def _kronrod(L, row, left, width, top):
    """(K15, |K15 - G7|) of the integral of q(e**u) e**u over each panel.

    Panel i spans [left_i, left_i + width_i] in u for row ``row_i`` of L.
    The nodes of all panels are taken in ascending x, so that each chunk
    keeps only the columns live at its first node.  A chunk holds its rows'
    log overlaps and their powers, about _X_BUDGET / 2 floats each.
    """
    x = np.exp(left[:, None] + (0.5 * width)[:, None] * (1.0 + _GK_NODES)).ravel()
    rows = np.repeat(row, len(_GK_NODES))
    order = np.argsort(x)
    f = np.empty_like(x)
    j = 0
    while j < x.size:
        live = _live(top, x[order[j]])
        idx = order[j:j + rows_chunk(live, _X_BUDGET // 2)]
        f[idx] = _q(_powers(L[rows[idx], :live], x[idx], top)) * x[idx]
        j += idx.size
    f = f.reshape(len(row), -1)
    return (0.5 * width * (f @ _GK_WEIGHTS),
            0.5 * width * np.abs(f @ (_GK_WEIGHTS - _GAUSS_WEIGHTS)))


def _closed_form_tail(logp: np.ndarray, k: np.ndarray, top: np.ndarray) -> np.ndarray:
    """sum_{j>k} q_j per row, k per row, once S(k+1) = sum p_i**(k+1) is small.

    Uses q_j <= -sum log1p(-p_i**j) expanded in powers (orders r) with exact
    geometric sums, minus half the certified second-order correction.
    """
    first = np.zeros(len(logp))
    for r in range(1, _TAIL_ORDERS + 1):
        num = _powers(logp, r * (k + 1.0), top)
        if r == 1:
            s_next = num.sum(axis=1)
        den = 1.0 - _powers(logp[:, :num.shape[1]], float(r), top)
        first += (num / den).sum(axis=1) / r
    return first * (1.0 - 0.25 * s_next)
