"""Single-trial learners and subset formulas: reference oracles for the tests.

The package computes learning times with vectorized samplers and certified
formulas.  The definitions they stand for live here, as the slow direct
loops that the tests compare them against:

* word-level trials of the three learners, one trial per call: batch
  (per-concept lifetimes, or replayed list intersection), memoryless
  (re-pick uniformly over all n+1 concepts when contradicted) and full
  memory (rejected concepts never return);
* the inclusion-exclusion value of T over nonempty subsets S,
  sum (-1)**(|S|-1) * p_S/(1 - p_S) with p_S the product over S, for one
  vector (Gray-code order, exact ``fsum`` rounding) and for the rows of a
  matrix (subset products by doubling).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from batchlab.batch_exact import _as_p, _log_desc
from batchlab.simulators import DEFAULT_HORIZON, geometric_steps

SUBSET_LIMIT = 25


# ----------------------------------------------------------------------
# word-level learners
# ----------------------------------------------------------------------


def simulate_batch(p, rng: np.random.Generator) -> int:
    """One batch-learner trial: k0 = max_i G_i; 0 for the empty vector."""
    arr = _as_p(p)
    if arr.size == 0:
        return 0
    return int(geometric_steps(arr, rng).max())


def simulate_batch_wordlevel(p, rng: np.random.Generator) -> int:
    """Reference simulator: explicit word-by-word list intersection.

    O(n) per word; intended for oracle tests at small n only.
    """
    arr = _as_p(p)
    alive = np.arange(arr.size)
    k = 0
    while alive.size:
        k += 1
        alive = alive[rng.random(alive.size) < arr[alive]]
    return k if arr.size else 0


def simulate_memoryless(p, rng: np.random.Generator,
                        horizon: int = DEFAULT_HORIZON) -> Optional[int]:
    """One word-level memoryless trial.

    Returns the settle step (the re-pick index that lands on the target;
    0 if the initial pick is correct), or None when censored at ``horizon``
    teacher words.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    arr = _as_p(p, forbid_one=False)
    n = arr.size
    if n == 0:
        return 0
    current = int(rng.integers(0, n + 1))      # 0 is the target concept
    if current == 0:
        return 0
    for t in range(1, horizon + 1):
        if rng.random() < arr[current - 1]:
            continue                            # word consistent, keep holding
        current = int(rng.integers(0, n + 1))
        if current == 0:
            return t
    return None


def simulate_full_memory(p, rng: np.random.Generator) -> int:
    """One word-level full-memory trial; rejected concepts never return."""
    arr = _as_p(p)
    n = arr.size
    if n == 0:
        return 0
    remaining = list(range(n + 1))
    current = remaining[int(rng.integers(0, n + 1))]
    if current == 0:
        return 0
    t = 0
    while True:
        t += 1
        if rng.random() < arr[current - 1]:
            continue
        remaining.remove(current)
        current = remaining[int(rng.integers(0, len(remaining)))]
        if current == 0:
            return t


# ----------------------------------------------------------------------
# inclusion-exclusion over subsets
# ----------------------------------------------------------------------


def expected_time_subsets(p) -> float:
    """Inclusion-exclusion value of T, exact up to rounding; n <= 25.

    Subsets are enumerated in Gray-code order so the running product changes
    by one incremental update per subset; the product is carried as a log
    sum, immune to underflow from subnormal entries.  Zero entries are
    pruned first (their subsets contribute nothing), and the rest sorted
    largest first: Gray code flips bit j 2**(m-1-j) times, so the huge
    logs of tiny entries are added and taken back fewest times, and every
    subset without them is summed before any of them is added.  Terms are
    accumulated with exact (fsum) rounding.
    """
    logp = _log_desc(_as_p(p))
    m = logp.size
    if m == 0:
        return 0.0
    if m > SUBSET_LIMIT:
        raise ValueError(f"subset enumeration limited to n <= {SUBSET_LIMIT} "
                         f"nonzero entries, got {m}")
    return math.fsum(_subset_terms(logp.tolist(), m))


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


def expected_time_subsets_bulk(P: np.ndarray) -> np.ndarray:
    """Inclusion-exclusion value of T for each row of P (small n only).

    Builds all 2**n subset products by doubling; memory is rows * 2**n.
    """
    P = np.asarray(P, dtype=np.float64)
    rows, n = P.shape
    if n > 20:
        raise ValueError("bulk subset evaluation limited to n <= 20")
    prods = np.ones((rows, 1))
    signs = np.array([-1.0])                    # sign(S) = (-1)**(|S| - 1)
    for i in range(n):
        prods = np.concatenate([prods, prods * P[:, i:i + 1]], axis=1)
        signs = np.concatenate([signs, -signs])
    # drop the empty subset (column 0), which contributes nothing
    terms = prods[:, 1:] / (1.0 - prods[:, 1:])
    return (signs[1:] * terms).sum(axis=1)
