"""Monte Carlo simulators for the three learning algorithms.

* batch: the student intersects per-word concept lists; learned at the first
  step k0 where only the target remains.  Under independence k0 is the max
  of per-concept geometric lifetimes, so the production sampler draws
  geometrics by inversion instead of replaying words.  A word-level
  reference simulator is kept for oracle tests.
* memoryless: hold a uniformly random concept until a word contradicts it
  (probability 1 - p_i per word), then re-pick uniformly over all n+1
  concepts.  The settle time is the index of the re-pick that lands on the
  target, 0 if the initial pick is already correct; runs are censored at a
  horizon.
* full memory: like memoryless, but rejected concepts are never revisited,
  so the run terminates surely.

Each learner has one vectorized sampler that takes a ``(trials, n)`` overlap
matrix and returns one time per row, with the same law as the single-trial
loops (tested against them).  ``run_trials`` decides where the matrix comes
from: one fixed vector repeated, or fresh rows drawn from the overlap law.
Fresh-p batch trials need no matrix: across trials the lifetimes G_i are
i.i.d. with P(G > k) = m_k, so P(k0 <= k) = (1 - m_k)**n, and
:func:`batch_time_quantile` draws k0 by inversion, one uniform per trial
(order statistics by inversion; Devroye, *Non-Uniform Random Variate
Generation*, 1986).  ``batch_times`` stays the fixed-p sampler and the
oracle of that law.  Rows and uniforms are drawn in fixed chunks from
per-chunk streams derived from a master seed, so results are reproducible
and independent of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .batch_exact import _as_p
from .distributions import OverlapDistribution
from .errors import CensoringError
# map_chunks is called as a module global so bench/layertrace.py can wrap it
from .rng import (STREAM_BATCH, STREAM_FULL_MEMORY, STREAM_MEMORYLESS,
                  derive_rng, map_chunks, rows_chunk)

DEFAULT_HORIZON = 1_000_000

ALGORITHMS = ("batch", "memoryless", "full_memory")
_ALG_STREAM = {"batch": STREAM_BATCH,
               "memoryless": STREAM_MEMORYLESS,
               "full_memory": STREAM_FULL_MEMORY}


@dataclass
class TrialBatch:
    """Per-trial learning/settle times for one algorithm and configuration.

    ``times`` is float64 with ``inf`` marking censored trials (memoryless
    runs that outlived the horizon); they are reported, never dropped.
    Identical (config, seed) always reproduces identical times.
    """

    algorithm: str
    n: int
    times: np.ndarray
    seed: int
    dist_spec: str
    resample_p: bool
    horizon: Optional[int] = None

    @property
    def censored(self) -> int:
        return int(np.isinf(self.times).sum())

    def summary(self) -> dict:
        finite = self.times[np.isfinite(self.times)]
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "trials": int(self.times.size),
            "censored": self.censored,
            "mean": float(finite.mean()) if finite.size else math.inf,
            "median": float(np.median(finite)) if finite.size else math.inf,
            "min": float(finite.min()) if finite.size else math.inf,
            "max": float(finite.max()) if finite.size else math.inf,
            "seed": self.seed,
            "dist": self.dist_spec,
            "resample_p": self.resample_p,
        }


def _median_ci_halfwidth(times: np.ndarray) -> float:
    """Half-width of the ~95% order-statistic interval around the median."""
    srt = np.sort(times)
    t = srt.size
    half = int(1.96 * math.sqrt(t) / 2.0)
    lo = max(t // 2 - half - 1, 0)
    hi = min(t // 2 + half, t - 1)
    return float(0.5 * (srt[hi] - srt[lo]))


# ----------------------------------------------------------------------
# batch learner
# ----------------------------------------------------------------------


# called as a module global so bench/layertrace.py can wrap it
def geometric_steps(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-concept lifetimes: G_i on {1,2,...} with P(G > k) = p_i**k.

    p_i = 0 gives 1 and p_i = 1 gives +inf.
    """
    g = rng.random(p.shape)
    np.subtract(1.0, g, out=g)                 # (0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(g, out=g)
        g /= np.log(p)
    np.ceil(g, out=g)
    np.abs(g, out=g)                           # p = 1: log(u) / +0 is -inf
    return np.maximum(g, 1.0, out=g)


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


def batch_times(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batch learning time k0 = max_i G_i for each row of ``P``; 0 when n = 0."""
    if P.shape[1] == 0:
        return np.zeros(P.shape[0])
    return geometric_steps(P, rng).max(axis=1)


def batch_time_quantile(dist: OverlapDistribution, n: int, u) -> np.ndarray:
    """Quantile of the fresh-p batch time k0 at each ``u`` in [0, 1).

    P(k0 <= k) = (1 - m_k)**n, so this is the smallest integer k >= 1 with
    (1 - m_k)**n >= u, that is m_k <= t = -expm1(log(u)/n), a form of
    1 - u**(1/n) without cancellation.  u = 0 gives 1 and n = 0 gives 0.
    k is found by doubling and then bisection on ``dist.moments``: O(log k)
    moment evaluations per entry, whatever n is.  Past 2**53 the float64
    grid is coarser than 1 and the bisection stops once the midpoint rounds
    onto an end, so k is then good to the float64 spacing; a k past the
    float64 range comes back as inf.
    """
    u = np.asarray(u, dtype=np.float64)
    if n == 0:
        return np.zeros(u.shape)
    with np.errstate(divide="ignore"):
        t = -np.expm1(np.log(u) / n)
    lo = np.zeros(u.shape)                     # m_lo > t throughout (m_0 = 1)
    hi = np.ones(u.shape)                      # m_hi <= t once doubling stops
    idx = np.flatnonzero(dist.moments(hi) > t)
    while idx.size:
        lo[idx] = hi[idx]
        hi[idx] *= 2.0
        idx = idx[dist.moments(hi[idx]) > t[idx]]
    idx = np.flatnonzero(hi - lo > 1.0)
    while idx.size:
        mid = np.floor(lo[idx] + 0.5 * (hi[idx] - lo[idx]))
        inner = (mid > lo[idx]) & (mid < hi[idx])
        idx, mid = idx[inner], mid[inner]
        below = dist.moments(mid) <= t[idx]
        hi[idx[below]] = mid[below]
        lo[idx[~below]] = mid[~below]
    return hi


# ----------------------------------------------------------------------
# memoryless learner and learning with full memory
# ----------------------------------------------------------------------


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


def memoryless_times(P: np.ndarray, rng: np.random.Generator,
                     horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """Memoryless settle time for each row of ``P`` (include-current re-pick).

    Law-equivalent composition: the number of wrong holds is geometric on
    {0,1,...} with success 1/(n+1); each hold lasts Geom(1 - p_I) words with
    I uniform over wrong concepts.  Censoring (settle > horizon) matches the
    word-level loop exactly.  Returns float64 with inf for censored trials.
    """
    count, n = P.shape
    if n == 0:
        return np.zeros(count)
    picks = rng.geometric(1.0 / (n + 1), size=count) - 1
    total = np.zeros(count)
    flat = int(picks.sum())
    if flat:
        holder = np.repeat(np.arange(count), picks)
        idx = rng.integers(0, n, size=flat)
        waits = geometric_steps(P[holder, idx], rng)
        np.add.at(total, holder, waits)
    return np.where(total > horizon, np.inf, total)


def full_memory_times(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Full-memory settle time for each row of ``P``.

    A concept is held before the target exactly when its uniform rank
    variable falls below the target's; waits are independent geometrics.
    """
    count, n = P.shape
    if n == 0:
        return np.zeros(count)
    v = rng.random((count, n + 1))
    before = v[:, 1:] < v[:, :1]
    waits = geometric_steps(P, rng)
    return (waits * before).sum(axis=1)


# ----------------------------------------------------------------------
# chunked runners (fresh p per trial or fixed p), deterministic under threads
# ----------------------------------------------------------------------


def _map_overlap_rows(fn, dist: Optional[OverlapDistribution], n: int,
                      rows: int, seed: int, path: tuple, threads: int = 1,
                      fixed_p: Optional[np.ndarray] = None) -> np.ndarray:
    """``fn(P, rng)`` over ``rows`` overlap rows, concatenated in chunk order.

    Chunk i covers up to ``rows_chunk(n)`` of the rows and draws from
    ``derive_rng(seed, *path, i)``.  Its matrix ``P`` repeats ``fixed_p``
    when given; otherwise ``P`` is drawn from ``dist`` on that stream before
    ``fn`` draws from it.
    """
    def chunk(i: int, lo: int, hi: int) -> np.ndarray:
        rng = derive_rng(seed, *path, i)
        if fixed_p is not None:
            return fn(np.broadcast_to(fixed_p, (hi - lo, n)), rng)
        return fn(dist.sample((hi - lo) * n, rng).reshape(hi - lo, n), rng)

    return np.concatenate(map_chunks(chunk, rows, threads=threads,
                                     chunk_size=rows_chunk(n)))


def _map_uniform_rows(fn, rows: int, seed: int, path: tuple,
                      threads: int = 1) -> np.ndarray:
    """``fn(u)`` over ``rows`` uniforms on [0, 1), one per row, in chunk order.

    Chunk i covers up to ``rng.CHUNK_SIZE`` rows and draws its uniforms from
    ``derive_rng(seed, *path, i)``.
    """
    def chunk(i: int, lo: int, hi: int) -> np.ndarray:
        return fn(derive_rng(seed, *path, i).random(hi - lo))

    return np.concatenate(map_chunks(chunk, rows, threads=threads))


def run_trials(
    algorithm: str,
    dist: OverlapDistribution,
    n: int,
    trials: int,
    seed: int,
    fixed_p: Optional[np.ndarray] = None,
    horizon: int = DEFAULT_HORIZON,
    threads: int = 1,
) -> TrialBatch:
    """Run ``trials`` independent trials and collect a :class:`TrialBatch`.

    With ``fixed_p`` the same vector is reused every trial; otherwise a
    fresh length-n vector is drawn from ``dist`` per trial.  Fresh-p batch
    trials are drawn from the exact law by :func:`batch_time_quantile`, one
    uniform per trial from the chunk streams ``(seed, STREAM_BATCH, i)``.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if fixed_p is not None:
        fixed_p = _as_p(fixed_p, forbid_one=(algorithm != "memoryless"))
        n = fixed_p.size
    if fixed_p is None and algorithm == "batch":
        times = _map_uniform_rows(lambda u: batch_time_quantile(dist, n, u),
                                  trials, seed, (STREAM_BATCH,), threads)
    else:
        sampler = {"batch": batch_times,
                   "memoryless": lambda P, rng: memoryless_times(P, rng, horizon),
                   "full_memory": full_memory_times}[algorithm]
        times = _map_overlap_rows(sampler, dist, n, trials, seed,
                                  (_ALG_STREAM[algorithm],), threads=threads,
                                  fixed_p=fixed_p)
    return TrialBatch(algorithm=algorithm, n=n, times=times, seed=seed,
                      dist_spec="fixed" if fixed_p is not None else dist.spec,
                      resample_p=fixed_p is None,
                      horizon=horizon if algorithm == "memoryless" else None)


def empirical_n_delta(
    algorithm: str,
    dist: OverlapDistribution,
    n: int,
    delta: float,
    trials: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
    threads: int = 1,
) -> int:
    """Empirical (1-delta)-quantile of learning times over fresh p draws.

    The quantile is the order statistic at index ceil((1-delta)*trials)
    (lower rounding).  Censored trials count as +inf; if their fraction
    exceeds delta/2 the quantile cannot be trusted and a CensoringError is
    raised.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    batch = run_trials(algorithm, dist, n, trials, seed,
                       horizon=horizon, threads=threads)
    times = np.sort(batch.times)
    censored_frac = batch.censored / trials
    if censored_frac > delta / 2.0:
        raise CensoringError(
            f"{batch.censored}/{trials} trials censored at horizon {horizon}: "
            f"fraction {censored_frac:.3g} exceeds delta/2 = {delta / 2.0:.3g}")
    idx = max(int(math.ceil((1.0 - delta) * trials)) - 1, 0)
    value = times[idx]
    if not np.isfinite(value):
        raise CensoringError("the requested quantile falls among censored trials")
    return int(value)
