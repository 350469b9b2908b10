"""Monte Carlo simulators for the three learning algorithms.

* batch: the student intersects per-word concept lists; learned at the first
  step k0 where only the target remains.  Under independence k0 is the max
  of per-concept geometric lifetimes, so the production sampler draws
  geometrics by inversion instead of replaying words.
* memoryless: hold a uniformly random concept until a word contradicts it
  (probability 1 - p_i per word), then re-pick uniformly over all n+1
  concepts.  The settle time is the index of the re-pick that lands on the
  target, 0 if the initial pick is already correct; runs are censored at a
  horizon.
* full memory: like memoryless, but rejected concepts are never revisited,
  so the run terminates surely.

Each learner has one vectorized sampler that takes a ``(trials, n)`` overlap
matrix and returns one time per row, with the same law as the word-level
single-trial loops that ``tests/oracles.py`` keeps as their oracles.
``run_trials`` decides where the matrix comes from: one fixed vector
repeated, or fresh rows drawn from the overlap law.
With fresh p two learners need no matrix, because across trials the
lifetimes G_i are i.i.d. with P(G > k) = m_k:

* batch: P(k0 <= k) = (1 - m_k)**n, and :func:`batch_time_quantile` draws
  k0 by inversion, one uniform per trial (order statistics by inversion);
* full memory: the target's rank among the n + 1 concepts is uniform, so
  J ~ U{0..n} concepts are held before it, and the time is the sum of J
  i.i.d. lifetimes, drawn by composition in :func:`full_memory_ensemble_times`
  (about n/2 overlaps and waits per trial instead of 3n + 1 draws).

Both are composition and inversion methods from Devroye, *Non-Uniform Random
Variate Generation* (1986).  With fixed p the lifetimes are not identically
distributed, so ``batch_times`` and ``full_memory_times`` stay the fixed-p
samplers and the oracles of those laws; memoryless re-picks share one p, so
it has no such law.  Rows are drawn in fixed chunks from per-chunk streams
derived from a master seed (``rng.derive_rng``, PCG64DXSM), so results are
reproducible and independent of thread count.

The learners' chunks hold ``rows_chunk(n, _LEARNER_BUDGET)`` rows, about
2**14 floats.  A chunk's temporaries (overlaps, hold indices, waits) then
stay below 128 KiB each, glibc's default mmap threshold, so the heap reuses
one cache-sized block from chunk to chunk instead of mapping and unmapping
tens of MB: a memoryless run of 2000 trials at n = 1000 peaks near 1 MiB,
not 76 MiB.  A larger budget crosses the threshold and pays a page fault
per page of every chunk; a smaller one pays numpy's per-call overhead more
often than it saves.  The ensemble checks that share
:func:`_map_overlap_rows` and the zeta check keep ``rows_chunk(n)`` rows
(about 2**22 floats), so their streams and reports stay as they were.

The memoryless and fresh-p full-memory samplers lay the holds of all
trials out in one flat array, trial after trial.  Memoryless reads the held
overlaps with one flat ``take`` (from the one vector when p is fixed), and
both sum each trial's waits with ``np.add.reduceat`` over the start of its
stretch (:func:`_segment_sums`) instead of a scatter-add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .batch_exact import _as_p, _first_step
from .distributions import OverlapDistribution
from .errors import CensoringError, ConfigError, count
# map_chunks is called as a module global so bench/layertrace.py can wrap it
from .rng import (CHUNK_SIZE, STREAM_BATCH, STREAM_FULL_MEMORY,
                  STREAM_MEMORYLESS, derive_rng, map_chunks, rows_chunk)

DEFAULT_HORIZON = 1_000_000
DEFAULT_TRIALS = 1000
#: Floats per chunk of the learners' samplers (see the module docstring).
#: Fixed: changing it changes their streams.
_LEARNER_BUDGET = 1 << 14

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
        """Statistics over every trial, a censored one counted as +inf."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "trials": int(self.times.size),
            "censored": self.censored,
            "mean": float(self.times.mean()),
            "median": float(np.median(self.times)),
            "min": float(self.times.min()),
            "max": float(self.times.max()),
            "seed": self.seed,
            "dist": self.dist_spec,
            "resample_p": self.resample_p,
            "horizon": self.horizon,
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
    k is found by doubling and then bisection on ``dist.moments``
    (``batch_exact._first_step``): O(log k) moment evaluations per entry,
    whatever n is.  Past 2**53 k is good to the float64 spacing; a k past
    the float64 range comes back as inf.
    """
    u = np.asarray(u, dtype=np.float64)
    n = count("n", n, least=0)
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ConfigError("u must lie in [0, 1]")
    if n == 0:
        return np.zeros(u.shape)
    with np.errstate(divide="ignore"):
        t = -np.expm1(np.log(u.ravel()) / n)
    k = _first_step(lambda idx, k: dist.moments(k) <= t[idx], t.size)
    return k.reshape(u.shape)


# ----------------------------------------------------------------------
# memoryless learner and learning with full memory
# ----------------------------------------------------------------------


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of ``values``, ``counts[r]`` long for row r.

    Float64, with 0 for a row whose run is empty.  ``np.add.reduceat`` takes
    the starts ``cumsum(counts) - counts`` of the non-empty runs only, since
    it reads a repeated start as a one-element run.
    """
    out = np.zeros(counts.size)
    some = counts > 0
    out[some] = np.add.reduceat(values, (np.cumsum(counts) - counts)[some])
    return out


def memoryless_times(P: np.ndarray, rng: np.random.Generator,
                     horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """Memoryless settle time for each row of ``P`` (include-current re-pick).

    Law-equivalent composition: the number of wrong holds is geometric on
    {0,1,...} with success 1/(n+1); each hold lasts Geom(1 - p_I) words with
    I uniform over wrong concepts.  Censoring (settle > horizon) matches the
    word-level loop exactly.  Returns float64 with inf for censored trials.

    The holds of all rows form one flat run, row by row.  Their overlaps
    are read with one ``take`` at flat indices ``row * n + I`` of ``P``, or
    at ``I`` of the one vector when ``P`` repeats it (a zero row stride, as
    from ``np.broadcast_to``), so no ``(trials, n)`` copy is made.  The
    waits are then summed per row by :func:`_segment_sums`.
    """
    count, n = P.shape
    if not P.size:
        return np.zeros(count)
    picks = rng.geometric(1.0 / (n + 1), size=count) - 1
    idx = rng.integers(0, n, size=int(picks.sum()))
    if P.strides[0] == 0:
        overlaps = P[0].take(idx)
    else:
        idx += np.repeat(np.arange(0, count * n, n), picks)
        overlaps = P.reshape(-1).take(idx)
    total = _segment_sums(geometric_steps(overlaps, rng), picks)
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


def full_memory_ensemble_times(dist: OverlapDistribution, n: int,
                               count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` full-memory settle times, each with a fresh overlap vector.

    Composition of the ensemble law: J ~ U{0..n} concepts are held before
    the target, their overlaps are i.i.d. from ``dist`` and each is held for
    a geometric wait, so the time is the sum of J i.i.d. lifetimes with
    P(G > k) = m_k.  Draws J for every trial, then sum(J) overlaps, then
    sum(J) waits, summed per trial by :func:`_segment_sums`; n = 0 gives
    zeros.
    """
    held = rng.integers(0, n + 1, size=count)
    waits = geometric_steps(dist.sample(int(held.sum()), rng), rng)
    return _segment_sums(waits, held)


# ----------------------------------------------------------------------
# chunked runners (fresh p per trial or fixed p), deterministic under threads
# ----------------------------------------------------------------------


def _map_rows(fn, rows: int, seed: int, path: tuple, threads: int = 1,
              chunk_size: int = CHUNK_SIZE) -> np.ndarray:
    """``fn(rng, count)`` over ``rows`` rows, concatenated in chunk order.

    Chunk i covers up to ``chunk_size`` of the rows and hands ``fn`` the
    generator ``derive_rng(seed, *path, i)`` and its row count.
    """
    def chunk(i: int, lo: int, hi: int) -> np.ndarray:
        return fn(derive_rng(seed, *path, i), hi - lo)

    return np.concatenate(map_chunks(chunk, rows, threads=threads,
                                     chunk_size=chunk_size))


def _map_overlap_rows(fn, dist: Optional[OverlapDistribution], n: int,
                      rows: int, seed: int, path: tuple, threads: int = 1,
                      fixed_p: Optional[np.ndarray] = None,
                      chunk_rows: Optional[int] = None) -> np.ndarray:
    """``fn(P, rng)`` over ``rows`` overlap rows in chunks of ``chunk_rows``
    rows, ``rows_chunk(n)`` when not given.

    Each chunk's matrix ``P`` repeats ``fixed_p`` when given; otherwise it
    is drawn from ``dist`` on the chunk's stream before ``fn`` draws from it.
    """
    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        if fixed_p is not None:
            return fn(np.broadcast_to(fixed_p, (count, n)), rng)
        return fn(dist.sample(count * n, rng).reshape(count, n), rng)

    return _map_rows(chunk, rows, seed, path, threads,
                     chunk_size=chunk_rows or rows_chunk(n))


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

    With ``fixed_p`` the same vector is reused every trial and each learner
    runs its matrix sampler.  Otherwise a fresh length-n vector is drawn
    from ``dist`` per trial, and two learners are drawn from their ensemble
    laws instead: batch by :func:`batch_time_quantile`, one uniform per
    trial in chunks of ``rng.CHUNK_SIZE``, and full memory by composition
    in :func:`full_memory_ensemble_times` (J ~ U{0..n} held concepts with
    i.i.d. lifetimes).  Every other route, the composition included, runs
    in cache-sized chunks of ``rows_chunk(n, _LEARNER_BUDGET)`` rows.
    Chunk i of a learner draws from ``derive_rng(seed, <learner stream>, i)``.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    trials = count("trials", trials)
    horizon = count("horizon", horizon)
    if fixed_p is not None:
        fixed_p = _as_p(fixed_p, forbid_one=(algorithm != "memoryless"))
        n = fixed_p.size
    else:
        n = count("n", n, least=0)
    path = (_ALG_STREAM[algorithm],)
    chunk_rows = rows_chunk(n, _LEARNER_BUDGET)
    if fixed_p is None and algorithm == "batch":
        times = _map_rows(
            lambda rng, count: batch_time_quantile(dist, n, rng.random(count)),
            trials, seed, path, threads)
    elif fixed_p is None and algorithm == "full_memory":
        times = _map_rows(
            lambda rng, count: full_memory_ensemble_times(dist, n, count, rng),
            trials, seed, path, threads, chunk_size=chunk_rows)
    else:
        sampler = {"batch": batch_times,
                   "memoryless": lambda P, rng: memoryless_times(P, rng, horizon),
                   "full_memory": full_memory_times}[algorithm]
        times = _map_overlap_rows(sampler, dist, n, trials, seed, path,
                                  threads=threads, fixed_p=fixed_p,
                                  chunk_rows=chunk_rows)
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
        raise ConfigError("delta must lie in (0, 1)")
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
