"""Monte Carlo simulators for the three learning algorithms.

* batch: the student intersects per-word concept lists; learned at the first
  step k0 where only the target remains.  Under independence k0 is the max
  of per-concept geometric lifetimes, so the production sampler draws
  geometrics by inversion instead of replaying words.  A word-level
  reference simulator is kept for oracle tests.
* memoryless: hold a uniformly random concept until a word contradicts it
  (probability 1 - p_i per word), then re-pick uniformly over all n+1
  concepts (policy switch: optionally exclude the concept just rejected).
  The settle time is the index of the re-pick that lands on the target,
  0 if the initial pick is already correct; runs are censored at a horizon.
* full memory: like memoryless, but rejected concepts are never revisited,
  so the run terminates surely.

Bulk runners are vectorized samplers with the same law as the single-trial
loops (tested against them) and derive per-chunk streams from a master
seed, so results are reproducible and independent of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .batch_exact import _as_p
from .distributions import OverlapDistribution
from .errors import CensoringError, DivergenceError
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
    fixed_p: Optional[np.ndarray] = field(default=None, repr=False)

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
    """Per-concept lifetimes: G_i on {1,2,...} with P(G > k) = p_i**k."""
    u = 1.0 - rng.random(p.shape)              # (0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.ceil(np.log(u) / np.log(p))
    g = np.where(p == 0.0, 1.0, g)
    return np.maximum(g, 1.0)


def simulate_batch(p, rng: np.random.Generator) -> int:
    """One batch-learner trial: k0 = max_i G_i; 0 for the empty vector."""
    arr = _as_p(p)
    if arr.size == 0:
        return 0
    return int(geometric_steps(arr, rng).max())


def simulate_batch_bulk(p, trials: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` batch trials over one fixed overlap vector."""
    arr = _as_p(p)
    if arr.size == 0:
        return np.zeros(trials)
    out = np.empty(trials)
    step = max(1, int(4e6) // max(arr.size, 1))
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        tiled = np.broadcast_to(arr, (hi - lo, arr.size))
        out[lo:hi] = geometric_steps(tiled, rng).max(axis=1)
    return out


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


# ----------------------------------------------------------------------
# memoryless learner and learning with full memory
# ----------------------------------------------------------------------


def simulate_memoryless(p, rng: np.random.Generator,
                        horizon: int = DEFAULT_HORIZON,
                        exclude_current: bool = False) -> Optional[int]:
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
        if exclude_current:
            r = int(rng.integers(0, n))
            current = r if r < current else r + 1
        else:
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


def memoryless_settle_bulk(p, trials: int, rng: np.random.Generator,
                           horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """Vectorized memoryless settle times (include-current re-pick policy).

    Law-equivalent composition: the number of wrong holds is geometric on
    {0,1,...} with success 1/(n+1); each hold lasts Geom(1 - p_I) words with
    I uniform over wrong concepts.  Censoring (settle > horizon) matches the
    word-level loop exactly.  Returns float64 with inf for censored trials.
    """
    arr = _as_p(p, forbid_one=False)
    n = arr.size
    if n == 0:
        return np.zeros(trials)
    picks = rng.geometric(1.0 / (n + 1), size=trials) - 1
    total = np.zeros(trials)
    flat = int(picks.sum())
    if flat:
        holder = np.repeat(np.arange(trials), picks)
        idx = rng.integers(0, n, size=flat)
        waits = geometric_steps(arr[idx], rng)
        np.add.at(total, holder, waits)
    return np.where(total > horizon, np.inf, total)


def full_memory_settle_bulk(p, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized full-memory settle times over one fixed vector.

    A concept is held before the target exactly when its uniform rank
    variable falls below the target's; waits are independent geometrics.
    """
    arr = _as_p(p)
    n = arr.size
    if n == 0:
        return np.zeros(trials)
    out = np.empty(trials)
    step = max(1, int(4e6) // max(n + 1, 1))
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        v = rng.random((hi - lo, n + 1))
        before = v[:, 1:] < v[:, :1]
        waits = geometric_steps(np.broadcast_to(arr, (hi - lo, n)), rng)
        out[lo:hi] = (waits * before).sum(axis=1)
    return out


# ----------------------------------------------------------------------
# batch runners (fresh p per trial or fixed p), deterministic under threads
# ----------------------------------------------------------------------


def run_trials(
    algorithm: str,
    dist: OverlapDistribution,
    n: int,
    trials: int,
    seed: int,
    fixed_p: Optional[np.ndarray] = None,
    horizon: int = DEFAULT_HORIZON,
    threads: int = 1,
    exclude_current: bool = False,
) -> TrialBatch:
    """Run ``trials`` independent trials and collect a :class:`TrialBatch`.

    With ``fixed_p`` the same vector is reused every trial; otherwise a
    fresh length-n vector is drawn from ``dist`` per trial.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if fixed_p is not None:
        fixed_p = _as_p(fixed_p, forbid_one=(algorithm != "memoryless"))
        n = fixed_p.size
    stream = _ALG_STREAM[algorithm]

    def chunk(i: int, lo: int, hi: int) -> np.ndarray:
        rng = derive_rng(seed, stream, i)
        count = hi - lo
        if fixed_p is not None:
            return _fixed_p_chunk(algorithm, fixed_p, count, rng, horizon,
                                  exclude_current)
        return _fresh_p_chunk(algorithm, dist, n, count, rng, horizon,
                              exclude_current)

    times = np.concatenate(map_chunks(chunk, trials, threads=threads,
                                      chunk_size=rows_chunk(max(n, 1))))
    return TrialBatch(algorithm=algorithm, n=n, times=times, seed=seed,
                      dist_spec=dist.spec if dist is not None else "fixed",
                      resample_p=fixed_p is None,
                      horizon=horizon if algorithm == "memoryless" else None,
                      fixed_p=fixed_p)


def _fixed_p_chunk(algorithm, p, count, rng, horizon, exclude_current):
    if algorithm == "batch":
        return simulate_batch_bulk(p, count, rng)
    if algorithm == "memoryless":
        if exclude_current:
            out = np.empty(count)
            for i in range(count):
                t = simulate_memoryless(p, rng, horizon, True)
                out[i] = np.inf if t is None else t
            return out
        return memoryless_settle_bulk(p, count, rng, horizon)
    return full_memory_settle_bulk(p, count, rng)


def _fresh_p_chunk(algorithm, dist, n, count, rng, horizon, exclude_current):
    if n == 0:
        return np.zeros(count)
    P = dist.sample(count * n, rng).reshape(count, n)
    if algorithm == "batch":
        return geometric_steps(P, rng).max(axis=1)
    if algorithm == "memoryless":
        if exclude_current:
            out = np.empty(count)
            for i in range(count):
                t = simulate_memoryless(P[i], rng, horizon, True)
                out[i] = np.inf if t is None else t
            return out
        picks = rng.geometric(1.0 / (n + 1), size=count) - 1
        total = np.zeros(count)
        flat = int(picks.sum())
        if flat:
            holder = np.repeat(np.arange(count), picks)
            idx = rng.integers(0, n, size=flat)
            waits = geometric_steps(P[holder, idx], rng)
            np.add.at(total, holder, waits)
        return np.where(total > horizon, np.inf, total)
    v = rng.random((count, n + 1))
    before = v[:, 1:] < v[:, :1]
    waits = geometric_steps(P, rng)
    return (waits * before).sum(axis=1)


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
