"""The three benchmark workloads: their inputs, their passes and their checks.

A workload is built from the run's seed.  One pass calls the same program
operations on the same inputs, in order, each waiting for the previous one,
at a given ``threads``.  ``check`` compares the outputs of one pass with the
independent computations in :mod:`reference`; the other passes of a run must
reproduce that pass's outputs exactly, at either thread count.

Each check returns ``None`` (correct), ``FAILED`` (a known fault of the
program on an input that does not depend on the seed; counted in ``failed``)
or a string saying what is wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
from scipy.special import zeta as riemann_zeta

import reference as ref
from batchlab import batch_exact, cli, distributions, ensemble, harness, moment_zeta
from batchlab.rng import STREAM_ENSEMBLE, derive_rng

FAILED = "failed"

#: Confidence level of the order-statistic intervals of the exact batch law
#: and of the word-level comparison; with tens of checks on each of ~100
#: seeds a false alarm stays below 1e-4.
ALPHA = 1e-7
#: Standard errors allowed between a Monte Carlo mean and its exact value.
#: Five, not four: a run makes about ten such checks, and at four a run
#: would fail on about one seed in 1500 with a correct program.
MEAN_SIGMAS = 5.0
#: Relative accuracy the per-vector evaluators claim (batch_exact docstring).
PER_VECTOR_RTOL = 3e-5
#: Rounding allowed on top of a certified error bound.
ROUNDING = 1e-12


def _seeds(seed: int, count: int) -> list[int]:
    """``count`` program seeds derived from the run seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(
        count, dtype=np.uint64) >> np.uint64(1)]


def fingerprint(value) -> str:
    """Exact text form of an operation's output, for pass-to-pass equality."""
    def plain(v):
        if hasattr(v, "result_fields"):
            return plain(v.result_fields())
        if dataclasses.is_dataclass(v):
            return plain(dataclasses.asdict(v))
        if hasattr(v, "_asdict"):
            return plain(v._asdict())
        if isinstance(v, dict):
            return {str(k): plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, np.ndarray):
            return plain(v.tolist())
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        return v
    return json.dumps(plain(value), sort_keys=True)


def _law(beta: float):
    """The overlap law with density (1+beta)(1-x)**beta; uniform at beta = 0."""
    return distributions.uniform() if beta == 0.0 else distributions.power_tail(beta)


def _within(value: float, target: float, bound: float) -> bool:
    return abs(value - target) <= bound + ROUNDING * max(1.0, abs(target))


@dataclasses.dataclass(frozen=True)
class Raised:
    """Stands in for the output of an operation that raised."""

    error: str


class Workload:
    """Operations of one workload; subclasses fill ``ops`` and define ``check_op``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[tuple[str, callable]] = []

    def warm_up(self) -> None:
        """One small call that pays the first-use costs of the layers."""

    def run_pass(self, threads: int) -> list:
        outputs = []
        for _, fn in self.ops:
            try:
                outputs.append(fn(threads))
            except Exception as exc:      # reported as a wrong output, run goes on
                outputs.append(Raised(repr(exc)))
        return outputs

    def check(self, outputs: list) -> list:
        """One verdict per operation, in the order of ``ops``."""
        return [f"raised {out.error}" if isinstance(out, Raised)
                else self.check_op(name, out)
                for (name, _), out in zip(self.ops, outputs)]

    def check_op(self, name: str, out):
        raise NotImplementedError


# ----------------------------------------------------------------------
# mc_sweep
# ----------------------------------------------------------------------


class McSweep(Workload):
    """Batch Monte Carlo and overlap sampling over growing (trials, n) matrices,
    then the three learners' N_delta.

    run_scaling's mc_median sweeps n = 100 .. 1e5; at n = 1e5 one chunk is
    41 x 1e5 floats (32 MB), so 100 trials make three chunks and threads=2
    has work to share.  extreme_value samples n = 100 .. 1e4.  The
    compare_algorithms operations come from :class:`Learners`.
    """

    name = "mc_sweep"
    SCALING = (("uniform", 0.0, 1.0, 0.15), ("powertail:beta=-0.5", -0.5, 2.0, 0.2))
    SCALING_TRIALS = 100
    EXTREME = (("uniform", 0.0), ("powertail:beta=1", 1.0))
    EXTREME_N = (100, 316, 1000, 3162, 10000)
    EXTREME_TRIALS = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        seeds = _seeds(seed, 8)
        for (spec, *_), s in zip(self.SCALING, seeds):
            self.ops.append((f"run_scaling[{spec}]", self._scaling(spec, s)))
        for (spec, _), s in zip(self.EXTREME, seeds[2:]):
            self.ops.append((f"extreme_value[{spec}]", self._extreme(spec, s)))
        self.params = {name: p for (name, _), p in
                       zip(self.ops, list(self.SCALING) + list(self.EXTREME))}
        self.learners = Learners(seeds[4:])
        self.ops += self.learners.ops

    def _scaling(self, spec, s):
        def op(threads):
            return harness.run_scaling(harness.RunConfig(
                command="scaling", dist=spec, n_sweep=ref.SWEEP,
                trials=self.SCALING_TRIALS, seed=s, method="mc_median",
                threads=threads))
        return op

    def _extreme(self, spec, s):
        dist = distributions.parse_dist(spec)

        def op(threads):
            return ensemble.extreme_value(dist, self.EXTREME_N,
                                          self.EXTREME_TRIALS, s, threads=threads)
        return op

    def warm_up(self):
        harness.run_scaling(harness.RunConfig(
            command="scaling", dist="uniform", n_sweep=(10, 30, 100, 1000),
            trials=5, seed=self.seed, method="mc_median"))
        self.learners.warm_up(self.seed)

    def check_op(self, name, out):
        if name.startswith("compare"):
            return self.learners.check_op(name, out)
        if name.startswith("run_scaling"):
            _, beta, exponent, tol = self.params[name]
            for n, (median, _) in zip(out.n_values, out.estimates):
                lo, hi = ref.median_interval(
                    lambda k, n=n: ref.batch_time_cdf(beta, n, k),
                    self.SCALING_TRIALS, ALPHA)
                if not lo <= median <= hi:
                    return (f"n={n}: median {median} outside the exact law's "
                            f"interval [{lo}, {hi}]")
            if abs(out.fitted_exponent - exponent) > tol:
                return f"exponent {out.fitted_exponent:.4f} not {exponent} +/- {tol}"
            lo, hi = out.exponent_ci
            if not lo <= out.fitted_exponent <= hi:
                return "exponent outside its own confidence interval"
            return None
        _, beta = self.params[name]
        for n, mean, err in zip(out.n_values, out.mean_min_q, out.stderr):
            exact = ref.mean_min_gap(beta, n)
            if abs(mean - exact) > MEAN_SIGMAS * err:
                return (f"n={n}: mean min gap {mean:.6g} vs exact {exact:.6g}, "
                        f"more than {MEAN_SIGMAS} stderr {err:.3g}")
        slope = -1.0 / (1.0 + beta)
        if abs(out.fitted_slope - slope) > 0.05:
            return f"slope {out.fitted_slope:.4f} not {slope} +/- 0.05"
        return None


# ----------------------------------------------------------------------
# learners (part of mc_sweep)
# ----------------------------------------------------------------------


class Learners:
    """The three learners' N_delta through compare_algorithms; part of mc_sweep.

    The memoryless and full-memory samplers do most of the work; the batch
    sampler is the share an optimisation of the batch learner alone moves.
    Every sample fits one chunk, so threads=2 is predicted to change nothing.
    """

    DISTS = (("uniform", 0.0), ("powertail:beta=1", 1.0))
    N_SWEEP = (30, 100, 300, 1000)
    DELTA = 0.1
    TRIALS = 2000
    #: Word-level reference: trials and the word cap (about 8x the largest
    #: N_delta it is compared with at n = 30).
    WORD_TRIALS = 10000
    WORD_CAP = 5000

    def __init__(self, seeds: list[int]):
        """``seeds``: a program seed for each law, then a reference seed for each."""
        self.ops = []
        self.reference_seeds = seeds[len(self.DISTS):]
        for (spec, _), s in zip(self.DISTS, seeds):
            self.ops.append((f"compare[{spec}]", self._compare(spec, s)))

    def _compare(self, spec, s):
        def op(threads):
            return harness.compare_algorithms(harness.RunConfig(
                command="compare", dist=spec, n_sweep=self.N_SWEEP,
                delta=self.DELTA, trials=self.TRIALS, seed=s, threads=threads))
        return op

    @staticmethod
    def warm_up(seed):
        harness.compare_algorithms(harness.RunConfig(
            command="compare", dist="uniform", n=10, delta=0.1, trials=50,
            seed=seed))

    def check_op(self, name, out):
        i = [op for op, _ in self.ops].index(name)
        _, beta = self.DISTS[i]
        j = ref.quantile_index(self.DELTA, self.TRIALS)
        if out.violations:
            return f"ordering violations {out.violations}"
        for col, n in enumerate(out.n_values):
            batch = out.n_delta["batch"][col]
            lo, hi = ref.order_stat_interval(
                lambda k, n=n: ref.batch_time_cdf(beta, n, k),
                self.TRIALS, j, j, ALPHA)
            if not lo <= batch <= hi:
                return (f"n={n}: batch N_delta {batch} outside the exact law's "
                        f"interval [{lo}, {hi}]")
            if batch > out.n_delta["memoryless"][col]:
                return f"n={n}: batch N_delta above memoryless for beta >= 0"
        rng = np.random.default_rng(self.reference_seeds[i])
        for learner in ("memoryless", "full_memory"):
            words = ref.word_level_times(learner, beta, self.N_SWEEP[0],
                                         self.WORD_TRIALS, rng, self.WORD_CAP)
            value = out.n_delta[learner][0]
            if not ref.quantile_consistent(value, words, self.TRIALS, j, ALPHA):
                word_q = np.quantile(words, 1.0 - self.DELTA)
                return (f"n={self.N_SWEEP[0]}: {learner} N_delta {value} vs "
                        f"word-level quantile {word_q}")
        return None


# ----------------------------------------------------------------------
# per_vector
# ----------------------------------------------------------------------


class PerVector(Workload):
    """The per-vector expected-time evaluator on both of its routes.

    regime_window_check at n = 1000: beta = 1 steps k by k in bulk,
    beta = 0 sends nearly every row to expected_time_fast as a straggler,
    beta = -0.5 calls expected_time_fast row by row.  The short rows are
    the coarse-sandwich shape: 6 overlaps below 0.999 per row.
    """

    name = "per_vector"
    BETAS = (1.0, 0.0, -0.5)
    N = 1000
    TRIALS = 40
    SHORT_ROWS = 2000
    SHORT_N = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        seeds = _seeds(seed, len(self.BETAS) + 1)
        self.regime_seeds = dict(zip(self.BETAS, seeds))
        for beta in self.BETAS:
            self.ops.append((f"regime_window_check[beta={beta:g}]",
                             self._regime(beta)))
        rng = np.random.default_rng(seeds[-1])
        self.short = rng.random((self.SHORT_ROWS, self.SHORT_N)) * 0.999
        self.ops.append(("expected_time_bulk[short rows]",
                         lambda threads: batch_exact.expected_time_bulk(self.short)))

    def _regime(self, beta):
        dist = distributions.power_tail(beta)

        def op(threads):
            return ensemble.regime_window_check(dist, self.N, self.TRIALS,
                                                self.regime_seeds[beta],
                                                threads=threads)
        return op

    def warm_up(self):
        batch_exact.expected_time_bulk(self.short[:8])
        batch_exact.expected_time_fast(self.short[0])

    def check_op(self, name, out):
        if name.startswith("expected_time_bulk"):
            rng = np.random.default_rng(self.seed)
            by_gap = np.argsort(self.short.max(axis=1))
            sampled = np.concatenate([rng.choice(self.SHORT_ROWS, 4, replace=False),
                                      by_gap[-4:]])
            return self._rows(self.short, out + 1.0, sampled)
        beta = float(name.split("=")[1].rstrip("]"))
        # Rebuild the sampled vectors: one chunk of the documented stream
        # (seed, STREAM_ENSEMBLE, 2, chunk); the per-row values come from the
        # public evaluators and are checked row by row below.
        dist = distributions.power_tail(beta)
        P = dist.sample(self.TRIALS * self.N,
                        derive_rng(self.regime_seeds[beta], STREAM_ENSEMBLE, 2, 0)
                        ).reshape(self.TRIALS, self.N)
        if beta < 0.0:
            t = np.asarray([batch_exact.expected_time_fast(r).steps_expectation
                            for r in P])
        else:
            t = batch_exact.expected_time_bulk(P) + 1.0
        q005, med, q995 = np.quantile(t, [0.005, 0.5, 0.995])
        for label, got, want in (("q005", out.q005, q005), ("median", out.median_t, med),
                                 ("q995", out.q995, q995)):
            if not math.isclose(got, want, rel_tol=1e-12):
                return f"report {label} {got} differs from its rows' {want}"
        within = float(((t >= out.window_low) & (t <= out.window_high)).mean())
        if within != out.fraction_within:
            return f"fraction_within {out.fraction_within} vs rows' {within}"
        typical = np.argsort(P.max(axis=1))[self.TRIALS // 2]
        return self._rows(P, t, [typical])

    @staticmethod
    def _rows(P, steps, sampled):
        """Sandwich on every row, direct k-by-k sum on the sampled rows."""
        for row, s in zip(P, steps):
            lower, upper = ref.coarse_bounds(row)
            if not (lower * (1.0 - PER_VECTOR_RTOL) <= s <= upper * (1.0 + PER_VECTOR_RTOL)):
                return f"T+1 = {s} outside [{lower}, {upper}]"
        for r in sampled:
            direct = ref.direct_expected_time(P[r]) + 1.0
            if not math.isclose(steps[r], direct, rel_tol=PER_VECTOR_RTOL):
                return f"row {r}: T+1 = {steps[r]} vs direct sum {direct}"
        return None


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------


class Series(Workload):
    """Certified deterministic series: zeta_F, the moment series, the alpha = 1
    split, the zeta expectation identity and the README's exact CLI commands.

    No sampling except verify_zeta_expectation (2e5 trials, four chunks).
    Three operations fail on every run, on inputs that do not depend on the
    seed: for non-integer beta the certified tail bracket collapses to zero
    width (see KEPT_FAILURES).
    """

    name = "series"
    ZETA_EPS = 1e-9
    SERIES_EPS = 1e-6
    VERIFY_N = 3
    VERIFY_TRIALS = 200_000
    #: Operations whose error_bound comes back as 0.0 although the true
    #: error is not 0: moment_zeta._tail_bracket and
    #: ensemble._series_tail_bracket take min(lower, upper) once the
    #: gammaln-difference moments push m_K * K**alpha above c.
    KEPT_FAILURES = ("zeta[beta=-0.5,s=2.5]",
                     "moment_series[beta=0.5,n=31623]",
                     "moment_series[beta=0.5,n=100000]")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.refs = ref.load_references()
        self.verify_seed, self.cli_seed = _seeds(seed, 2)
        for beta, s in ref.ZETA_CASES:
            self.ops.append((f"zeta[beta={beta:g},s={s:g}]", self._zeta(beta, s)))
        for beta in ref.MOMENT_SERIES_BETAS:
            for n in ref.SWEEP:
                self.ops.append((f"moment_series[beta={beta:g},n={n}]",
                                 self._series(beta, n)))
        for n, eps in ref.ALPHA1_CASES:
            self.ops.append((f"alpha1[n={n}]", lambda threads, n=n, eps=eps:
                             ensemble.alpha1_decomposition(distributions.uniform(),
                                                           n, eps=eps)))
        self.ops.append(("verify_zeta_expectation", lambda threads:
                         moment_zeta.verify_zeta_expectation(
                             distributions.uniform(), self.VERIFY_N,
                             self.VERIFY_TRIALS, self.verify_seed, threads=threads)))
        for argv in (["zeta", "--dist", "uniform", "--s", "2", "--eps", "1e-9"],
                     ["exact-time", "--p", "0.5,0.5"],
                     ["ndelta", "--p", "0.9", "--delta", "0.01"],
                     ["ensemble", "--dist", "powertail:beta=1", "--n", "1000",
                      "--method", "moment_series", "--format", "json"]):
            self.ops.append((f"cli[{argv[0]}]", self._cli(argv)))

    def _zeta(self, beta, s):
        dist = _law(beta)
        return lambda threads: moment_zeta.zeta(dist, s, eps=self.ZETA_EPS)

    def _series(self, beta, n):
        dist = distributions.power_tail(beta)
        return lambda threads: ensemble.expected_time_moment_series(
            dist, n, eps=self.SERIES_EPS)

    def _cli(self, argv):
        def op(threads):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + ["--threads", str(threads),
                                        "--seed", str(self.cli_seed)])
            payload = json.loads(buf.getvalue()) if code == 0 else None
            for row in (payload or {}).get("rows", ()):
                row.pop("runtime_seconds")         # wall clock, volatile
            return {"exit_code": code, "output": payload}
        return op

    def warm_up(self):
        moment_zeta.zeta(distributions.uniform(), 2.0, eps=1e-6)

    def _certified(self, name, value, bound, key):
        """Value within its own bound of the mpmath reference."""
        target = self.refs[key]
        if bound > 0.0 and _within(value, target, bound):
            return None
        if name in self.KEPT_FAILURES and math.isclose(value, target, rel_tol=1e-6):
            return FAILED
        return (f"value {value!r} with error_bound {bound!r}; reference "
                f"{target!r} is off by {abs(value - target):.3g}")

    def check_op(self, name, out):
        if name.startswith("zeta["):
            beta, s = (float(x.split("=")[1]) for x in name[5:-1].split(","))
            if beta == 0.0 and not _within(out.value, riemann_zeta(s) - 1.0,
                                           out.error_bound):
                return f"zeta_F({s}) = {out.value!r} vs Riemann zeta(s) - 1"
            if s == 1.0 and not _within(out.value, 1.0 / beta, out.error_bound):
                return f"zeta_F(1) = {out.value!r} vs 1/beta"
            return self._certified(name, out.value, out.error_bound,
                                   ref.series_key("zeta", beta, s))
        if name.startswith("moment_series"):
            beta, n = (float(x.split("=")[1]) for x in name[14:-1].split(","))
            return self._certified(name, out.value, out.error_bound,
                                   ref.series_key("moment_series", beta, n))
        if name.startswith("alpha1"):
            n = int(name[9:-1])
            if n == 2 and not _within(out.t2, -(math.pi ** 2 / 6.0 - 1.0),
                                      out.error_bound):
                return f"T2(n=2) = {out.t2!r} vs -(pi^2/6 - 1)"
            if abs(out.c - 1.0) > 1e-6:
                return f"tail constant {out.c!r}, uniform law has c = 1"
            return self._certified(name, out.t2, out.error_bound,
                                   ref.series_key("alpha1", 0.0, n))
        if name == "verify_zeta_expectation":
            exact = riemann_zeta(float(self.VERIFY_N)) - 1.0
            if not _within(out.zeta_value, exact, self.ZETA_EPS):
                return f"zeta_value {out.zeta_value!r} vs {exact!r}"
            if not out.variance_finite:
                return "variance reported infinite at n * alpha = 3"
            if abs(out.mc_estimate - exact) > MEAN_SIGMAS * out.stderr:
                return (f"mc {out.mc_estimate:.6g} vs {exact:.6g}: more than "
                        f"{MEAN_SIGMAS} stderr {out.stderr:.3g}")
            return None
        return self._check_cli(name, out)

    def _check_cli(self, name, out):
        if out["exit_code"] != 0:
            return f"exit code {out['exit_code']}"
        got = out["output"]
        if name == "cli[zeta]":
            if got["error_bound"] <= 0.0:
                return "error_bound 0"
            if not _within(got["value"], math.pi ** 2 / 6.0 - 1.0, got["error_bound"]):
                return f"zeta_F(2) = {got['value']!r} vs pi^2/6 - 1"
            return None
        if name == "cli[exact-time]":
            if not (_within(got["t"], 5.0 / 3.0, 0.0)
                    and _within(got["steps_expectation"], 8.0 / 3.0, 0.0)):
                return f"t = {got['t']!r}, want 5/3"
            return None
        if name == "cli[ndelta]":
            want = math.ceil(math.log(0.01) / math.log(0.9))
            return None if got["n_delta"] == want else f"n_delta {got['n_delta']} != {want}"
        row, = got["rows"]
        return self._certified(name, row["value"], row["error"],
                               ref.series_key("moment_series", 1.0, 1000))


WORKLOADS = {w.name: w for w in (McSweep, PerVector, Series)}
