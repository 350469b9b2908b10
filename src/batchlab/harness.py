"""Experiment orchestration: n-sweeps, exponent fits, algorithm comparison.

A :class:`RunConfig` captures one experiment (flat key=value file format,
CLI flags override file values).  ``run_scaling`` estimates the learning
time at each n (moment series when the expectation exists, Monte Carlo
median of simulated learning times otherwise), fits a log-log exponent with
a bootstrap/jackknife confidence interval, and packages a
:class:`ScalingReport`.  ``compare_algorithms`` tabulates empirical
N_delta for the three learners under shared-master-seed discipline.

Serialization: :func:`emit` writes CSV or JSON with losslessly rendered
floats (shortest round-trip form); :func:`parse_report` inverts it.  All
result fields are byte-reproducible from (config, seed); wall-clock
``runtime_seconds`` is the one declared-volatile field.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import OverlapDistribution, parse_dist
from .ensemble import METHODS, expected_time_moment_series
from .errors import ConfigError
from .rng import STREAM_SCALING, derive_rng
from .simulators import (ALGORITHMS, DEFAULT_HORIZON, _median_ci_halfwidth,
                         empirical_n_delta, run_trials)

SCHEMA_SCALING = "batchlab/scaling-report/v1"
SCHEMA_COMPARISON = "batchlab/comparison-table/v1"

_BOOTSTRAP_RESAMPLES = 200


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

_INT_FIELDS = {"n", "trials", "seed", "threads", "horizon"}
_FLOAT_FIELDS = {"delta", "eps", "s"}
_BOOL_FIELDS = {"dump"}


@dataclass
class RunConfig:
    """One experiment configuration; validates before execution.

    Field coverage varies by command; ``validate`` enforces what the chosen
    command needs.  Round-trips losslessly through the flat key=value file
    format (:meth:`to_text` / :meth:`from_text`).
    """

    command: str = ""
    dist: str = "uniform"
    n: Optional[int] = None
    n_sweep: tuple = ()
    trials: int = 1000
    delta: float = 0.1
    eps: float = 1e-6
    s: Optional[float] = None
    p: tuple = ()
    seed: int = 0
    threads: int = 1
    method: Optional[str] = None
    algorithm: Optional[str] = None
    horizon: int = DEFAULT_HORIZON
    out: Optional[str] = None
    format: Optional[str] = None
    dump: bool = False

    def distribution(self) -> OverlapDistribution:
        try:
            return parse_dist(self.dist)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def validate(self) -> "RunConfig":
        if self.format not in (None, "csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError("eps must be positive and finite")
        if self.s is not None and not math.isfinite(self.s):
            raise ConfigError("s must be finite")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a nonnegative 64-bit integer")
        dist = self.distribution()
        if any(not 0.0 <= x <= 1.0 for x in self.p):
            raise ConfigError("p entries must lie in [0, 1]")
        needed = {"zeta": "s", "exact-time": "p", "ndelta": "p", "ensemble": "n",
                  "extremes": "n_sweep", "simulate": "algorithm"}.get(self.command)
        if needed and getattr(self, needed) in (None, ()):
            flag = {"n_sweep": "n-sweep", "algorithm": "alg"}.get(needed, needed)
            raise ConfigError(f"{self.command} requires --{flag}")
        if self.command == "simulate" and self.n is None and not self.p:
            raise ConfigError("simulate requires --n (or --fixed-p)")
        written = {"zeta": "json", "exact-time": "json", "ndelta": "json",
                   "simulate": "csv" if self.dump else "json"}.get(self.command)
        if written and self.format not in (None, written):
            raise ConfigError(f"format must be {written} for {self.command}"
                              f"{' --dump' if self.dump else ''}, got {self.format}")
        if self.command == "simulate" and self.algorithm not in (None, *ALGORITHMS):
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, "
                              f"got {self.algorithm!r}")
        if self.command in ("simulate", "ensemble", "extremes", "scaling", "compare"):
            least = 0 if self.command == "simulate" else 1
            if self.n is not None and self.n < least:
                raise ConfigError(f"n must be >= {least}")
            if any(v < least for v in self.n_sweep):
                raise ConfigError(f"n-sweep entries must be >= {least}")
        if self.command == "ensemble" and self.method not in (None, *METHODS):
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.command == "ensemble" and self.method == "zeta_sum" and (self.n or 0) > 30:
            raise ConfigError("n must be <= 30 for method zeta_sum; use moment_series")
        if self.command == "extremes" and self.trials < 2:
            raise ConfigError("trials must be >= 2 for extremes")
        if self.command == "extremes" and not dist.has_power_tail:
            raise ConfigError(f"dist must have a power tail for extremes, got {self.dist}")
        if self.command == "scaling":
            ns = tuple(self.n_sweep)
            if len(ns) < 4:
                raise ConfigError("scaling needs an n-sweep of >= 4 values")
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise ConfigError("n-sweep must be strictly increasing")
            if ns[-1] < 100 * ns[0]:
                raise ConfigError("n-sweep must span at least two decades")
        if self.command == "compare" and not self.n_sweep and self.n is None:
            raise ConfigError("compare needs --n or --n-sweep")
        return self

    # -- flat key=value serialization --------------------------------

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None or v == () or v == "":
                continue
            if isinstance(v, tuple):
                v = ",".join(_fmt(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = _fmt(v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        kwargs = {}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {ln}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key not in {f.name for f in dataclasses.fields(cls)}:
                raise ConfigError(f"config line {ln}: unknown key {key!r}")
            kwargs[key] = _coerce(key, value)
        return cls(**kwargs)

    def merged(self, overrides: dict) -> "RunConfig":
        """New config with non-None override values applied."""
        out = dataclasses.replace(self)
        for key, value in overrides.items():
            if value is not None:
                setattr(out, key, value)
        return out


def _coerce(key: str, value: str):
    try:
        if key in _INT_FIELDS:
            return int(value)
        if key in _FLOAT_FIELDS:
            return float(value)
        if key in _BOOL_FIELDS:
            return value.lower() in ("1", "true", "yes")
        if key == "n_sweep":
            return tuple(int(x) for x in value.split(",") if x)
        if key == "p":
            return tuple(float(x) for x in value.split(",") if x)
    except ValueError:
        raise ConfigError(f"bad value {value!r} for config key {key!r}") from None
    return value


def _fmt(x) -> str:
    """Lossless short float rendering (round-trips via float())."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ----------------------------------------------------------------------
# log-log exponent fitting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LogLogFit:
    exponent: float
    intercept: float
    rmse: float
    discarded: tuple     # n values dropped as pre-asymptotic transient


def fit_loglog(n_values: Sequence[float], values: Sequence[float]) -> LogLogFit:
    """OLS fit of log(value) on log(n).

    The smallest n point is discarded (and reported) when its leave-one-out
    residual exceeds 3x the RMSE of the fit without it: the scaling laws
    under test are asymptotic and a pre-asymptotic transient at the low end
    is expected, never hidden.
    """
    n_values = np.asarray(n_values, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if n_values.size != values.size or n_values.size < 3:
        raise ValueError("need >= 3 matched (n, value) points")
    if np.any(values <= 0.0) or np.any(n_values <= 0.0):
        raise ValueError("log-log fit needs positive data")
    x, y = np.log(n_values), np.log(values)

    def ols(xi, yi):
        slope, inter = np.polyfit(xi, yi, 1)
        resid = yi - (slope * xi + inter)
        dof = max(len(xi) - 2, 1)
        return slope, inter, math.sqrt(float(resid @ resid) / dof)

    slope, inter, rmse = ols(x, y)
    discarded = ()
    if n_values.size >= 4:
        s2, i2, rmse2 = ols(x[1:], y[1:])
        loo_resid = abs(y[0] - (s2 * x[0] + i2))
        if rmse2 > 0.0 and loo_resid > 3.0 * rmse2:
            slope, inter, rmse = s2, i2, rmse2
            discarded = (float(n_values[0]),)
    return LogLogFit(float(slope), float(inter), float(rmse), discarded)


# ----------------------------------------------------------------------
# scaling sweeps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    """Sweep estimates and the fitted log-log exponent with its CI."""

    dist: str
    method: str
    n_values: tuple
    estimates: tuple          # (value, error) pairs, error may be None
    fitted_exponent: float
    exponent_ci: tuple        # (lo, hi), contains fitted_exponent
    runtime_seconds: tuple    # per point; wall clock, volatile
    discarded: tuple
    trials: int
    seed: int

    def result_fields(self) -> dict:
        """Everything except wall-clock runtimes (the byte-stable content)."""
        d = _plain_dict(self)
        d.pop("runtime_seconds")
        return d


def run_scaling(config: RunConfig) -> ScalingReport:
    """Estimate T across the n-sweep and fit the scaling exponent.

    method = ``moment_series`` (alpha > 1 expectation) or ``mc_median``
    (median of simulated per-trial learning times; the statistic of choice
    when E[T] does not exist).  Default: moment_series when defined.
    """
    config = dataclasses.replace(config, command="scaling").validate()
    dist = config.distribution()
    alpha = dist.tail_parameters()[0] if dist.has_power_tail else None
    method = config.method
    if method in (None, "auto"):
        method = "moment_series" if (alpha is not None and alpha > 1.0) else "mc_median"
    if method not in ("moment_series", "mc_median"):
        raise ConfigError(f"scaling method must be moment_series or mc_median, "
                          f"got {method!r}")

    values, errors, runtimes, samples = [], [], [], []
    for idx, n in enumerate(config.n_sweep):
        t0 = time.perf_counter()
        if method == "moment_series":
            r = expected_time_moment_series(dist, int(n), eps=config.eps)
            values.append(r.value)
            errors.append(r.error_bound)
            samples.append(None)
        else:
            batch = run_trials("batch", dist, int(n), config.trials,
                               config.seed, threads=config.threads)
            times = batch.times
            values.append(float(np.median(times)))
            errors.append(_median_ci_halfwidth(times))
            samples.append(times)
        runtimes.append(time.perf_counter() - t0)

    fit = fit_loglog(config.n_sweep, values)
    if method == "mc_median":
        ci = _bootstrap_exponent_ci(config, samples, values, fit)
    else:
        ci = _jackknife_exponent_ci(config.n_sweep, values, fit)
    return ScalingReport(
        dist=config.dist, method=method, n_values=tuple(int(v) for v in config.n_sweep),
        estimates=tuple((float(v), None if e is None else float(e))
                        for v, e in zip(values, errors)),
        fitted_exponent=fit.exponent, exponent_ci=ci,
        runtime_seconds=tuple(runtimes), discarded=fit.discarded,
        trials=config.trials, seed=config.seed)


def _bootstrap_exponent_ci(config, samples, values, fit) -> tuple:
    """Percentile CI over per-point trial resamples (200 bootstrap fits)."""
    rng = derive_rng(config.seed, STREAM_SCALING, 0)
    keep = [i for i, n in enumerate(config.n_sweep)
            if float(n) not in fit.discarded]
    ns = [config.n_sweep[i] for i in keep]
    exps = []
    for _ in range(_BOOTSTRAP_RESAMPLES):
        vals = []
        for i in keep:
            t = samples[i]
            vals.append(float(np.median(t[rng.integers(0, t.size, t.size)])))
        exps.append(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    lo, hi = np.quantile(exps, [0.025, 0.975])
    return (float(min(lo, fit.exponent)), float(max(hi, fit.exponent)))


def _jackknife_exponent_ci(n_values, values, fit) -> tuple:
    """Leave-one-out jackknife CI for deterministic estimates."""
    x = np.log(np.asarray(n_values, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    exps = []
    for i in range(x.size):
        mask = np.arange(x.size) != i
        exps.append(np.polyfit(x[mask], y[mask], 1)[0])
    exps = np.asarray(exps)
    k = exps.size
    se = math.sqrt((k - 1) / k * float(((exps - exps.mean()) ** 2).sum()))
    lo, hi = fit.exponent - 2.0 * se, fit.exponent + 2.0 * se
    return (float(min(lo, fit.exponent)), float(max(hi, fit.exponent)))


# ----------------------------------------------------------------------
# three-algorithm comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Empirical N_delta per algorithm per n, shared-seed discipline.

    ``violations`` lists any (n, pair) where the asymptotic ordering
    batch <= memoryless expected for beta >= 0 failed empirically.
    """

    dist: str
    delta: float
    trials: int
    seed: int
    n_values: tuple
    algorithms: tuple
    n_delta: dict             # algorithm -> tuple of N_delta per n
    violations: tuple

    def result_fields(self) -> dict:
        return _plain_dict(self)


def compare_algorithms(config: RunConfig) -> ComparisonTable:
    """Empirical N_delta for batch / memoryless / full_memory at each n."""
    config = dataclasses.replace(config, command="compare").validate()
    dist = config.distribution()
    n_values = tuple(int(v) for v in (config.n_sweep or (config.n,)))
    table = {alg: [] for alg in ALGORITHMS}
    for n in n_values:
        for alg in ALGORITHMS:
            table[alg].append(empirical_n_delta(
                alg, dist, n, config.delta, config.trials, config.seed,
                horizon=config.horizon, threads=config.threads))
    violations = []
    beta = (dist.tail_parameters()[0] - 1.0) if dist.has_power_tail else None
    if beta is not None and beta >= 0.0:
        for i, n in enumerate(n_values):
            if table["batch"][i] > table["memoryless"][i]:
                violations.append(
                    f"n={n}: batch N_delta {table['batch'][i]} > "
                    f"memoryless {table['memoryless'][i]}")
    return ComparisonTable(dist=config.dist, delta=config.delta,
                           trials=config.trials, seed=config.seed,
                           n_values=n_values, algorithms=ALGORITHMS,
                           n_delta={a: tuple(v) for a, v in table.items()},
                           violations=tuple(violations))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _plain_dict(obj) -> dict:
    if dataclasses.is_dataclass(obj):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    raise TypeError(f"cannot serialize {type(obj)}")


def _plain(v):
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def emit(report, fmt: str, path: Optional[str] = None) -> str:
    """Serialize a report as csv or json; write to path when given.

    Floats are rendered in shortest exact round-trip form.  JSON carries the
    schema tag, config fields, and seed so a run can be reproduced from its
    own output.
    """
    if isinstance(report, ScalingReport):
        text = _emit_scaling_csv(report) if fmt == "csv" else _emit_json(
            SCHEMA_SCALING, _plain_dict(report))
    elif isinstance(report, ComparisonTable):
        text = _emit_comparison_csv(report) if fmt == "csv" else _emit_json(
            SCHEMA_COMPARISON, _plain_dict(report))
    else:
        raise TypeError(f"emit does not know how to serialize {type(report)}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path!r}: {exc}") from exc
    return text


def _emit_json(schema: str, payload: dict) -> str:
    return json.dumps({"schema": schema, **payload}, indent=2,
                      sort_keys=True) + "\n"


_SCALING_COLUMNS = ("schema", "dist", "method", "trials", "seed",
                    "fitted_exponent", "ci_lo", "ci_hi", "discarded",
                    "n", "value", "error", "runtime_seconds")


def _emit_scaling_csv(report: ScalingReport) -> str:
    # report-level scalars repeat on every row so the file alone rebuilds
    # the report
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_SCALING_COLUMNS)
    for i, n in enumerate(report.n_values):
        value, error = report.estimates[i]
        w.writerow([SCHEMA_SCALING, report.dist, report.method, report.trials,
                    report.seed, _fmt(report.fitted_exponent),
                    _fmt(report.exponent_ci[0]), _fmt(report.exponent_ci[1]),
                    ";".join(_fmt(d) for d in report.discarded),
                    n, _fmt(value), "" if error is None else _fmt(error),
                    _fmt(report.runtime_seconds[i])])
    return buf.getvalue()


def _emit_comparison_csv(report: ComparisonTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["schema", "dist", "delta", "trials", "seed", "n",
                "algorithm", "n_delta", "violations"])
    viol = ";".join(report.violations)
    for i, n in enumerate(report.n_values):
        for alg in report.algorithms:
            w.writerow([SCHEMA_COMPARISON, report.dist, _fmt(report.delta),
                        report.trials, report.seed, n, alg,
                        report.n_delta[alg][i], viol])
    return buf.getvalue()


def parse_report(text: str):
    """Inverse of :func:`emit` for both formats and both report types."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        schema = payload.pop("schema", None)
        if schema == SCHEMA_SCALING:
            return ScalingReport(
                dist=payload["dist"], method=payload["method"],
                n_values=tuple(payload["n_values"]),
                estimates=tuple((v, e) for v, e in payload["estimates"]),
                fitted_exponent=payload["fitted_exponent"],
                exponent_ci=tuple(payload["exponent_ci"]),
                runtime_seconds=tuple(payload["runtime_seconds"]),
                discarded=tuple(payload["discarded"]),
                trials=payload["trials"], seed=payload["seed"])
        if schema == SCHEMA_COMPARISON:
            return ComparisonTable(
                dist=payload["dist"], delta=payload["delta"],
                trials=payload["trials"], seed=payload["seed"],
                n_values=tuple(payload["n_values"]),
                algorithms=tuple(payload["algorithms"]),
                n_delta={a: tuple(v) for a, v in payload["n_delta"].items()},
                violations=tuple(payload["violations"]))
        raise ValueError(f"unknown schema {schema!r}")
    reader = csv.reader(io.StringIO(text))
    table_rows = [r for r in reader if r]
    header, data = table_rows[0], table_rows[1:]
    rows = [dict(zip(header, r)) for r in data]
    if not rows:
        raise ValueError("empty csv report")
    if rows[0]["schema"] == SCHEMA_SCALING:
        first = rows[0]
        return ScalingReport(
            dist=first["dist"], method=first["method"],
            n_values=tuple(int(r["n"]) for r in rows),
            estimates=tuple((float(r["value"]),
                             None if r["error"] == "" else float(r["error"]))
                            for r in rows),
            fitted_exponent=float(first["fitted_exponent"]),
            exponent_ci=(float(first["ci_lo"]), float(first["ci_hi"])),
            runtime_seconds=tuple(float(r["runtime_seconds"]) for r in rows),
            discarded=tuple(float(d) for d in first["discarded"].split(";") if d),
            trials=int(first["trials"]), seed=int(first["seed"]))
    if rows[0]["schema"] == SCHEMA_COMPARISON:
        first = rows[0]
        n_values = tuple(dict.fromkeys(int(r["n"]) for r in rows))
        algorithms = tuple(dict.fromkeys(r["algorithm"] for r in rows))
        table = {a: [] for a in algorithms}
        for r in rows:
            table[r["algorithm"]].append(int(r["n_delta"]))
        return ComparisonTable(
            dist=first["dist"], delta=float(first["delta"]),
            trials=int(first["trials"]), seed=int(first["seed"]),
            n_values=n_values, algorithms=algorithms,
            n_delta={a: tuple(v) for a, v in table.items()},
            violations=tuple(v for v in first["violations"].split(";") if v))
    raise ValueError(f"unknown csv schema {rows[0]['schema']!r}")
