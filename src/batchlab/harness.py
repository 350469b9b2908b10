"""Experiment orchestration: n-sweeps, exponent fits, algorithm comparison.

A :class:`RunConfig` captures one experiment (flat key=value file format,
CLI flags override file values; one field -> parser table reads the text of
both).  ``run_scaling`` estimates the learning
time at each n (moment series when the expectation exists, Monte Carlo
median of simulated learning times otherwise), fits a log-log exponent with
a bootstrap/jackknife confidence interval, and packages a
:class:`ScalingReport`.  ``compare_algorithms`` tabulates empirical
N_delta for the three learners under shared-master-seed discipline.

Serialization: :func:`json_text` and :func:`rows_csv` write every report and
every CLI command's output, with losslessly rendered floats (shortest
round-trip form); the command table in :mod:`batchlab.cli` says which of
the two each command writes.  :func:`emit` serializes a report and
:func:`parse_report` inverts it.
All result fields are byte-reproducible from (config, seed); wall-clock
``runtime_seconds`` is the one declared-volatile field.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import parse_dist
from .ensemble import DEFAULT_EPS, expected_time_moment_series
from .errors import ConfigError
from .rng import STREAM_SCALING, derive_rng
from .simulators import (ALGORITHMS, DEFAULT_HORIZON, DEFAULT_TRIALS,
                         _median_ci_halfwidth, empirical_n_delta, run_trials)

_BOOTSTRAP_RESAMPLES = 200


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def _list(kind):
    return lambda text: tuple(kind(x) for x in text.split(",") if x)


# how the text of a flag or a config-file line becomes each non-string field
_PARSERS = {"n": int, "trials": int, "seed": int, "threads": int,
            "horizon": int, "delta": float, "eps": float, "s": float,
            "n_sweep": _list(int), "p": _list(float),
            "dump": lambda text: text.lower() in ("1", "true", "yes")}

# what a route that reads trials or eps takes where neither is set
_DEFAULTS = {"trials": DEFAULT_TRIALS, "eps": DEFAULT_EPS}


@dataclass
class RunConfig:
    """One experiment configuration.

    Field coverage varies by command (the CLI's command table names the
    flag each command cannot run without).  ``trials`` and ``eps`` stay
    None unless set, so that a route that ignores them can refuse them.
    :meth:`from_text` reads the flat key=value file format.
    """

    command: str = ""
    dist: str = "uniform"
    n: Optional[int] = None
    n_sweep: tuple = ()
    trials: Optional[int] = None
    delta: float = 0.1
    eps: Optional[float] = None
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

    def read(self, name: str):
        """``trials`` or ``eps`` for a route that reads it: as set, or its default."""
        value = getattr(self, name)
        return _DEFAULTS[name] if value is None else value

    def validate(self) -> "RunConfig":
        """``self`` if ``threads`` and ``seed``, read by some commands only, are valid."""
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a nonnegative 64-bit integer")
        return self

    # -- flat key=value file format ---------------------------------

    @classmethod
    def from_text(cls, text: str, keys: Optional[set] = None) -> "RunConfig":
        """The config of a flat key=value file with ``keys`` (default: all)."""
        pairs = {}
        names = keys if keys is not None else {f.name for f in dataclasses.fields(cls)}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {ln}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in names:
                raise ConfigError(f"config line {ln}: unexpected key {key!r}")
            pairs[key] = value.strip()
        return cls().merged(pairs)

    def merged(self, overrides: dict) -> "RunConfig":
        """New config with non-None override values applied.

        A ``str`` value of a non-string field is parsed by :data:`_PARSERS`,
        whether it comes from a flag or a config file.
        """
        out = dataclasses.replace(self)
        for key, value in overrides.items():
            if isinstance(value, str) and key in _PARSERS:
                try:
                    value = _PARSERS[key](value)
                except ValueError:
                    raise ConfigError(f"bad value {value!r} for "
                                      f"{key.replace('_', '-')}") from None
            if value is not None:
                setattr(out, key, value)
        return out


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
        raise ConfigError("need >= 3 matched (n, value) points")
    if np.any(values <= 0.0) or np.any(n_values <= 0.0):
        raise ConfigError("log-log fit needs positive data")
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
    trials: Optional[int]     # None for moment_series, which draws nothing
    seed: int

    SCHEMA = "batchlab/scaling-report/v1"
    CSV_COLUMNS = ("schema", "dist", "method", "trials", "seed",
                   "fitted_exponent", "ci_lo", "ci_hi", "discarded",
                   "n", "value", "error", "runtime_seconds")

    def csv_rows(self) -> list:
        # report-level scalars repeat on every row so the file alone rebuilds
        # the report
        common = {"schema": self.SCHEMA, "dist": self.dist, "method": self.method,
                  "trials": self.trials, "seed": self.seed,
                  "fitted_exponent": self.fitted_exponent,
                  "ci_lo": self.exponent_ci[0], "ci_hi": self.exponent_ci[1],
                  "discarded": ";".join(map(str, self.discarded))}
        return [{**common, "n": n, "value": value, "error": error,
                 "runtime_seconds": seconds}
                for n, (value, error), seconds
                in zip(self.n_values, self.estimates, self.runtime_seconds)]

    @classmethod
    def from_csv_rows(cls, rows: list) -> "ScalingReport":
        """Inverse of :meth:`csv_rows`, from rows of text cells."""
        first = rows[0]
        return cls(**_csv_scalars(cls, first),
                   trials=int(first["trials"]) if first["trials"] else None,
                   n_values=tuple(int(r["n"]) for r in rows),
                   estimates=tuple((float(r["value"]),
                                    float(r["error"]) if r["error"] else None)
                                   for r in rows),
                   exponent_ci=(float(first["ci_lo"]), float(first["ci_hi"])),
                   runtime_seconds=tuple(float(r["runtime_seconds"]) for r in rows),
                   discarded=tuple(map(float, _split(first["discarded"]))))

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
    ``trials`` set for moment_series or ``eps`` for mc_median is refused.
    """
    ns = tuple(config.n_sweep)
    if len(ns) < 4:
        raise ConfigError("n-sweep needs >= 4 values for scaling")
    if min(ns) < 1:
        raise ConfigError("n-sweep entries must be >= 1")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("n-sweep must be strictly increasing")
    if ns[-1] < 100 * ns[0]:
        raise ConfigError("n-sweep must span at least two decades")
    dist = parse_dist(config.dist)
    alpha = dist.tail_parameters()[0] if dist.has_power_tail else None
    method = config.method
    if method in (None, "auto"):
        method = "moment_series" if (alpha is not None and alpha > 1.0) else "mc_median"
    if method not in ("moment_series", "mc_median"):
        raise ConfigError(f"method must be moment_series, mc_median or auto "
                          f"for scaling, got {method!r}")
    if config.trials is not None and method != "mc_median":
        raise ConfigError(f"trials is read by method mc_median only, not {method}")
    if config.eps is not None and method != "moment_series":
        raise ConfigError(f"eps is read by method moment_series only, not {method}")

    values, errors, runtimes, samples = [], [], [], []
    for idx, n in enumerate(config.n_sweep):
        t0 = time.perf_counter()
        if method == "moment_series":
            r = expected_time_moment_series(dist, int(n), eps=config.read("eps"))
            values.append(r.value)
            errors.append(r.error_bound)
            samples.append(None)
        else:
            batch = run_trials("batch", dist, int(n), config.read("trials"),
                               config.seed, threads=config.threads)
            times = batch.times
            values.append(float(np.median(times)))
            errors.append(_median_ci_halfwidth(times))
            samples.append(times)
        runtimes.append(time.perf_counter() - t0)

    fit = fit_loglog(config.n_sweep, values)
    if method == "mc_median":
        ci = _bootstrap_exponent_ci(config, samples, fit)
    else:
        ci = _jackknife_exponent_ci(config.n_sweep, values, fit)
    return ScalingReport(
        dist=config.dist, method=method, n_values=tuple(int(v) for v in config.n_sweep),
        estimates=tuple((float(v), None if e is None else float(e))
                        for v, e in zip(values, errors)),
        fitted_exponent=fit.exponent, exponent_ci=ci,
        runtime_seconds=tuple(runtimes), discarded=fit.discarded,
        trials=config.read("trials") if method == "mc_median" else None,
        seed=config.seed)


def _bootstrap_exponent_ci(config, samples, fit) -> tuple:
    """Percentile CI over per-point trial resamples (200 bootstrap fits).

    Each block of fits (one block unless its resamples pass 2**22 values)
    draws all its index vectors with one ``rng.integers`` call of shape
    (fits, points, trials), gathers them from the stacked samples and takes
    the medians in place: at most two arrays of a block's size are alive.  The
    draws are those of one call per resample in fit-major order: the
    generator hands out 32-bit draws from a buffer it keeps in its own
    state, so splitting a call changes no value and leaves the stream where
    it was.
    """
    rng = derive_rng(config.seed, STREAM_SCALING, 0)
    keep = [i for i, n in enumerate(config.n_sweep)
            if float(n) not in fit.discarded]
    ns = [config.n_sweep[i] for i in keep]
    stacked = np.stack([samples[i] for i in keep])
    size = stacked.shape[1]
    block = max(1, (1 << 22) // (len(keep) * size))
    vals = []
    for start in range(0, _BOOTSTRAP_RESAMPLES, block):
        fits = min(block, _BOOTSTRAP_RESAMPLES - start)
        resampled = np.take_along_axis(
            stacked[None], rng.integers(0, size, (fits, len(keep), size)), axis=-1)
        vals.append(np.median(resampled, axis=-1, overwrite_input=True))
    exps = np.polyfit(np.log(ns), np.log(np.concatenate(vals).T), 1)[0]
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

    SCHEMA = "batchlab/comparison-table/v1"
    CSV_COLUMNS = ("schema", "dist", "delta", "trials", "seed", "n",
                   "algorithm", "n_delta", "violations")

    def csv_rows(self) -> list:
        common = {"schema": self.SCHEMA, "dist": self.dist, "delta": self.delta,
                  "trials": self.trials, "seed": self.seed,
                  "violations": ";".join(self.violations)}
        return [{**common, "n": n, "algorithm": alg, "n_delta": self.n_delta[alg][i]}
                for i, n in enumerate(self.n_values) for alg in self.algorithms]

    @classmethod
    def from_csv_rows(cls, rows: list) -> "ComparisonTable":
        """Inverse of :meth:`csv_rows`, from rows of text cells."""
        algorithms = tuple(dict.fromkeys(r["algorithm"] for r in rows))
        return cls(**_csv_scalars(cls, rows[0]),
                   n_values=tuple(dict.fromkeys(int(r["n"]) for r in rows)),
                   algorithms=algorithms,
                   n_delta={a: tuple(int(r["n_delta"]) for r in rows
                                     if r["algorithm"] == a) for a in algorithms},
                   violations=_split(rows[0]["violations"]))

    def result_fields(self) -> dict:
        return _plain_dict(self)


def compare_algorithms(config: RunConfig) -> ComparisonTable:
    """Empirical N_delta for batch / memoryless / full_memory at each n."""
    if config.n_sweep and config.n is not None:
        raise ConfigError("n and n-sweep cannot both be set for compare")
    if not config.n_sweep and config.n is None:
        raise ConfigError("n or n-sweep must be set for compare")
    n_values = tuple(int(v) for v in (config.n_sweep or (config.n,)))
    if min(n_values) < 1:
        raise ConfigError(f"n must be >= 1, got {min(n_values)}")
    dist = parse_dist(config.dist)
    table = {alg: [] for alg in ALGORITHMS}
    for n in n_values:
        for alg in ALGORITHMS:
            table[alg].append(empirical_n_delta(
                alg, dist, n, config.delta, config.read("trials"), config.seed,
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
                           trials=config.read("trials"), seed=config.seed,
                           n_values=n_values, algorithms=ALGORITHMS,
                           n_delta={a: tuple(v) for a, v in table.items()},
                           violations=tuple(violations))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _plain_dict(obj) -> dict:
    return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}


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


def json_text(payload: dict) -> str:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rows_csv(rows: list, columns: Sequence[str]) -> str:
    """A header of ``columns``, then one line per row dict; None is empty."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(["" if row[c] is None else row[c] for c in columns] for row in rows)
    return buf.getvalue()


_REPORTS = {cls.SCHEMA: cls for cls in (ScalingReport, ComparisonTable)}


def emit(report, fmt: str) -> str:
    """A report serialized as csv or json text.

    JSON carries the schema tag, config fields, and seed so a run can be
    reproduced from its own output.  Any other ``fmt`` raises ConfigError.
    """
    if not isinstance(report, (ScalingReport, ComparisonTable)):
        raise TypeError(f"emit does not know how to serialize {type(report)}")
    if fmt == "csv":
        return rows_csv(report.csv_rows(), report.CSV_COLUMNS)
    if fmt == "json":
        return json_text({"schema": report.SCHEMA, **_plain_dict(report)})
    raise ConfigError(f"format must be csv or json, got {fmt!r}")


def _tuples(v):
    """JSON lists back to tuples, at any depth."""
    if isinstance(v, dict):
        return {k: _tuples(x) for k, x in v.items()}
    if isinstance(v, list):
        return tuple(_tuples(x) for x in v)
    return v


def _csv_scalars(cls, row: dict) -> dict:
    """The scalar fields of report ``cls`` that are CSV columns, typed."""
    types = {"str": str, "int": int, "float": float}
    return {f.name: types[f.type](row[f.name]) for f in dataclasses.fields(cls)
            if f.name in cls.CSV_COLUMNS and f.type in types}


def _split(cell: str) -> tuple:
    """A ``;``-joined CSV cell back to its tuple of strings."""
    return tuple(v for v in cell.split(";") if v)


def parse_report(text: str):
    """Inverse of :func:`emit` for both formats and both report types."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        schema = payload.pop("schema", None)
        if schema not in _REPORTS:
            raise ConfigError(f"unknown schema {schema!r}")
        cls = _REPORTS[schema]
        return cls(**{f.name: _tuples(payload[f.name])
                      for f in dataclasses.fields(cls)})
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ConfigError("empty csv report")
    schema = rows[0]["schema"]
    if schema not in _REPORTS:
        raise ConfigError(f"unknown csv schema {schema!r}")
    return _REPORTS[schema].from_csv_rows(rows)
