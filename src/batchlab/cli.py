"""Command-line interface.

Subcommands: zeta, exact-time, ndelta, simulate, ensemble, extremes,
scaling, compare.  Global flags (--seed, --out, --format, --config,
--threads) may also come from a flat key=value config file; explicit flags
win.  Exit codes: 0 success, 1 any other error (with a traceback),
2 config error, 3 divergence signal, 4 precision or censoring failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional

import numpy as np

from . import ensemble as ens
from . import harness, moment_zeta, simulators
from .batch_exact import expected_time_series, n_delta as exact_n_delta
from .errors import (CensoringError, ConfigError, DivergenceError,
                     PrecisionLossError)
from .harness import RunConfig, json_text, rows_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchlab",
        description="Batch-learning convergence laboratory")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--threads", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", parents=[common],
                       help="moment zeta function value with certified error")
    p.add_argument("--dist", default=None)
    p.add_argument("--s", type=float, default=None, required=False)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("exact-time", parents=[common],
                       help="exact expected learning time for a fixed vector")
    p.add_argument("--p", default=None, help="comma-separated overlaps in [0,1)")
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("ndelta", parents=[common],
                       help="smallest k with survival <= delta")
    p.add_argument("--p", default=None)
    p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo trials of one learning algorithm")
    p.add_argument("--alg", dest="algorithm",
                   choices=simulators.ALGORITHMS, default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--fixed-p", dest="p", default=None,
                   help="reuse this vector instead of resampling")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--dump", action="store_true", default=None,
                   help="emit per-trial times as CSV")

    p = sub.add_parser("ensemble", parents=[common],
                       help="expected time under the overlap law, one method")
    p.add_argument("--dist", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", choices=ens.METHODS, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("extremes", parents=[common],
                       help="minimum-gap extreme value statistics over an n sweep")
    p.add_argument("--dist", default=None)
    p.add_argument("--n-sweep", dest="n_sweep", default=None,
                   help="comma-separated n values")
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("scaling", parents=[common],
                       help="n-sweep with fitted log-log exponent")
    p.add_argument("--dist", default=None)
    p.add_argument("--n-sweep", dest="n_sweep", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--method", default=None,
                   help="moment_series | mc_median | auto")
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("compare", parents=[common],
                       help="three-algorithm empirical N_delta table")
    p.add_argument("--dist", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-sweep", dest="n_sweep", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = RunConfig(command=args.command)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                base = RunConfig.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        base.command = args.command
    overrides = {}
    for key in ("dist", "n", "trials", "delta", "eps", "s", "seed", "threads",
                "method", "algorithm", "horizon", "out", "format", "dump"):
        if hasattr(args, key):
            overrides[key] = getattr(args, key)
    for key, kind in (("n_sweep", int), ("p", float)):
        text = getattr(args, key, None)
        if text is not None:
            try:
                overrides[key] = tuple(kind(x) for x in str(text).split(",") if x)
            except ValueError:
                raise ConfigError(f"bad --{key.replace('_', '-')} value {text!r}") from None
    return base.merged(overrides)


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------


def _cmd_zeta(cfg: RunConfig) -> str:
    z = moment_zeta.zeta(cfg.distribution(), cfg.s, eps=cfg.eps)
    return json_text({"dist": cfg.dist, "s": z.s, "value": z.value,
                      "k_used": z.k_used, "error_bound": z.error_bound,
                      "eps": cfg.eps})


def _cmd_exact_time(cfg: RunConfig) -> str:
    est = expected_time_series(np.asarray(cfg.p), eps=cfg.eps)
    return json_text({"p": list(cfg.p), "eps": cfg.eps, "t": est.t,
                      "steps_expectation": est.steps_expectation})


def _cmd_ndelta(cfg: RunConfig) -> str:
    value = exact_n_delta(np.asarray(cfg.p), cfg.delta)
    return json_text({"p": list(cfg.p), "delta": cfg.delta, "n_delta": value})


def _cmd_simulate(cfg: RunConfig) -> str:
    fixed = np.asarray(cfg.p) if cfg.p else None
    batch = simulators.run_trials(
        cfg.algorithm, cfg.distribution(), cfg.n or 0, cfg.trials, cfg.seed,
        fixed_p=fixed, horizon=cfg.horizon, threads=cfg.threads)
    if cfg.dump:
        rows = [{"trial": i, "time": int(t) if math.isfinite(t) else "inf"}
                for i, t in enumerate(batch.times.tolist())]
        return rows_csv(rows, ["trial", "time"])
    summary = batch.summary()
    summary["horizon"] = cfg.horizon
    return json_text(summary)


def _table(cfg: RunConfig, rows: list, columns: list) -> str:
    if cfg.format == "json":
        return json_text({"rows": rows})
    return rows_csv(rows, columns)


def _cmd_ensemble(cfg: RunConfig) -> str:
    t0 = time.perf_counter()
    est = ens.ensemble_estimate(cfg.distribution(), cfg.n,
                                cfg.method or "moment_series",
                                trials=cfg.trials, seed=cfg.seed,
                                threads=cfg.threads, eps=cfg.eps)
    rows = [{"dist": cfg.dist, "n": est.n, "method": est.method,
             "value": est.value, "error": est.error_bound,
             "runtime_seconds": time.perf_counter() - t0}]
    return _table(cfg, rows, ["dist", "n", "method", "value", "error",
                              "runtime_seconds"])


def _cmd_extremes(cfg: RunConfig) -> str:
    t0 = time.perf_counter()
    rep = ens.extreme_value(cfg.distribution(), cfg.n_sweep, cfg.trials,
                            cfg.seed, threads=cfg.threads)
    elapsed = time.perf_counter() - t0
    rows = [{"dist": cfg.dist, "n": n, "method": "mc_min_gap",
             "value": rep.mean_min_q[i], "error": rep.stderr[i],
             "fitted_C": rep.fitted_C, "fitted_slope": rep.fitted_slope,
             "ks_distance": rep.ks_distance, "ks_n": rep.ks_n,
             "runtime_seconds": elapsed / len(cfg.n_sweep)}
            for i, n in enumerate(rep.n_values)]
    return _table(cfg, rows, ["dist", "n", "method", "value", "error",
                              "fitted_C", "fitted_slope", "ks_distance",
                              "ks_n", "runtime_seconds"])


def _cmd_scaling(cfg: RunConfig) -> str:
    return harness.emit(harness.run_scaling(cfg), cfg.format)


def _cmd_compare(cfg: RunConfig) -> str:
    return harness.emit(harness.compare_algorithms(cfg), cfg.format)


_HANDLERS = {
    "zeta": _cmd_zeta,
    "exact-time": _cmd_exact_time,
    "ndelta": _cmd_ndelta,
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "extremes": _cmd_extremes,
    "scaling": _cmd_scaling,
    "compare": _cmd_compare,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args).validate()
        cfg.format = cfg.format or harness.FORMATS[cfg.writer][0]
        text = _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (PrecisionLossError, CensoringError) as exc:
        print(f"precision/censoring failure: {exc}", file=sys.stderr)
        return 4
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {cfg.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
