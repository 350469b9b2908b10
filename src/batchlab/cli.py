"""Command-line interface.

Subcommands: zeta, exact-time, ndelta, simulate, ensemble, extremes,
scaling, compare.  Each is one entry of ``_COMMANDS``: its help line, its
flags, the flag it cannot run without, the formats it writes (default
first) and its handler.  Any of a command's flags may also come from a flat
key=value config file, which may set no other key; explicit flags win.
Every flag value is text, parsed by :meth:`RunConfig.merged` exactly as a
config-file value is, so a malformed value is a config error.
Exit codes: 0 success, 1 any other error (with a traceback),
2 config error, 3 divergence signal, 4 precision or censoring failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import ensemble as ens
from . import harness, moment_zeta, simulators
from .distributions import parse_dist
from .batch_exact import (expected_time_fast, expected_time_series,
                          n_delta as exact_n_delta)
from .errors import (CensoringError, ConfigError, DivergenceError,
                     PrecisionLossError)
from .harness import RunConfig, json_text, rows_csv


# the field each flag sets where it is not the flag's own name
_FIELD = {"alg": "algorithm", "fixed-p": "p", "n-sweep": "n_sweep"}

# the flags every command takes
_COMMON = "seed out format config threads"

# help text by flag, or by "command flag" where commands differ
_HELP = {"seed": "64-bit master seed", "out": "output path (default stdout)",
         "format": "csv | json", "config": "flat key=value config file",
         "p": "comma-separated overlaps in [0,1)",
         "n-sweep": "comma-separated n values",
         "alg": " | ".join(simulators.ALGORITHMS),
         "fixed-p": "reuse this vector instead of resampling",
         "dump": "emit per-trial times as CSV",
         "ensemble method": " | ".join(ens.METHODS),
         "scaling method": "moment_series | mc_median | auto"}


class _Command(NamedTuple):
    help: str
    flags: str                # its flags besides the common five
    required: Optional[str]   # the flag it cannot run without
    formats: tuple            # the formats it writes, default first
    handler: Callable[[RunConfig], str]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use.

    Never built at import, so ``import batchlab.cli`` costs no more than its
    imports.  ``parse_args`` keeps no state between calls, so the one parser
    serves every ``main`` call; callers must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="batchlab",
        description="Batch-learning convergence laboratory")
    # a parent parser: copying its actions costs less than adding them anew
    common = argparse.ArgumentParser(add_help=False)
    for flag in _COMMON.split():
        common.add_argument(f"--{flag}", help=_HELP.get(flag))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag in command.flags.split():
            # None, not False, when absent, so a config file's dump stands
            kind = {"action": "store_true", "default": None} if flag == "dump" else {}
            p.add_argument(f"--{flag}", dest=_FIELD.get(flag, flag),
                           help=_HELP.get(f"{name} {flag}", _HELP.get(flag)),
                           **kind)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    path = values.pop("config")
    base = RunConfig()
    if path:
        try:
            with open(path) as fh:
                # a file sets only the fields of the command's own flags
                base = RunConfig.from_text(fh.read(), keys=set(values) - {"command"})
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
    return base.merged(values)


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------


def _cmd_zeta(cfg: RunConfig) -> str:
    z = moment_zeta.zeta(parse_dist(cfg.dist), cfg.s, eps=cfg.read("eps"))
    return json_text({"dist": cfg.dist, "s": z.s, "value": z.value,
                      "k_used": z.k_used, "error_bound": z.error_bound,
                      "eps": cfg.read("eps")})


def _cmd_exact_time(cfg: RunConfig) -> str:
    p, eps = np.asarray(cfg.p), cfg.read("eps")
    try:
        est, route = expected_time_series(p, eps=eps), "series"
    except PrecisionLossError:
        # the series cannot meet eps within its step cap; the per-vector
        # evaluator has no step cap: exact up to rounding for at most 8
        # overlaps (their subset sum), good to about 1e-7 relative beyond
        est, route = expected_time_fast(p), "evaluator"
    return json_text({"p": list(cfg.p), "eps": eps, "t": est.t,
                      "steps_expectation": est.steps_expectation,
                      "route": route})


def _cmd_ndelta(cfg: RunConfig) -> str:
    value = exact_n_delta(np.asarray(cfg.p), cfg.delta)
    return json_text({"p": list(cfg.p), "delta": cfg.delta, "n_delta": value})


def _cmd_simulate(cfg: RunConfig) -> str:
    if not cfg.p and cfg.n is None:
        raise ConfigError("simulate requires --n (or --fixed-p)")
    if cfg.p and cfg.n not in (None, len(cfg.p)):
        raise ConfigError(f"n = {cfg.n} disagrees with the {len(cfg.p)} "
                          f"entries of --fixed-p")
    if cfg.p and cfg.dist != RunConfig.dist:
        raise ConfigError(f"dist {cfg.dist} cannot be used with --fixed-p, "
                          f"which fixes the overlaps instead of a law")
    fixed = np.asarray(cfg.p) if cfg.p else None
    batch = simulators.run_trials(
        cfg.algorithm, parse_dist(cfg.dist), cfg.n or 0, cfg.read("trials"),
        cfg.seed, fixed_p=fixed, horizon=cfg.horizon, threads=cfg.threads)
    if cfg.dump:
        rows = [{"trial": i, "time": int(t) if math.isfinite(t) else "inf"}
                for i, t in enumerate(batch.times.tolist())]
        return rows_csv(rows, ["trial", "time"])
    return json_text(batch.summary())


def _table(cfg: RunConfig, rows: list, columns: list) -> str:
    if cfg.format == "json":
        return json_text({"rows": rows})
    return rows_csv(rows, columns)


def _cmd_ensemble(cfg: RunConfig) -> str:
    t0 = time.perf_counter()
    est = ens.ensemble_estimate(parse_dist(cfg.dist), cfg.n,
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
    rep = ens.extreme_value(parse_dist(cfg.dist), cfg.n_sweep, cfg.read("trials"),
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


_COMMANDS = {
    "zeta": _Command("moment zeta function value with certified error",
                     "dist s eps", "s", ("json",), _cmd_zeta),
    "exact-time": _Command("exact expected learning time for a fixed vector",
                           "p eps", "p", ("json",), _cmd_exact_time),
    "ndelta": _Command("smallest k with survival <= delta",
                       "p delta", "p", ("json",), _cmd_ndelta),
    "simulate": _Command("Monte Carlo trials of one learning algorithm",
                         "alg dist n trials fixed-p horizon dump", "alg",
                         ("json",), _cmd_simulate),
    "ensemble": _Command("expected time under the overlap law, one method",
                         "dist n method trials eps", "n", ("csv", "json"),
                         _cmd_ensemble),
    "extremes": _Command("minimum-gap extreme value statistics over an n sweep",
                         "dist n-sweep trials", "n-sweep", ("csv", "json"),
                         _cmd_extremes),
    "scaling": _Command("n-sweep with fitted log-log exponent",
                        "dist n-sweep trials method eps", None, ("json", "csv"),
                        _cmd_scaling),
    "compare": _Command("three-algorithm empirical N_delta table",
                        "dist n n-sweep trials delta horizon", None,
                        ("json", "csv"), _cmd_compare),
}


def _checked(name: str, cfg: RunConfig) -> RunConfig:
    """``cfg`` validated for command ``name``, its format defaulted."""
    command = _COMMANDS[name]
    flag = command.required
    if flag and getattr(cfg, _FIELD.get(flag, flag)) in (None, ()):
        raise ConfigError(f"{name} requires --{flag}")
    cfg.validate()
    formats = command.formats
    if name == "simulate" and cfg.dump:
        name, formats = "simulate --dump", ("csv",)
    if cfg.format not in (None, *formats):
        raise ConfigError(f"format must be {' or '.join(formats)} for "
                          f"{name}, got {cfg.format}")
    cfg.format = cfg.format or formats[0]
    return cfg


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _checked(args.command, _config_from_args(args))
        text = _COMMANDS[args.command].handler(cfg)
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
