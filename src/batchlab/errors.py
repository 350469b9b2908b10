"""Exception types shared across the package.

Exit-code mapping for the CLI lives in :mod:`batchlab.cli`: config errors
exit 2, divergence signals exit 3, precision/censoring failures exit 4, and
any other exception exits 1.

Every count a library route reads (n, trials, horizon, threads, each n-sweep
entry, the step k of a survival probability) goes through :func:`count`,
once, where the route reads it: a whole number below 2**63 passes as an int
(``10.0`` passes as 10), anything else is a ``ConfigError`` before any work.
"""


class DivergenceError(ValueError):
    """A requested quantity is a divergent series or undefined expectation."""


class PrecisionLossError(ArithmeticError):
    """A computation cannot meet its accuracy contract in float64."""


class CensoringError(RuntimeError):
    """Too many censored Monte Carlo trials to answer the query honestly."""


class ConfigError(ValueError):
    """Any input outside its documented limits, from the library or the CLI alike."""


def count(field: str, value, least: int = 1) -> int:
    """``value`` as an int if it is a whole number in [``least``, 2**63), else
    a ConfigError whose message starts with ``field``.

    A Python int is read as it is, never through ``float()``, which cannot
    hold one past about 1.8e308; 2**63 is where int64 arrays end.
    """
    whole = isinstance(value, int) or float(value).is_integer()
    if not (whole and least <= value < 2**63):
        raise ConfigError(f"{field} must be a whole number >= {least} and below "
                          f"2**63, got {value!r}")
    return int(value)
