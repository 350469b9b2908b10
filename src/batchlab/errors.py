"""Exception types shared across the package.

Exit-code mapping for the CLI lives in :mod:`batchlab.cli`: config errors
exit 2, divergence signals exit 3, precision/censoring failures exit 4, and
any other exception exits 1.
"""


class DivergenceError(ValueError):
    """A requested quantity is a divergent series or undefined expectation."""


class PrecisionLossError(ArithmeticError):
    """A computation cannot meet its accuracy contract in float64."""


class CensoringError(RuntimeError):
    """Too many censored Monte Carlo trials to answer the query honestly."""


class ConfigError(ValueError):
    """Any input outside its documented limits, from the library or the CLI alike."""
