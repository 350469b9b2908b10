"""Overlap-distribution families on [0, 1].

The behavior of every learning-time statistic in this package is governed by
the law of the overlap probabilities near 1.  Three families are provided:

* ``uniform``      -- the uniform law on [0, 1].
* ``powertail``    -- density (1+beta) * (1-x)**beta on [0, 1], beta > -1.
  The tail exponent near 1 is exact (no correction term), so asymptotic
  constants are clean.  beta = 0 reduces to the uniform law.
* ``scaled``       -- an inner law pushed forward by x -> a*x, support [0, a].
  For a < 1 the moments decay geometrically and there is no power tail.

Distribution objects are immutable and safe to share across threads; random
streams are always passed in explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import poch

UNIFORM = "uniform"
POWERTAIL = "powertail"
SCALED = "scaled"
_ULP = 2.0 ** -52


@dataclass(frozen=True)
class OverlapDistribution:
    """Common law of the i.i.d. overlap probabilities.

    Fields mirror the CLI spec syntax ``uniform``, ``powertail:beta=<f>``,
    ``scaled:a=<f>,inner=<spec>``.  Use the module constructors
    :func:`uniform`, :func:`power_tail`, :func:`scaled` rather than calling
    this directly.
    """

    family: str
    beta: Optional[float] = None
    a: Optional[float] = None
    inner: Optional["OverlapDistribution"] = None

    def __post_init__(self):
        if self.family == UNIFORM:
            pass
        elif self.family == POWERTAIL:
            if self.beta is None or not self.beta > -1.0:
                raise ValueError("powertail requires beta > -1 (density must be integrable)")
        elif self.family == SCALED:
            if self.a is None or not (0.0 < self.a <= 1.0):
                raise ValueError("scaled requires a in (0, 1]")
            if self.inner is None:
                raise ValueError("scaled requires an inner distribution")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical spec string; round-trips through :func:`parse_dist`."""
        if self.family == UNIFORM:
            return "uniform"
        if self.family == POWERTAIL:
            return f"powertail:beta={self.beta:g}"
        return f"scaled:a={self.a:g},inner={self.inner.spec}"

    # ------------------------------------------------------------------
    # density / cdf
    # ------------------------------------------------------------------

    def density(self, x):
        """Density f(x); raises ValueError outside [0, 1]."""
        x_arr, scalar = _check_domain(x)
        out = self._density(x_arr)
        return float(out) if scalar else out

    def _density(self, x: np.ndarray) -> np.ndarray:
        if self.family == UNIFORM:
            return np.ones_like(x)
        if self.family == POWERTAIL:
            b = self.beta
            base = 1.0 - x
            with np.errstate(divide="ignore"):
                out = (1.0 + b) * np.power(base, b)
            return out
        inside = x <= self.a
        y = np.where(inside, x / self.a, 0.0)
        return np.where(inside, self.inner._density(y) / self.a, 0.0)

    def cdf(self, x):
        """CDF F(x); raises ValueError outside [0, 1]."""
        x_arr, scalar = _check_domain(x)
        out = self._cdf(x_arr)
        return float(out) if scalar else out

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        if self.family == UNIFORM:
            return x.copy()
        if self.family == POWERTAIL:
            # F(x) = 1 - (1-x)^(1+beta); log1p(-1) = -inf gives F(1) = 1 exactly
            with np.errstate(divide="ignore"):
                return -np.expm1((1.0 + self.beta) * np.log1p(-x))
        y = np.minimum(x / self.a, 1.0)
        return self.inner._cdf(y)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws, each guaranteed in [0, 1).

        Draws equal to exactly 1.0 (possible only through rounding) are
        resampled.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        x = self._sample(n, rng)
        bad = x >= 1.0
        while bad.any():
            x[bad] = self._sample(int(bad.sum()), rng)
            bad = x >= 1.0
        return x

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.family == UNIFORM:
            return rng.random(n)
        if self.family == POWERTAIL:
            # inversion: x = 1 - (1-u)^(1/(1+beta))
            u = rng.random(n)
            return 1.0 - np.power(1.0 - u, 1.0 / (1.0 + self.beta))
        return self.a * self.inner._sample(n, rng)

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------

    def moment(self, k: int) -> float:
        """k-th moment m_k = E[X^k], k >= 1.  Closed form for every family."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return float(self.moments(np.asarray([k], dtype=np.float64))[0])

    def moments(self, k) -> np.ndarray:
        """Vectorized m_k = E[X**k] for an array of real orders k > -1.

        The closed forms hold for every real k > -1 and equal the Mellin
        transform M(f)(k+1) = integral_0^1 f(x) x**k dx:
        :func:`batchlab.moment_zeta.mellin` relies on this.
        """
        k = np.asarray(k, dtype=np.float64)
        if self.family == UNIFORM:
            return 1.0 / (k + 1.0)
        if self.family == POWERTAIL:
            b = self.beta
            if b == int(b) and b >= 0:
                # m_k = Gamma(beta+2) / prod_{j=1}^{beta+1} (k+j)
                denom = np.ones_like(k)
                for j in range(1, int(b) + 2):
                    denom *= k + j
                return math.gamma(b + 2.0) / denom
            # poch(k+1, b+1) = Gamma(k+b+2)/Gamma(k+1); a gammaln difference
            # loses ~1e-16 * k*log(k) to cancellation
            return math.gamma(b + 2.0) / poch(k + 1.0, b + 1.0)
        # scaled: E[(aY)^k] = a^k m_k(inner); exact, no quadrature needed
        with np.errstate(under="ignore"):
            return np.power(self.a, k) * self.inner.moments(k)

    @property
    def moment_rtol(self) -> float:
        """Bound on the relative error of :meth:`moments` for k up to 1e15,
        the range the moment series and the batch-time quantile visit: the
        rational forms round once per factor; ``poch`` measured <= 4.5e-11,
        the largest near k = 1e4 (against 40-digit mpmath, beta in -0.9,
        -0.5, 0.3, 0.5, 2.5, 3.7)."""
        if self.family == SCALED:
            return self.inner.moment_rtol + _ULP
        b = self.beta if self.family == POWERTAIL else 0.0
        return (b + 3.0) * _ULP if b == int(b) and b >= 0 else 1e-10

    # ------------------------------------------------------------------
    # tail behavior
    # ------------------------------------------------------------------

    @property
    def has_power_tail(self) -> bool:
        if self.family == SCALED:
            return self.a == 1.0 and self.inner.has_power_tail
        return True

    def tail_parameters(self) -> tuple[float, float]:
        """(alpha, c) with m_k ~ c * k**(-alpha) as k -> infinity.

        alpha = beta + 1 and c = Gamma(beta + 2), and exactly
        m_k = c * Gamma(k+1)/Gamma(k+1+alpha) = c * (k + w_k)**(-alpha), where
        w_k is monotone in k with limit (alpha+1)/2 (constant 1 at alpha = 1).
        The single tail bracket of :mod:`batchlab.moment_zeta` relies on this.

        Raises ValueError("no power tail") for scaled support with a < 1,
        whose moments decay geometrically.
        """
        if self.family == UNIFORM:
            return 1.0, 1.0
        if self.family == POWERTAIL:
            return self.beta + 1.0, math.gamma(self.beta + 2.0)
        if self.a == 1.0:
            return self.inner.tail_parameters()
        raise ValueError("no power tail: scaled support a < 1 has geometric moment decay")


# ----------------------------------------------------------------------
# constructors and spec parsing
# ----------------------------------------------------------------------


def uniform() -> OverlapDistribution:
    return OverlapDistribution(UNIFORM)


def power_tail(beta: float) -> OverlapDistribution:
    return OverlapDistribution(POWERTAIL, beta=float(beta))


def scaled(a: float, inner: OverlapDistribution) -> OverlapDistribution:
    return OverlapDistribution(SCALED, a=float(a), inner=inner)


def parse_dist(spec: str) -> OverlapDistribution:
    """Parse ``uniform`` | ``powertail:beta=<f>`` | ``scaled:a=<f>,inner=<spec>``.

    The inner spec of ``scaled`` may itself be any spec (nesting allowed).
    """
    spec = spec.strip()
    if spec == "uniform":
        return uniform()
    if spec.startswith("powertail:"):
        args = spec[len("powertail:"):]
        if not args.startswith("beta="):
            raise ValueError(f"powertail spec needs beta=<float>, got {spec!r}")
        return power_tail(_parse_float(args[len("beta="):], spec))
    if spec.startswith("scaled:"):
        args = spec[len("scaled:"):]
        marker = ",inner="
        pos = args.find(marker)
        if not args.startswith("a=") or pos < 0:
            raise ValueError(f"scaled spec needs a=<float>,inner=<spec>, got {spec!r}")
        a = _parse_float(args[len("a="):pos], spec)
        return scaled(a, parse_dist(args[pos + len(marker):]))
    raise ValueError(f"unknown distribution spec {spec!r}")


def _parse_float(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad float {text!r} in distribution spec {spec!r}") from None


def _check_domain(x):
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    return x_arr, scalar
