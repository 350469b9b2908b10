"""Overlap laws on [0, 1]: one two-parameter family.

The behavior of every learning-time statistic in this package is governed by
the law of the overlap probabilities near 1.  Every law is that of a*X, where
X has density (1+beta) * (1-x)**beta on [0, 1], and 0 < a <= 1.  beta > -1
makes the density integrable, and beta < 169.6 keeps Gamma(beta+2), the
constant of the moments, finite:

* ``powertail``    -- a = 1; ``uniform`` is beta = 0 too.  The tail exponent
  near 1 is exact (no correction term), so asymptotic constants are clean.
* ``scaled``       -- an inner law pushed forward by x -> a*x, support [0, a];
  nested specs fold into one a.  For a < 1 the moments decay geometrically
  and there is no power tail.

Distribution objects are immutable and safe to share across threads; random
streams are always passed in explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import poch

_ULP = 2.0 ** -52


@dataclass(frozen=True)
class OverlapDistribution:
    """Common law of the i.i.d. overlap probabilities: the law of a*X, X with
    density (1+beta) * (1-x)**beta.  ``OverlapDistribution()`` is uniform;
    the module constructors :func:`uniform`, :func:`power_tail`,
    :func:`scaled` mirror the CLI spec syntax ``uniform``,
    ``powertail:beta=<f>``, ``scaled:a=<f>,inner=<spec>``.
    """

    beta: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValueError("powertail requires beta > -1 (density must be integrable)")
        try:
            c = math.gamma(self.beta + 2.0)     # inf at beta = inf
        except OverflowError:
            c = math.inf
        if c == math.inf:
            raise ValueError(f"powertail beta = {self.beta:g} is too large: "
                             "Gamma(beta + 2), the moments' constant, overflows")
        if not 0.0 < self.a <= 1.0:
            raise ValueError("scaled requires a in (0, 1]")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical spec string; round-trips through :func:`parse_dist`."""
        law = ("uniform" if self.beta == 0.0
               else f"powertail:beta={_float_text(self.beta)}")
        return law if self.a == 1.0 else f"scaled:a={_float_text(self.a)},inner={law}"

    # ------------------------------------------------------------------
    # density / cdf
    # ------------------------------------------------------------------

    def density(self, x):
        """Density f(x); raises ValueError outside [0, 1]."""
        x, scalar = _check_domain(x)
        inside = x <= self.a
        y = np.where(inside, x / self.a, 0.0)
        with np.errstate(divide="ignore"):
            f = (1.0 + self.beta) * np.power(1.0 - y, self.beta) / self.a
        out = np.where(inside, f, 0.0)
        return float(out) if scalar else out

    def cdf(self, x):
        """CDF F(x); raises ValueError outside [0, 1]."""
        x, scalar = _check_domain(x)
        y = np.minimum(x / self.a, 1.0)
        if self.beta != 0.0:
            # F = 1 - (1-y)^(1+beta); log1p(-1) = -inf gives F(a) = 1 exactly.
            # At beta = 0, F is y itself, which the log form would round.
            with np.errstate(divide="ignore"):
                y = -np.expm1((1.0 + self.beta) * np.log1p(-y))
        return float(y) if scalar else y

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
        x = rng.random(n)
        if self.beta != 0.0:
            # inversion: x = 1 - (1-u)^(1/(1+beta)); ``**`` with a scalar
            # exponent takes numpy's fast paths (sqrt at beta = 1, square at
            # beta = -0.5) where np.power always calls pow; at beta = 0 it is u
            x = 1.0 - (1.0 - x) ** (1.0 / (1.0 + self.beta))
        if self.a != 1.0:
            x *= self.a
        return x

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------

    def moment(self, k: int) -> float:
        """k-th moment m_k = E[X^k], k >= 1.  Closed form for every law."""
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
        b = self.beta
        if b == int(b) and b >= 0:
            # m_k = Gamma(beta+2) / prod_{j=1}^{beta+1} (k+j), 1/(k+1) at beta = 0;
            # a product past float64 gives m_k = 0, which the moment routes
            # report as underflow
            denom = k + 1.0
            with np.errstate(over="ignore"):
                for j in range(2, int(b) + 2):
                    denom *= k + j
            m = math.gamma(b + 2.0) / denom
        else:
            # poch(k+1, b+1) = Gamma(k+b+2)/Gamma(k+1); a gammaln difference
            # loses ~1e-16 * k*log(k) to cancellation
            m = math.gamma(b + 2.0) / poch(k + 1.0, b + 1.0)
        if self.a == 1.0:
            return m
        with np.errstate(under="ignore"):
            return np.power(self.a, k) * m

    @property
    def moment_rtol(self) -> float:
        """Bound on the relative error of :meth:`moments` for k up to 1e15,
        the range the moment series and the batch-time quantile visit: the
        rational forms round once per factor; ``poch`` measured <= 4.5e-11,
        the largest near k = 1e4 (against 40-digit mpmath, beta in -0.9,
        -0.5, 0.3, 0.5, 2.5, 3.7).  The factor a**k adds one rounding."""
        b = self.beta
        rtol = (b + 3.0) * _ULP if b == int(b) and b >= 0 else 1e-10
        return rtol if self.a == 1.0 else rtol + _ULP

    # ------------------------------------------------------------------
    # tail behavior
    # ------------------------------------------------------------------

    @property
    def has_power_tail(self) -> bool:
        return self.a == 1.0

    def tail_parameters(self) -> tuple[float, float]:
        """(alpha, c) with m_k ~ c * k**(-alpha) as k -> infinity.

        alpha = beta + 1 and c = Gamma(beta + 2), and exactly
        m_k = c * Gamma(k+1)/Gamma(k+1+alpha) = c * (k + w_k)**(-alpha), where
        w_k is monotone in k with limit (alpha+1)/2 (constant 1 at alpha = 1).
        The single tail bracket of :mod:`batchlab.moment_zeta` relies on this.

        Raises ValueError("no power tail") for scaled support with a < 1,
        whose moments decay geometrically.
        """
        if self.a != 1.0:
            raise ValueError("no power tail: scaled support a < 1 has geometric moment decay")
        return self.beta + 1.0, math.gamma(self.beta + 2.0)


# ----------------------------------------------------------------------
# constructors and spec parsing
# ----------------------------------------------------------------------


def uniform() -> OverlapDistribution:
    return OverlapDistribution()


def power_tail(beta: float) -> OverlapDistribution:
    return OverlapDistribution(float(beta))


def scaled(a: float, inner: OverlapDistribution) -> OverlapDistribution:
    """The law of a*Y for Y drawn from ``inner``, 0 < a <= 1."""
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise ValueError("scaled requires a in (0, 1]")
    return OverlapDistribution(inner.beta, a * inner.a)


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


def _float_text(x: float) -> str:
    """``x`` as ``:g`` when that parses back to ``x``, else as ``repr``."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _parse_float(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad float {text!r} in distribution spec {spec!r}") from None


def _check_domain(x):
    """(x as float64, is scalar); NaN fails the range test like x outside [0, 1]."""
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.size and not (x_arr.min() >= 0.0 and x_arr.max() <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    return x_arr, x_arr.ndim == 0
