"""Regenerate ``references.json``: the certified-series reference values.

Run from the repository root (about a minute on one core):

    python3 bench/make_references.py

Every value is a sum over k >= 1 of a smooth term f(k).  The first HEAD - 1
terms are added one by one in mpmath at 40 digits; the rest is the
Euler-Maclaurin expansion at HEAD,

    sum_{k>=HEAD} f(k) = int_HEAD^inf f + f(HEAD)/2
                         - sum_j B_2j/(2j)! f^(2j-1)(HEAD),

with the integral taken after x = HEAD * e**u, which turns the algebraic
tail into an exponential one; it stops at u = 512, where the slowest
integrand here (zeta_F(2.5) at beta = -0.5, decaying as e**(-u/4)) leaves
less than 1e-50 of the value.  mpmath's ``nsum`` is not used: it returned
1.9823 for zeta_F(1) at beta = 0.5, whose true value is 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (ALPHA1_CASES, MOMENT_SERIES_BETAS,  # noqa: E402
                       REFERENCES_FILE, SWEEP, ZETA_CASES, series_key)

HEAD = 2000
EM_TERMS = 6
DIGITS = 40


def moment(beta, x):
    """m_x = Gamma(beta+2) Gamma(x+1) / Gamma(x+beta+2), in mpmath.

    The log-gamma difference cancels about log10(x) digits, so the working
    precision grows with x.
    """
    with mp.extradps(10 + int(mp.log10(x))):
        beta = mp.mpf(beta)
        value = mp.exp(mp.loggamma(beta + 2) + mp.loggamma(x + 1)
                       - mp.loggamma(x + beta + 2))
    return +value


def em_sum(f, head: int = HEAD, terms: int = EM_TERMS):
    """sum_{k>=1} f(k): direct head, Euler-Maclaurin tail at ``head``."""
    a = mp.mpf(head)
    total = mp.fsum(f(mp.mpf(k)) for k in range(1, head))
    total += mp.quad(lambda u: f(a * mp.exp(u)) * a * mp.exp(u),
                     [0, 1, 4, 16, 64, 256, 512])
    total += f(a) / 2
    for j in range(1, terms + 1):
        total -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(f, a, 2 * j - 1)
    return total


def zeta_reference(beta, s):
    return em_sum(lambda x: moment(beta, x) ** s)


def moment_series_reference(beta, n):
    return em_sum(lambda x: -mp.expm1(n * mp.log1p(-moment(beta, x))))


def alpha1_reference(n):
    """T2 = -sum_j [(1 - m_j)**n - 1 + n m_j] for the uniform law."""
    return -em_sum(lambda x: mp.expm1(n * mp.log1p(-moment(0, x)))
                   + n * moment(0, x))


def main() -> int:
    mp.mp.dps = DIGITS
    values = {}
    for beta, s in ZETA_CASES:
        values[series_key("zeta", beta, s)] = zeta_reference(beta, s)
    for beta in MOMENT_SERIES_BETAS:
        for n in SWEEP:
            values[series_key("moment_series", beta, n)] = \
                moment_series_reference(beta, n)
    for n, _ in ALPHA1_CASES:
        values[series_key("alpha1", 0.0, n)] = alpha1_reference(n)
    payload = {
        "method": (f"mpmath {mp.__version__}, {DIGITS} digits: direct sum of "
                   f"k < {HEAD}, Euler-Maclaurin tail with {EM_TERMS} "
                   f"Bernoulli terms"),
        "values": {k: mp.nstr(v, 25) for k, v in values.items()},
    }
    with open(REFERENCES_FILE, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} values to {REFERENCES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
