"""Frozen calibration constants for the order-of-magnitude sandwich checks.

The window constants below were derived once from a high-trial run of
``scripts/calibrate_regime_windows.py`` (see that script for the exact
procedure) and are frozen here; they are never tuned per test run.
Keys are regimes of the moment tail exponent alpha = beta + 1.

For beta > 0 the sublinear-regime window is [C1 * n**(1/(1+beta)), C2 * n]; for
beta = 0 it is [C1 * n, C2 * n * log n]; for beta < 0 the two-sided window
is [n**(1/(1+beta)) / C, C * n**(1/(1+beta))].  All windows are checked
against the word-count convention T + 1.
"""

#: beta > 0 regime: (C1, C2).  Calibrated margins: the normalized statistic
#: T/n**(1/(1+beta)) never fell below 0.84 and T/n exceeded 10 only ~0.03%
#: of the time at n in {300, 1000} (4000 trials each).
POSITIVE_BETA_WINDOW = (0.1, 10.0)

#: beta = 0 regime: (C1, C2).  T/n has empirical minimum ~0.25; the upper
#: statistic T/(n log n) has a stable index-1 tail with
#: P(> C2) ~ 1/(C2 log n) ~ 0.3% at C2 = 50.
ZERO_BETA_WINDOW = (0.05, 50.0)

#: beta < 0 regime: single two-sided constant C.  The normalized time has a
#: stable index-1/2 upper tail (P(> C) ~ C**-0.5), so a wide window is the
#: honest choice: violations ~0.3% at C = 1e5, lower side never below 0.02.
NEGATIVE_BETA_WINDOW = 1e5
