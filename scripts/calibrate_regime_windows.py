#!/usr/bin/env python3
"""One-time calibration of the order-of-magnitude window constants.

Samples per-vector expected word counts at several n for each regime and
prints extreme quantiles of the regime-normalized statistic, plus suggested
frozen window constants with a ~4x safety margin.  The chosen values live in
``batchlab.calibration`` and are never tuned per test run; rerun this script
only to justify a new calibration version.

Usage: python scripts/calibrate_regime_windows.py [--trials 4000] [--seed 20260810]
"""

import argparse
import math

import numpy as np

from batchlab import distributions as dist_mod
from batchlab.batch_exact import expected_time_bulk
from batchlab.simulators import _map_overlap_rows


def sample_word_counts(dist, n, trials, seed):
    return _map_overlap_rows(lambda P, rng: expected_time_bulk(P) + 1.0,
                             dist, n, trials, seed, (99,))


def report(name, stat, lo_rate, hi_rate):
    qs = np.quantile(stat, [0.0, 0.001, 0.005, 0.5, 0.995, 0.999, 1.0])
    print(f"  {name}: min={qs[0]:.4g} q001={qs[1]:.4g} q005={qs[2]:.4g} "
          f"median={qs[3]:.4g} q995={qs[4]:.4g} q999={qs[5]:.4g} max={qs[6]:.4g}")
    return qs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=20260810)
    args = ap.parse_args()

    for beta, ns in [(1.0, (300, 1000)), (0.0, (300, 1000)), (-0.5, (300, 1000))]:
        d = dist_mod.power_tail(beta)
        print(f"beta = {beta}:")
        for n in ns:
            t = sample_word_counts(d, n, args.trials, args.seed)
            rate = n ** (1.0 / (1.0 + beta))
            if beta > 0.0:
                lo = report(f"n={n} T/rate (C1 side)", t / rate, None, None)
                hi = report(f"n={n} T/n (C2 side)", t / n, None, None)
                print(f"    suggest C1 <= {lo[1] / 4:.3g}, C2 >= {hi[5] * 4:.3g}")
            elif beta == 0.0:
                lo = report(f"n={n} T/n (C1 side)", t / n, None, None)
                hi = report(f"n={n} T/(n log n) (C2 side)", t / (n * math.log(n)), None, None)
                print(f"    suggest C1 <= {lo[1] / 4:.3g}, C2 >= {hi[5] * 4:.3g}")
            else:
                r = report(f"n={n} T/rate", t / rate, None, None)
                c = max(r[5], 1.0 / r[1])
                print(f"    suggest C >= {c * 4:.3g}")


if __name__ == "__main__":
    main()
