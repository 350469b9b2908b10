"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure).  Criteria 3-8 produce seed-deterministic artifacts; criterion 10
recomputes them under a different thread count and requires byte-identical
serialized results.
"""

import json
import math
import time

import numpy as np
import pytest

from batchlab import ensemble as en
from batchlab.batch_exact import (expected_time_bulk, expected_time_series,
                                  sandwich, survival)
from batchlab.distributions import power_tail, uniform
from batchlab.errors import DivergenceError
from batchlab.harness import RunConfig, run_scaling
from batchlab.moment_zeta import verify_zeta_expectation, zeta
from batchlab.rng import derive_rng
from batchlab.simulators import empirical_n_delta, run_trials
from tests.oracles import expected_time_subsets

SEED = 20260810
SWEEP = (100, 316, 1000, 3162, 10000, 31623, 100000)


def report(criterion: str, ok: bool, elapsed: float, detail: str):
    line = (f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s): {detail}")
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# deterministic artifact builders for criteria 3-8 (shared with criterion 10)
# ----------------------------------------------------------------------


def artifact_3(threads: int) -> dict:
    chk = verify_zeta_expectation(uniform(), 2, 10**6, SEED, threads=threads)
    return {"mc": chk.mc_estimate, "zeta": chk.zeta_value,
            "stderr": chk.stderr, "trimmed": chk.trimmed_mean}


def artifact_4(threads: int) -> dict:
    rng = derive_rng(SEED, 904)
    vectors = [rng.random(10) * 0.95 for _ in range(20)]
    means, targets, stderrs = [], [], []
    survival_rows = []
    for i, p in enumerate(vectors):
        times = run_trials("batch", None, 10, 10**5, SEED + i, fixed_p=p,
                           threads=threads).times
        means.append(float(times.mean()))
        targets.append(expected_time_series(p, eps=1e-11).steps_expectation)
        stderrs.append(float(times.std(ddof=1) / math.sqrt(times.size)))
        if i < 5:
            emp = [float((times > k).mean()) for k in (1, 2, 5, 10)]
            survival_rows.append(emp)
    return {"means": means, "targets": targets, "stderrs": stderrs,
            "survival": survival_rows,
            "p_head": [v.tolist() for v in vectors[:5]]}


def artifact_5(threads: int) -> dict:
    out = {}
    cases = [("powertail:beta=1", "moment_series", 0.5),
             ("uniform", "mc_median", 1.0),
             ("powertail:beta=-0.5", "mc_median", 2.0)]
    for dist, method, _ in cases:
        # moment_series draws nothing, so it refuses a trial count
        cfg = RunConfig(command="scaling", dist=dist, n_sweep=SWEEP,
                        trials=2000 if method == "mc_median" else None,
                        seed=SEED, method=method, threads=threads)
        out[dist] = run_scaling(cfg).result_fields()
    return out


def artifact_6(threads: int) -> dict:
    ev9 = en.extreme_value(uniform(), [9], 10**5, SEED, threads=threads)
    ks = en.extreme_value(uniform(), [1000], 10**5, SEED, threads=threads)
    slopes = {}
    for beta in (0.0, 1.0):
        dist = uniform() if beta == 0.0 else power_tail(beta)
        ev = en.extreme_value(dist, [100, 316, 1000, 3162, 10000], 20000,
                              SEED, threads=threads)
        slopes[str(beta)] = ev.fitted_slope
    return {"mean_min_q_n9": ev9.mean_min_q[0], "stderr_n9": ev9.stderr[0],
            "ks_n1000": ks.ks_distance, "slopes": slopes}


def artifact_7(threads: int) -> dict:
    del threads                      # pure deterministic sampling, one stream
    rng = derive_rng(SEED, 907)
    survival_viol = 0
    cases = 10**4
    sizes = rng.integers(1, 13, size=cases)
    for n in (1, 2, 3, 5, 8, 12):
        rows = int((sizes == n).sum()) or 1
        P = rng.random((rows, n)) ** rng.uniform(0.3, 3.0)
        P = np.minimum(P, 0.9999)
        ks = rng.integers(1, 101, size=rows)
        for krow, prow in zip(ks, P):
            lo, hi = sandwich(prow, int(krow))
            q = survival(prow, int(krow))
            if not (lo - 1e-12 <= q <= hi + 1e-12):
                survival_viol += 1
    coarse_viol = 0
    P = rng.random((10**4, 6)) * 0.999
    steps = expected_time_bulk(P) + 1.0
    inv = 1.0 / (1.0 - P)
    lower = inv.max(axis=1)
    upper = inv.sum(axis=1)
    tol = 1e-6 * np.maximum(steps, 1.0)
    coarse_viol = int(((steps < lower - tol) | (steps > upper + tol)).sum())
    return {"survival_violations": survival_viol,
            "coarse_violations": coarse_viol, "cases": cases}


def artifact_8(threads: int) -> dict:
    nb = empirical_n_delta("batch", uniform(), 100, 0.1, 10**4, SEED,
                           threads=threads)
    nm = empirical_n_delta("memoryless", uniform(), 100, 0.1, 10**4, SEED,
                           threads=threads)
    return {"batch": nb, "memoryless": nm}


ARTIFACTS = {"3": artifact_3, "4": artifact_4, "5": artifact_5,
             "6": artifact_6, "7": artifact_7, "8": artifact_8}


@pytest.fixture(scope="module")
def artifacts():
    cache = {}

    def get(name: str, threads: int = 1):
        key = (name, threads)
        if key not in cache:
            cache[key] = ARTIFACTS[name](threads)
        return cache[key]

    return get


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


class TestAcceptance:
    def test_criterion_01_cross_formula_exactness(self):
        t0 = time.perf_counter()
        rng = derive_rng(SEED, 901)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 16))
            p = rng.random(n) * rng.uniform(0.5, 0.99)
            a = expected_time_subsets(p)
            b = expected_time_series(p, eps=1e-13).t
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        elapsed = time.perf_counter() - t0
        report("1 cross-formula", worst <= 1e-10 and elapsed < 10.0, elapsed,
               f"max relative gap {worst:.3e} over 100 vectors (n <= 15)")

    def test_criterion_02_zeta_values(self):
        t0 = time.perf_counter()
        from tests.test_moment_zeta import direct_sum_oracle
        z2 = zeta(uniform(), 2.0, eps=1e-9).value
        z3 = zeta(uniform(), 3.0, eps=1e-9).value
        zp = zeta(power_tail(1.0), 1.0, eps=1e-9).value
        checks = [
            abs(z2 - (math.pi**2 / 6.0 - 1.0)),
            abs(z2 - direct_sum_oracle(uniform(), 2.0)),
            abs(z3 - 0.2020569031595942854),          # zeta(3) - 1
            abs(z3 - direct_sum_oracle(uniform(), 3.0)),
            abs(zp - 1.0),                            # telescoping sum
        ]
        elapsed = time.perf_counter() - t0
        report("2 zeta-values", max(checks) <= 1e-8 and elapsed < 5.0, elapsed,
               f"worst deviation {max(checks):.3e}")

    def test_criterion_03_expectation_identity(self, artifacts):
        t0 = time.perf_counter()
        art = artifacts("3")
        gap = abs(art["mc"] - art["zeta"])
        ok = gap <= 4.0 * art["stderr"]
        try:
            verify_zeta_expectation(uniform(), 1, 1000, SEED)
            diverged = False
        except DivergenceError:
            diverged = True
        elapsed = time.perf_counter() - t0
        report("3 zeta-expectation", ok and diverged and elapsed < 10.0,
               elapsed,
               f"|mc - zeta| = {gap:.2e} vs 4*stderr = {4 * art['stderr']:.2e}; "
               f"n=1 divergence signaled: {diverged}")

    def test_criterion_04_simulator_formula_agreement(self, artifacts):
        t0 = time.perf_counter()
        art = artifacts("4")
        mean_ok = all(abs(m - t) <= 4.0 * s for m, t, s in
                      zip(art["means"], art["targets"], art["stderrs"]))
        surv_ok = True
        for row, p in zip(art["survival"], art["p_head"]):
            for emp, k in zip(row, (1, 2, 5, 10)):
                q = survival(np.asarray(p), k)
                sigma = math.sqrt(max(q * (1.0 - q), 1e-12) / 10**5)
                surv_ok &= abs(emp - q) <= 4.0 * sigma
        elapsed = time.perf_counter() - t0
        report("4 simulator-agreement",
               mean_ok and surv_ok and elapsed < 60.0, elapsed,
               f"20 vectors x 1e5 trials; means within 4*stderr: {mean_ok}, "
               f"survival within 4 sigma: {surv_ok}")

    def test_criterion_05_scaling_exponents(self, artifacts):
        t0 = time.perf_counter()
        art = artifacts("5")
        e1 = art["powertail:beta=1"]["fitted_exponent"]
        e0 = art["uniform"]["fitted_exponent"]
        en_ = art["powertail:beta=-0.5"]["fitted_exponent"]
        ok = (abs(e1 - 0.5) <= 0.05 and abs(e0 - 1.0) <= 0.15
              and abs(en_ - 2.0) <= 0.2)
        elapsed = time.perf_counter() - t0
        report("5 scaling-exponents", ok and elapsed < 600.0, elapsed,
               f"beta=1: {e1:.3f} (0.5 +/- 0.05), beta=0: {e0:.3f} "
               f"(1.0 +/- 0.15), beta=-0.5: {en_:.3f} (2.0 +/- 0.2)")

    def test_criterion_06_extreme_value(self, artifacts):
        t0 = time.perf_counter()
        art = artifacts("6")
        mean_ok = abs(art["mean_min_q_n9"] - 0.1) <= 4.0 * art["stderr_n9"]
        ks_ok = art["ks_n1000"] < 0.01
        slope_ok = (abs(art["slopes"]["0.0"] + 1.0) <= 0.05
                    and abs(art["slopes"]["1.0"] + 0.5) <= 0.05)
        elapsed = time.perf_counter() - t0
        report("6 extreme-value",
               mean_ok and ks_ok and slope_ok and elapsed < 120.0, elapsed,
               f"E[min q](n=9) = {art['mean_min_q_n9']:.5f} (want 0.1), "
               f"KS = {art['ks_n1000']:.4f} (< 0.01), slopes "
               f"{art['slopes']['0.0']:.3f}/{art['slopes']['1.0']:.3f}")

    def test_criterion_07_bounds_sandwiches(self, artifacts):
        t0 = time.perf_counter()
        art = artifacts("7")
        ok = art["survival_violations"] == 0 and art["coarse_violations"] == 0
        elapsed = time.perf_counter() - t0
        report("7 bounds-sandwiches", ok and elapsed < 30.0, elapsed,
               f"{art['cases']} survival cases, 10000 coarse cases, "
               f"violations: {art['survival_violations']} + "
               f"{art['coarse_violations']}")

    def test_criterion_08_algorithm_comparison(self, artifacts):
        t0 = time.perf_counter()
        art = artifacts("8")
        ok = art["batch"] <= art["memoryless"]
        elapsed = time.perf_counter() - t0
        report("8 comparison", ok and elapsed < 60.0, elapsed,
               f"batch N_delta = {art['batch']} <= memoryless "
               f"N_delta = {art['memoryless']}")

    def test_criterion_09_alpha_one_regime(self):
        t0 = time.perf_counter()
        r2 = en.alpha1_decomposition(uniform(), 2, eps=1e-9)
        exact_ok = abs(r2.t2 + (math.pi**2 / 6.0 - 1.0)) <= 1e-8
        n = 10**4
        r = en.alpha1_decomposition(uniform(), n, eps=1.0)
        ratio = r.t2 / (n * math.log(n))
        growth_ok = abs(ratio - (-r.c)) <= 0.1 * abs(r.c)
        elapsed = time.perf_counter() - t0
        report("9 alpha-one-regime", exact_ok and growth_ok and elapsed < 60.0,
               elapsed,
               f"T2(n=2) off by {abs(r2.t2 + math.pi**2 / 6.0 - 1.0):.1e}; "
               f"T2/(n log n) = {ratio:.4f} vs -c = {-r.c:.4f}")

    def test_criterion_10_thread_determinism(self, artifacts):
        t0 = time.perf_counter()
        mismatches = []
        for name in ("3", "4", "5", "6", "7", "8"):
            one = json.dumps(artifacts(name, 1), sort_keys=True)
            two = json.dumps(artifacts(name, 2), sort_keys=True)
            if one != two:
                mismatches.append(name)
        elapsed = time.perf_counter() - t0
        report("10 determinism", not mismatches, elapsed,
               f"criteria 3-8 rerun with 2 threads; byte-identical: "
               f"{not mismatches}"
               + (f" (mismatches: {mismatches})" if mismatches else ""))
