"""Config handling, exponent fitting, sweeps, comparison, serialization."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from batchlab.distributions import parse_dist, uniform
from batchlab.errors import ConfigError
from batchlab.harness import (_BOOTSTRAP_RESAMPLES, RunConfig, ScalingReport,
                              compare_algorithms, emit, fit_loglog, run_scaling)
from batchlab.simulators import run_trials
from tests.conftest import MASTER_SEED
from tests.oracles import bootstrap_exponent_ci


class TestRunConfig:
    def test_from_text_sets_every_field_type(self):
        cfg = RunConfig.from_text(
            "command=scaling\ndist=powertail:beta=1\nn=7\n"
            "n_sweep=100,1000,10000,100000\ntrials=500\ndelta=0.25\n"
            "eps=1e-7\ns=2.5\np=0.5,0.25\nseed=123\nthreads=2\n"
            "method=mc_median\nalgorithm=batch\nhorizon=50\nout=r.csv\n"
            "format=csv\ndump=true\n")
        want = RunConfig(command="scaling", dist="powertail:beta=1", n=7,
                         n_sweep=(100, 1000, 10000, 100000), trials=500,
                         delta=0.25, eps=1e-7, s=2.5, p=(0.5, 0.25), seed=123,
                         threads=2, method="mc_median", algorithm="batch",
                         horizon=50, out="r.csv", format="csv", dump=True)
        assert cfg == want
        types = lambda c: [(f.name, type(getattr(c, f.name)))
                           for f in dataclasses.fields(c)]
        assert types(cfg) == types(want)
        assert [type(v) for v in cfg.n_sweep + cfg.p] == [int] * 4 + [float] * 2

    def test_file_values_overridden_by_flags(self):
        base = RunConfig.from_text("dist=uniform\ntrials=50\nseed=7\n")
        merged = base.merged({"trials": 99, "seed": None})
        assert merged.trials == 99
        assert merged.seed == 7

    def test_comments_and_blanks_ignored(self):
        cfg = RunConfig.from_text("# comment\n\ndist=uniform\n")
        assert cfg.dist == "uniform"

    @pytest.mark.parametrize("text", ["nonsense\n", "unknown_key=3\n",
                                      "trials=many\n"])
    def test_bad_files_rejected(self, text):
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("kwargs", [
        dict(threads=0),
        dict(seed=-1),
        dict(seed=2**64),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(command="simulate", **kwargs).validate()

    def test_validation_leaves_other_fields_to_their_readers(self):
        # each of these is refused by the library function that reads it
        cfg = RunConfig(command="simulate", trials=0, delta=1.0, eps=-1.0,
                        dist="powertail:beta=-2", format="xml")
        assert cfg.validate() is cfg

    def test_scaling_sweep_requirements(self):
        for sweep in [(10, 100, 1000), (10, 20, 40, 80), (10, 10, 100, 1000),
                      (0, 10, 100, 1000)]:
            with pytest.raises(ConfigError, match="^n-sweep "):
                run_scaling(RunConfig(command="scaling", n_sweep=sweep))
        rep = run_scaling(RunConfig(command="scaling", n_sweep=(10, 100, 500, 1000),
                                    trials=50))
        assert rep.n_values == (10, 100, 500, 1000)


class TestFitLogLog:
    def test_exact_power_law_recovery(self):
        n = np.asarray([10.0, 100.0, 1000.0, 10000.0, 100000.0])
        for gamma in (-1.5, 0.5, 1.0, 2.0):
            fit = fit_loglog(n, 3.7 * n**gamma)
            assert abs(fit.exponent - gamma) < 1e-12
            assert abs(fit.intercept - math.log(3.7)) < 1e-12
            assert fit.discarded == ()

    def test_transient_point_discarded(self):
        n = np.asarray([10.0, 100.0, 1000.0, 10000.0, 100000.0])
        y = 2.0 * n**1.5
        y[0] *= 40.0                         # contaminated smallest point
        fit = fit_loglog(n, y)
        assert fit.discarded == (10.0,)
        assert abs(fit.exponent - 1.5) < 1e-12

    def test_small_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([10.0, 100.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_loglog([10.0, 100.0, 1000.0], [1.0, -2.0, 3.0])


class TestRunScaling:
    def test_moment_series_sweep(self):
        cfg = RunConfig(command="scaling", dist="powertail:beta=1",
                        n_sweep=(100, 316, 1000, 3162, 10000), seed=MASTER_SEED)
        rep = run_scaling(cfg)
        assert rep.method == "moment_series"
        assert abs(rep.fitted_exponent - 0.5) < 0.05
        assert rep.exponent_ci[0] <= rep.fitted_exponent <= rep.exponent_ci[1]
        assert all(np.isfinite(v) for v, _ in rep.estimates)
        assert all(b >= a for a, b in zip(rep.n_values, rep.n_values[1:]))

    def test_mc_median_sweep_deterministic_across_threads(self):
        cfg = RunConfig(command="scaling", dist="uniform",
                        n_sweep=(100, 316, 1000, 3162, 10000),
                        trials=400, seed=MASTER_SEED, method="mc_median")
        rep1 = run_scaling(cfg)
        rep2 = run_scaling(dataclasses.replace(cfg, threads=4))
        assert rep1.result_fields() == rep2.result_fields()
        assert abs(rep1.fitted_exponent - 1.0) < 0.15
        assert rep1.trials == 400

    def test_auto_method_selection(self):
        cfg = RunConfig(command="scaling", dist="uniform", trials=100,
                        n_sweep=(10, 100, 400, 1000), seed=1)
        assert run_scaling(cfg).method == "mc_median"

    def test_rejects_bad_method(self):
        cfg = RunConfig(command="scaling", dist="uniform", method="ouija",
                        n_sweep=(10, 100, 400, 1000))
        with pytest.raises(ConfigError):
            run_scaling(cfg)


class TestBootstrapCi:
    # (law, sweep, trials, points fit_loglog discards or None); at 5000
    # trials the kept points' 200 resamples pass 2**22 values and split
    # into two blocks; one trial is refused (tests/test_refusals.py)
    CASES = [("uniform", (10, 100, 1000, 10000), 3, None),
             ("uniform", (100, 316, 1000, 3162, 10000), 101, None),
             ("powertail:beta=1", (1, 10, 100, 1000), 101, 1),
             ("uniform", (10, 30, 100, 300, 1000, 3000), 5000, None)]

    @pytest.mark.parametrize("spec, sweep, trials, discarded", CASES,
                             ids=lambda v: str(v))
    def test_equals_the_per_resample_oracle(self, spec, sweep, trials, discarded):
        cfg = RunConfig(command="scaling", dist=spec, n_sweep=sweep, trials=trials,
                        seed=MASTER_SEED, method="mc_median")
        samples = [run_trials("batch", parse_dist(spec), n, trials, MASTER_SEED).times
                   for n in sweep]
        fit = fit_loglog(sweep, [float(np.median(t)) for t in samples])
        if discarded is not None:
            assert len(fit.discarded) == discarded
        if trials == 5000:
            kept = len(sweep) - len(fit.discarded)
            assert (1 << 22) // (kept * trials) < _BOOTSTRAP_RESAMPLES
        rep = run_scaling(cfg)
        assert rep.discarded == fit.discarded
        assert rep.exponent_ci == bootstrap_exponent_ci(cfg, samples, fit)


class TestCompare:
    def test_single_n_smoke_and_exact_quantile(self):
        # all three finite at n=1; batch quantile within 2x of the exact
        # mixture quantile: smallest k with 1 - m_k >= 1 - delta
        cfg = RunConfig(command="compare", dist="uniform", n=1, delta=0.5,
                        trials=4000, seed=MASTER_SEED)
        table = compare_algorithms(cfg)
        assert set(table.algorithms) == {"batch", "memoryless", "full_memory"}
        for alg in table.algorithms:
            assert all(np.isfinite(v) for v in table.n_delta[alg])
        k_exact = 1
        while 1.0 / (k_exact + 1.0) > cfg.delta:     # m_k = 1/(k+1)
            k_exact += 1
        assert table.n_delta["batch"][0] <= 2 * k_exact + 1

    def test_ordering_flagged(self):
        cfg = RunConfig(command="compare", dist="uniform", n=100, delta=0.1,
                        trials=4000, seed=MASTER_SEED)
        table = compare_algorithms(cfg)
        assert table.violations == ()
        assert table.n_delta["batch"][0] <= table.n_delta["memoryless"][0]


def _sample_scaling_report():
    return ScalingReport(
        dist="scaled:a=0.5,inner=powertail:beta=1", method="moment_series",
        n_values=(10, 100), estimates=((1.5, 1e-9), (2.5, None)),
        fitted_exponent=0.5000001, exponent_ci=(0.45, 0.55),
        runtime_seconds=(0.125, 0.25), discarded=(10.0,),
        trials=100, seed=42)


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scaling_without_trials_round_trip(self, fmt):
        # moment_series draws nothing, so its report carries no trial count
        rep = run_scaling(RunConfig(command="scaling", dist="powertail:beta=1",
                                    n_sweep=(10, 30, 100, 1000),
                                    method="moment_series"))
        assert rep.trials is None
        text = emit(rep, fmt)
        if fmt == "csv":
            header, first = text.splitlines()[:2]
            assert first.split(",")[header.split(",").index("trials")] == ""
        else:
            assert '"trials": null' in text

    def test_empty_sweep_emits_header_only(self):
        rep = dataclasses.replace(_sample_scaling_report(), n_values=(),
                                  estimates=(), runtime_seconds=())
        text = emit(rep, "csv")
        assert text.count("\n") == 1 and text.startswith("schema,")

    def test_json_carries_seed_and_schema(self):
        payload = json.loads(emit(_sample_scaling_report(), "json"))
        assert payload["schema"].startswith("batchlab/")
        assert payload["seed"] == 42

    def test_lossless_float_rendering(self):
        rep = dataclasses.replace(
            _sample_scaling_report(),
            estimates=((math.pi * 1e-7, 2.0**-40), (1.0 / 3.0, None)),
            fitted_exponent=0.1 + 0.2)
        payload = json.loads(emit(rep, "json"))
        assert [tuple(e) for e in payload["estimates"]] == list(rep.estimates)
        assert payload["fitted_exponent"] == rep.fitted_exponent
        rows = list(csv.DictReader(io.StringIO(emit(rep, "csv"))))
        assert [(float(r["value"]), float(r["error"]) if r["error"] else None)
                for r in rows] == list(rep.estimates)
        assert {float(r["fitted_exponent"]) for r in rows} == {rep.fitted_exponent}

    def test_numpy_integer_seed_emits_as_int(self):
        # a Python caller may pass numpy integers; JSON gets plain ints
        def text(seed):
            rep = run_scaling(RunConfig(n_sweep=(10, 30, 100, 1000), trials=50,
                                        method="mc_median", seed=seed))
            return emit(dataclasses.replace(rep, runtime_seconds=()), "json")
        assert text(np.int64(3)) == text(3)

    def test_emit_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="xml"):
            emit(_sample_scaling_report(), "xml")
