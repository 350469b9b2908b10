"""CLI surface: subcommands, exit codes, config files, output routing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from batchlab import cli
from batchlab.cli import main
from batchlab.harness import parse_report
from tests.conftest import MASTER_SEED

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZetaCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(["zeta", "--dist", "uniform", "--s", "2",
                                "--eps", "1e-9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - (math.pi**2 / 6 - 1)) < 1e-8
        assert payload["k_used"] > 0
        assert payload["error_bound"] <= 1e-9

    def test_divergence_exit_code(self, capsys):
        code, _, err = run_cli(["zeta", "--dist", "uniform", "--s", "1"], capsys)
        assert code == 3
        assert "divergence" in err

    def test_precision_exit_code(self, capsys):
        # eps far below the rounding of the tail (~2e-16 at K = 2**26)
        code, _, err = run_cli(["zeta", "--dist", "uniform", "--s", "1.1",
                                "--eps", "1e-20"], capsys)
        assert code == 4

    def test_missing_s_is_config_error(self, capsys):
        code, _, err = run_cli(["zeta", "--dist", "uniform"], capsys)
        assert code == 2


class TestExactTimeAndNDelta:
    def test_both_conventions_reported(self, capsys):
        code, out, _ = run_cli(["exact-time", "--p", "0.5,0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["t"] - 5.0 / 3.0) < 1e-9
        assert abs(payload["steps_expectation"] - 8.0 / 3.0) < 1e-9

    def test_divergent_vector(self, capsys):
        code, _, _ = run_cli(["exact-time", "--p", "0.5,1.0"], capsys)
        assert code == 3

    def test_ndelta(self, capsys):
        code, out, _ = run_cli(["ndelta", "--p", "0.9", "--delta", "0.01"],
                               capsys)
        assert code == 0
        assert json.loads(out)["n_delta"] == 44

    def test_bad_p_string(self, capsys):
        code, _, _ = run_cli(["ndelta", "--p", "0.9;0.2", "--delta", "0.5"],
                             capsys)
        assert code == 2


class TestSimulateCommand:
    def test_summary_json(self, capsys):
        code, out, _ = run_cli(["simulate", "--alg", "batch", "--dist",
                                "powertail:beta=1", "--n", "5", "--trials",
                                "500", "--seed", str(MASTER_SEED)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 500
        assert payload["censored"] == 0
        assert payload["min"] >= 1.0

    def test_dump_csv(self, capsys):
        code, out, _ = run_cli(["simulate", "--alg", "batch", "--dist",
                                "uniform", "--n", "3", "--trials", "10",
                                "--seed", "1", "--dump"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,time"
        assert len(lines) == 11

    def test_fixed_p(self, capsys):
        code, out, _ = run_cli(["simulate", "--alg", "full_memory",
                                "--fixed-p", "0.5,0.5", "--trials", "200",
                                "--seed", "2"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 2
        assert json.loads(out)["dist"] == "fixed"

    def test_censoring_exit_code(self, capsys):
        code, _, err = run_cli(["simulate", "--alg", "memoryless", "--dist",
                                "uniform", "--n", "50", "--trials", "100",
                                "--seed", "3", "--horizon", "2", "--delta",
                                "0.1"], capsys)
        # summary reports censored trials rather than failing
        assert code == 0

    def test_horizon_below_one_rejected(self, capsys):
        code, _, err = run_cli(["simulate", "--alg", "memoryless", "--dist",
                                "uniform", "--n", "5", "--trials", "5",
                                "--horizon", "-1"], capsys)
        assert code == 2
        assert "horizon" in err

    def test_seed_reproducibility(self, capsys):
        args = ["simulate", "--alg", "memoryless", "--dist", "uniform",
                "--n", "10", "--trials", "300", "--seed", "9", "--dump"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_seed_beyond_64_bits_rejected(self, capsys):
        # 2**64 must not alias seed 0
        code, out, err = run_cli(["simulate", "--alg", "batch", "--dist", "uniform",
                                  "--n", "10", "--trials", "5",
                                  "--seed", "18446744073709551616"], capsys)
        assert code == 2 and out == "" and "seed" in err


class TestEnsembleAndExtremes:
    def test_ensemble_csv_default(self, capsys):
        code, out, _ = run_cli(["ensemble", "--dist", "powertail:beta=1",
                                "--n", "50", "--method", "moment_series"],
                               capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("dist,n,method,value,error")
        assert "moment_series" in row

    def test_ensemble_divergence(self, capsys):
        code, _, _ = run_cli(["ensemble", "--dist", "uniform", "--n", "50",
                              "--method", "moment_series"], capsys)
        assert code == 3

    def test_extremes_csv(self, capsys):
        code, out, _ = run_cli(["extremes", "--dist", "uniform", "--n-sweep",
                                "10,100", "--trials", "2000", "--seed",
                                str(MASTER_SEED)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "ks_distance" in lines[0]


class TestScalingAndCompare:
    def test_scaling_json_round_trips(self, capsys):
        code, out, _ = run_cli(["scaling", "--dist", "powertail:beta=1",
                                "--n-sweep", "100,316,1000,3162,10000",
                                "--seed", "5", "--format", "json"], capsys)
        assert code == 0
        rep = parse_report(out)
        assert abs(rep.fitted_exponent - 0.5) < 0.05

    def test_193_sweep_rejected(self, capsys):
        code, _, _ = run_cli(["scaling", "--dist", "uniform", "--n-sweep",
                              "10,20,30"], capsys)
        assert code == 2

    def test_compare_runs(self, capsys):
        code, out, _ = run_cli(["compare", "--dist", "uniform", "--n", "30",
                                "--delta", "0.2", "--trials", "2000",
                                "--seed", str(MASTER_SEED), "--format",
                                "csv"], capsys)
        assert code == 0
        rep = parse_report(out)
        assert rep.violations == ()

    def test_thread_determinism_of_emitted_results(self, capsys, tmp_path):
        base = ["scaling", "--dist", "uniform", "--method", "mc_median",
                "--n-sweep", "100,316,1000,3162,10000", "--trials", "300",
                "--seed", str(MASTER_SEED), "--format", "json"]
        _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
        _, out4, _ = run_cli(base + ["--threads", "4"], capsys)
        assert parse_report(out1).result_fields() == parse_report(out4).result_fields()


class TestExitCodes:
    @pytest.mark.parametrize("args, field", [
        (["extremes", "--n-sweep", "0,10"], "n-sweep"),
        (["scaling", "--n-sweep", "0,10,100,1000", "--method", "mc_median"],
         "n-sweep"),
        (["ensemble", "--method", "zeta_sum", "--n", "40"], "n"),
        (["extremes", "--n-sweep", "10", "--trials", "1"], "trials"),
        (["extremes", "--n-sweep", "10", "--dist",
          "scaled:a=0.5,inner=uniform"], "dist"),
        (["simulate", "--alg", "batch", "--n", "-3"], "n"),
        (["ndelta", "--p", "1.5"], "p"),
        (["zeta", "--s", "nan"], "s"),
        (["zeta", "--s", "2", "--eps", "nan"], "eps"),
        (["ensemble", "--n", "10", "--dist", "powertail:beta=1", "--eps", "nan"],
         "eps"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_documented_limits_are_config_errors(self, capsys, args, field):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {field} ")

    @pytest.mark.parametrize("args", [
        ["zeta", "--s", "2", "--format", "csv"],
        ["exact-time", "--p", "0.5", "--format", "csv"],
        ["ndelta", "--p", "0.5", "--format", "csv"],
        ["simulate", "--alg", "batch", "--n", "3", "--format", "csv"],
        ["simulate", "--alg", "batch", "--n", "3", "--dump", "--format", "json"],
    ], ids=lambda v: " ".join(v))
    def test_unwritable_format_is_config_error(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: format ")

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch):
        def broken(cfg):
            raise ValueError("zero-size array to reduction operation")
        monkeypatch.setitem(cli._HANDLERS, "zeta", broken)
        with pytest.raises(ValueError, match="zero-size array"):
            main(["zeta", "--s", "2"])


class TestConfigFileAndOutput:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dist=powertail:beta=1\ns=2\neps=1e-8\n")
        code, out, _ = run_cli(["zeta", "--config", str(cfg)], capsys)
        assert code == 0
        v_file = json.loads(out)["value"]
        code, out, _ = run_cli(["zeta", "--config", str(cfg), "--s", "1"],
                               capsys)
        assert code == 0
        v_flag = json.loads(out)["value"]
        assert abs(v_flag - 1.0) < 1e-7 and v_file != v_flag

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["zeta", "--config", "/no/such/file",
                                "--s", "2"], capsys)
        assert code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "z.json"
        code, out, _ = run_cli(["zeta", "--dist", "uniform", "--s", "3",
                                "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert abs(json.loads(target.read_text())["value"]
                   - (1.2020569031595943 - 1.0)) < 1e-6


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "batchlab", "zeta", "--dist",
             "powertail:beta=1", "--s", "1", "--eps", "1e-8"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"] - 1.0) < 1e-7

    def test_import_loads_no_quadrature(self):
        # a fresh interpreter: the test modules import scipy.integrate themselves
        code = ("import sys, batchlab, batchlab.cli; "
                "print([m for m in sys.modules if m.startswith('scipy.integrate')])")
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=ROOT, check=True)
        assert proc.stdout.strip() == "[]"

    def test_bad_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "batchlab", "zeta", "--nonsense"],
            capture_output=True, text=True)
        assert proc.returncode == 2
