"""CLI surface: subcommands, exit codes, config files, output routing.

``tests/golden/`` pins the exact stdout of every README command and of the
argv lists in ``GOLDEN_EXTRA``, with the CLI's clock replaced by a fixed
ramp so that ``runtime_seconds`` is pinned too.  Where a golden file is
missing, ``TestReadme::test_command_runs`` writes it and fails.  A change
that means to move an output deletes the file, runs the test once, commits
the new file and lists every moved line in CHANGES.md.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from batchlab import cli, harness
from batchlab.cli import main
from batchlab.harness import RunConfig
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


def mpmath_moments(mp, beta, terms):
    """m_1, ..., m_terms at 40 digits; m_k falls like k**-(beta+1)."""
    from tests.test_moment_zeta import mpmath_moment
    with mp.workdps(40):
        return [mpmath_moment(mp, beta, mp.mpf(k)) for k in range(1, terms + 1)]


class TestLargeTailExponent:
    """Betas whose c**s overflows, or whose moments leave float64 by K."""

    def test_zeta_where_c_to_the_s_overflows(self, capsys):
        mp = pytest.importorskip("mpmath")
        code, out, _ = run_cli(["zeta", "--dist", "powertail:beta=98", "--s", "2"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        with mp.workdps(40):
            want = mp.fsum(m**2 for m in mpmath_moments(mp, 98.0, 200))
        assert 0.0 < payload["error_bound"] <= 1e-16
        assert abs(payload["value"] - float(want)) <= payload["error_bound"]

    def test_moment_series_where_c_to_the_s_overflows(self, capsys):
        mp = pytest.importorskip("mpmath")
        code, out, _ = run_cli(["ensemble", "--dist", "powertail:beta=98",
                                "--n", "1000", "--format", "json"], capsys)
        assert code == 0
        row, = json.loads(out)["rows"]
        with mp.workdps(40):
            want = mp.fsum(-mp.expm1(1000 * mp.log1p(-m))
                           for m in mpmath_moments(mp, 98.0, 400))
        assert 0.0 < row["error"] <= 1e-12
        assert abs(row["value"] - float(want)) <= row["error"]

    @pytest.mark.parametrize("beta", ["110", "120.5", "150"])
    def test_moments_that_leave_float64_exit_4(self, capsys, beta):
        code, out, err = run_cli(["zeta", "--dist", f"powertail:beta={beta}",
                                  "--s", "2"], capsys)
        assert code == 4 and out == ""
        assert "moment m_K underflows" in err


class TestExactTimeAndNDelta:
    def test_both_conventions_reported(self, capsys):
        code, out, _ = run_cli(["exact-time", "--p", "0.5,0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["t"] - 5.0 / 3.0) < 1e-9
        assert abs(payload["steps_expectation"] - 8.0 / 3.0) < 1e-9
        assert payload["route"] == "series"

    def test_past_the_series_cap_answers_by_the_evaluator(self, capsys):
        # p = 1 - 1e-9: the series tail bound cannot reach eps within 2**25
        # steps, so the per-vector evaluator answers; one overlap has
        # T = p / (1 - p) exactly
        p = 0.999999999
        code, out, _ = run_cli(["exact-time", "--p", str(p)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["route"] == "evaluator"
        assert abs(payload["t"] - p / (1.0 - p)) <= 1e-7 * p / (1.0 - p)
        assert payload["steps_expectation"] == payload["t"] + 1.0

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
                                "--seed", "3", "--horizon", "2"], capsys)
        # summary reports censored trials rather than failing
        assert code == 0

    def test_summary_counts_censored_trials_as_infinite(self, capsys):
        # 180 of the 200 trials outlive the horizon, so the mean, the median
        # and the max are +inf, written null; the min is a finished trial's
        code, out, _ = run_cli(["simulate", "--alg", "memoryless", "--n", "50",
                                "--horizon", "20", "--trials", "200", "--seed",
                                "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["censored"] == 180
        assert [payload[k] for k in ("mean", "median", "min", "max")] == [
            None, None, 0.0, None]

    @pytest.mark.parametrize("alg,horizon", [("batch", None), ("memoryless", 7),
                                             ("full_memory", None)])
    def test_horizon_is_the_one_the_trials_ran_under(self, capsys, alg, horizon):
        # only memoryless runs are censored at --horizon
        code, out, _ = run_cli(["simulate", "--alg", alg, "--n", "10",
                                "--trials", "50", "--horizon", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon"] == horizon
        if horizon is None:
            assert payload["censored"] == 0 and payload["max"] > 7

    def test_n_disagreeing_with_fixed_p_rejected(self, capsys):
        base = ["simulate", "--alg", "batch", "--fixed-p", "0.5,0.5",
                "--trials", "20"]
        code, out, err = run_cli(base + ["--n", "10"], capsys)
        assert code == 2 and out == "" and err.startswith("config error: n ")
        code, out, _ = run_cli(base + ["--n", "2"], capsys)
        assert code == 0 and json.loads(out)["n"] == 2

    def test_law_with_fixed_p_rejected(self, capsys):
        # a fixed vector replaces the law, so a law given with it would be ignored
        base = ["simulate", "--alg", "batch", "--fixed-p", "0.5,0.5",
                "--trials", "3"]
        code, out, err = run_cli(base + ["--dist", "powertail:beta=1"], capsys)
        assert code == 2 and out == "" and err.startswith("config error: dist ")
        code, out, _ = run_cli(base, capsys)
        assert code == 0 and json.loads(out)["dist"] == "fixed"

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
        assert abs(json.loads(out)["fitted_exponent"] - 0.5) < 0.05

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
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(row["violations"] == "" for row in rows)

    def test_compare_rejects_n_with_n_sweep(self, capsys):
        code, out, err = run_cli(["compare", "--n", "5", "--n-sweep", "10,30",
                                  "--trials", "50"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: n and n-sweep ")

    @pytest.mark.parametrize("args, fmt", [
        (["scaling", "--dist", "powertail:beta=1", "--n-sweep", "10,30,100,1000"],
         "json"),
        (["compare", "--n", "5", "--trials", "50"], "json"),
        (["ensemble", "--dist", "powertail:beta=1", "--n", "10"], "csv"),
        (["extremes", "--n-sweep", "10,100", "--trials", "50", "--dist",
          "powertail:beta=1"], "csv"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_default_format(self, capsys, args, fmt):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        if fmt == "json":
            assert isinstance(json.loads(out), dict)
        else:
            assert out.startswith("dist,n,method,value,error,")

    def test_thread_determinism_of_emitted_results(self, capsys, tmp_path):
        base = ["scaling", "--dist", "uniform", "--method", "mc_median",
                "--n-sweep", "100,316,1000,3162,10000", "--trials", "300",
                "--seed", str(MASTER_SEED), "--format", "json"]
        _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
        _, out4, _ = run_cli(base + ["--threads", "4"], capsys)
        payload1, payload4 = json.loads(out1), json.loads(out4)
        for payload in (payload1, payload4):
            payload.pop("runtime_seconds")
        assert payload1 == payload4


class TestExitCodes:
    @pytest.mark.parametrize("args, field", [
        (["extremes", "--n-sweep", "0,10"], "n-sweep"),
        (["extremes", "--n-sweep", "100,100,10", "--trials", "50"], "n-sweep"),
        (["scaling", "--n-sweep", "0,10,100,1000", "--method", "mc_median"],
         "n-sweep"),
        (["ensemble", "--method", "zeta_sum", "--n", "40"], "n"),
        (["extremes", "--n-sweep", "10", "--trials", "1"], "trials"),
        (["ensemble", "--n", "10", "--method", "monte_carlo", "--trials", "1"],
         "trials"),
        (["scaling", "--n-sweep", "100,316,1000,10000", "--method", "mc_median",
          "--trials", "1"], "trials"),
        (["extremes", "--n-sweep", "10", "--dist",
          "scaled:a=0.5,inner=uniform"], "dist"),
        (["ensemble", "--method", "integral_asymptotic", "--n", "10", "--dist",
          "scaled:a=0.5,inner=uniform"], "dist"),
        (["simulate", "--alg", "batch", "--n", "-3"], "n"),
        (["ndelta", "--p", "1.5"], "p"),
        (["zeta", "--s", "nan"], "s"),
        (["zeta", "--s", "2", "--eps", "nan"], "eps"),
        (["ensemble", "--n", "10", "--dist", "powertail:beta=1", "--eps", "nan"],
         "eps"),
        # whole numbers past int64, once an OverflowError and exit 1
        (["ensemble", "--dist", "powertail:beta=1", "--n", "1" + "0" * 400,
          "--method", "moment_series"], "n"),
        (["simulate", "--alg", "batch", "--n", "1" + "0" * 400, "--trials", "3"],
         "n"),
    ], ids=lambda v: " ".join(v)[:80] if isinstance(v, list) else v)
    def test_documented_limits_are_config_errors(self, capsys, args, field):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {field} ")

    @pytest.mark.parametrize("p, bad", [("0.5,nan", "nan at index 1"),
                                        ("nan", "nan at index 0"),
                                        ("0.2,1.5", "1.5 at index 1")])
    def test_first_entry_out_of_range_is_named(self, capsys, p, bad):
        code, out, err = run_cli(["exact-time", "--p", p], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: p entries must lie in [0, 1], got {bad}\n"

    @pytest.mark.parametrize("args", [
        ["zeta", "--dist", "powertail:beta=-0.5", "--s", "2"],
        ["zeta", "--dist", "scaled:a=0.5,inner=uniform", "--s", "0"],
        ["zeta", "--dist", "scaled:a=0.5,inner=uniform", "--s", "-1"],
        ["ensemble", "--dist", "uniform", "--n", "5", "--method", "moment_series"],
        ["ensemble", "--dist", "powertail:beta=-0.5", "--n", "5", "--method",
         "moment_series"],
    ], ids=lambda v: " ".join(v))
    def test_divergent_sum_exits_3(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 3 and out == ""
        assert err.startswith("divergence: ") and "nan" not in err

    @pytest.mark.parametrize("args", [
        ["zeta", "--dist", "powertail:beta=inf", "--s", "2"],
        ["zeta", "--dist", "powertail:beta=1e300", "--s", "2"],
        ["simulate", "--alg", "batch", "--dist", "powertail:beta=inf", "--n", "5",
         "--trials", "3"],
    ], ids=lambda v: " ".join(v))
    def test_beta_whose_moments_overflow_is_config_error(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: powertail beta = ")

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
        monkeypatch.setitem(cli._COMMANDS, "zeta",
                            cli._COMMANDS["zeta"]._replace(handler=broken))
        with pytest.raises(ValueError, match="zero-size array"):
            main(["zeta", "--s", "2"])


class TestSingleParser:
    # one flag per non-string RunConfig field, with a command that takes it
    FLAGS = [
        ("n", "ensemble", "--n", "12"),
        ("n_sweep", "extremes", "--n-sweep", "10,100"),
        ("trials", "simulate", "--trials", "7"),
        ("delta", "compare", "--delta", "0.25"),
        ("eps", "zeta", "--eps", "1e-7"),
        ("s", "zeta", "--s", "2.5"),
        ("p", "exact-time", "--p", "0.5,0.25"),
        ("seed", "zeta", "--seed", "18446744073709551615"),
        ("threads", "zeta", "--threads", "3"),
        ("horizon", "simulate", "--horizon", "50"),
        ("dump", "simulate", "--dump", "true"),
    ]

    def test_every_non_string_field_is_covered(self):
        assert {f for f, *_ in self.FLAGS} == set(harness._PARSERS)

    @pytest.mark.parametrize("field, command, flag, text", FLAGS,
                             ids=[field for field, *_ in FLAGS])
    def test_flag_and_config_line_agree(self, tmp_path, field, command, flag, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"{field}={text}\n")
        parse = cli.build_parser().parse_args
        by_flag = cli._config_from_args(
            parse([command, flag] + ([] if flag == "--dump" else [text])))
        by_file = cli._config_from_args(parse([command, "--config", str(path)]))
        assert by_flag == by_file
        assert getattr(by_flag, field) != getattr(RunConfig(), field)
        assert type(getattr(by_flag, field)) is type(getattr(by_file, field))

    @pytest.mark.parametrize("args", [
        ["zeta", "--s", "abc"],
        ["zeta", "--s", "2", "--seed", "x"],
        ["zeta", "--s", "2", "--threads", "1.0"],
        ["simulate", "--alg", "batch", "--n", "1.5"],
        ["ndelta", "--p", "0.9;0.2", "--delta", "0.5"],
        ["scaling", "--n-sweep", "10,100,1000,x"],
        ["ndelta", "--p", "0.9,,0.5", "--delta", "0.1"],
        ["extremes", "--n-sweep", "10,,100"],
        ["extremes", "--n-sweep", "10,100,"],
    ], ids=lambda v: " ".join(v))
    def test_malformed_numeric_flag_is_config_error(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: bad value ")

    def test_table_flags_are_fields(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        subparsers = next(a for a in cli.build_parser()._actions
                          if a.dest == "command").choices
        assert set(subparsers) == set(cli._COMMANDS)
        for name, command in cli._COMMANDS.items():
            flags = command.flags.split()
            assert command.required in (None, *flags), name
            dests = {a.dest for a in subparsers[name]._actions} - {"help"}
            assert dests == {cli._FIELD.get(flag, flag)
                             for flag in flags + cli._COMMON.split()}
            assert dests - {"config"} <= fields
            assert command.formats and set(command.formats) <= {"csv", "json"}


class TestParserCache:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        code = ("import batchlab.cli as c; "
                "print(c.build_parser.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=ROOT, check=True)
        assert proc.stdout.strip() == "0"

    def test_errors_leave_no_state_behind(self, capsys):
        zeta = ["zeta", "--dist", "uniform", "--s", "2", "--eps", "1e-9"]
        exact = ["exact-time", "--p", "0.5,0.25"]
        alone = {}
        for args in (zeta, exact):
            cli.build_parser.cache_clear()
            alone[args[0]] = run_cli(args, capsys)
        assert all(code == 0 and out for code, out, _ in alone.values())
        assert run_cli(zeta, capsys) == alone["zeta"]
        assert run_cli(["zeta", "--dist", "uniform"], capsys)[0] == 2
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(exact, capsys) == alone["exact-time"]
        assert run_cli(zeta, capsys) == alone["zeta"]


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

    @pytest.mark.parametrize("text, dump", [("YES", True), ("1", True),
                                            ("No", False), ("false", False),
                                            ("banana", None), ("ture", None)])
    def test_dump_in_config_file(self, capsys, tmp_path, text, dump):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dump={text}\n")
        code, out, err = run_cli(["simulate", "--alg", "batch", "--n", "3",
                                  "--trials", "4", "--config", str(cfg)], capsys)
        if dump is None:
            assert code == 2 and out == ""
            assert err == f"config error: bad value {text!r} for dump\n"
        else:
            assert code == 0 and out.startswith("trial,time\n") == dump

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


class TestUnreadInputs:
    """A value that the command or its chosen route would ignore is refused."""

    @pytest.mark.parametrize("args, text", [
        (["zeta", "--s", "2"], "trials=7\nn_sweep=10,20\n"),
        (["simulate", "--alg", "batch", "--n", "3"], "s=2\nmethod=zeta_sum\n"),
        (["exact-time", "--p", "0.5"], "eps=1e-9\ndelta=0.2\n"),
    ], ids=["zeta", "simulate", "exact-time"])
    def test_config_key_the_command_does_not_take(self, capsys, tmp_path, args, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        code, out, err = run_cli(args + ["--config", str(path)], capsys)
        line = 1 if args[0] != "exact-time" else 2
        assert code == 2 and out == ""
        assert err.startswith(f"config error: config line {line}: unexpected key ")

    @pytest.mark.parametrize("args, field", [
        (["ensemble", "--dist", "powertail:beta=1", "--n", "10", "--method",
          "moment_series", "--trials", "5"], "trials"),
        (["ensemble", "--n", "10", "--method", "monte_carlo", "--eps", "1e-9"], "eps"),
        (["scaling", "--method", "mc_median", "--eps", "1e-9", "--n-sweep",
          "10,100,1000,10000"], "eps"),
        (["scaling", "--dist", "powertail:beta=1", "--trials", "100", "--n-sweep",
          "10,100,1000,10000"], "trials"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_value_the_route_does_not_read(self, capsys, args, field):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {field} is read by method ")

    def test_defaults_where_read(self, capsys):
        code, out, _ = run_cli(["zeta", "--s", "2"], capsys)
        assert code == 0 and json.loads(out)["eps"] == 1e-6
        code, out, _ = run_cli(["simulate", "--alg", "batch", "--n", "3"], capsys)
        assert code == 0 and json.loads(out)["trials"] == 1000
        # horizon stays accepted on batch, which reports none
        code, out, _ = run_cli(["simulate", "--alg", "batch", "--n", "3",
                                "--horizon", "9", "--trials", "5"], capsys)
        assert code == 0 and json.loads(out)["horizon"] is None


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


def readme_commands():
    """Every ``batchlab`` line of README's sh blocks, as argument lists.

    Backslash continuations are joined first; shlex drops ``#`` comments.
    """
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["batchlab"]:
                commands.append(words[1:])
    return commands


README_COMMANDS = readme_commands()

# argv lists beyond the README's, so that every command writes every format
# it can: the bench's ensemble JSON, extremes JSON (one n, where the fit has
# too few points), and the simulate summary (censored trials included)
GOLDEN_EXTRA = [
    ["ensemble", "--dist", "powertail:beta=1", "--n", "1000", "--method",
     "moment_series", "--format", "json"],
    ["extremes", "--dist", "uniform", "--n-sweep", "100,1000", "--trials", "2000",
     "--format", "json"],
    ["extremes", "--dist", "uniform", "--n-sweep", "100", "--trials", "50",
     "--format", "json"],
    ["simulate", "--alg", "memoryless", "--n", "30", "--trials", "500",
     "--seed", "7"],
    ["simulate", "--alg", "memoryless", "--n", "50", "--horizon", "1",
     "--trials", "5", "--seed", "1"],
]

GOLDEN = ROOT / "tests" / "golden"


def golden_path(args):
    return GOLDEN / (re.sub(r"[^\w.=-]+", "_", " ".join(args)) + ".txt")


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestReadme:
    def test_every_command_is_shown(self):
        assert {args[0] for args in README_COMMANDS} == set(cli._COMMANDS)

    @pytest.mark.parametrize("args", README_COMMANDS + GOLDEN_EXTRA, ids=" ".join)
    def test_command_runs(self, capsys, monkeypatch, tmp_path, args):
        monkeypatch.chdir(tmp_path)
        # the only clock readers: each reading is 0.25 s after the last
        ramp = SimpleNamespace(perf_counter=itertools.count(0.0, 0.25).__next__)
        monkeypatch.setattr(cli, "time", ramp)
        monkeypatch.setattr(harness, "time", ramp)
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        path = golden_path(args)
        if not path.exists():
            path.write_text(out)
            pytest.fail(f"wrote {path.name}; check it and commit it")
        assert out == path.read_text()
        if out.startswith("{"):
            json.loads(out, parse_constant=refuse_constant)
