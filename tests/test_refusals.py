"""Each input is refused by the library function that reads it.

A deliberate refusal of an input is a ``ConfigError`` (or one of the other
classes in ``batchlab.errors``), raised before any work, with a message that
starts with the name of the field it refuses.  The CLI maps it to exit 2
wherever the check lives; a plain ``ValueError`` means an internal fault.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from batchlab.batch_exact import (expected_time_series, n_delta, sandwich,
                                  survival, survival_bulk)
from batchlab.distributions import parse_dist, power_tail, scaled, uniform
from batchlab.ensemble import (alpha1_decomposition, ensemble_estimate,
                               expected_time_integral,
                               expected_time_moment_series,
                               expected_time_zeta_sum, extreme_value,
                               regime_window_check,
                               sum_inverse_gap_concentration)
from batchlab.errors import ConfigError
from batchlab.harness import (RunConfig, compare_algorithms, fit_loglog,
                              run_scaling)
from batchlab.moment_zeta import mellin, verify_zeta_expectation, zeta
from batchlab.simulators import (batch_time_quantile, empirical_n_delta,
                                 run_trials)
from tests.conftest import outcome_within

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "batchlab"
SWEEP = (10, 100, 1000, 10000)
NO_TAIL = scaled(0.5, uniform())

# (id, call, the field its message starts with)
REFUSALS = [
    # inputs the CLI once checked again, or alone, before the call
    ("zeta s=nan", lambda: zeta(uniform(), math.nan), "s"),
    ("zeta eps=nan", lambda: zeta(uniform(), 2.0, eps=math.nan), "eps"),
    ("mellin s=nan", lambda: mellin(uniform(), math.nan), "s"),
    ("mellin s=inf", lambda: mellin(uniform(), math.inf), "s"),
    ("verify_zeta n=2.5",
     lambda: verify_zeta_expectation(uniform(), 2.5, 100, 1), "n"),
    ("verify_zeta trials=2.5",
     lambda: verify_zeta_expectation(uniform(), 3, 2.5, 1), "trials"),
    ("alpha1 eps=-1", lambda: alpha1_decomposition(uniform(), 10, eps=-1.0), "eps"),
    ("moment_series eps=inf",
     lambda: expected_time_moment_series(power_tail(1.0), 10, eps=math.inf), "eps"),
    ("series eps=nan", lambda: expected_time_series([0.5], eps=math.nan), "eps"),
    ("extreme_value n-sweep 0,10",
     lambda: extreme_value(uniform(), [0, 10], 10, 1), "n-sweep"),
    ("extreme_value n-sweep 10.7",
     lambda: extreme_value(uniform(), [10.7], 100, 1), "n-sweep"),
    # a repeated n, once two rows drawn on two streams
    ("extreme_value n-sweep 100,100,10",
     lambda: extreme_value(uniform(), [100, 100, 10], 50, 1), "n-sweep"),
    ("extreme_value trials=1", lambda: extreme_value(uniform(), [10], 1, 1), "trials"),
    ("extreme_value no power tail",
     lambda: extreme_value(NO_TAIL, [10], 100, 1), "dist"),
    ("run_trials n=-1", lambda: run_trials("batch", uniform(), -1, 3, 1), "n"),
    ("run_trials trials=0", lambda: run_trials("batch", uniform(), 5, 0, 1), "trials"),
    ("run_trials horizon=0",
     lambda: run_trials("memoryless", uniform(), 5, 5, 1, horizon=0), "horizon"),
    ("run_trials algorithm", lambda: run_trials("psychic", uniform(), 5, 5, 1),
     "algorithm"),
    ("batch_time_quantile n=-2", lambda: batch_time_quantile(uniform(), -2, 0.5), "n"),
    ("batch_time_quantile u=nan",
     lambda: batch_time_quantile(uniform(), 2, math.nan), "u"),
    ("empirical_n_delta delta=1",
     lambda: empirical_n_delta("batch", uniform(), 5, 1.0, 10, 1), "delta"),
    ("n_delta delta=0", lambda: n_delta([0.5], 0.0), "delta"),
    ("n_delta p=1.5", lambda: n_delta([1.5], 0.5), "p"),
    ("parse_dist beta=-2", lambda: parse_dist("powertail:beta=-2"), "powertail"),
    ("ensemble monte_carlo n=0",
     lambda: ensemble_estimate(uniform(), 0, "monte_carlo"), "n"),
    # a median's interval from one trial, once reported with zero width
    ("ensemble monte_carlo trials=1",
     lambda: ensemble_estimate(uniform(), 10, "monte_carlo", trials=1), "trials"),
    ("scaling mc_median trials=1",
     lambda: run_scaling(RunConfig(n_sweep=SWEEP, method="mc_median", trials=1)),
     "trials"),
    ("ensemble method", lambda: ensemble_estimate(uniform(), 10, "psychic"), "method"),
    ("ensemble zeta_sum n=40",
     lambda: ensemble_estimate(power_tail(1.0), 40, "zeta_sum"), "n"),
    ("zeta_sum n=40", lambda: expected_time_zeta_sum(power_tail(1.0), 40), "n"),
    ("integral no power tail", lambda: expected_time_integral(NO_TAIL, 10), "dist"),
    ("ensemble integral no power tail",
     lambda: ensemble_estimate(NO_TAIL, 10, "integral_asymptotic"), "dist"),
    # a value the chosen route would ignore
    ("ensemble moment_series trials",
     lambda: ensemble_estimate(power_tail(1.0), 10, "moment_series", trials=5),
     "trials"),
    ("ensemble monte_carlo eps",
     lambda: ensemble_estimate(uniform(), 10, "monte_carlo", eps=1e-9), "eps"),
    ("scaling moment_series trials",
     lambda: run_scaling(RunConfig(dist="powertail:beta=1", n_sweep=SWEEP,
                                   trials=100)), "trials"),
    ("scaling mc_median eps",
     lambda: run_scaling(RunConfig(n_sweep=SWEEP, method="mc_median", eps=1e-9)),
     "eps"),
    # the sweep and n rules of scaling and compare
    ("scaling 3-point sweep", lambda: run_scaling(RunConfig(n_sweep=(10, 100, 1000))),
     "n-sweep"),
    ("scaling sweep from 0",
     lambda: run_scaling(RunConfig(n_sweep=(0, 10, 100, 1000), method="mc_median")),
     "n-sweep"),
    ("scaling method", lambda: run_scaling(RunConfig(n_sweep=SWEEP, method="psychic")),
     "method"),
    ("compare n and n-sweep",
     lambda: compare_algorithms(RunConfig(n=5, n_sweep=(10, 30))), "n and n-sweep"),
    ("compare neither", lambda: compare_algorithms(RunConfig()), "n or n-sweep"),
    ("compare n=0", lambda: compare_algorithms(RunConfig(n=0)), "n"),
    # a count that is not a whole number, once truncated, mislabelled or
    # met by a TypeError deep in the route
    ("compare n=10.5", lambda: compare_algorithms(RunConfig(n=10.5)), "n"),
    ("scaling sweep from 10.5",
     lambda: run_scaling(RunConfig(n_sweep=(10.5, 30, 100, 1100))), "n-sweep"),
    ("run_trials batch n=10.5", lambda: run_trials("batch", uniform(), 10.5, 3, 1),
     "n"),
    ("run_trials memoryless n=10.5",
     lambda: run_trials("memoryless", uniform(), 10.5, 3, 1), "n"),
    ("run_trials full_memory n=10.5",
     lambda: run_trials("full_memory", uniform(), 10.5, 3, 1), "n"),
    ("run_trials trials=2.5", lambda: run_trials("batch", uniform(), 5, 2.5, 1),
     "trials"),
    ("run_trials horizon=2.5",
     lambda: run_trials("memoryless", uniform(), 5, 5, 1, horizon=2.5), "horizon"),
    ("ensemble monte_carlo n=10.5",
     lambda: ensemble_estimate(uniform(), 10.5, "monte_carlo"), "n"),
    ("batch_time_quantile n=2.5",
     lambda: batch_time_quantile(uniform(), 2.5, 0.5), "n"),
    ("zeta_sum n=10.5", lambda: expected_time_zeta_sum(power_tail(1.0), 10.5), "n"),
    ("moment_series n=10.5",
     lambda: expected_time_moment_series(power_tail(1.0), 10.5), "n"),
    ("integral n=10.5", lambda: expected_time_integral(power_tail(1.0), 10.5), "n"),
    ("alpha1 n=10.5", lambda: alpha1_decomposition(uniform(), 10.5), "n"),
    ("alpha1 n=1", lambda: alpha1_decomposition(uniform(), 1), "n"),
    ("concentration n=10.5",
     lambda: sum_inverse_gap_concentration(power_tail(1.0), 10.5, 10, 1), "n"),
    ("concentration trials=2.5",
     lambda: sum_inverse_gap_concentration(power_tail(1.0), 10, 2.5, 1), "trials"),
    ("extreme_value trials=2.5",
     lambda: extreme_value(uniform(), [10], 2.5, 1), "trials"),
    ("regime_window n=10.5", lambda: regime_window_check(uniform(), 10.5, 10, 1),
     "n"),
    ("regime_window trials=2.5",
     lambda: regime_window_check(uniform(), 10, 2.5, 1), "trials"),
    ("sample n=3.5", lambda: uniform().sample(3.5, np.random.default_rng(0)), "n"),
    ("fit_loglog unsorted n",
     lambda: fit_loglog([1000, 316, 100, 3162, 10000],
                        [31.6, 17.8, 10.0, 56.2, 100.0]), "n values"),
    # non-finite fit data, once met by LAPACK's DLASCL lines and a LinAlgError
    ("fit_loglog n=nan",
     lambda: fit_loglog([math.nan, 100, 1000, 10000], [1, 2, 3, 4]), "n values"),
    ("fit_loglog value=inf",
     lambda: fit_loglog([10, 100, 1000, 10000], [1, 2, math.inf, 4]), "values"),
    # a step index that is not a whole number >= 1, once read as nan or as
    # a step that does not exist
    ("survival k=nan", lambda: survival([0.5, 0.3], math.nan), "k"),
    ("survival k=2.5", lambda: survival([0.5, 0.3], 2.5), "k"),
    ("sandwich k=nan", lambda: sandwich([0.5, 0.3], math.nan), "k"),
    ("survival_bulk ks 2.5", lambda: survival_bulk([0.5, 0.3], [1.0, 2.5]), "ks"),
    ("survival_bulk ks 0", lambda: survival_bulk([0.5, 0.3], [0.0, 1.0]), "ks"),
    # a whole number past int64, once an OverflowError in float()
    ("ensemble moment_series n=10**400",
     lambda: ensemble_estimate(power_tail(1.0), 10**400, "moment_series"), "n"),
    ("threads=0", lambda: run_trials("memoryless", uniform(), 5, 5, 1, threads=0),
     "threads"),
    ("threads=2.5",
     lambda: run_trials("memoryless", uniform(), 5, 5, 1, threads=2.5), "threads"),
]


@pytest.mark.parametrize("call, field", [(c, f) for _, c, f in REFUSALS],
                         ids=[name for name, _, _ in REFUSALS])
def test_refused_at_once_by_the_reader(call, field):
    exc = outcome_within(1.0, call)
    assert isinstance(exc, ConfigError), f"got {exc!r} (None: still running)"
    assert str(exc).startswith(f"{field} ")


def test_no_plain_value_error_is_raised():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, ("a deliberate refusal raises ConfigError or another "
                           f"class of batchlab.errors: {offenders}")


def test_integral_float_n_is_accepted():
    # each result equals the int call's and reports ints
    assert extreme_value(uniform(), [10.0], 100, 1).n_values == (10,)
    chk = verify_zeta_expectation(uniform(), 3.0, 100.0, 1)
    assert chk == verify_zeta_expectation(uniform(), 3, 100, 1)
    assert type(chk.n) is int and type(chk.trials) is int

    run = run_trials("memoryless", uniform(), 10.0, 100.0, 1, horizon=1000.0)
    ref = run_trials("memoryless", uniform(), 10, 100, 1, horizon=1000)
    assert run.summary() == ref.summary() and np.array_equal(run.times, ref.times)
    assert all(type(run.summary()[k]) is int for k in ("n", "trials", "horizon"))

    table = compare_algorithms(RunConfig(n=10.0, trials=100.0))
    assert table == compare_algorithms(RunConfig(n=10, trials=100))
    assert type(table.n_values[0]) is int and type(table.trials) is int

    rep = run_scaling(RunConfig(n_sweep=(10.0, 30.0, 100.0, 1000.0), trials=100.0,
                                method="mc_median"))
    ref = run_scaling(RunConfig(n_sweep=(10, 30, 100, 1000), trials=100,
                                method="mc_median"))
    assert rep.result_fields() == ref.result_fields()
    assert all(type(n) is int for n in rep.n_values) and type(rep.trials) is int

    est = ensemble_estimate(uniform(), 20.0, "monte_carlo", trials=100.0, seed=3)
    assert est == ensemble_estimate(uniform(), 20, "monte_carlo", trials=100, seed=3)
    assert type(est.n) is int


def test_defaults_apply_only_where_read():
    # unset, trials and eps take the defaults of the route that reads them
    mc = ensemble_estimate(uniform(), 20, "monte_carlo", seed=3)
    assert mc == ensemble_estimate(uniform(), 20, "monte_carlo", trials=1000, seed=3)
    series = ensemble_estimate(power_tail(1.0), 20, "moment_series")
    assert series.value == expected_time_moment_series(power_tail(1.0), 20,
                                                       eps=1e-6).value
    assert RunConfig().read("trials") == 1000 and RunConfig().read("eps") == 1e-6
    assert RunConfig(trials=7, eps=0.5).read("trials") == 7
