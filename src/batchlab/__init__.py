"""batchlab: a numerical laboratory for batch-learning convergence.

Exact expected-learning-time formulas for fixed overlap vectors, the moment
zeta function with certified truncation, ensemble expectations and
extreme-value statistics under parametric overlap laws, seeded Monte Carlo
simulators for three learning algorithms, and a scaling harness that fits
the asymptotic exponents at desk scale.
"""

from .batch_exact import (TimeEstimate, coarse_bounds, expected_time_fast,
                          expected_time_series, expected_time_subsets, n_delta,
                          sandwich, survival)
from .distributions import OverlapDistribution, parse_dist, power_tail, scaled, uniform
from .ensemble import (RegimeWindowReport, Alpha1Decomposition, ConcentrationSummary,
                       EnsembleEstimate, ExtremeValueReport,
                       alpha1_decomposition, regime_window_check,
                       ensemble_estimate, expected_time_integral,
                       expected_time_moment_series, expected_time_zeta_sum,
                       extreme_value, sum_inverse_gap_concentration)
from .errors import (CensoringError, ConfigError, DivergenceError,
                     PrecisionLossError)
from .harness import (ComparisonTable, LogLogFit, RunConfig, ScalingReport,
                      compare_algorithms, emit, fit_loglog, parse_report,
                      run_scaling)
from .moment_zeta import (ZetaExpectationCheck, ZetaValue, mellin,
                          verify_zeta_expectation, zeta)
from .simulators import (TrialBatch, batch_time_quantile, empirical_n_delta,
                         run_trials, simulate_batch, simulate_batch_wordlevel,
                         simulate_full_memory, simulate_memoryless)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
