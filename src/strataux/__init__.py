"""Population-mean estimation for stratified SRSWOR designs with two auxiliaries.

Point estimators (ratio, exponential ratio/product families, regression,
and a tuned exponential-regression form), their first-order MSE theory,
optimal tuning, percent-relative-efficiency tables, and a reproducible
Monte Carlo harness.
"""
from importlib import import_module

from .data_model import (
    InputError,
    Microdata,
    NumericalError,
    PopulationSummary,
    ReconciliationEntry,
    ReconciliationReport,
    SampleDesign,
    StratifiedSample,
    StratumSummary,
    ValidationError,
    embedded_kk2009,
    parse_microdata,
    parse_summary,
    reconcile_covariances,
    summarize,
    summary_to_json,
)
from .efficiency import (
    PreReport,
    PreRow,
    ReproduceReport,
    dominance_report,
    pre_table,
    reproduce_kk2009,
)
from .moments import MomentSet, design_factors, moment_set
from .mse_theory import (
    ESTIMATOR_ORDER,
    MseBreakdown,
    TpDiagnostics,
    bias_tp,
    min_mse_tp,
    mse_classic,
    mse_tp,
    optimal_m,
    tp_diagnostics,
    variance_mean,
)

__version__ = "0.1.0"

__all__ = [
    "ESTIMATOR_ORDER",
    "GeneratorStratum",
    "InputError",
    "Microdata",
    "MomentSet",
    "MseBreakdown",
    "NumericalError",
    "PopulationConfig",
    "PopulationSummary",
    "PreReport",
    "PreRow",
    "ReconciliationEntry",
    "ReconciliationReport",
    "ReproduceReport",
    "SampleDesign",
    "SimulationReport",
    "StratifiedSample",
    "StratumSummary",
    "TpDiagnostics",
    "ValidationError",
    "bias_tp",
    "design_factors",
    "dominance_report",
    "draw_sample",
    "embedded_kk2009",
    "generate_population",
    "min_mse_tp",
    "moment_set",
    "mse_classic",
    "mse_tp",
    "optimal_m",
    "parse_generator_config",
    "parse_microdata",
    "parse_summary",
    "point_estimate",
    "population_fingerprint",
    "pre_table",
    "reconcile_covariances",
    "reproduce_kk2009",
    "run_simulation",
    "summarize",
    "summary_to_json",
    "tp_diagnostics",
    "variance_mean",
]

# Names whose submodule imports numpy, looked up there on every access (PEP 562):
# the theory names load without numpy, and a rebinding in the submodule shows here.
_LAZY = {"point_estimate": "estimators", **dict.fromkeys((
    "GeneratorStratum", "PopulationConfig", "SimulationReport", "draw_sample",
    "generate_population", "parse_generator_config", "population_fingerprint",
    "run_simulation"), "monte_carlo")}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
