"""Population-mean estimation for stratified SRSWOR designs with two auxiliaries.

Point estimators (ratio, exponential ratio/product families, regression,
and a tuned exponential-regression form), their first-order MSE theory,
optimal tuning, percent-relative-efficiency tables, and a reproducible
Monte Carlo harness.
"""
from importlib import import_module

from . import data_model, efficiency, moments, mse_theory
from .data_model import *
from .efficiency import *
from .moments import *
from .mse_theory import *

__version__ = "0.1.0"

# Names whose submodule imports numpy, looked up there on every access (PEP 562):
# the theory names load without numpy, and a rebinding in the submodule shows here.
_LAZY = {"point_estimate": "estimators", **dict.fromkeys((
    "GeneratorStratum", "PopulationConfig", "SimulationReport", "draw_sample",
    "generate_population", "parse_generator_config", "population_fingerprint",
    "run_simulation"), "monte_carlo")}

__all__ = [*data_model.__all__, *efficiency.__all__, *moments.__all__, *mse_theory.__all__, *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
