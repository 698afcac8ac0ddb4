"""Exact moments of Hurwitz class numbers in arithmetic progressions.

Library surface: class-number tables and moments, twisted Eisenstein main
terms, Frobenius trace statistics over small finite fields, bias averages
with closed-form signs, and verification suites cross-checking every closed
form against an independent brute-force route.
"""

import importlib
import pkgutil

from .bias import (
    A1_chars,
    A1_closed,
    A2_chars,
    A2_closed,
    BiasResult,
    DensityReport,
    SignPrediction,
    bias_result,
    density_scan,
    empirical_A1,
    sign_rules,
)
from .eisenstein import (
    cusp_residual_0,
    main_term,
    residual_rows,
)
from .frobenius import (
    S_direct,
    S_via_moments,
    TraceMassTable,
    trace_mass_table,
)
from .hurwitz import (
    cusp_coefficient,
    hurwitz_H,
    lambda_moment,
    moment_H,
    moment_via_reduction,
)
from .verify import SUITES, VerifySuiteReport, run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "A1_chars",
    "A1_closed",
    "A2_chars",
    "A2_closed",
    "BiasResult",
    "DensityReport",
    "S_direct",
    "S_via_moments",
    "SUITES",
    "SignPrediction",
    "TraceMassTable",
    "VerifySuiteReport",
    "bias_result",
    "cache_stats",
    "cusp_coefficient",
    "cusp_residual_0",
    "density_scan",
    "empirical_A1",
    "hurwitz_H",
    "lambda_moment",
    "main_term",
    "moment_H",
    "moment_via_reduction",
    "residual_rows",
    "run_suite",
    "run_suites",
    "sign_rules",
    "trace_mass_table",
    "__version__",
]


def cache_stats() -> dict[str, dict[str, int]]:
    """cache_info() of every functools.lru_cache defined in the package, as
    {"module.function": {"hits", "misses", "maxsize", "currsize"}}, found by
    scanning the package's modules."""
    stats = {}
    for info in pkgutil.iter_modules(__path__):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                stats[f"{info.name}.{name}"] = obj.cache_info()._asdict()
    return stats
