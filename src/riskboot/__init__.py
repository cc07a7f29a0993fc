"""Non-parametric tail risk measures with bootstrap precision diagnostics.

The package estimates value at risk, expected shortfall and exponential
spectral risk measures from daily return series, entirely from the
empirical distribution, and attaches bootstrap standard errors,
coefficients of variation and standardized confidence intervals to every
estimate. A deterministic seeding scheme makes whole estimation grids
bit-reproducible at any worker count. The synthetic return generators
and the closed-form and quadrature oracles that check the estimators are
imported from riskboot.synthetic.

The package is lazy (PEP 562): `import riskboot` loads neither numpy nor
a submodule, and each name below is imported from its submodule on first
use. That leaves the command line (riskboot.cli) free to cap numpy's
BLAS thread pool before numpy loads, while a library user's own BLAS
settings stay untouched.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "bootstrap": ("BootstrapConfig", "BootstrapResult", "EstimatorSpec", "GridCell",
                  "ResultGrid", "bootstrap_estimate", "run_grid"),
    "ingest": ("IngestError", "PriceSeries", "ReturnSeries", "SummaryStats",
               "drop_zero_returns", "load_prices", "load_returns", "log_returns",
               "summary_stats"),
    "measures": ("LossSample", "Measure", "Position", "QuantileMethod", "expected_shortfall",
                 "spectral_risk_measure", "spectral_weights", "to_losses", "value_at_risk"),
    "report": ("MEAN_COLUMN", "OVERALL_ROW", "ReportTable", "Row", "RowGroup", "Section",
               "build_measure_table", "build_summary_table", "figure_csv", "to_csv", "to_kv",
               "to_text"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # importing binds it here
    if name in _SOURCE:
        value = globals()[name] = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
