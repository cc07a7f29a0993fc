"""Non-parametric tail risk measures with bootstrap precision diagnostics.

The package estimates value at risk, expected shortfall and exponential
spectral risk measures from daily return series, entirely from the
empirical distribution, and attaches bootstrap standard errors,
coefficients of variation and standardized confidence intervals to every
estimate. A deterministic seeding scheme makes whole estimation grids
bit-reproducible at any worker count.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    EstimatorSpec,
    GridCell,
    ResultGrid,
    bootstrap_estimate,
    run_grid,
)
from .ingest import (
    IngestError,
    PriceSeries,
    ReturnSeries,
    SummaryStats,
    drop_zero_returns,
    load_prices,
    load_returns,
    log_returns,
    summary_stats,
)
from .measures import (
    MIN_RISK_AVERSION,
    ExponentialWeighting,
    LossSample,
    Measure,
    Position,
    QuantileMethod,
    WeightingReport,
    expected_shortfall,
    spectral_risk_measure,
    spectral_weights,
    to_losses,
    validate_weighting,
    value_at_risk,
)
from .report import (
    MEAN_COLUMN,
    OVERALL_ROW,
    ReportTable,
    Row,
    RowGroup,
    Section,
    WeightCurve,
    build_measure_table,
    build_summary_table,
    figure_csv,
    to_csv,
    to_kv,
    to_text,
    weight_curves,
)
from .synthetic import (
    Normal,
    SkewedMix,
    StudentT,
    SyntheticSpec,
    generate,
    normal_es_oracle,
    normal_quantile,
    normal_var_oracle,
    srm_quadrature_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
