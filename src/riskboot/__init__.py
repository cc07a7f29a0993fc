"""Non-parametric tail risk measures with bootstrap precision diagnostics.

The package estimates value at risk, expected shortfall and exponential
spectral risk measures from daily return series, entirely from the
empirical distribution, and attaches bootstrap standard errors,
coefficients of variation and standardized confidence intervals to every
estimate. A deterministic seeding scheme makes whole estimation grids
bit-reproducible at any worker count. The synthetic return generators
and the closed-form and quadrature oracles that check the estimators are
imported from riskboot.synthetic.
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
    LossSample,
    Measure,
    Position,
    QuantileMethod,
    expected_shortfall,
    spectral_risk_measure,
    spectral_weights,
    to_losses,
    value_at_risk,
)
from .report import (
    MEAN_COLUMN,
    OVERALL_ROW,
    ReportTable,
    Row,
    RowGroup,
    Section,
    build_measure_table,
    build_summary_table,
    figure_csv,
    to_csv,
    to_kv,
    to_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
