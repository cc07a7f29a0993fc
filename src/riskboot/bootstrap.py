"""Vanilla bootstrap precision for the tail risk measures.

Each estimate is resampled B times with replacement, nothing fancier: no
bias adjustment, no blocking. The resample estimates give the reported
point estimate (their mean), its standard error, the coefficient of
variation (point estimate over standard error) and a standardized
percentile confidence interval (interval bounds divided by the point
estimate).

Reproducibility is strict. Each sample draws its resamples from its own
counter-based stream keyed on the master seed and the sample index only.
Every chunk of resamples is drawn, sorted and gathered once, and every
requested measure at every parameter reads its estimates from that one
sorted block. Each row is sorted only from the lowest rank any requested
estimator reads, when that rank lies past the first quarter of the row: a
VaR or ES grid at such levels partitions the row at that rank and sorts
the tail alone, and a grid with a spectral measure or a lower level sorts
all of it.
So all cells of a sample share their resamples, and results are
bit-identical for a given seed no matter how many workers share the grid,
in what order samples run, or which other cells were requested.

A chunk's rows come from a byte budget, so its memory stays near
_CHUNK_BYTES per worker thread, or one row of 12 * n bytes once a row
alone exceeds the budget (n above about 2.8 million). Counter-based draws do
not depend on how the rows are chunked, so neither do the VaR and ES
estimates. The spectral matrix product rounds by a row's place in its
chunk, and up to n = 5461 every chunk keeps _CHUNK_ROWS rows.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measures import (
    LossSample,
    Measure,
    Position,
    QuantileMethod,
    _check_alpha,
    _evaluate,
    _evaluate_sorted,
    _first_column,
    spectral_weights,
)

# A chunk holds 12 bytes per element (int32 index and float64 value), and
# its rows are as many as fit in _CHUNK_BYTES, at least 1 and at most
# _CHUNK_ROWS.
_CHUNK_BYTES = 32 * 2 ** 20
_CHUNK_ROWS = 512


@dataclass(frozen=True)
class EstimatorSpec:
    """One measure at one parameter: confidence level for VAR and ES,
    risk aversion for SRM."""

    measure: Measure
    parameter: float


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 5000
    master_seed: int = 0
    quantile_method: QuantileMethod = QuantileMethod.ORDER_STATISTIC
    ci_coverage: float = 0.90

    def __post_init__(self):
        if self.resamples < 2:
            raise ValueError(f"need at least 2 resamples for a standard error, got {self.resamples}")
        _check_seed(self.master_seed)
        if not 0.0 < self.ci_coverage < 1.0:
            raise ValueError(f"interval coverage must lie strictly between 0 and 1, got {self.ci_coverage!r}")


@dataclass(frozen=True)
class BootstrapResult:
    """Precision summary of one bootstrapped estimate.

    point_estimate is the mean of the resample estimates; plug_in_estimate
    is the measure evaluated once on the original sample. coeff_variation
    is point_estimate / std_error and is None when the resample
    distribution is degenerate (zero standard error) or the point estimate
    is zero. ci_standardized holds the percentile interval of the resample
    estimates divided through by the point estimate; a degenerate resample
    distribution gives (1.0, 1.0).
    """

    point_estimate: float
    plug_in_estimate: float
    std_error: float
    coeff_variation: float | None
    ci_standardized: tuple[float, float]
    resamples: int


# ----------------------------------------------------------------------
# streams and the shared resample block
# ----------------------------------------------------------------------

def _check_workers(workers):
    """The one check of a worker count, for run_grid and the CLI."""
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")


def _check_seed(seed):
    """The one range check for a master seed: seeds key 64-bit Philox streams."""
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError(f"master seed must fit in an unsigned 64-bit integer, got {seed!r}")


def _sample_stream(master_seed: int, sample_index: int) -> np.random.Generator:
    """Independent generator for one sample, a pure function of
    (master_seed, sample_index)."""
    _check_seed(master_seed)
    if not 0 <= sample_index < 2 ** 64:
        raise ValueError(f"sample index out of range: {sample_index!r}")
    key = np.array([master_seed, sample_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _estimator_arg(spec: EstimatorSpec, n: int):
    """Validated argument of _evaluate_sorted for spec on n losses."""
    if spec.measure is Measure.SRM:
        return spectral_weights(n, spec.parameter)
    _check_alpha(spec.parameter)
    return spec.parameter


def _summarize(estimates: np.ndarray, plug_in: float, config: BootstrapConfig) -> BootstrapResult:
    point = float(estimates.mean())
    std_error = float(estimates.std(ddof=1))

    if std_error > 0.0 and point != 0.0:
        coeff_variation = point / std_error
    else:
        coeff_variation = None

    if std_error == 0.0:
        ci = (1.0, 1.0)
    else:
        tail = (1.0 - config.ci_coverage) / 2.0
        ordered = np.sort(estimates)[None, :]
        lo, hi = (float(_evaluate_sorted(ordered, Measure.VAR, a, config.quantile_method)[0])
                  for a in (tail, 1.0 - tail))
        if point == 0.0:
            ci = (math.nan, math.nan)  # standardization undefined
        else:
            lo, hi = lo / point, hi / point
            ci = (min(lo, hi), max(lo, hi))

    return BootstrapResult(
        point_estimate=point,
        plug_in_estimate=plug_in,
        std_error=std_error,
        coeff_variation=coeff_variation,
        ci_standardized=ci,
        resamples=estimates.size)


def _bootstrap_sample(sample: LossSample, specs, config: BootstrapConfig,
                      sample_index: int) -> list:
    """Bootstrap every spec on one sample from the sample's one stream.

    Each chunk of resamples is drawn, sorted and gathered once, then every
    spec reduces that sorted block into its own estimates, so no spec's
    result depends on which other specs ran. The block is sorted and
    gathered only from the lowest rank any spec reads, if that rank lies
    past the first quarter of the row, and the chunk's rows fit a byte
    budget. Returns one entry per spec: its BootstrapResult, or the
    ValueError its parameter raised.
    """
    b, n, method = config.resamples, sample.n, config.quantile_method
    out, live = [], []  # live: (slot in out, measure, estimator arg, estimates)
    for spec in specs:
        try:
            live.append((len(out), spec.measure, _estimator_arg(spec, n), np.empty(b)))
            out.append(None)
        except ValueError as exc:
            out.append(exc)

    stream = _sample_stream(config.master_seed, sample_index)
    first = min((_first_column(measure, arg, n, method) for _, measure, arg, _ in live),
                default=0)
    if first < n / 4:
        # The partition costs about what it saves in the sort and gather
        # when first is a fifth of the row (measured at n = 400 to 97 003),
        # and more below that, so such a row is sorted whole.
        first = 0
    chunk_rows = min(max(_CHUNK_BYTES // (12 * n), 1), _CHUNK_ROWS)
    done = 0
    while live and done < b:
        rows = min(chunk_rows, b - done)
        # int32 indices draw the same stream as the int64 default at half the
        # memory. The values are sorted, so gathering them at sorted indices
        # sorts each row, and 4-byte indices sort faster than 8-byte values.
        # No spec reads a rank below first: partitioning there leaves exactly
        # the indices of the ranks from first up in the tail, which is all
        # that needs sorting and gathering.
        idx = stream.integers(0, n, size=(rows, n), dtype=np.int32)
        if first > 0:
            idx.partition(first, axis=1)
        tail = idx[:, first:]
        tail.sort(axis=1)
        block = sample.values[tail]
        for _, measure, arg, estimates in live:
            estimates[done:done + rows] = _evaluate_sorted(block, measure, arg, method, n)
        done += rows
        del idx, tail, block  # so the next chunk's draw and gather never overlap this one's

    for slot, measure, arg, estimates in live:
        out[slot] = _summarize(estimates, _evaluate(sample, measure, arg, method), config)
    return out


def bootstrap_estimate(sample: LossSample, estimator: EstimatorSpec,
                       config: BootstrapConfig) -> BootstrapResult:
    """Bootstrap one measure on one sample.

    Draws config.resamples samples with replacement, evaluates the
    estimator on each and summarizes the resulting distribution. The
    sample is treated as sample 0 of a grid, so the result equals that
    cell of run_grid([sample], ...) under the same config, bit for bit.
    """
    (result,) = _bootstrap_sample(sample, [estimator], config, 0)
    if isinstance(result, ValueError):
        raise result
    return result


# ----------------------------------------------------------------------
# the estimation grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    """One (sample, measure, parameter) cell. Exactly one of result and
    error is set; a failed cell never aborts the rest of the grid."""

    sample_index: int
    sample_label: str
    position: Position
    measure: Measure
    parameter: float
    result: BootstrapResult | None
    error: str | None


@dataclass(frozen=True)
class ResultGrid:
    cells: tuple[GridCell, ...]

    @property
    def failed(self) -> tuple[GridCell, ...]:
        return tuple(c for c in self.cells if c.error is not None)


def run_grid(samples, grid, config: BootstrapConfig, workers: int = 1) -> ResultGrid:
    """Bootstrap every (sample, measure, parameter) combination.

    Parameters:
    - samples: sequence of LossSample.
    - grid: mapping of Measure to its parameter list, e.g.
      {Measure.VAR: [0.95, 0.99], Measure.SRM: [5, 20]}.
    - workers: worker threads sharing the samples. Results are
      bit-identical for any worker count because each sample owns its
      stream, keyed on the master seed and its index in samples, and all
      cells of a sample read the same resamples.

    Cells come out sample by sample, measures in Measure order, parameters
    in grid order. A cell whose parameter the estimator rejects is recorded
    with the error message and the rest of the grid still runs.
    """
    samples = list(samples)
    _check_workers(workers)
    specs = [EstimatorSpec(measure, float(parameter))
             for measure in Measure if measure in grid for parameter in grid[measure]]

    def run_sample(sample_index):
        sample = samples[sample_index]
        try:
            results = _bootstrap_sample(sample, specs, config, sample_index)
        except Exception as exc:  # e.g. out of memory: fail this sample's cells, not the grid
            results = [exc] * len(specs)
        cells = []
        for spec, result in zip(specs, results):
            failed = isinstance(result, Exception)
            cells.append(GridCell(
                sample_index=sample_index,
                sample_label=sample.label,
                position=sample.position,
                measure=spec.measure,
                parameter=spec.parameter,
                result=None if failed else result,
                error=f"{type(result).__name__}: {result}" if failed else None))
        return cells

    if workers == 1:
        per_sample = [run_sample(i) for i in range(len(samples))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_sample = list(pool.map(run_sample, range(len(samples))))
    return ResultGrid(cells=tuple(cell for cells in per_sample for cell in cells))
