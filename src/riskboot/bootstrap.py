"""Vanilla bootstrap precision for the tail risk measures.

Each estimate is resampled B times with replacement, nothing fancier: no
bias adjustment, no blocking. The resample estimates give the reported
point estimate (their mean), its standard error, the coefficient of
variation (point estimate over standard error) and a standardized
percentile confidence interval (interval bounds divided by the point
estimate).

Reproducibility is strict. The resamples belong to a contract, not to a
sample: run_grid pairs a sample with the next one when that one holds the
opposite position and is its exact mirror (short losses are the long
losses negated in reverse order), and each group, a pair or a lone
sample, draws from its own counter-based stream keyed on the master seed
and the group's ordinal only. The stream resamples the long-oriented
losses, and a short cell reads the mirror of each resample. Every chunk of
resamples is drawn, sorted and gathered once, and every requested measure
at every parameter of both positions reads its estimates from that one
sorted block. So the long and short cells of a contract read paired
resamples, as the measures of one sample do; each cell's own bootstrap
distribution is that of a plain resample of its sample.

Long cells read the high end of each sorted row and short cells its low
end. A VaR or ES grid whose ends are short enough for it to pay
partitions the row at each end it reads and sorts those ends alone; a
grid with a spectral measure, or whose ends cover more, sorts all of it.
So results are bit-identical for a given seed no matter how many workers
share the grid, in what order contracts run, which other cells were
requested, or whether the other position was requested.

A chunk's rows come from a byte budget, so its memory stays near
_CHUNK_BYTES per worker thread, or one row of 12 * n bytes once a row
alone exceeds the budget (n above about 2.8 million). Counter-based draws
do not depend on how the rows are chunked, and every estimator reduces
each row in a fixed order, so neither do the estimates.
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


def _contract_stream(master_seed: int, contract: int) -> np.random.Generator:
    """Independent generator for one contract's resamples, a pure function
    of (master_seed, contract), where contract is the ordinal of the
    sample group in run_grid."""
    _check_seed(master_seed)
    if not 0 <= contract < 2 ** 64:
        raise ValueError(f"contract index out of range: {contract!r}")
    key = np.array([master_seed, contract], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _estimator_arg(spec: EstimatorSpec, n: int):
    """Validated argument of _evaluate_sorted for spec on n losses."""
    if spec.measure is Measure.SRM:
        return spectral_weights(n, spec.parameter)
    _check_alpha(spec.parameter)
    return spec.parameter


def _mirrors(sample: LossSample, other: LossSample) -> bool:
    """Whether other holds the opposite position of sample's very losses."""
    return (other.position is not sample.position
            and np.array_equal(other.values, -sample.values[::-1]))


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


def _bootstrap_contract(group, specs, config: BootstrapConfig, contract: int) -> list:
    """Bootstrap every spec on one contract's samples from its one stream.

    group is a lone sample or a pair of mirrored samples of opposite
    positions. Each chunk of resamples of the long-oriented losses is drawn,
    sorted and gathered once, then every spec of every sample reduces that
    sorted block into its own estimates, a short sample through the
    mirror, so no spec's result depends on which other specs or positions
    ran. Only the ends of the rows that specs read are sorted and gathered
    when they are short enough for the partitions to pay, and the chunk's
    rows fit a byte budget. Returns, per sample, one entry per
    spec: its BootstrapResult, or the ValueError its parameter raised.
    """
    lead = group[0]  # the long-oriented losses are lead's, or its mirror's
    b, n, method = config.resamples, lead.n, config.quantile_method
    values = lead.values if lead.position is Position.LONG else -lead.values[::-1]
    out = []
    live = []  # (slot in out, measure, estimator arg, mirrored, plug-in, estimates)
    for sample in group:
        mirrored = sample.position is Position.SHORT
        for spec in specs:
            try:
                arg = _estimator_arg(spec, n)
            except ValueError as exc:
                out.append(exc)
                continue
            plug_in = _evaluate(sample, spec.measure, arg, method)
            if mirrored and spec.measure is Measure.SRM:
                # the weights in the block's column order; einsum runs about
                # twice as fast on a contiguous copy as on the reversed view
                arg = np.ascontiguousarray(arg[::-1])
            live.append((len(out), spec.measure, arg, mirrored, plug_in, np.empty(b)))
            out.append(None)

    # A long cell reads the block's columns from its first column up, a short
    # cell the columns below n minus its first column.
    low = max((n - _first_column(measure, arg, n, method)
               for _, measure, arg, mirrored, _, _ in live if mirrored), default=0)
    high = min((_first_column(measure, arg, n, method)
                for _, measure, arg, mirrored, _, _ in live if not mirrored), default=n)
    # Sorting and gathering the ends costs about their share of doing so for
    # the whole row, and each partition about as much as a quarter of the
    # row and 30 columns more. That fits where run_grid broke even with two
    # ends, measured at n = 400 to 20 000: ends covering 0.35 of the row at
    # n = 400, 0.43 at 800 and 0.48 from 3392 up. One end costs about the
    # same either way from half to three quarters of the row. A row past the
    # cut-off is sorted whole.
    partitions = (low > 0) + (high < n)
    whole = low + n - high + partitions * (n // 4 + 30) > n
    stream = _contract_stream(config.master_seed, contract)
    chunk_rows = min(max(_CHUNK_BYTES // (12 * n), 1), _CHUNK_ROWS)
    done = 0
    while live and done < b:
        rows = min(chunk_rows, b - done)
        # int32 indices draw the same stream as the int64 default at half the
        # memory. The values are sorted, so gathering them at sorted indices
        # sorts each row, and 4-byte indices sort faster than 8-byte values.
        # Partitioning at an end leaves exactly the indices of that end's
        # ranks beyond it, which is all that needs sorting and gathering.
        idx = stream.integers(0, n, size=(rows, n), dtype=np.int32)
        if whole:
            idx.sort(axis=1)
            bottom = top = values[idx]
        else:
            if high < n:
                idx.partition(high, axis=1)
                idx[:, high:].sort(axis=1)
            if low > 0:
                idx[:, :high].partition(low - 1, axis=1)
                idx[:, :low].sort(axis=1)
            bottom, top = values[idx[:, :low]], values[idx[:, high:]]
        for _, measure, arg, mirrored, _, estimates in live:
            estimates[done:done + rows] = _evaluate_sorted(
                bottom if mirrored else top, measure, arg, method, n, mirrored)
        done += rows
        del idx, bottom, top  # so the next chunk's draw and gather never overlap this one's

    for slot, _, _, _, plug_in, estimates in live:
        out[slot] = _summarize(estimates, plug_in, config)
    k = len(specs)
    return [out[i * k:(i + 1) * k] for i in range(len(group))]


def bootstrap_estimate(sample: LossSample, estimator: EstimatorSpec,
                       config: BootstrapConfig) -> BootstrapResult:
    """Bootstrap one measure on one sample.

    Draws config.resamples samples with replacement, evaluates the
    estimator on each and summarizes the resulting distribution. The
    sample is treated as the lone sample of contract 0 of a grid, so the
    result equals that cell of run_grid([sample], ...) under the same
    config, bit for bit.
    """
    ((result,),) = _bootstrap_contract([sample], [estimator], config, 0)
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
    - workers: worker threads sharing the contracts. Results are
      bit-identical for any worker count because each contract owns its
      stream, keyed on the master seed and the contract's ordinal, and all
      cells of a contract read the same resamples. A contract is a sample
      together with the next one when that one is its mirror in the
      opposite position, as to_losses makes them from one series; else
      the sample alone. A contract runs on one thread, so a grid uses at
      most as many workers as it has contracts: the two positions of one
      series use one.

    Cells come out sample by sample, measures in Measure order, parameters
    in grid order. A cell whose parameter the estimator rejects is recorded
    with the error message and the rest of the grid still runs.
    """
    samples = list(samples)
    _check_workers(workers)
    specs = [EstimatorSpec(measure, float(parameter))
             for measure in Measure if measure in grid for parameter in grid[measure]]
    groups = []  # the sample indices of each contract
    for i, sample in enumerate(samples):
        if groups and groups[-1] == [i - 1] and _mirrors(samples[i - 1], sample):
            groups[-1].append(i)
        else:
            groups.append([i])

    def run_contract(contract):
        group = groups[contract]
        try:
            results = _bootstrap_contract([samples[i] for i in group], specs, config, contract)
        except Exception as exc:  # e.g. out of memory: fail this contract's cells, not the grid
            results = [[exc] * len(specs)] * len(group)
        cells = []
        for sample_index, sample_results in zip(group, results):
            sample = samples[sample_index]
            for spec, result in zip(specs, sample_results):
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
        per_contract = [run_contract(c) for c in range(len(groups))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_contract = list(pool.map(run_contract, range(len(groups))))
    return ResultGrid(cells=tuple(cell for cells in per_contract for cell in cells))
