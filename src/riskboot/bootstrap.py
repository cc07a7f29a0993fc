"""Vanilla bootstrap precision for the tail risk measures.

Each estimate is resampled B times with replacement, nothing fancier: no
bias adjustment, no block bootstrap of serial dependence. The resample
estimates give the reported point estimate (their mean), its standard
error, the coefficient of variation (point estimate over standard error)
and a standardized percentile confidence interval (interval bounds
divided by the point estimate).

Reproducibility is strict. The resamples belong to a contract, not to a
sample: run_grid pairs a sample with the next one when that one holds
the opposite position and is its exact mirror (short losses are the long
losses negated in reverse order). A contract, a pair or a lone sample,
resamples its long-oriented losses, and a short cell reads the mirror of
each resample. Its B resamples of n losses are split into fixed blocks
of _BLOCK_ELEMS // n rows (at least one), and each block draws from its
own counter-based stream, keyed on the master seed and the contract's
ordinal and started at an offset set by the block's ordinal only; block
0 is the contract's stream from its start. Every chunk of a block's
resamples is drawn, sorted and gathered once, and every requested
measure at every parameter of both positions reads its estimates from
that one sorted chunk. So the long and short cells of a contract read
paired resamples, as the measures of one sample do; each cell's own
bootstrap distribution is that of a plain resample of its sample.

Long cells read the high end of each sorted row and short cells its low
end. A VaR or ES grid whose ends are short enough for it to pay
partitions the row at each end it reads and sorts those ends alone; a
grid with a spectral measure, or whose ends cover more, sorts all of it.
So results are bit-identical for a given seed no matter how many workers
share the grid, in what order blocks run, which other cells were
requested, or whether the other position was requested.

The blocks of all contracts are the unit of work: the worker threads
take them in contract-major order, so a grid of one contract uses as
many workers as it has blocks. The threads change no shared state. The
calling thread prepares every contract before any block runs, each block
returns its own estimates, and the calling thread reads them back in
block order and summarizes a contract once its last block is in. With
one worker the blocks run on the calling thread itself.

Memory: a block's estimates take 8 bytes per row and cell, and are held
until their contract is summarized. The threads share one chunk budget
of _CHUNK_BYTES, so a chunk takes _CHUNK_BYTES divided by the number of
threads, or one row of 12 * n bytes once a row alone exceeds that share.
Counter-based draws do not depend on how a block's rows are chunked, and
every estimator reduces each row in a fixed order, so neither do the
estimates.
"""

from __future__ import annotations

import math
import operator
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

# A chunk holds 12 bytes per element (int32 index and float64 value). The
# threads of a grid share _CHUNK_BYTES, and a chunk's rows are as many as fit
# in a thread's share, at least 1 and at most _CHUNK_ROWS.
_CHUNK_BYTES = 32 * 2 ** 20
_CHUNK_ROWS = 512

# A block holds _BLOCK_ELEMS // n resamples of n losses, at least 1. It is
# at least 2 * 10**6 elements, so that every golden-file cell (5000
# resamples of 400 losses) is one block, and small enough that a long
# series still splits into a few dozen blocks for the workers to share.
_BLOCK_ELEMS = 2 ** 22


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
        if _check_integer(self.resamples, "resamples") < 2:
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
# streams and the contracts' resample blocks
# ----------------------------------------------------------------------

def _check_integer(value, name):
    """value as a Python int; a ValueError names what is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_workers(workers):
    """The one check of a worker count, for run_grid and the CLI."""
    if _check_integer(workers, "worker count") < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")


def _check_seed(seed):
    """The one check of a master seed: seeds key 64-bit Philox streams."""
    if not 0 <= _check_integer(seed, "master seed") < 2 ** 64:
        raise ValueError(f"master seed must fit in an unsigned 64-bit integer, got {seed!r}")


def _contract_stream(master_seed: int, contract: int, block: int = 0) -> np.random.Generator:
    """Independent generator for one block of a contract's resamples, a pure
    function of (master_seed, contract, block), where contract is the
    ordinal of the sample group in run_grid. Block k is the contract's
    Philox stream started at counter k << 128, the same as the stream
    jumped k times, so block 0 is the stream from its start."""
    _check_seed(master_seed)
    if not 0 <= contract < 2 ** 64:
        raise ValueError(f"contract index out of range: {contract!r}")
    key = np.array([master_seed, contract], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=block << 128))


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


class _Contract:
    """One contract's bootstrap, run as blocks that any thread may take.

    group is a lone sample or a pair of mirrored samples of opposite
    positions, and ordinal its place among the grid's contracts. The
    constructor validates every spec's argument, takes the plug-ins and
    plans which ends of each row to sort; nothing changes after that, so
    the threads only read a contract. The config.resamples rows of the
    long-oriented losses are split into blocks of block_rows, the last one
    partial, and block k draws from _contract_stream(seed, ordinal, k) and
    returns its rows' estimates. A contract with no spec left to estimate
    has no blocks.
    """

    def __init__(self, group, specs, config: BootstrapConfig, ordinal: int):
        self.group, self.specs, self.config, self.ordinal = group, specs, config, ordinal
        lead = group[0]  # the long-oriented losses are lead's, or its mirror's
        n, method = lead.n, config.quantile_method
        self._values = lead.values if lead.position is Position.LONG else -lead.values[::-1]
        self._out = []  # per sample and spec: None, or the ValueError its parameter raised
        self._live = []  # (slot in _out, measure, estimator arg, mirrored, plug-in)
        for sample in group:
            mirrored = sample.position is Position.SHORT
            for spec in specs:
                try:
                    arg = _estimator_arg(spec, n)
                except ValueError as exc:
                    self._out.append(exc)
                    continue
                plug_in = _evaluate(sample, spec.measure, arg, method)
                if mirrored and spec.measure is Measure.SRM:
                    # the weights in the block's column order; einsum runs about
                    # twice as fast on a contiguous copy as on the reversed view
                    arg = np.ascontiguousarray(arg[::-1])
                self._live.append((len(self._out), spec.measure, arg, mirrored, plug_in))
                self._out.append(None)
        self.block_rows = max(_BLOCK_ELEMS // n, 1)
        self.blocks = -(-config.resamples // self.block_rows) if self._live else 0

        # A long cell reads the block's columns from its first column up, a short
        # cell the columns below n minus its first column.
        self._low = max((n - _first_column(measure, arg, n, method)
                         for _, measure, arg, mirrored, _ in self._live if mirrored), default=0)
        self._high = min((_first_column(measure, arg, n, method)
                          for _, measure, arg, mirrored, _ in self._live if not mirrored), default=n)
        # Sorting and gathering the ends costs about their share of doing so for
        # the whole row, and each partition about as much as a quarter of the
        # row and 30 columns more. That fits where run_grid broke even with two
        # ends, measured at n = 400 to 20 000: ends covering 0.35 of the row at
        # n = 400, 0.43 at 800 and 0.48 from 3392 up. One end costs about the
        # same either way from half to three quarters of the row. A row past the
        # cut-off is sorted whole.
        partitions = (self._low > 0) + (self._high < n)
        self._whole = self._low + n - self._high + partitions * (n // 4 + 30) > n

    def _run_block(self, block: int, chunk_bytes: int) -> list:
        """Draw the block's rows in chunks of at most chunk_bytes, sort and
        gather each chunk once, and return every live spec's estimates of
        the rows, one array per spec. Only the ends of the rows that specs
        read are sorted and gathered when the plan says the partitions
        pay."""
        values, low, high, method = self._values, self._low, self._high, self.config.quantile_method
        n = values.size
        block_rows = min(self.block_rows, self.config.resamples - block * self.block_rows)
        # One array per spec: at 40 kB each (a golden cell) the heap reuses them
        # from block to block, while one array of them all took fresh pages on
        # every block, and their faults cost 7 % of a golden grid's time.
        estimates = [np.empty(block_rows) for _ in self._live]
        stream = _contract_stream(self.config.master_seed, self.ordinal, block)
        chunk_rows = min(max(chunk_bytes // (12 * n), 1), _CHUNK_ROWS)
        for done in range(0, block_rows, chunk_rows):
            rows = min(chunk_rows, block_rows - done)
            # int32 indices draw the same stream as the int64 default at half the
            # memory. The values are sorted, so gathering them at sorted indices
            # sorts each row, and 4-byte indices sort faster than 8-byte values.
            # Partitioning at an end leaves exactly the indices of that end's
            # ranks beyond it, which is all that needs sorting and gathering.
            idx = stream.integers(0, n, size=(rows, n), dtype=np.int32)
            if self._whole:
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
            for out, (_, measure, arg, mirrored, _) in zip(estimates, self._live):
                out[done:done + rows] = _evaluate_sorted(
                    bottom if mirrored else top, measure, arg, method, n, mirrored)
            del idx, bottom, top  # so the next chunk's draw and gather never overlap this one's
        return estimates

    def finish(self, blocks) -> list:
        """Summarize the estimates that the contract's blocks returned, in
        block order. Returns, per sample, one entry per spec: its
        BootstrapResult, the ValueError its parameter raised, or the
        exception that failed the contract, as any block's did."""
        out = list(self._out)
        error = next((b for b in blocks if isinstance(b, Exception)), None)
        if error is None:
            try:
                for i, (slot, _, _, _, plug_in) in enumerate(self._live):
                    estimates = np.concatenate([b[i] for b in blocks])
                    out[slot] = _summarize(estimates, plug_in, self.config)
            except Exception as exc:  # e.g. out of memory: fail this contract's cells
                error = exc
        if error is not None:
            out = [error] * len(out)
        k = len(self.specs)
        return [out[i * k:(i + 1) * k] for i in range(len(self.group))]


def _bootstrap(groups, specs, config: BootstrapConfig, workers: int) -> list:
    """Bootstrap every spec on every contract's samples in groups, and
    return what each contract's finish returns (see _Contract).

    Every block of every contract, in contract-major order, goes to at most
    workers threads, which share the chunk budget _CHUNK_BYTES and nothing
    else. The calling thread reads the blocks' estimates in that order and
    finishes each contract once its last block is in. One thread is the
    calling thread itself.
    """
    contracts = [_Contract(group, specs, config, ordinal) for ordinal, group in enumerate(groups)]
    blocks = [(contract, block) for contract in contracts for block in range(contract.blocks)]
    threads = max(min(workers, len(blocks)), 1)
    chunk_bytes = _CHUNK_BYTES // threads

    def run(item):
        contract, block = item
        try:
            return contract._run_block(block, chunk_bytes)
        except Exception as exc:  # e.g. out of memory: fail this contract's cells, not the grid
            return exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        done = (map if threads == 1 else pool.map)(run, blocks)
        return [contract.finish([next(done) for _ in range(contract.blocks)])
                for contract in contracts]


def bootstrap_estimate(sample: LossSample, estimator: EstimatorSpec,
                       config: BootstrapConfig) -> BootstrapResult:
    """Bootstrap one measure on one sample.

    Draws config.resamples samples with replacement, evaluates the
    estimator on each and summarizes the resulting distribution. The
    sample is treated as the lone sample of contract 0 of a grid, so the
    result equals that cell of run_grid([sample], ...) under the same
    config, bit for bit.
    """
    (((result,),),) = _bootstrap([[sample]], [estimator], config, 1)
    if isinstance(result, Exception):
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
    - workers: worker threads sharing the grid. A contract is a sample
      together with the next one when that one is its mirror in the
      opposite position, as to_losses makes them from one series; else
      the sample alone. All cells of a contract read the same resamples,
      which are split into fixed blocks, each with its own stream keyed on
      the master seed, the contract's ordinal and the block's ordinal. The
      threads take blocks, not contracts, so even the two positions of one
      series use every worker once they have that many blocks, and results
      are bit-identical for any worker count. The threads share one chunk
      memory budget and nothing else: each block returns its estimates,
      and the calling thread summarizes each contract from them. One
      worker runs every block on the calling thread.

    Cells come out sample by sample, measures in Measure order, parameters
    in grid order. A cell whose parameter the estimator rejects is recorded
    with the error message, as is every cell of a contract whose resampling
    fails (out of memory, say), and the rest of the grid still runs.
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

    results = _bootstrap([[samples[i] for i in group] for group in groups], specs, config, workers)
    cells = []
    for group, contract_results in zip(groups, results):
        for sample_index, sample_results in zip(group, contract_results):
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
    return ResultGrid(cells=tuple(cells))
