"""Vanilla bootstrap precision for the tail risk measures.

Each estimate is resampled B times with replacement, nothing fancier: no
bias adjustment, no block bootstrap of serial dependence. The resample
estimates give the reported point estimate (their mean), its standard
error, the coefficient of variation (point estimate over standard error)
and a standardized percentile confidence interval (interval bounds
divided by the point estimate).

An EstimatorSpec checks its parameter when it is built, so a grid rejects
a bad parameter before any work, and a cell fails only when its
contract's resampling fails at run time.

Reproducibility is strict. The resamples belong to a series length, not
to a sample: run_grid pairs a sample with the next one when that one
holds the opposite position and is its exact mirror (short losses are
the long losses negated in reverse order), and the contracts, pairs or
lone samples, of equal length n form one length group. The group's B
resamples of n indices are split into fixed blocks of rows, and each
block draws from one stream of its own, keyed on the master seed, n and
the block's ordinal only (_contract_stream), never on a contract's place
among the inputs.

The path, one of two, is chosen from the depth of the group's ends
alone, the number of a sorted row's end columns that its deepest cell
reads (all n for a spectral cell), so every contract of a group takes
it. When that depth is at most _TAIL_SHARE of the row, a block of
_TAIL_BLOCK_ELEMS // n rows draws just the top order statistics of its
rows, that deep, and every sample, long or short, reads its own losses
at them. A short sample's losses there are the mirror of its contract's
lowest long-oriented losses at n - 1 minus those indices, the bottom of
a plain resample in law, so one draw serves both positions. Otherwise a
block holds _BLOCK_ELEMS // n rows, and each chunk of its rows is drawn
and sorted once; every contract of the group gathers its long-oriented
losses at those sorted indices, and every cell of both positions reads
that one sorted chunk, a short cell its low end through the mirror of
the one estimator (measures._plan and _apply), for VaR, ES and SRM
alike. The estimator's plans depend on n, the specs and the ends alone,
so the group builds them once: per measure, one plan that reads a
contract's two ends side by side, the spectral weights for the high end
and the same weights reversed for the low end. On either path a
contract's long and short cells read one draw, and the contracts of one
length read common random numbers: their cells are not independent of
one another, but each cell's own bootstrap distribution is that of a
plain resample of its sample.

So results are bit-identical for a given seed no matter how many workers
share the grid, in what order blocks run, how rows are chunked, in what
order the inputs come, what other series share the grid, or whether the
other position was requested. Other cells change no cell on the same
path: a row's top j order statistics do not depend on how deep its end
is drawn. A cell's draws do depend on its group's path, so adding a
spectral cell, or a VaR or ES cell past the cut-off, moves the VaR and ES
cells of a tail group to whole rows.

Each stage gets the array it reads. A block runs one chunk loop on
either path, and the path decides only where a chunk's indices come
from. On the whole-row path they are a fresh (rows, n) int32 draw sorted
along its rows; on the tail path a block's are one row-major (rows,
depth) int32 array whose rows ascend (_tail_indices), and a chunk is a
slice of its rows. A contract gathers its losses at a chunk's indices
into rows of ascending losses, so each row reduces as a lone row would,
whatever the chunk or group, and writes each measure's estimates with
one estimator call into its own columns of the contract's estimates,
one row per cell, cells sample by sample and spec by spec within a
sample. A block returns, per contract, the exception that failed it or
None. Once its blocks are in, a group summarizes each contract in one
pass over all its rows; the results go on as one list per sample, one
entry per spec, in sample order.

The blocks of all length groups are the unit of work. The calling thread
prepares every group, then it and up to workers - 1 more threads, plain
threading.Thread objects, run one loop: each takes the next block in
group-major order under a lock, so a grid of one contract uses as many
workers as it has blocks, and one worker starts no thread. The threads
change no state but that count of blocks taken, each group's count of
blocks not yet in, their blocks' result slots and their blocks' columns
of the estimates, which the thread that takes a group's first block
allocates under that lock. The thread whose block is the last of its
group to come in summarizes the group's contracts and frees their
estimates, at any worker count. A run-time failure in one contract's
gather or reduction fails only that contract's cells; a failure in a
block's shared draw fails every contract of its length.

Memory: each contract of a group holds one (cells, B) array of
estimates, 8 bytes per resample and cell. It is allocated as the group's
first block is taken, written by the blocks at their own columns, and
dropped once the group has summarized it. On the whole-row path each
thread draws its rows in chunks of at most _CHUNK_BYTES, or of two rows
of 12 * n bytes each once a row exceeds half of it: a chunk's int32
indices and one buffer that its contracts gather their losses into in
turn, so the chunks of a grid take about _CHUNK_BYTES per thread, and
24 * n bytes past n = 43 690. Two rows, not one, because the spectral
estimator reads a lone row as two (measures._apply); only a block's last
chunk can hold one row. The rows per chunk depend on n alone, never on
the worker count. Even so, a block's draws do not depend on how its rows
are chunked, as each bounded int32 draw takes the next 32 bits of its
stream, and every estimator reduces each row in a fixed order whatever
the number of rows, so neither do the estimates. On the tail path a
thread holds one block's int32 indices, at most _TAIL_BLOCK_ELEMS bytes
(4 MiB) at the cut-off, and works on them in slabs of levels and groups
of rows of at most _CHUNK_BYTES // 2 bytes each.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .measures import (
    LossSample,
    Measure,
    Position,
    QuantileMethod,
    _apply,
    _check_alpha,
    _check_aversion,
    _check_integer,
    _first_column,
    _plan,
    spectral_weights,
)

# A chunk holds 12 bytes per element (int32 index and float64 value), and
# each thread draws its own chunks: as many rows as fit in _CHUNK_BYTES, at
# least 2, so the budget alone bounds a chunk below n = 43 691. run_grid's
# wall time (median of 10 alternating rounds of the minimum of 3 calls) and
# the peak RSS of the riskboot estimate process (VmHWM, median of 4 to 6
# runs), on a 2-CPU x86-64 host; the long_history row has the tail path's
# slabs and chunks at an eighth of the budget:
#
#                                               4 MiB    2 MiB    1 MiB
#     golden grid (n = 400), 1 worker  (ms)      116      109      113
#     paper grid (n = 3392), 1 worker  (ms)      293      296      300
#     paper grid (n = 3392), 2 workers (ms)      177      185      198
#     SRM grid, n = 20 000, 2 workers  (ms)      137      146      154
#     long_history ES 0.99, 2 workers  (ms)     13.1     15.9     19.7
#     paper command, peak RSS          (MB)     47.7     42.8     40.6
#     golden command, peak RSS         (MB)     44.4     42.4     41.4
#
# At 1 MiB a paper thread's chunks are 25 rows where they were 103, and a
# golden thread's 218, where at 4 MiB a cap of 512 rows held them (peak RSS
# 42.6 MB). The time goes to fixed costs per chunk, chiefly the estimator
# calls that each contract makes on it: six at the time of this table, three
# since. The tail path's memory is its block's indices, up to 4 MiB, so its
# slabs and chunks take half the budget, 512 KiB, as they did at an eighth
# of 4 MiB: at an eighth of 1 MiB the long_history command ran 4.6 % slower
# (wall_s, median of 10 alternating bench/run.py pairs).
_CHUNK_BYTES = 2 ** 20

# A contract gathers its losses at a chunk's int32 indices with take, which
# casts them to intp first, in slabs of rows of at most _TAKE_ELEMS elements
# (at least one row), so the cast takes at most max(_TAKE_ELEMS, width) * 8
# bytes, no more than values[idx] buffers, and stays in cache. Per gather
# of a sorted chunk, minimum of 7 runs of 30, in microseconds (values[idx] |
# take of the whole chunk | slabs of 2**13 | 2**15 | 2**17 elements):
#
#     n = 400,    512 rows    685 | 448 | 514 | 436 | 438
#     n = 3392,   103 rows   1202 | 686 | 526 | 587 | 762
#     n = 20 000,  20 rows   1393 | 867 | 520 | 775 | 732
#
# take with mode="clip" (the indices are in range) writes straight into its
# out array; by default it buffers.
_TAKE_ELEMS = 2 ** 13

# A block holds _BLOCK_ELEMS // n resamples of n losses on the whole-row
# path and _TAIL_BLOCK_ELEMS // n on the tail path, at least 1, and each of
# its chunks serves every contract of that n. Whole-row blocks are small
# enough that the golden grid's one length group (5000 resamples of 400
# losses) splits into two blocks for two workers. Tail blocks are larger,
# as a long series still splits into a few dozen of them.
_BLOCK_ELEMS = 2 ** 20
_TAIL_BLOCK_ELEMS = 2 ** 22

# A VaR and ES grid whose ends are at most _TAIL_SHARE of the row deep
# draws the top order statistics of its rows (_tail_indices) once per block
# instead of sorting whole rows. Time of the tail path over the whole sort,
# in run_grid on a mirrored pair (one draw, two gathers), ES at 1 - share,
# B = 5000 (1000 from n = 20 000), one worker, minimum process time of 5
# alternating calls each, on a 2-CPU x86-64 host with AVX-512:
#
#     share      0.10  0.15  0.20  0.25  0.30  0.35  0.40  0.45  0.50
#     n = 400    0.29  0.39  0.52  0.61  0.73  0.92  1.00  1.09  1.20
#     n = 3392   0.21  0.34  0.39  0.62  0.63  0.75  0.89  1.03  1.08
#     n = 20 000 0.20  0.31  0.40  0.54  0.64  0.73  0.81  0.92  1.07
#     n = 97 084 0.20  0.27  0.42  0.53  0.68  0.85  0.93  0.96  1.14
#
# It breaks even between 0.40 and 0.47 of the row, a lone sample near 0.5,
# so time alone would allow a deeper cut-off. It stays at 0.25 for memory:
# there a block's tail indices take at most 4 MiB (4 bytes for each of a
# quarter of _TAIL_BLOCK_ELEMS), four times a whole-row chunk, so a thread
# on the tail path holds more than one on whole rows.
_TAIL_SHARE = 0.25


@dataclass(frozen=True)
class EstimatorSpec:
    """One measure at one parameter: confidence level for VAR and ES,
    risk aversion for SRM. Construction raises ValueError for a measure
    that is not a Measure or a parameter out of its measure's range, so
    every spec can be estimated, and stores the parameter as a float."""

    measure: Measure
    parameter: float

    def __post_init__(self):
        _check_measure(self.measure)
        check = _check_aversion if self.measure is Measure.SRM else _check_alpha
        object.__setattr__(self, "parameter", check(self.parameter))


@dataclass(frozen=True)
class BootstrapConfig:
    """The resample count, master seed, quantile method and interval
    coverage of a bootstrap, each checked at construction."""

    resamples: int = 5000
    master_seed: int = 0
    quantile_method: QuantileMethod = QuantileMethod.ORDER_STATISTIC
    ci_coverage: float = 0.90

    def __post_init__(self):
        if _check_integer(self.resamples, "resamples") < 2:
            raise ValueError(f"need at least 2 resamples for a standard error, got {self.resamples}")
        _check_seed(self.master_seed)
        if not isinstance(self.quantile_method, QuantileMethod):
            raise ValueError(f"unknown quantile method {self.quantile_method!r}")
        object.__setattr__(self, "ci_coverage", _check_alpha(self.ci_coverage, "interval coverage"))


@dataclass(frozen=True)
class BootstrapResult:
    """Precision summary of one bootstrapped estimate.

    point_estimate is the mean of the resample estimates; the measure on
    the original sample is value_at_risk, expected_shortfall or
    spectral_risk_measure of that sample. coeff_variation is
    point_estimate / std_error and is None when the resample distribution
    is degenerate or the point estimate is zero. ci_standardized holds the
    percentile interval of the resample estimates divided through by the
    point estimate. A degenerate resample distribution, every estimate
    equal, reports that value as the point, a standard error of exactly
    zero and the interval (1.0, 1.0). Resample estimates that spread but
    have a mean of exactly zero keep their standard error and report the
    interval (nan, nan): no interval can be divided by a zero point.
    """

    point_estimate: float
    std_error: float
    coeff_variation: float | None
    ci_standardized: tuple[float, float]


# ----------------------------------------------------------------------
# streams and the contracts' resample blocks
# ----------------------------------------------------------------------

def _check_measure(measure):
    """The one check of a measure, for EstimatorSpec and run_grid's keys."""
    if not isinstance(measure, Measure):
        raise ValueError(f"unknown measure {measure!r}")


def _check_workers(workers):
    """The one check of a worker count, for run_grid and the CLI."""
    if _check_integer(workers, "worker count") < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")


def _check_seed(seed):
    """The one check of a master seed, which keys every stream together with
    a series length and a block: an unsigned 64-bit integer."""
    if not 0 <= _check_integer(seed, "master seed") < 2 ** 64:
        raise ValueError(f"master seed must fit in an unsigned 64-bit integer, got {seed!r}")


def _contract_stream(master_seed: int, n: int, block: int = 0) -> np.random.Generator:
    """Independent generator for one block of the resamples of every
    contract of n losses, a pure function of (master_seed, n, block), that
    the block's whole rows or its tail draw read: an SFC64 stream seeded by
    a SeedSequence keyed on all three numbers, numpy's way to make
    independent streams. BootstrapConfig has checked the seed."""
    key = np.random.SeedSequence([master_seed, n, block])
    return np.random.Generator(np.random.SFC64(key))


def _mirrors(sample: LossSample, other: LossSample) -> bool:
    """Whether other holds the opposite position of sample's very losses."""
    return (other.position is not sample.position
            and np.array_equal(other.values, -sample.values[::-1]))


def _summarize(estimates: np.ndarray, config: BootstrapConfig) -> list:
    """One BootstrapResult per row of a C-contiguous (cells, B) array of
    resample estimates, in row order, from row-wise reductions over the
    whole array, which give each row the bits that it gives alone. Sorts
    the rows in place to read both interval ends of every row in one
    estimator call."""
    # numpy's mean and std of equal floats can miss: 5000 copies of
    # 0.026978671376387032 have mean 0.026978671376387042 and std 1.04e-17
    flats = (estimates.min(axis=1) == estimates.max(axis=1)).tolist()
    firsts, points = estimates[:, 0].tolist(), estimates.mean(axis=1).tolist()
    # std takes a temporary of its input's size, so it goes in slabs of rows
    step, errors = max(_CHUNK_BYTES // (16 * estimates.shape[1]), 1), []
    for r in range(0, len(estimates), step):
        errors += estimates[r:r + step].std(axis=1, ddof=1).tolist()
    estimates.sort(axis=1)
    tail = (1.0 - config.ci_coverage) / 2.0
    bounds = _apply(estimates, _plan(Measure.VAR, (tail, 1.0 - tail), estimates.shape[1],
                                     config.quantile_method)).tolist()
    results = []
    for flat, first, point, std_error, (lo, hi) in zip(flats, firsts, points, errors, bounds):
        if flat:
            point, std_error = first, 0.0
        if std_error > 0.0 and point != 0.0:
            coeff_variation = point / std_error
        else:
            coeff_variation = None
        if std_error == 0.0:
            ci = (1.0, 1.0)
        elif point == 0.0:
            ci = (math.nan, math.nan)  # standardization undefined
        else:
            lo, hi = lo / point, hi / point
            ci = (min(lo, hi), max(lo, hi))
        results.append(BootstrapResult(
            point_estimate=point,
            std_error=std_error,
            coeff_variation=coeff_variation,
            ci_standardized=ci))
    return results


def _tail_indices(stream: np.random.Generator, n: int, depth: int, rows: int) -> np.ndarray:
    """The depth largest of each of rows draws of n iid indices in 0..n-1,
    as a row-major (rows, depth) int32 array whose rows ascend, so column
    depth - 1 - l holds each row's (l+1)-th largest.

    Renyi's representation of uniform order statistics: with E_0, E_1, ...
    iid standard exponential, exp(-(E_0/n + ... + E_l/(n-l))) has the law of
    the (l+1)-th largest of n iid uniforms, jointly over l. The floor of n
    times a uniform is a uniform index, and the floor is monotone, so the
    indices are the top order statistics of a bootstrap row's indices,
    exactly in law. The exponentials are drawn level-major, all of a
    level's rows before the next level's, so a row's top j indices never
    depend on depth. They are drawn and summed in slabs of levels of at
    most _CHUNK_BYTES // 2 bytes, each carrying the running sums of the one
    before, which neither changes a sum nor which draws a row reads."""
    idx = np.empty((rows, depth), dtype=np.int32)
    levels = max(_CHUNK_BYTES // (16 * rows), 1)
    total = np.zeros(rows)
    for top in range(0, depth, levels):
        stop = min(top + levels, depth)
        s = stream.standard_exponential((stop - top, rows))
        s /= np.arange(n - top, n - stop, -1, dtype=float)[:, None]
        s[0] += total
        np.cumsum(s, axis=0, out=s)
        total = s[-1].copy()
        np.negative(s, out=s)
        np.exp(s, out=s)
        s *= n
        np.minimum(s, n - 1, out=s)  # n * exp(-S) rounds to n when S is below an ulp
        idx[:, depth - stop:depth - top] = s[::-1].T  # truncates, a floor as s >= 0
        del s
    return idx


def _gather(values, idx, buffer) -> np.ndarray:
    """Gather values at a chunk of shared indices whose rows ascend into the
    first rows of buffer, and return those rows."""
    rows = buffer[:idx.shape[0]]
    step = max(_TAKE_ELEMS // idx.shape[1], 1)
    for r in range(0, idx.shape[0], step):
        values.take(idx[r:r + step], mode="clip", out=rows[r:r + step])
    return rows


class _LengthGroup:
    """Every contract of one series length n, run as blocks that any thread
    may take, each in one chunk loop on either path, with the estimator
    plans that its chunks read and the estimates that its blocks write.

    groups holds each contract's samples: a lone sample or a pair of
    mirrored samples of opposite positions. The constructor picks the
    group's path, tail ends of _depth columns or whole rows when _depth is
    None, and splits the config.resamples rows into blocks of block_rows,
    the last one partial; block k draws from _contract_stream(seed, n, k).

    _reads holds, per contract, the losses it gathers at each chunk, the
    first of its samples that the gather serves, and the plans that reduce
    the gathered rows, one per measure of the specs: on the whole-row path
    one gather of the contract's long-oriented losses serves all its
    samples, each through its own end, the high end for a long sample and
    the low end mirrored for a short one; on the tail path each sample
    gathers its own losses for the high end. A plan covers the gather's
    ends side by side, so a chunk costs a contract one estimator call per
    measure and gather. The constructor builds the plans once for the
    group's row width and each tuple of ends its contracts read, with
    every SRM spec's weights built once as one stack; the specs come in
    Measure order, as run_grid makes them, so each measure's cells are one
    slice of a sample's.

    start allocates each contract's estimates, one row of B per cell, the
    blocks write them at their own columns, and finish summarizes and
    drops them. Nothing else changes after the constructor, so the threads
    share a group freely.
    """

    def __init__(self, groups, specs, config: BootstrapConfig):
        self.groups, self.specs, self.config = groups, specs, config
        self.n = n = groups[0][0].n
        # The depth of an end is how many of a sorted row's top (long) or
        # bottom (short) columns the cells read, n for an SRM cell; both
        # positions share the specs, so it is the same at both ends.
        depth = max(n - _first_column(spec.measure, spec.parameter, n, config.quantile_method)
                    for spec in specs)
        self._depth = None if depth > _TAIL_SHARE * n else depth
        elems = _BLOCK_ELEMS if self._depth is None else _TAIL_BLOCK_ELEMS
        self.block_rows = max(elems // n, 1)
        self.blocks = -(-config.resamples // self.block_rows)
        self._estimates = None
        batches, at = [], 0  # per measure of the specs: its parameters and its cells' slice
        for m in Measure:
            args = [spec.parameter for spec in specs if spec.measure is m]
            if m is Measure.SRM:
                args = np.array([spectral_weights(n, k) for k in args]).reshape(-1, n)
            if len(args):
                batches.append((m, args, slice(at, at + len(args))))
                at += len(args)
        plans, width = {}, n if self._depth is None else depth  # per tuple of ends

        def read(values, first, ends):  # one entry of _reads: a gather and what reduces it
            if ends not in plans:
                plans[ends] = [(_plan(m, args, n, config.quantile_method, width, ends), cells)
                               for m, args, cells in batches]
            return values, slice(first, first + len(ends)), plans[ends]

        if self._depth is None:  # the long-oriented losses are the lead's, or its mirror's
            self._reads = [[read(g[0].values if g[0].position is Position.LONG else -g[0].values[::-1],
                                 0, tuple(sample.position is Position.SHORT for sample in g))]
                           for g in groups]
        else:
            self._reads = [[read(sample.values, i, (False,)) for i, sample in enumerate(g)]
                           for g in groups]

    def start(self):
        """Allocate each contract's estimates, a (samples, specs, B) array
        whose rows are its cells in order, or record the exception that
        failed it; the group's first block to be taken calls this before
        any of its blocks runs."""
        self._estimates = []
        for group in self.groups:
            try:
                self._estimates.append(np.empty((len(group), len(self.specs),
                                                 self.config.resamples)))
            except Exception as exc:  # e.g. out of memory: fail this contract's cells
                self._estimates.append(exc)

    def _run_block(self, block: int) -> list:
        """Write the estimates of the block's rows into each contract's
        columns of them, and return, per contract, None or the exception
        that failed its gather or reduction. An exception in the shared
        draw propagates: it fails every contract of the group.

        The block's rows go in chunks, and each contract that has not failed
        yet gathers its losses at a chunk's indices into one buffer in turn
        and reduces them; an exception fails that contract alone. The path
        only decides where a chunk's indices come from. On whole rows each
        chunk of at most _CHUNK_BYTES, or of two rows, is drawn and sorted
        along its rows.
        On the tail path the block's top self._depth order statistics are
        drawn once, and a chunk is a group of their rows that takes, with
        the buffer it is gathered into, at most _CHUNK_BYTES // 2 bytes (12
        bytes an element)."""
        n, depth = self.n, self._depth
        first = block * self.block_rows
        rows = min(self.block_rows, self.config.resamples - first)
        failed = [out if isinstance(out, Exception) else None for out in self._estimates]
        stream = _contract_stream(self.config.master_seed, n, block)
        if depth is None:
            width, chunk_rows = n, max(_CHUNK_BYTES // (12 * n), 2)
        else:
            width, chunk_rows = depth, max(_CHUNK_BYTES // (24 * depth), 1)
            tail = _tail_indices(stream, n, depth, rows)
        buffer = np.empty((min(chunk_rows, rows), width))
        for done in range(0, rows, chunk_rows):
            if depth is None:
                # int32 indices draw the same stream as the int64 default at half the
                # memory. The values are sorted, so gathering them at sorted indices
                # sorts each row, and 4-byte indices sort faster than 8-byte values.
                idx = stream.integers(0, n, size=(min(chunk_rows, rows - done), n), dtype=np.int32)
                idx.sort(axis=1)
            else:
                idx = tail[done:done + chunk_rows]
            at = slice(first + done, first + done + idx.shape[0])
            for i, (reads, out) in enumerate(zip(self._reads, self._estimates)):
                if failed[i] is None:
                    try:
                        for values, samples, plans in reads:
                            gathered = _gather(values, idx, buffer)
                            for plan, cells in plans:  # each end's cells of one measure in turn
                                out[samples, cells, at] = _apply(gathered, plan).T.reshape(
                                    samples.stop - samples.start, -1, idx.shape[0])
                    except Exception as exc:  # e.g. out of memory: fail this contract's cells
                        failed[i] = exc
            del idx  # so the next chunk's draw holds only its indices and the buffer
        return failed

    def finish(self, blocks) -> list:
        """Summarize each contract's estimates in one pass and drop them.
        blocks holds what the group's blocks returned, in block order.
        Returns, per sample of the group's contracts in turn, one entry per
        spec: its BootstrapResult, or the exception that failed its
        contract, as the first block in block order to fail it had."""
        k, results = len(self.specs), []
        for i, group in enumerate(self.groups):
            cells = len(group) * k
            out = next(([b[i]] * cells for b in blocks if b[i] is not None), None)
            if out is None:
                try:
                    out = _summarize(self._estimates[i].reshape(cells, -1), self.config)
                except Exception as exc:  # e.g. out of memory: fail this contract's cells
                    out = [exc] * cells
            self._estimates[i] = None
            results += (out[j:j + k] for j in range(0, cells, k))
        return results


def _bootstrap(groups, specs, config: BootstrapConfig, workers: int) -> list:
    """Bootstrap every spec on every contract's samples in groups, and
    return, per sample in the order of groups, one entry per spec: its
    BootstrapResult, or the exception that failed its contract. specs
    holds at least one spec.

    The contracts of each length form one _LengthGroup, in the order of
    their lengths' first appearance, and the calling thread and up to
    workers - 1 more run their blocks. An exception in a block's shared
    draw fails every contract of its length. A BaseException that is no
    Exception stops every thread from taking further blocks, and
    propagates from here once all are joined.
    """
    by_length = {}  # the contracts of each length
    for group in groups:
        by_length.setdefault(group[0].n, []).append(group)
    lengths = [_LengthGroup(contracts, specs, config) for contracts in by_length.values()]
    blocks = [(g, length, block) for g, length in enumerate(lengths)
              for block in range(length.blocks)]
    slots = [[None] * length.blocks for length in lengths]  # each block's failures
    left = [length.blocks for length in lengths]  # blocks not yet in; guarded by lock
    finished, escaped = {}, []  # per length, its samples' results in turn
    lock = threading.Lock()
    taken = 0  # blocks handed out; guarded by lock

    def work():
        nonlocal taken
        try:
            while True:
                with lock:
                    i, taken = taken, taken + 1
                    if i < len(blocks) and blocks[i][2] == 0:  # before any block of its group runs
                        blocks[i][1].start()
                if i >= len(blocks):
                    return
                g, length, block = blocks[i]
                try:
                    slots[g][block] = length._run_block(block)
                except Exception as exc:  # e.g. out of memory: fail every contract of this length
                    slots[g][block] = [exc] * len(length.groups)
                with lock:
                    left[g] -= 1
                    last = left[g] == 0
                if last:
                    finished[length.n] = iter(length.finish(slots[g]))
        except BaseException as exc:  # re-raised on the calling thread
            with lock:
                taken = len(blocks)
            escaped.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(blocks)) - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        with lock:  # no further block, should a thread fail to start
            taken = len(blocks)
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if escaped:
        raise escaped[0]
    return [next(finished[group[0].n]) for group in groups for _ in group]


def bootstrap_estimate(sample: LossSample, estimator: EstimatorSpec,
                       config: BootstrapConfig) -> BootstrapResult:
    """Bootstrap one measure on one sample.

    Draws config.resamples samples with replacement, evaluates the
    estimator on each and summarizes the resulting distribution. Streams
    are keyed on the sample's length and the block, not its place, so the
    result equals the sample's cell of any run_grid call under the same
    config that holds the sample, bit for bit, for any grid on the same
    path: a VaR or ES spec shallow enough for the tail path reproduces the
    cells of VaR and ES grids on it, not those of a grid with a spectral
    cell.
    """
    ((result,),) = _bootstrap([[sample]], [estimator], config, 1)
    if isinstance(result, Exception):
        raise result
    return result


# ----------------------------------------------------------------------
# the estimation grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    """One (sample, measure, parameter) cell. Exactly one of result and
    error is set. A cell fails only when its contract's resampling fails at
    run time, and that never aborts the rest of the grid."""

    sample_index: int
    sample_label: str
    position: Position
    measure: Measure
    parameter: float
    result: BootstrapResult | None
    error: str | None


@dataclass(frozen=True)
class ResultGrid:
    """Every cell of one run_grid call, and the config it ran with."""

    cells: tuple[GridCell, ...]
    config: BootstrapConfig

    @property
    def failed(self) -> tuple[GridCell, ...]:
        return tuple(c for c in self.cells if c.error is not None)


def run_grid(samples, grid, config: BootstrapConfig, workers: int = 1) -> ResultGrid:
    """Bootstrap every (sample, measure, parameter) combination.

    Parameters:
    - samples: sequence of LossSample.
    - grid: mapping of Measure to its parameter list, e.g.
      {Measure.VAR: [0.95, 0.99], Measure.SRM: [5, 20]}.
    - workers: threads sharing the grid, the calling thread among them;
      one worker starts no thread. The threads take blocks, not contracts,
      so even the two positions of one series use every worker once they
      have that many blocks, and results are bit-identical for any worker
      count.

    A contract is a sample together with the next one when that one is
    its mirror in the opposite position, as to_losses makes them from one
    series; else the sample alone. The contracts of equal length n read
    the same resamples, in blocks with streams keyed on the master seed,
    n and the block alone (see the module docstring). So a contract's
    cells do not depend on its place among the samples or on the other
    samples, and the cells of contracts of one length are correlated,
    each with the bootstrap distribution of a plain resample.

    Cells come out sample by sample, measures in Measure order, parameters
    in grid order. A grid key that is not a Measure, or a parameter out of
    its measure's range, raises the ValueError of EstimatorSpec before any
    contract is prepared. Every cell of a contract whose gather or
    reduction fails at run time (out of memory, say) is recorded with the
    error message, as is every cell of every contract of its length when a
    block's shared draw fails, and the rest of the grid still runs.
    """
    samples = list(samples)
    _check_workers(workers)
    for measure in grid:  # the specs below would skip a key that is no Measure
        _check_measure(measure)
    specs = [EstimatorSpec(measure, parameter)
             for measure in Measure if measure in grid for parameter in grid[measure]]
    if not specs:
        return ResultGrid(cells=(), config=config)
    contracts = []
    for sample in samples:
        if contracts and len(contracts[-1]) == 1 and _mirrors(contracts[-1][0], sample):
            contracts[-1].append(sample)
        else:
            contracts.append([sample])

    cells, results = [], _bootstrap(contracts, specs, config, workers)
    for i, (sample, sample_results) in enumerate(zip(samples, results)):
        for spec, result in zip(specs, sample_results):
            failed = isinstance(result, Exception)
            cells.append(GridCell(
                sample_index=i,
                sample_label=sample.label,
                position=sample.position,
                measure=spec.measure,
                parameter=spec.parameter,
                result=None if failed else result,
                error=f"{type(result).__name__}: {result}" if failed else None))
    return ResultGrid(cells=tuple(cells), config=config)
