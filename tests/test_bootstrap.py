"""Bootstrap precision: streams, resampling, cell estimates and the grid."""

import collections
import itertools
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from riskboot import (
    BootstrapConfig,
    EstimatorSpec,
    LossSample,
    Measure,
    Position,
    QuantileMethod,
    bootstrap_estimate,
    expected_shortfall,
    run_grid,
    spectral_weights,
    value_at_risk,
)
from riskboot import bootstrap
from riskboot.bootstrap import _contract_stream
from riskboot.measures import _apply, _plan

from exact_bootstrap import exact_order_law, exact_order_means
from spec_grid import spec_grid
import zreport


def normal_sample(n=400, seed=2, label="x", position=Position.LONG):
    values = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return LossSample(values, position=position, label=label)


def mirrored_pair(n, seed, label):
    """The long and short samples of one contract, as to_losses makes them
    from one return series: each is the other mirrored."""
    returns = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return [LossSample(-returns, Position.LONG, label), LossSample(returns, Position.SHORT, label)]


def gathers_losses_of(values, sample):
    """Whether a contract gathers values for sample: its losses, or on the
    whole-row path their mirror, when the sample leads its contract short."""
    return np.array_equal(values, sample.values) or np.array_equal(values, -sample.values[::-1])


def content(cells):
    """What a cell reports, without its place in the sample list."""
    return [(c.sample_label, c.position, c.measure, c.parameter, c.result, c.error)
            for c in cells]


def by_coordinates(grid):
    """The grid's cells keyed on (sample_index, measure, parameter)."""
    return {(c.sample_index, c.measure, c.parameter): c for c in grid.cells}


def first_resample(sample, seed, block=0):
    """Row 0 of a resample block that the bootstrap draws for every
    contract of the sample's length, sorted, at the sample's values."""
    idx = _contract_stream(seed, sample.n, block).integers(
        0, sample.n, size=(1, sample.n), dtype=np.int32)
    return np.sort(sample.values[idx[0]])


def tail_indices(seed, block, n, depth, rows):
    """The (depth, rows) top indices of a tail block, recomputed by Renyi's
    representation: level l of each row is the (l+1)-th largest of its n
    indices, from exponentials drawn level-major."""
    e = _contract_stream(seed, n, block).standard_exponential((depth, rows))
    u = np.exp(-np.cumsum(e / np.arange(n, n - depth, -1)[:, None], axis=0))
    return np.minimum(np.floor(n * u), n - 1).astype(np.int64)


def var_estimates(sample, alpha, b, seed, block_rows):
    """The resample VaR estimates of a sample on the tail path: block k
    holds resamples k * block_rows up to b, and a row's VaR is the
    order statistic as deep as the cell reads, drawn from the stream of
    block k of the sample's length. A long or a short sample reads its
    own losses at those top indices: a short sample's are the mirror of
    its contract's long-oriented losses at n - 1 minus them."""
    depth = sample.n - math.ceil(alpha * sample.n - 1e-9) + 1
    estimates = []
    for block, start in enumerate(range(0, b, block_rows)):
        rows = min(block_rows, b - start)
        estimates.append(sample.values[tail_indices(seed, block, sample.n, depth, rows)[-1]])
    return np.concatenate(estimates)


class TestSampleStream:
    def test_same_coordinates_same_draws(self):
        a = _contract_stream(7, 400).integers(0, 1000, size=20)
        b = _contract_stream(7, 400).integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_any_coordinate_changes_the_stream(self):
        base = _contract_stream(7, 400).integers(0, 2 ** 62, size=8)
        for seed, n in ((8, 400), (7, 401), (400, 7)):
            other = _contract_stream(seed, n).integers(0, 2 ** 62, size=8)
            assert not np.array_equal(base, other)

    def test_stream_is_sfc64_keyed_on_every_coordinate(self):
        """Streams are keyed on the series length n, not on a contract's
        place among the inputs, so every contract of n losses reads them."""
        for seed, n, block in ((7, 400, 0), (7, 3392, 5), (2 ** 64 - 1, 1, 1)):
            key = np.random.SeedSequence([seed, n, block])
            expected = np.random.Generator(np.random.SFC64(key)).integers(0, 2 ** 62, size=8)
            assert np.array_equal(
                _contract_stream(seed, n, block).integers(0, 2 ** 62, size=8), expected)
        assert np.array_equal(_contract_stream(7, 400).integers(0, 2 ** 62, size=8),
                              _contract_stream(7, 400, 0).integers(0, 2 ** 62, size=8))

    def test_each_coordinate_changes_the_stream(self):
        base = _contract_stream(7, 400, 5).integers(0, 2 ** 62, size=8)
        for other in ((8, 400, 5), (7, 401, 5), (7, 400, 6), (7, 5, 400), (5, 400, 7)):
            assert not np.array_equal(base, _contract_stream(*other).integers(0, 2 ** 62, size=8))

    def test_a_chunk_of_rows_draws_what_its_rows_draw_one_by_one(self):
        """Bounded int32 draws take 32 bits at a time, and the generator
        keeps the unused half of a 64-bit output for the next call, so a
        (rows, n) draw equals rows draws of n, odd n too."""
        for n in (400, 3391, 3392):
            whole = _contract_stream(5, n).integers(0, n, size=(7, n), dtype=np.int32)
            stream = _contract_stream(5, n)
            rows = [stream.integers(0, n, size=(1, n), dtype=np.int32) for _ in range(7)]
            assert np.array_equal(whole, np.concatenate(rows))

    def test_int32_draws_match_the_int64_default(self):
        for n in (400, 401, 3392):
            narrow = _contract_stream(5, n).integers(0, n, size=(3, n), dtype=np.int32)
            wide = _contract_stream(5, n).integers(0, n, size=(3, n))
            assert np.array_equal(narrow, wide)


class TestResample:
    def test_resample_draws_from_the_sample_with_replacement(self):
        sample = normal_sample(n=100)
        out = first_resample(sample, seed=1)
        assert out.size == sample.n
        assert set(out.tolist()) <= set(sample.values.tolist())
        # with replacement: 100 draws from 100 values repeat some value
        # almost surely, and this seed does
        assert len(set(out.tolist())) < sample.n

    def test_resample_is_stream_driven(self):
        sample = normal_sample()
        a = first_resample(sample, seed=5)
        assert np.array_equal(a, first_resample(sample, seed=5))
        assert not np.array_equal(a, first_resample(sample, seed=6))
        assert not np.array_equal(a, first_resample(sample, seed=5, block=1))


class TestTailDraw:
    def test_largest_index_follows_its_exact_law(self):
        """The largest of n iid uniform indices is n - 1 with probability
        1 - (1 - 1/n)**n, 0.6326 at n = 400. Over 200 000 tail draws at a
        fixed seed the share lands within 4 binomial standard errors."""
        n, rows = 400, 200_000
        top = bootstrap._tail_indices(_contract_stream(3, n, 0), n, 1, rows)[:, -1]
        p = 1.0 - (1.0 - 1.0 / n) ** n
        share = np.count_nonzero(top == n - 1) / rows
        assert abs(share - p) < 4 * math.sqrt(p * (1.0 - p) / rows)

    def test_top_indices_match_sorted_full_draws(self):
        """At n = 50 the j-th largest tail index has the law of the j-th
        largest of 50 resampled indices: over 20 000 rows of each at a fixed
        seed, the largest gap between their distribution functions stays
        under 0.03, a loose two-sample bound (a level off by one gives 0.19
        or more)."""
        n, rows, depth = 50, 20_000, 5
        tail = bootstrap._tail_indices(_contract_stream(4, n, 0), n, depth, rows)
        full = np.sort(_contract_stream(4, n, 1).integers(0, n, size=(rows, n)), axis=1)[:, ::-1]
        assert tail.shape == (rows, depth) and tail.flags.c_contiguous
        assert np.all(np.diff(tail, axis=1) >= 0)  # every row ascends
        for j in range(depth):
            gap = np.cumsum(np.bincount(tail[:, -1 - j], minlength=n)
                            - np.bincount(full[:, j], minlength=n))
            assert np.abs(gap).max() / rows < 0.03


class TestReductionPlan:
    def test_stacked_srm_columns_equal_each_spec_s_own_reduction(self):
        """A length group builds one SRM plan per tuple of ends that its
        contracts read, the ends side by side in one contiguous stack: every
        SRM spec's weights as a row for a high end, and the same rows
        reversed for a low end. A whole-row chunk reduces a contract's SRM
        cells in one _apply call on its plan: a lone long sample, a lone
        short sample, and a pair led by either position. Each cell equals
        its spec's one-vector reduction at its own end, bit for bit: for
        one-row chunks, past numpy's 8192-element buffer, and for short
        cells, whose rows are their weights reversed."""
        rng = np.random.default_rng(31)
        for n in (1, 400, 3392, 8193, 20_000):
            for vectors in (1, 3, 10):
                specs = [EstimatorSpec(Measure.SRM, k) for k in np.geomspace(0.5, 80.0, vectors)]
                long, short = (LossSample(rng.standard_normal(n), position) for position in Position)
                groups = [[long], [short], [long, short], [short, long]]
                length = bootstrap._LengthGroup(groups, specs, BootstrapConfig())
                high = np.array([spectral_weights(n, spec.parameter) for spec in specs])
                chunks = [np.sort(rng.standard_normal((rows, n)), axis=1) for rows in (1, 2, 5, 103)]
                for group, [(_, samples, [(plan, cells)])] in zip(groups, length._reads):
                    ends = [sample.position is Position.SHORT for sample in group]
                    assert (samples, cells) == (slice(0, len(group)), slice(0, vectors))
                    stack = plan[1]
                    assert stack.flags.c_contiguous
                    assert np.array_equal(stack, np.vstack([high[:, ::-1] if m else high for m in ends]))
                    for chunk in chunks:
                        columns = iter(_apply(chunk, plan).T)  # one SRM call a contract
                        for mirrored in ends:
                            for w in high:
                                own = _apply(chunk, _plan(Measure.SRM, w[None, :], n, ends=(mirrored,)))
                                assert np.array_equal(next(columns), own[:, 0])
                        assert next(columns, None) is None


class TestWorkCounts:
    def test_a_golden_shaped_grid_s_calls_per_chunk_contract_and_group(self, monkeypatch):
        """Counts of calls, which no host's noise moves, pin what a grid of
        the golden command's shape costs: five mirrored pairs, here of two
        lengths, each with 11 parameters in two positions. At any chunk
        size a chunk costs each contract one gather and one estimator call
        per measure, which reads both ends side by side; each length group
        builds one plan per measure, once, for the one tuple of ends that
        its long-led pairs read; and each contract is summarized in one
        call over its (22, B) estimates, whose interval ends take one plan
        and one estimator call. B = 300 keeps every group in one block."""
        counts = collections.Counter()

        def spy(name, key):
            real = getattr(bootstrap, name)

            def counted(*args):
                counts[key(*args)] += 1
                return real(*args)

            monkeypatch.setattr(bootstrap, name, counted)

        spy("_plan", lambda measure, args, n, *rest: ("plan", n))
        spy("_apply", lambda rows, plan: ("apply", rows.shape[1]))
        spy("_gather", lambda values, idx, buffer: ("gather", values.size))
        spy("_summarize", lambda estimates, config: ("summarize", estimates.shape))
        samples = [sample for i, n in enumerate((400, 400, 400, 401, 401))
                   for sample in mirrored_pair(n, 60 + i, str(i))]
        grid = {Measure.VAR: [0.9, 0.95, 0.99], Measure.ES: [0.9, 0.95, 0.99],
                Measure.SRM: [5.0, 10.0, 20.0, 40.0, 80.0]}
        b = 300
        config = BootstrapConfig(resamples=b, master_seed=11)
        for chunk_rows in (218, 7, 2):  # rows of a chunk at either length
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 12 * 401 * chunk_rows)
            counts.clear()
            assert not run_grid(samples, grid, config).failed
            chunks = -(-b // chunk_rows)
            assert counts == {("gather", 400): 3 * chunks, ("apply", 400): 3 * 3 * chunks,
                              ("gather", 401): 2 * chunks, ("apply", 401): 3 * 2 * chunks,
                              ("plan", 400): 3, ("plan", 401): 3,
                              ("summarize", (22, b)): 5, ("plan", b): 5, ("apply", b): 5}


def cell_summary(estimates, config):
    """One cell's summary from its own 1-D estimates, the reference for the
    one-pass summary: numpy's mean and std(ddof=1) of the row, or its first
    value and 0.0 when every estimate is equal, and the interval ends read
    by value_at_risk from the row's sorted estimates."""
    if estimates.min() == estimates.max():
        point, std_error = float(estimates[0]), 0.0
    else:
        point, std_error = float(estimates.mean()), float(estimates.std(ddof=1))
    coeff_variation = point / std_error if std_error > 0.0 and point != 0.0 else None
    if std_error == 0.0:
        ci = (1.0, 1.0)
    elif point == 0.0:
        ci = (math.nan, math.nan)
    else:
        tail = (1.0 - config.ci_coverage) / 2.0
        ends = [value_at_risk(LossSample(estimates), alpha, config.quantile_method) / point
                for alpha in (tail, 1.0 - tail)]
        ci = (min(ends), max(ends))
    return bootstrap.BootstrapResult(point, std_error, coeff_variation, ci)


def exact_test_samples(n):
    """A mirrored pair with ties (about four copies of each value), a lone
    long and a lone short sample, and a constant pair, all of length n."""
    rng = np.random.default_rng(n)
    tied = rng.choice(rng.standard_t(4, max(n // 4, 3)), n)
    return [LossSample(-tied, Position.LONG, "tied"),
            LossSample(tied, Position.SHORT, "tied"),
            normal_sample(n, seed=41, label="long"),
            LossSample(rng.standard_t(3, n), Position.SHORT, "short"),
            LossSample(np.full(n, -0.7), Position.LONG, "constant"),
            LossSample(np.full(n, 0.7), Position.SHORT, "constant")]


class TestExactMeans:
    def test_helper_matches_every_resample(self):
        """At n up to 4 the n ** n equally likely resamples can be listed:
        their mean order statistics are the helper's, ties included, and
        each order statistic's law gives its mean and variance."""
        for x in ([2.5], [0.0, 1.0, 1.0], [-2.0, 0.5, 0.5, 7.0], [-1.0, 0.0, 3.0, 4.0]):
            rows = np.sort(np.array(list(itertools.product(x, repeat=len(x)))), axis=1)
            assert np.allclose(exact_order_means(x), rows.mean(axis=0), rtol=0.0, atol=1e-12)
            laws = np.array([exact_order_law(len(x), r) for r in range(1, len(x) + 1)])
            assert np.allclose(laws.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            assert np.allclose(laws @ x, rows.mean(axis=0), rtol=0.0, atol=1e-12)
            assert np.allclose(laws @ np.square(x) - (laws @ x) ** 2, rows.var(axis=0),
                               rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, workers", [(1, 1), (2, 1), (5, 1), (40, 1), (400, 1), (40, 2)],
                             ids=["1", "2", "5", "40", "400", "40_at_2_workers"])
    def test_tail_cells_lie_near_their_exact_means(self, monkeypatch, n, workers):
        """Every VaR and ES point of a mirrored pair with ties, a lone long
        and a lone short sample, at B = 20 000 and either quantile method,
        lies within 4 Monte Carlo standard errors (SE / sqrt(B)) of its
        exact bootstrap mean, and every cell of a constant pair, whose
        resample distribution is degenerate, equals its exact mean to
        rounding, as does every cell at n = 1. So the one tail draw per
        block leaves no cell biased, the short cells that read the mirror
        of their pair's draw included. Under a normal approximation a
        correct cell fails with probability 6.3e-5, so the 48 random cells
        of one run fail together with probability at most 0.3 %, and the
        five runs with random cells at most 1.5 %. At n = 5 an interpolated
        VaR reads two of the five order statistics, past the tail cut-off,
        so that grid sorts whole rows, as every grid at n = 1 and 2 does;
        the others take the tail path. At two workers the blocks hold 2500
        rows, so the threads share the eight blocks of each grid, whose
        draws differ from those of the one block at one worker."""
        if workers > 1:
            monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 2500 * n)
            monkeypatch.setattr(bootstrap, "_TAIL_BLOCK_ELEMS", 2500 * n)
        samples = exact_test_samples(n)
        levels = [0.9, 0.95, 0.99]
        taken, prepare = [], bootstrap._LengthGroup.__init__

        def spy(group, *args):
            prepare(group, *args)
            taken.append((group._depth is not None, group.blocks))

        monkeypatch.setattr(bootstrap._LengthGroup, "__init__", spy)
        b = 20_000
        for method in QuantileMethod:
            config = BootstrapConfig(resamples=b, master_seed=23, quantile_method=method)
            grid = run_grid(samples, {Measure.VAR: levels, Measure.ES: levels}, config, workers)
            assert not grid.failed and len(grid.cells) == 6 * 6
            for cell in grid.cells:
                means = LossSample(exact_order_means(samples[cell.sample_index].values))
                exact = (value_at_risk(means, cell.parameter, method) if cell.measure is Measure.VAR
                         else expected_shortfall(means, cell.parameter))
                point, se = cell.result.point_estimate, cell.result.std_error
                if cell.sample_label == "constant" or n == 1:
                    assert se == 0.0 and point == pytest.approx(exact, rel=1e-12)
                else:
                    assert se > 0.0 and abs(point - exact) <= 4.0 * se / math.sqrt(b), cell
        assert [tail for tail, _ in taken] == [n >= 5, n >= 40]
        assert workers == 1 or {blocks for _, blocks in taken} == {8}

    @pytest.mark.parametrize("n", [5, 40, 400])
    def test_srm_cells_lie_near_their_exact_means(self, monkeypatch, n):
        """An SRM cell is its weights applied to the sorted resample, so its
        exact bootstrap mean is the weights applied to E*[X*_(r)]. Every SRM
        point of the samples above at the golden aversions and B = 20 000,
        on whole rows as every SRM grid runs, lies within 4 SE/sqrt(B) of
        that mean, and every cell of the constant pair equals it to
        rounding. Under a normal approximation a correct cell fails with
        probability 6.3e-5, so the 20 random cells of one n fail together
        with probability at most 0.13 %, and the three n at most 0.4 %."""
        samples = exact_test_samples(n)
        taken, prepare = [], bootstrap._LengthGroup.__init__

        def spy(group, *args):
            prepare(group, *args)
            taken.append(group._depth is not None)

        monkeypatch.setattr(bootstrap._LengthGroup, "__init__", spy)
        b, aversions = 20_000, [5.0, 10.0, 20.0, 40.0, 80.0]
        grid = run_grid(samples, {Measure.SRM: aversions}, BootstrapConfig(resamples=b, master_seed=31))
        assert not grid.failed and len(grid.cells) == 6 * 5
        for cell in grid.cells:
            exact = spectral_weights(n, cell.parameter) @ exact_order_means(
                samples[cell.sample_index].values)
            point, se = cell.result.point_estimate, cell.result.std_error
            if cell.sample_label == "constant":
                assert se == 0.0 and point == pytest.approx(exact, rel=1e-12)
            else:
                assert se > 0.0 and abs(point - exact) <= 4.0 * se / math.sqrt(b), cell
        assert taken == [False]

    def test_every_golden_cell_lies_near_its_exact_mean(self, capsys):
        """tests/zreport.py on the committed golden run: every one of its 110
        VaR, ES and SRM cells lies within 4 SE/sqrt(B) of its exact mean.
        The goldens are fixed, so this fails only when they are regenerated
        and a cell lands that far out, which a correct cell does with
        probability 6.3e-5 under a normal approximation: at most 0.7 % for
        the 110 together."""
        assert zreport.main([]) == 0
        lines = capsys.readouterr().out.splitlines()
        z = [float(line.split()[-1]) for line in lines[1:lines.index("")]]
        assert len(z) == 110 and max(map(abs, z)) < 4.0
        assert lines[-1].split()[:2] == ["all", "110"]

    @pytest.mark.parametrize("n", [40, 400])
    def test_order_var_cells_follow_their_exact_law(self, monkeypatch, n):
        """Every order-statistic VaR cell at B = 20 000 of the samples above
        reads X*_(r) for its rank r, so its resamples follow the law of
        exact_order_law, with mean mu, variance sigma ** 2 and fourth
        central moment mu4. Its point lies within 4 SE/sqrt(B) of mu, and
        its SE within 4 sqrt((mu4 - sigma ** 4) / B) / (2 sigma) of sigma,
        four standard deviations of a sample SD by the delta method, on the
        tail path and on whole rows, which one SRM spec forces. Each end of
        its percentile interval (ci_standardized times the point) is a
        resample estimate, so a value x_(j), whose exact CDF position, from
        P(X* < x_(j)) to P(X* <= x_(j)), reaches within 4 sqrt(t (1 - t) / B)
        of its tail t (0.05 or 0.95), four standard deviations of the
        empirical CDF there. Degenerate cells have SE 0. Under a normal
        approximation a correct check fails with probability 6.3e-5, so the
        96 checks of the 24 random cells at one n fail together with
        probability at most 0.6 %."""
        samples = exact_test_samples(n)
        taken, prepare = [], bootstrap._LengthGroup.__init__

        def spy(group, *args):
            prepare(group, *args)
            taken.append(group._depth is not None)

        monkeypatch.setattr(bootstrap._LengthGroup, "__init__", spy)
        b, levels = 20_000, [0.9, 0.95, 0.99]
        config = BootstrapConfig(resamples=b, master_seed=29)
        for specs in ({Measure.VAR: levels}, {Measure.VAR: levels, Measure.SRM: [20.0]}):
            grid = run_grid(samples, specs, config)
            assert not grid.failed
            for cell in grid.cells:
                if cell.measure is not Measure.VAR:
                    continue
                # the rank value_at_risk reads, from the values 1..n
                rank = int(value_at_risk(LossSample(np.arange(1.0, n + 1)), cell.parameter))
                law = exact_order_law(n, rank)
                x = np.sort(samples[cell.sample_index].values)
                mu = law @ x
                sigma2, mu4 = law @ (x - mu) ** 2, law @ (x - mu) ** 4
                point, se = cell.result.point_estimate, cell.result.std_error
                if cell.sample_label == "constant":
                    assert se == 0.0 and point == pytest.approx(mu, rel=1e-12)
                    continue
                sigma = math.sqrt(sigma2)
                se_of_se = math.sqrt((mu4 - sigma2 ** 2) / b) / (2 * sigma)
                assert abs(point - mu) <= 4.0 * se / math.sqrt(b), cell
                assert abs(se - sigma) <= 4.0 * se_of_se, cell
                tail = (1.0 - config.ci_coverage) / 2.0
                ends = sorted(ratio * point for ratio in cell.result.ci_standardized)
                for t, end in zip((tail, 1.0 - tail), ends):
                    value = x[np.argmin(np.abs(x - end))]
                    assert end == pytest.approx(value, rel=1e-15, abs=0.0), cell
                    below, upto = law[x < value].sum(), law[x <= value].sum()
                    band = 4.0 * math.sqrt(t * (1.0 - t) / b)
                    assert below <= t + band and upto >= t - band, (cell, t, below, upto)
        assert taken == [True, False]


class TestBootstrapEstimate:
    def test_deterministic_given_config(self):
        sample = normal_sample()
        config = BootstrapConfig(resamples=300, master_seed=9)
        spec = EstimatorSpec(Measure.ES, 0.95)
        a = bootstrap_estimate(sample, spec, config)
        b = bootstrap_estimate(sample, spec, config)
        assert a == b  # dataclass equality covers every field bit-exactly
        c = bootstrap_estimate(sample, spec, BootstrapConfig(resamples=300, master_seed=10))
        assert a.point_estimate != c.point_estimate

    def test_constant_sample_degenerates_cleanly(self):
        sample = LossSample(np.full(64, 5.0))
        config = BootstrapConfig(resamples=200, master_seed=1)
        for spec in (EstimatorSpec(Measure.VAR, 0.95),
                     EstimatorSpec(Measure.ES, 0.95),
                     EstimatorSpec(Measure.SRM, 20.0)):
            result = bootstrap_estimate(sample, spec, config)
            # srm multiplies by weights that sum to 1 only to within float
            # rounding, hence the ulp-scale tolerance
            assert result.point_estimate == pytest.approx(5.0, rel=1e-12)
            assert result.std_error == 0.0
            assert result.coeff_variation is None
            assert result.ci_standardized == (1.0, 1.0)

    def test_inexact_constant_degenerates_cleanly(self):
        """numpy's mean of 100 copies of 0.7 is 0.7000000000000002, and
        their std comes out near 2e-16; a degenerate resample distribution
        still reports its one value, SE 0, no CV and (1.0, 1.0)."""
        config = BootstrapConfig(resamples=100)
        for spec in (EstimatorSpec(Measure.VAR, 0.9), EstimatorSpec(Measure.ES, 0.9)):
            result = bootstrap_estimate(LossSample([0.7]), spec, config)
            assert result == bootstrap.BootstrapResult(0.7, 0.0, None, (1.0, 1.0))

    def test_resamples_respect_quantile_method(self):
        """Each interpolated resample VaR lies at its fractional rank
        1 + alpha * (n - 1) between two order statistics of its row, so
        recompute them from the row's tail indices."""
        sample = normal_sample(seed=5)
        b, alpha = 50, 0.95
        config = BootstrapConfig(resamples=b, master_seed=4,
                                 quantile_method=QuantileMethod.LINEAR_INTERPOLATION)
        result = bootstrap_estimate(sample, EstimatorSpec(Measure.VAR, alpha), config)

        h = 1.0 + alpha * (sample.n - 1)  # 380.05: between columns 379 and 380 (0-based)
        depth = sample.n - (math.floor(h) - 1)  # the row's top 21 order statistics
        top = tail_indices(4, 0, sample.n, depth, b)
        lo, hi = sample.values[top[-1]], sample.values[top[-2]]
        estimates = lo + (h - math.floor(h)) * (hi - lo)

        assert np.all((lo <= estimates) & (estimates <= hi)) and np.any(lo < estimates)
        assert result.point_estimate == estimates.mean()
        assert result.std_error == estimates.std(ddof=1)

    def test_summary_arithmetic(self):
        """Point, standard error, CV and the standardized interval are all
        recomputable from the resample estimates, so recompute them."""
        sample = normal_sample(seed=6)
        b = 500
        config = BootstrapConfig(resamples=b, master_seed=11)
        spec = EstimatorSpec(Measure.VAR, 0.9)
        result = bootstrap_estimate(sample, spec, config)

        estimates = var_estimates(sample, 0.9, b, seed=11, block_rows=b)

        assert result.point_estimate == estimates.mean()
        assert result.std_error == estimates.std(ddof=1)
        assert result.coeff_variation == pytest.approx(
            result.point_estimate / result.std_error, rel=1e-15)
        ordered = np.sort(estimates)
        lo = ordered[math.ceil(0.05 * b - 1e-9) - 1] / result.point_estimate
        hi = ordered[math.ceil(0.95 * b - 1e-9) - 1] / result.point_estimate
        assert result.ci_standardized == (lo, hi)

    @pytest.mark.parametrize("method", list(QuantileMethod))
    def test_one_pass_summary_equals_the_cell_by_cell_summary(self, monkeypatch, method):
        """_summarize reduces a contract's (cells, B) estimates row-wise in
        one pass, its standard errors in slabs of rows, and sorts them in
        place for the interval. Each row gives the BootstrapResult that the
        cell-by-cell summary below gives that row alone, bit for bit: rows
        that spread, a constant row, equal rows that mix 0.0 and -0.0, a
        spread row of mean zero and rows of tiny values, with slabs of
        three rows and of all of them."""
        rng = np.random.default_rng(37)
        b = 301
        rows = [rng.standard_t(3, b), rng.normal(2.0, 0.1, b), np.full(b, 0.7),
                np.append(-0.0, np.where(rng.random(b - 1) < 0.5, 0.0, -0.0)),
                np.tile([-1.5, 1.5], b)[:b - 1],
                1e-300 * rng.standard_normal(b), -rng.exponential(1.0, b)]
        rows[4] = np.append(rows[4], 0.0)  # mean exactly zero
        estimates = np.array(rows * 3)
        for coverage in (0.9, 0.5):
            config = BootstrapConfig(resamples=b, quantile_method=method, ci_coverage=coverage)
            want = [cell_summary(row, config) for row in estimates]
            for chunk_bytes in (16 * b * 3, bootstrap._CHUNK_BYTES):
                monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", chunk_bytes)
                assert bootstrap._summarize(estimates.copy(), config) == want

    def test_blocks_draw_from_their_own_streams(self, monkeypatch):
        """Blocks of 150 rows of 400 losses split 500 resamples into blocks
        of 150, 150, 150 and 50 rows, block k drawn from stream k, and the
        contract's estimates are its blocks' joined in block order."""
        monkeypatch.setattr(bootstrap, "_TAIL_BLOCK_ELEMS", 150 * 400 + 399)
        summarize, summarized = bootstrap._summarize, []

        def spy(estimates, *args):
            summarized.extend(estimates.copy())  # one row a cell
            return summarize(estimates, *args)

        monkeypatch.setattr(bootstrap, "_summarize", spy)
        sample = normal_sample(seed=6)
        config = BootstrapConfig(resamples=500, master_seed=11)
        result = bootstrap_estimate(sample, EstimatorSpec(Measure.VAR, 0.9), config)
        estimates = var_estimates(sample, 0.9, 500, seed=11, block_rows=150)
        assert len(summarized) == 1 and np.array_equal(summarized[0], estimates)
        assert result.point_estimate == estimates.mean()
        assert result.std_error == estimates.std(ddof=1)

    def test_both_ends_read_one_draw(self, monkeypatch):
        """On the tail path the long and the short cell of a mirrored pair
        each read their own losses at the top indices of the block's one
        stream: the short cell's are the mirror of the pair's lowest
        long-oriented losses."""
        summarize, summarized = bootstrap._summarize, []

        def spy(estimates, *args):
            summarized.extend(estimates.copy())  # one row a cell
            return summarize(estimates, *args)

        monkeypatch.setattr(bootstrap, "_summarize", spy)
        pair = mirrored_pair(400, 6, "A")
        run_grid(pair, {Measure.VAR: [0.9]}, BootstrapConfig(resamples=500, master_seed=11))
        assert np.array_equal(summarized[0], var_estimates(pair[0], 0.9, 500, 11, 500))
        assert np.array_equal(summarized[1], var_estimates(pair[1], 0.9, 500, 11, 500))

    def test_a_tail_block_draws_once_for_any_positions(self, monkeypatch):
        """A tail block draws its top indices once, whether its length group
        holds long samples, short ones, mirrored pairs or all of them: 500
        resamples of 400 losses in blocks of 150 rows take four draws."""
        monkeypatch.setattr(bootstrap, "_TAIL_BLOCK_ELEMS", 150 * 400)
        draw, calls = bootstrap._tail_indices, []

        def spy(*args):
            calls.append(args[1:])
            return draw(*args)

        monkeypatch.setattr(bootstrap, "_tail_indices", spy)
        pair = mirrored_pair(400, 6, "A")
        lone = normal_sample(seed=7, label="B", position=Position.SHORT)
        config = BootstrapConfig(resamples=500, master_seed=11)
        for samples in ([pair[0]], [pair[1]], pair, pair[::-1], [*pair, lone, pair[0]]):
            calls.clear()
            assert not run_grid(samples, {Measure.VAR: [0.9], Measure.ES: [0.99]}, config).failed
            assert calls == [(400, 41, 150)] * 3 + [(400, 41, 50)]

    def test_interval_brackets_the_percentile_mass(self):
        sample = normal_sample(seed=7)
        config = BootstrapConfig(resamples=1000, master_seed=12, ci_coverage=0.90)
        result = bootstrap_estimate(sample, EstimatorSpec(Measure.ES, 0.95), config)
        lo, hi = result.ci_standardized
        assert lo <= 1.0 <= hi  # point estimate sits inside its own interval
        assert lo < hi

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least 2 resamples"):
            BootstrapConfig(resamples=1)
        with pytest.raises(ValueError, match="master seed"):
            BootstrapConfig(master_seed=-3)
        with pytest.raises(ValueError, match="coverage"):
            BootstrapConfig(ci_coverage=1.0)
        with pytest.raises(ValueError, match="resamples must be an integer"):
            BootstrapConfig(resamples=2.5)
        with pytest.raises(ValueError, match="master seed must be an integer"):
            BootstrapConfig(master_seed=1.7)
        assert BootstrapConfig(resamples=np.int64(10), master_seed=np.uint64(3)).resamples == 10

    def test_bad_confidence_level_rejected(self):
        sample = normal_sample()
        with pytest.raises(ValueError, match="between 0 and 1"):
            bootstrap_estimate(sample, EstimatorSpec(Measure.VAR, 1.5), BootstrapConfig(resamples=10))

    def test_spec_rejects_a_parameter_out_of_range(self):
        """A spec checks its parameter when it is built, with the same
        message for VaR and ES, so no grid or bare call holds one that its
        estimator cannot take."""
        for measure in (Measure.VAR, Measure.ES):
            for alpha in (0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf, "0.9", None):
                with pytest.raises(ValueError, match="confidence level must lie strictly "
                                                     "between 0 and 1"):
                    EstimatorSpec(measure, alpha)
            assert EstimatorSpec(measure, float(np.nextafter(1.0, 0.0))).measure is measure
        for k in (0.0, -5.0, math.nan, math.inf, -math.inf, "20", None):
            with pytest.raises(ValueError, match="risk aversion must be a positive finite number"):
                EstimatorSpec(Measure.SRM, k)
        with pytest.raises(ValueError, match="plain mean"):
            EstimatorSpec(Measure.SRM, 1e-9)
        assert [EstimatorSpec(Measure.SRM, k).parameter for k in (1e-8, 1e300)] == [1e-8, 1e300]
        assert type(EstimatorSpec(Measure.SRM, 20).parameter) is float
        assert type(EstimatorSpec(Measure.VAR, np.float32(0.5)).parameter) is float

    @pytest.mark.parametrize("build, message", [
        (lambda: EstimatorSpec(Measure.SRM, True),
         "risk aversion must be a positive finite number, got True"),
        (lambda: EstimatorSpec(Measure.ES, True),
         "confidence level must lie strictly between 0 and 1, got True"),
        (lambda: BootstrapConfig(master_seed=True), "master seed must be an integer, got True"),
        (lambda: BootstrapConfig(resamples=True), "resamples must be an integer, got True"),
        (lambda: run_grid([normal_sample()], {Measure.VAR: [0.9]}, BootstrapConfig(resamples=10),
                          workers=True), "worker count must be an integer, got True"),
        (lambda: BootstrapConfig(quantile_method="order"), "unknown quantile method 'order'"),
        (lambda: BootstrapConfig(ci_coverage="0.9"),
         "interval coverage must lie strictly between 0 and 1, got '0.9'"),
        (lambda: EstimatorSpec("es", 0.99), "unknown measure 'es'"),
        (lambda: EstimatorSpec("srm", 5.0), "unknown measure 'srm'"),
        (lambda: run_grid([normal_sample()], {"es": [0.99]}, BootstrapConfig(resamples=10)),
         "unknown measure 'es'"),
        (lambda: run_grid([normal_sample()], {Measure.ES: [0.99], "srm": [5.0]},
                          BootstrapConfig(resamples=10)), "unknown measure 'srm'"),
    ], ids=["srm_bool", "es_bool", "seed_bool", "resamples_bool", "workers_bool",
            "method_string", "coverage_string", "es_string", "srm_string",
            "grid_string_key", "grid_string_key_beside_a_measure"])
    def test_construction_rejects_what_cannot_run(self, build, message):
        """A bool is not a number here, a spec and a grid's keys hold only a
        Measure and a config only a QuantileMethod and a float coverage, so
        nothing that cannot run, would run as another measure or would be
        skipped gets past construction."""
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    def test_config_stores_its_coverage_as_a_float(self):
        coverage = BootstrapConfig(ci_coverage=np.float32(0.5)).ci_coverage
        assert type(coverage) is float and coverage == 0.5


class TestRunGrid:
    GRID = {Measure.VAR: [0.9, 0.99], Measure.ES: [0.95], Measure.SRM: [5.0, 20.0]}
    # Levels that reach every branch of _first_column: rank 1 at n <= 300,
    # a low and a middle rank (ends too deep for the tail path), a tail of
    # a fifth of the row (on it), a tail of one loss, and, at n = 257, an
    # interpolation rank that rounds up to n.
    WHOLE_ALPHAS = [0.001, 0.01, 0.5]
    TAIL_ALPHAS = [0.8, 0.99, 0.999, float(np.nextafter(1.0, 0.0))]
    ALPHAS = WHOLE_ALPHAS + TAIL_ALPHAS

    def samples(self):
        return [
            normal_sample(n=300, seed=21, label="A", position=Position.LONG),
            normal_sample(n=300, seed=22, label="A", position=Position.SHORT),
            normal_sample(n=250, seed=23, label="B", position=Position.LONG),
        ]

    def test_every_cell_present(self):
        grid = run_grid(self.samples(), self.GRID, BootstrapConfig(resamples=100, master_seed=3))
        assert len(grid.cells) == 3 * 5
        assert not grid.failed
        cell = by_coordinates(grid)[2, Measure.SRM, 20.0]
        assert cell.sample_label == "B"
        assert cell.position is Position.LONG
        assert cell.result is not None and cell.error is None

    def test_worker_count_does_not_change_results(self):
        config = BootstrapConfig(resamples=150, master_seed=5)
        baseline = run_grid(self.samples(), self.GRID, config, workers=1)
        for workers in (2, 5):
            other = run_grid(self.samples(), self.GRID, config, workers=workers)
            assert other == baseline  # nested dataclass equality, bit-exact

    def paths(self, monkeypatch):
        """Record, for each length group that run_grid prepares, whether it
        takes the tail path."""
        taken = []
        prepare = bootstrap._LengthGroup.__init__

        def spy(group, *args):
            prepare(group, *args)
            taken.append(group._depth is not None)

        monkeypatch.setattr(bootstrap._LengthGroup, "__init__", spy)
        return taken

    def subset_samples(self):
        """Samples for the subset grids. The mirrored pair D reads both ends
        of a row: at 0.8 and above the two ends are drawn as tails, at 0.5
        they overlap and at 0.01 the long end alone covers most of the row."""
        return self.samples() + [normal_sample(n=257, seed=25, label="C"),
                                 *mirrored_pair(2000, 28, "D")]

    def test_cell_results_do_not_depend_on_which_measures_ran(self, monkeypatch):
        """Streams are keyed on the series length, not on the cell or the
        grid layout, so a subset grid that sorts whole rows reproduces the shared
        cells of the full grid exactly, whichever cell sends it there: a
        spectral one or a level whose ends reach past the cut-off."""
        samples = self.subset_samples()
        subsets = [{Measure.VAR: self.ALPHAS}, {Measure.ES: self.ALPHAS},
                   {Measure.VAR: self.ALPHAS, Measure.ES: self.ALPHAS},
                   {Measure.VAR: [0.99, 0.999], Measure.ES: [0.99], Measure.SRM: [5.0]},
                   {Measure.ES: [0.99], Measure.VAR: [0.5]}]
        subsets += [{measure: [alpha]} for measure in (Measure.VAR, Measure.ES)
                    for alpha in self.WHOLE_ALPHAS]
        taken = self.paths(monkeypatch)
        for method in QuantileMethod:
            config = BootstrapConfig(resamples=100, master_seed=6, quantile_method=method)
            full = by_coordinates(run_grid(
                samples, {Measure.VAR: self.ALPHAS, Measure.ES: self.ALPHAS,
                          Measure.SRM: [5.0]}, config))
            for subset in subsets:
                for cell in run_grid(samples, subset, config).cells:
                    assert cell == full[cell.sample_index, cell.measure, cell.parameter]
        assert taken and not any(taken)

    def test_tail_cells_do_not_depend_on_which_measures_ran(self, monkeypatch):
        """A row's top j order statistics do not depend on how deep its end
        is drawn, so a subset grid on the tail path reproduces the shared
        cells of the full tail grid exactly."""
        samples = self.subset_samples()
        tails = self.TAIL_ALPHAS
        subsets = [{Measure.VAR: tails}, {Measure.ES: tails},
                   {Measure.VAR: [0.99, 0.999], Measure.ES: [0.99]}]
        subsets += [{measure: [alpha]} for measure in (Measure.VAR, Measure.ES)
                    for alpha in tails]
        taken = self.paths(monkeypatch)
        for method in QuantileMethod:
            config = BootstrapConfig(resamples=100, master_seed=6, quantile_method=method)
            full = by_coordinates(run_grid(
                samples, {Measure.VAR: tails, Measure.ES: tails}, config))
            for subset in subsets:
                for cell in run_grid(samples, subset, config).cells:
                    assert cell == full[cell.sample_index, cell.measure, cell.parameter]
        assert taken and all(taken)

    def test_contract_cells_do_not_depend_on_the_positions_requested(self):
        """Streams are keyed on the series length and a lone short
        sample reads the mirror of the same resamples as its pair, so one
        position alone gives the cells that both positions give."""
        a, b = mirrored_pair(300, 28, "A"), mirrored_pair(257, 29, "B")
        for grid in (self.GRID, {Measure.VAR: [0.5, 0.99], Measure.ES: [0.99]}):
            for method in QuantileMethod:
                config = BootstrapConfig(resamples=100, master_seed=12, quantile_method=method)
                for workers in (1, 2):
                    both = run_grid(a + b, grid, config, workers).cells
                    for position in Position:
                        alone = run_grid([s for s in a + b if s.position is position],
                                         grid, config, workers).cells
                        assert content(c for c in both if c.position is position) \
                            == content(alone)

    def test_only_a_mirror_is_paired(self):
        """A short sample that is not the mirror of the long one before it
        is a contract of its own, whose cells do not depend on that sample."""
        first, second = normal_sample(seed=30), normal_sample(seed=31)
        short = normal_sample(seed=32, position=Position.SHORT)
        config = BootstrapConfig(resamples=100, master_seed=13)
        after_first = run_grid([first, short], self.GRID, config).cells
        after_second = run_grid([second, short], self.GRID, config).cells
        half = len(after_first) // 2
        assert after_first[half:] == after_second[half:]

    def check_bare_calls(self, monkeypatch, grid, tail):
        """Each cell of grid on one sample equals bootstrap_estimate and a
        one-cell grid of its spec, bit for bit, and every contract takes
        the tail path or none does."""
        sample = normal_sample(n=300, seed=24)
        taken = self.paths(monkeypatch)
        for method in QuantileMethod:
            config = BootstrapConfig(resamples=120, master_seed=8, quantile_method=method)
            full = run_grid([sample], grid, config)
            for cell in full.cells:
                bare = bootstrap_estimate(
                    sample, EstimatorSpec(cell.measure, cell.parameter), config)
                single = run_grid([sample], {cell.measure: [cell.parameter]}, config)
                assert bare == cell.result
                assert bare == single.cells[0].result
        assert set(taken) == {tail}

    def test_bare_call_equals_its_grid_cell(self, monkeypatch):
        """bootstrap_estimate is sample 0 of a grid: it reproduces that cell
        of a one-cell grid and of a larger grid on the same path bit for
        bit. Here every cell sorts whole rows: a bare VaR or ES call at a
        level shallow enough for the tail path would not reproduce a grid
        with a spectral cell, so this grid holds no such level."""
        self.check_bare_calls(monkeypatch, {Measure.VAR: [0.5, 0.6], Measure.ES: [0.7],
                                            Measure.SRM: [5.0, 10.0, 20.0, 40.0, 80.0]}, False)

    def test_bare_tail_call_equals_its_tail_grid_cell(self, monkeypatch):
        """The default VaR and ES levels take the tail path, bare or in a
        grid of their own."""
        self.check_bare_calls(monkeypatch, {Measure.VAR: [0.9, 0.95, 0.99],
                                            Measure.ES: [0.9, 0.95, 0.99]}, True)

    def test_every_cell_equals_the_executable_specification(self, monkeypatch):
        """tests/spec_grid.py states the protocol in one plain function, with
        no chunks, buffers, plans or threads. Over 40 seeded random grids
        every run_grid cell equals the specification's bit for bit, at 1 and
        3 workers: lengths from 1 to 9000, past numpy's 8192-element einsum
        buffer; mirrored pairs led by either position, lone samples of
        either, and a short sample after a long one it does not mirror;
        grids on both paths; both quantile methods; B of 2, 37 and 300; and
        the chunk and block sizes patched down to a few thousand, so blocks
        hold one row or many and chunks one, two or more rows. About 2 s."""
        rng = np.random.default_rng(16)
        levels = [0.001, 0.01, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, float(np.nextafter(1.0, 0.0))]
        taken, lengths = self.paths(monkeypatch), set()
        for trial in range(40):
            for name in ("_CHUNK_BYTES", "_BLOCK_ELEMS", "_TAIL_BLOCK_ELEMS"):
                monkeypatch.setattr(bootstrap, name, int(rng.integers(1, 6000)))
            samples = []
            ns = [int(np.exp(rng.uniform(0.0, math.log(9000)))) for _ in range(rng.integers(1, 4))]
            if trial % 8 == 7:
                ns[0] = int(rng.integers(8193, 9001))
            for n in ns:  # a length may come twice: two contracts share its draws
                lengths.add(n)
                returns = rng.standard_t(4, n)
                kind = rng.integers(4)
                if kind < 2:  # a mirrored pair, led by either position
                    pair = [LossSample(-returns, Position.LONG), LossSample(returns, Position.SHORT)]
                    samples += pair[::1 - 2 * kind]
                elif kind == 2:  # a lone sample of either position
                    samples.append(LossSample(returns, Position(rng.choice(["long", "short"]))))
                else:  # a short sample that does not mirror the long one before it
                    samples += [LossSample(returns, Position.LONG),
                                LossSample(rng.standard_normal(n), Position.SHORT)]
            grid = {Measure.VAR: list(rng.choice(levels, rng.integers(1, 4), replace=False)),
                    Measure.ES: list(rng.choice(levels, rng.integers(0, 3), replace=False))}
            if trial % 2:
                grid[Measure.SRM] = list(rng.choice([0.5, 5.0, 20.0, 80.0], rng.integers(1, 3)))
            config = BootstrapConfig(resamples=[2, 37, 300][trial % 3], master_seed=trial,
                                     quantile_method=list(QuantileMethod)[trial // 3 % 2])
            expected = [repr(r) for results in spec_grid(samples, grid, config) for r in results]
            for workers in (1, 3):
                cells = run_grid(samples, grid, config, workers).cells
                assert [repr(cell.result) for cell in cells] == expected
        assert set(taken) == {True, False}
        assert min(lengths) <= 2 and max(lengths) > 8192

    def test_more_workers_than_samples(self):
        config = BootstrapConfig(resamples=150, master_seed=5)
        samples = self.samples()[:1]
        assert run_grid(samples, self.GRID, config, workers=2) \
            == run_grid(samples, self.GRID, config, workers=1)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_results_do_not_depend_on_the_chunk_budget(self, monkeypatch, rows):
        """The draws do not depend on how the rows are chunked, and every
        estimator reduces a row in one fixed order, so every cell of both
        positions matches bit for bit. A budget of one row still makes
        chunks of two. At n = 8193 a row is longer than numpy's 8192-element
        buffer, past which einsum sums a one-row chunk in another order
        unless the estimator guards against it: chunks of three rows leave
        one row at the end of the 100-row block."""
        config = BootstrapConfig(resamples=100, master_seed=10)
        tails = {Measure.VAR: [0.5, 0.9, 0.99], Measure.ES: [0.95]}
        srm = {Measure.SRM: [5.0, 20.0]}
        pairs = {n: mirrored_pair(n, 26, "A") for n in (301, 8193)}
        baseline = {n: (run_grid(samples, tails, config), run_grid(samples, srm, config))
                    for n, samples in pairs.items()}
        for n, samples in pairs.items():
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 12 * n * rows)
            assert run_grid(samples, tails, config) == baseline[n][0]
            assert run_grid(samples, srm, config) == baseline[n][1]

    def test_chunk_memory_stays_within_the_budget(self, monkeypatch):
        """Sorted whole, at n = 20 000 a 64-row chunk of indices and values
        takes 15 MB; the budget caps it at 4 rows."""
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 2 ** 20)
        samples = [normal_sample(n=20_000, seed=27)]
        config = BootstrapConfig(resamples=64, master_seed=11)
        tracemalloc.start()
        try:
            grid = run_grid(samples, {Measure.SRM: [20.0]}, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not grid.failed
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tail_memory_stays_within_the_budget(self, monkeypatch, workers):
        """At the cut-off depth, a block of 209 rows of 20 000 losses holds
        5000 tail indices a row, 4 MiB, where the rows' whole draws take
        50 MB. Each worker holds one block's indices at a time, and half
        the chunk size at most for the draw or the gather: 4.9 MiB at one
        worker and 9.4 MiB at two. Drawing or gathering a whole block at
        once would take 8 MiB more."""
        n = 20_000
        alpha = 1.0 - bootstrap._TAIL_SHARE
        taken = self.paths(monkeypatch)
        config = BootstrapConfig(resamples=2 * 209, master_seed=11)
        tracemalloc.start()
        try:
            grid = run_grid(mirrored_pair(n, 27, "A"), {Measure.ES: [alpha]}, config, workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not grid.failed
        assert taken == [True]
        assert peak < workers * 5 * 2 ** 20

    @pytest.mark.parametrize("grid, tail", [
        ({Measure.VAR: [0.9, 0.99], Measure.ES: [0.95]}, True),
        ({Measure.SRM: [5.0, 20.0]}, False)], ids=["tail", "whole-sort"])
    def test_multi_block_cells_do_not_depend_on_workers_or_chunks(self, monkeypatch, grid, tail):
        """Blocks of 23 rows split 100 resamples of a mirrored pair into
        five blocks, the last one of 8 rows. Each block draws from its own
        stream and a chunk never straddles two blocks, so every cell matches
        bit for bit at any worker count and chunk size, on the path that
        draws the rows' tail ends and on the one that sorts them whole, and
        with rows both shorter and longer than numpy's 8192-element buffer.
        A whole-row chunk holds at least two rows, so a budget of one row
        splits each 23-row block into eleven chunks of two and a last one of
        one row. On the tail path the chunk size sets the levels drawn at a
        time and the rows gathered at a time, down to one of each."""
        taken = self.paths(monkeypatch)
        config = BootstrapConfig(resamples=100, master_seed=10)
        chunk_bytes = bootstrap._CHUNK_BYTES
        for n in (301, 8193):
            monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 23 * n)
            monkeypatch.setattr(bootstrap, "_TAIL_BLOCK_ELEMS", 23 * n)
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", chunk_bytes)
            samples = mirrored_pair(n, 26, "A")
            baseline = run_grid(samples, grid, config)
            assert not baseline.failed
            for rows in (1, 3, 7):
                monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 12 * n * rows)
                for workers in (1, 2, 3):
                    assert run_grid(samples, grid, config, workers) == baseline
            # the smallest slabs and groups there are: one level, one row
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 1)
            assert run_grid(samples, grid, config, 2) == baseline
        assert set(taken) == {tail}

    def test_one_contract_s_blocks_share_the_workers(self, monkeypatch):
        """The first two blocks of one contract wait for each other at a
        barrier, so the grid fails unless two workers run them at once."""
        monkeypatch.setattr(bootstrap, "_TAIL_BLOCK_ELEMS", 25 * 301)
        barrier = threading.Barrier(2, timeout=10)
        run_block = bootstrap._LengthGroup._run_block

        def meet(group, block):
            if block < 2:
                barrier.wait()
            return run_block(group, block)

        monkeypatch.setattr(bootstrap._LengthGroup, "_run_block", meet)
        config = BootstrapConfig(resamples=100, master_seed=10)
        grid = run_grid(mirrored_pair(301, 26, "A"), {Measure.ES: [0.95]}, config, workers=2)
        assert not grid.failed

    def test_the_calling_thread_takes_blocks(self, monkeypatch):
        """The calling thread runs the block loop itself and starts one
        thread fewer than the workers, and none past the blocks. One worker
        runs every block on the calling thread and starts no thread. At two
        workers on four blocks, and at eight on two, the first two blocks
        meet at a barrier, so two threads run them at once: the calling
        thread and the one it started, with no third thread live."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 25 * 301)  # blocks of 25 rows
        run_block, seen, barrier = bootstrap._LengthGroup._run_block, [], None

        def spy(group, block):
            seen.append((threading.current_thread(), threading.active_count()))
            if barrier is not None and block < 2:
                barrier.wait()
            return run_block(group, block)

        monkeypatch.setattr(bootstrap._LengthGroup, "_run_block", spy)
        caller, live = threading.current_thread(), threading.active_count()
        for workers, resamples in ((1, 100), (2, 100), (8, 50)):
            barrier = None if workers == 1 else threading.Barrier(2, timeout=10)
            seen.clear()
            config = BootstrapConfig(resamples=resamples, master_seed=10)
            assert not run_grid(mirrored_pair(301, 26, "A"), {Measure.SRM: [5.0]}, config,
                                workers).failed
            threads, counts = zip(*seen)
            assert len(seen) == resamples // 25
            assert caller in threads
            assert len(set(threads)) == min(workers, 2)
            assert max(counts) == live + min(workers, 2) - 1

    def test_many_small_blocks_on_more_workers_than_cores(self, monkeypatch):
        """Threads switching every microsecond over many one-row blocks of
        several contracts, finishing out of order: each contract must still
        be summarized from its own blocks' estimates, in block order."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 1)
        samples = [*mirrored_pair(60, 31, "A"), normal_sample(n=50, seed=32, label="B"),
                   *mirrored_pair(40, 33, "C")]
        config = BootstrapConfig(resamples=30, master_seed=14)
        baseline = run_grid(samples, self.GRID, config)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: out.append(run_grid(samples, self.GRID, config, 8)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert out == [baseline]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_worker_holds_its_own_chunk(self, monkeypatch, workers):
        """Sorted whole, a chunk holds 12 bytes per element, so 1 MiB takes
        4 rows of 20 000 losses. Each worker draws its own chunks of that
        size, so the bound grows by 1 MiB per worker."""
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 2 ** 20)
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 16 * 20_000)  # 4 blocks
        samples = [normal_sample(n=20_000, seed=27)]
        config = BootstrapConfig(resamples=64, master_seed=11)
        tracemalloc.start()
        try:
            grid = run_grid(samples, {Measure.SRM: [20.0]}, config, workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not grid.failed
        assert peak < (workers + 0.5) * 2 ** 20

    def test_a_length_group_s_estimates_go_once_it_is_summarized(self, monkeypatch):
        """Five mirrored pairs of lengths 400 to 404 form five length groups,
        and the golden grid's 11 parameters make 110 cells. A block's
        estimates take 8 bytes per resample and cell, so holding every
        group's at once takes 8 * 5000 * 110 bytes, 4.4 MB, the bound here.
        One group's take 8 * 5000 * 22 bytes, 0.88 MB, and the thread whose
        block completes a group summarizes it and frees them, so one worker
        holds them next to a 1 MiB chunk: about 2.2 MB. Summarizing every
        group only after the last block takes about 5.7 MB."""
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 2 ** 20)
        samples = [sample for n in range(400, 405) for sample in mirrored_pair(n, n, str(n))]
        grid = {Measure.VAR: [0.9, 0.95, 0.99], Measure.ES: [0.9, 0.95, 0.99],
                Measure.SRM: [5.0, 10.0, 20.0, 40.0, 80.0]}
        config = BootstrapConfig(resamples=5000, master_seed=11)
        tracemalloc.start()
        try:
            result = run_grid(samples, grid, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.failed
        assert len(result.cells) == 110
        assert peak < 8 * config.resamples * len(result.cells)

    def test_paper_size_grid_holds_a_default_chunk_per_worker(self):
        """At the default chunk size of 1 MiB, two workers on two n = 3392
        contracts each hold chunks of 25 rows: the tracemalloc peak is 2.5
        MiB. With chunks of 4 MiB per worker (103 rows) it is 8.5 MiB, and
        with 2 MiB it is 4.5 MiB; the bound lies between."""
        samples = [*mirrored_pair(3392, 34, "A"), *mirrored_pair(3392, 35, "B")]
        grid = {Measure.VAR: [0.9, 0.95, 0.99], Measure.ES: [0.9, 0.95, 0.99],
                Measure.SRM: [5.0, 10.0, 20.0, 40.0, 80.0]}
        config = BootstrapConfig(resamples=500, master_seed=12)
        tracemalloc.start()
        try:
            result = run_grid(samples, grid, config, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.failed
        assert peak < 4 * 2 ** 20

    def test_whole_row_chunks_hold_two_rows_where_the_budget_fits_fewer(self, monkeypatch):
        """At n = 50 000 a row of int32 indices and float64 losses takes 12 *
        n bytes, more than half the chunk budget, so each whole-row chunk
        holds the floor of two rows: a one-row chunk would make the spectral
        einsum read its row twice (see _apply). Six resamples make three
        chunks of two rows, and one call per measure reads both ends of the
        pair on each."""
        n = 50_000
        assert 12 * n > bootstrap._CHUNK_BYTES // 2
        shapes, apply = [], bootstrap._apply

        def spy(rows, *args):
            shapes.append(rows.shape)
            return apply(rows, *args)

        monkeypatch.setattr(bootstrap, "_apply", spy)
        grid = run_grid(mirrored_pair(n, 36, "A"), {Measure.VAR: [0.5], Measure.SRM: [5.0]},
                        BootstrapConfig(resamples=6, master_seed=13))
        assert not grid.failed
        assert [shape for shape in shapes if shape[1] == n] == [(2, n)] * 6  # 3 chunks, 2 measures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_block_fails_only_its_contract(self, monkeypatch, workers):
        """A block whose shared draw runs out of memory fails every cell of
        the contracts of its length, here B's alone; the other contracts'
        cells come out as in a clean run."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 23 * 301)
        samples = [*mirrored_pair(301, 26, "A"), *mirrored_pair(257, 29, "B"),
                   normal_sample(n=250, seed=23, label="C")]
        config = BootstrapConfig(resamples=100, master_seed=10)
        clean = run_grid(samples, self.GRID, config, workers)
        run_block = bootstrap._LengthGroup._run_block

        def fail_b(group, block):
            if group.n == 257 and block == 2:
                raise MemoryError("no room for block 2")
            return run_block(group, block)

        monkeypatch.setattr(bootstrap._LengthGroup, "_run_block", fail_b)
        grid = run_grid(samples, self.GRID, config, workers)
        assert len(grid.cells) == len(clean.cells)
        for cell, clean_cell in zip(grid.cells, clean.cells):
            if cell.sample_label == "B":
                assert cell.result is None
                assert cell.error == "MemoryError: no room for block 2"
            else:
                assert cell == clean_cell

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("grid", [GRID, {Measure.VAR: [0.9, 0.99], Measure.ES: [0.95]}],
                             ids=["whole-sort", "tail"])
    def test_failed_read_fails_only_its_contract_in_a_shared_block(self, monkeypatch, workers,
                                                                   grid):
        """A and B have equal length, so every block draws their indices
        once for both. When B's gather runs out of memory in block 2, only
        B's cells fail, and A and C come out as in a clean run. When the
        shared draw of that block fails instead, A's and B's cells fail and
        C's still come out clean."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 23 * 301)
        monkeypatch.setattr(bootstrap, "_TAIL_BLOCK_ELEMS", 23 * 301)
        samples = [*mirrored_pair(301, 26, "A"),
                   normal_sample(n=301, seed=29, label="B", position=Position.SHORT),
                   normal_sample(n=250, seed=23, label="C")]
        config = BootstrapConfig(resamples=100, master_seed=10)
        clean = run_grid(samples, grid, config, workers)
        current = threading.local()
        run_block, gather = bootstrap._LengthGroup._run_block, bootstrap._gather

        def mark(group, block):
            current.block = block
            return run_block(group, block)

        def fail_b(values, *args):
            if gathers_losses_of(values, samples[2]) and current.block == 2:
                raise MemoryError("no room for B's gather")
            return gather(values, *args)

        monkeypatch.setattr(bootstrap._LengthGroup, "_run_block", mark)
        monkeypatch.setattr(bootstrap, "_gather", fail_b)
        failed = {"B": "MemoryError: no room for B's gather"}
        stream = bootstrap._contract_stream

        def fail_draw(seed, n, block):
            if n == 301 and block == 2:
                raise MemoryError("no room for the draw")
            return stream(seed, n, block)

        for inject in (None, fail_draw):
            if inject is not None:
                monkeypatch.setattr(bootstrap, "_gather", gather)
                monkeypatch.setattr(bootstrap, "_contract_stream", inject)
                failed = dict.fromkeys("AB", "MemoryError: no room for the draw")
            out = run_grid(samples, grid, config, workers)
            assert len(out.cells) == len(clean.cells)
            for cell, clean_cell in zip(out.cells, clean.cells):
                if cell.sample_label in failed:
                    assert cell.result is None
                    assert cell.error == failed[cell.sample_label]
                else:
                    assert cell == clean_cell

    def test_equal_lengths_share_their_sorted_indices(self):
        """Whole-row block k of every contract of n losses draws from
        _contract_stream(seed, n, k) and sorts once, so each contract's
        median VaR resamples are its own losses at one shared column of
        those sorted indices, whatever its place among the samples. 3000
        resamples of 400 losses make two blocks."""
        n, b, seed = 400, 3000, 17
        samples = [normal_sample(n=n, seed=40, label="A"), normal_sample(n=250, seed=41, label="B"),
                   normal_sample(n=n, seed=42, label="C", position=Position.SHORT)]
        config = BootstrapConfig(resamples=b, master_seed=seed)
        grid = run_grid(samples, {Measure.VAR: [0.5]}, config)
        rows = bootstrap._BLOCK_ELEMS // n
        assert rows < b
        blocks = [np.sort(_contract_stream(seed, n, k).integers(
            0, n, size=(min(rows, b - start), n), dtype=np.int32), axis=1)
            for k, start in enumerate(range(0, b, rows))]
        column = np.concatenate(blocks)[:, math.ceil(0.5 * n) - 1]
        for i in (0, 2):
            sample = samples[i]
            if sample.position is Position.LONG:
                estimates = sample.values[column]
            else:  # the mirror of the low end of the long-oriented losses
                estimates = sample.values[n - 1 - np.concatenate(blocks)[:, n - math.ceil(0.5 * n)]]
            result = grid.cells[i].result
            assert result.point_estimate == estimates.mean()
            assert result.std_error == estimates.std(ddof=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_do_not_depend_on_the_other_samples_or_their_order(self, workers):
        """Streams are keyed on the series length, so reversing the
        contracts, or dropping some, changes no cell of the rest, on either
        path, with contracts of equal and of unequal length. In the first
        order the length group of 300 holds a long-led pair, a lone long
        sample, a lone short sample and a short-led pair, so its contracts
        read every slice of the group's reduction plan."""
        a, d = mirrored_pair(300, 28, "A"), mirrored_pair(300, 29, "D")
        b, c = normal_sample(n=250, seed=23, label="B"), normal_sample(n=300, seed=30, label="C")
        e = normal_sample(n=300, seed=31, label="E", position=Position.SHORT)
        orders = [[*a, b, c, e, *d[::-1]], [*d, e, c, b, *a], [c, *a], [*d[::-1]], [e]]
        config = BootstrapConfig(resamples=100, master_seed=19)
        for grid in (self.GRID, {Measure.VAR: [0.9, 0.99], Measure.ES: [0.95]}):
            cells = {}
            for samples in orders:
                out = run_grid(samples, grid, config, workers)
                assert not out.failed
                for cell in out.cells:
                    key = (cell.sample_label, cell.position, cell.measure, cell.parameter)
                    assert cells.setdefault(key, cell.result) == cell.result
            assert len(cells) == 7 * sum(map(len, grid.values()))

    def test_spectral_weights_are_built_once_per_length_and_aversion(self, monkeypatch):
        """Every contract of one length reads the same spectral weights, so
        one run_grid builds them once per (n, k): here for a mirrored pair,
        a lone long and a lone short sample of 300 losses, and one of 250."""
        calls = []
        weights = bootstrap.spectral_weights

        def spy(n, k):
            calls.append((n, k))
            return weights(n, k)

        monkeypatch.setattr(bootstrap, "spectral_weights", spy)
        samples = [*mirrored_pair(300, 28, "A"), normal_sample(n=300, seed=30, label="C"),
                   normal_sample(n=300, seed=31, label="E", position=Position.SHORT),
                   normal_sample(n=250, seed=23, label="B")]
        grid = run_grid(samples, self.GRID, BootstrapConfig(resamples=50, master_seed=3))
        assert not grid.failed
        assert sorted(calls) == [(n, k) for n in (250, 300) for k in self.GRID[Measure.SRM]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_parameter_raises_before_any_block(self, monkeypatch, workers):
        """One parameter out of range fails the whole grid with its spec's
        ValueError, before any length group is prepared or any block runs."""
        calls = []
        monkeypatch.setattr(bootstrap._LengthGroup, "__init__", lambda *args: calls.append(args))
        monkeypatch.setattr(bootstrap._LengthGroup, "_run_block", lambda *args: calls.append(args))
        config = BootstrapConfig(resamples=50, master_seed=7)
        for measure, bad, message in ((Measure.SRM, 1e-12, "plain mean"),
                                      (Measure.ES, 1.0, "between 0 and 1"),
                                      (Measure.VAR, None, "between 0 and 1")):
            grid = {**self.GRID, measure: [*self.GRID[measure], bad]}
            with pytest.raises(ValueError, match=message):
                run_grid(self.samples(), grid, config, workers)
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_grid_with_no_parameter_has_no_cells(self, monkeypatch, workers):
        """A grid with no measure, or with a measure of no parameter, gives
        a grid of no cells, as no samples do, and prepares no length group."""
        taken = self.paths(monkeypatch)
        config = BootstrapConfig(resamples=50, master_seed=7)
        for grid in ({}, {Measure.VAR: []}):
            assert run_grid(self.samples(), grid, config, workers) \
                == bootstrap.ResultGrid(cells=(), config=config)
        assert taken == []

    def test_worker_validation(self):
        with pytest.raises(ValueError, match="at least 1 worker"):
            run_grid(self.samples(), self.GRID, BootstrapConfig(resamples=10), workers=0)
        with pytest.raises(ValueError, match="worker count must be an integer"):
            run_grid(self.samples(), self.GRID, BootstrapConfig(resamples=10), workers=1.5)
        config = BootstrapConfig(resamples=10)
        assert run_grid(self.samples(), self.GRID, config, workers=np.int32(2)) \
            == run_grid(self.samples(), self.GRID, config)

    def test_one_worker_imports_no_thread_pool(self):
        """concurrent.futures, with the logging and queue modules it loads,
        takes several milliseconds to import, and no run needs it: neither
        the command line's import, nor a one-worker bootstrap, nor a grid of
        three blocks on two worker threads loads any of them."""
        src = Path(__file__).resolve().parents[1] / "src"
        n, resamples = 1000, 3 * (bootstrap._BLOCK_ELEMS // 1000)  # whole-row SRM blocks
        code = ("import sys; import numpy as np; import riskboot.cli; from riskboot import *; "
                "bootstrap_estimate(LossSample(np.arange(10.0)), EstimatorSpec(Measure.ES, 0.9), "
                "BootstrapConfig(resamples=10)); "
                "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging', "
                "'queue')))); "
                f"grid = run_grid([LossSample(np.arange({n}.0))], {{Measure.SRM: [5.0]}}, "
                f"BootstrapConfig(resamples={resamples}), 2); assert not grid.failed; "
                "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging', "
                "'queue'))))")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == ["[]", "[]"]

    def test_an_escaping_base_exception_reaches_the_caller(self):
        """A BaseException that is no Exception, raised by one block of
        several on two workers, propagates out of run_grid, whether its
        block is the first, the second or the last one taken, and no other
        thread is left running. The run is a subprocess with a
        timeout, so a caller left waiting fails the test."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = textwrap.dedent("""\
            import threading
            import numpy as np
            from riskboot import *
            from riskboot import bootstrap

            class Stop(BaseException):
                pass

            run_block = bootstrap._LengthGroup._run_block
            bootstrap._BLOCK_ELEMS = 100 * 100  # 20 blocks of 100 rows of 100 losses
            sample = LossSample(np.arange(100.0))
            for failing in (0, 1, 19):
                def fail(group, block):
                    if block == failing:
                        raise Stop(f"block {block}")
                    return run_block(group, block)

                bootstrap._LengthGroup._run_block = fail
                try:
                    run_grid([sample], {Measure.SRM: [5.0]}, BootstrapConfig(resamples=2000), 2)
                except Stop as exc:
                    print(exc, threading.active_count())
            """)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == ["block 0 1", "block 1 1", "block 19 1"]


def fresh_python(code, **env):
    """Run code in a new interpreter on this tree's src, with
    OPENBLAS_NUM_THREADS taken out of its environment unless env sets it,
    and return its standard output lines."""
    src = Path(__file__).resolve().parents[1] / "src"
    environ = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], env={**environ, "PYTHONPATH": str(src), **env},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.splitlines()


class TestStartUp:
    """riskboot calls no BLAS, yet numpy's bundled OpenBLAS starts a worker
    thread at import that burns CPU through the rest of numpy's import. The
    command line asks for one BLAS thread before numpy loads; the package
    is lazy, so `import riskboot` loads no numpy and sets nothing, and a
    library user's BLAS keeps its threads."""

    EXPORTS = [
        "BootstrapConfig", "BootstrapResult", "EstimatorSpec", "GridCell", "IngestError",
        "LossSample", "MEAN_COLUMN", "Measure", "OVERALL_ROW", "Position", "PriceSeries",
        "QuantileMethod", "ReportTable", "ResultGrid", "ReturnSeries", "Row", "RowGroup",
        "Section", "SummaryStats", "bootstrap", "bootstrap_estimate", "build_measure_table",
        "build_summary_table", "drop_zero_returns", "expected_shortfall", "figure_csv",
        "ingest", "load_prices", "load_returns", "log_returns", "measures", "report",
        "run_grid", "spectral_risk_measure", "spectral_weights", "summary_stats", "to_csv",
        "to_kv", "to_losses", "to_text", "value_at_risk"]

    def test_the_command_line_starts_no_blas_thread(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count this process's threads")
        code = ("import os; import riskboot.cli; import numpy; "
                "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
        assert fresh_python(code) == ["1 1"]

    def test_a_callers_blas_setting_is_kept(self):
        code = "import os; import riskboot.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == ["2"]

    def test_the_package_alone_loads_no_numpy_and_sets_nothing(self):
        code = ("import os, sys; before = dict(os.environ); import riskboot; "
                "print(dict(os.environ) == before, 'numpy' in sys.modules)")
        assert fresh_python(code) == ["True False"]

    def test_every_export_resolves(self):
        """__all__ holds the 41 names the package has always exported, the
        four submodules included, and each resolves to its submodule's
        object, through `from riskboot import *` as well."""
        code = textwrap.dedent("""\
            import importlib, riskboot
            print(*riskboot.__all__)
            modules = {name: importlib.import_module(f"riskboot.{name}")
                       for name in ("bootstrap", "ingest", "measures", "report")}
            for name in riskboot.__all__:
                assert name in modules or any(getattr(m, name, None) is getattr(riskboot, name)
                                              for m in modules.values()), name
            namespace = {}
            exec("from riskboot import *", namespace)
            assert all(namespace[name] is getattr(riskboot, name) for name in riskboot.__all__)
            assert set(riskboot.__all__) <= set(dir(riskboot))
            assert not hasattr(riskboot, "no_such_name")
            """)
        assert fresh_python(code) == [" ".join(self.EXPORTS)]

    def test_the_command_line_freezes_its_import_heap(self):
        """The objects that exist when the command line starts, numpy's and
        riskboot's modules, classes and functions among them, live until
        the process ends, so main freezes them out of the collector's
        walks and leaves the collector on: after --version, which exits
        from the parser, and after an estimate in the same process. The
        library never touches the collector: `import riskboot` and a
        run_grid call freeze nothing."""
        returns = Path(__file__).resolve().parent / "data" / "inputs" / "c1.csv"
        code = textwrap.dedent(f"""\
            import contextlib, gc, io, tempfile
            from riskboot.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    main(["--version"])
                except SystemExit:
                    pass
            print(gc.isenabled(), gc.get_freeze_count() > 10_000)
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
                code = main(["estimate", "--input", {str(returns)!r}, "--return-col", "return",
                             "--resamples", "20", "--seed", "1", "--out", out])
            print(code, gc.isenabled(), gc.get_freeze_count() > 10_000)
            """)
        assert fresh_python(code) == ["True True", "0 True True"]
        code = ("import gc; import numpy as np; import riskboot; "
                "grid = riskboot.run_grid([riskboot.LossSample(np.arange(10.0))], "
                "{riskboot.Measure.ES: [0.9]}, riskboot.BootstrapConfig(resamples=10)); "
                "print(not grid.failed, gc.isenabled(), gc.get_freeze_count())")
        assert fresh_python(code) == ["True True 0"]

    def test_version_still_loads_numpy_and_every_module(self):
        """`riskboot --version` stands in for an estimate's start-up when
        the benchmark samples it, so it must still load what an estimate
        loads."""
        code = textwrap.dedent("""\
            import sys
            from riskboot.cli import main
            try:
                main(["--version"])
            finally:
                print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("riskboot.")))
            """)
        assert fresh_python(code)[-1] == str(["numpy", "riskboot.bootstrap", "riskboot.cli",
                                              "riskboot.ingest", "riskboot.measures",
                                              "riskboot.report"])
