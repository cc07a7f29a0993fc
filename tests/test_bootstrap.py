"""Bootstrap precision: streams, resampling, cell estimates and the grid."""

import math
import sys
import threading
import tracemalloc

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
    spectral_risk_measure,
    value_at_risk,
)
from riskboot import bootstrap
from riskboot.bootstrap import _contract_stream


def normal_sample(n=400, seed=2, label="x", position=Position.LONG):
    values = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return LossSample(values, position=position, label=label)


def mirrored_pair(n, seed, label):
    """The long and short samples of one contract, as to_losses makes them
    from one return series: each is the other mirrored."""
    returns = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return [LossSample(-returns, Position.LONG, label), LossSample(returns, Position.SHORT, label)]


def content(cells):
    """What a cell reports, without its place in the sample list."""
    return [(c.sample_label, c.position, c.measure, c.parameter, c.result, c.error)
            for c in cells]


def by_coordinates(grid):
    """The grid's cells keyed on (sample_index, measure, parameter)."""
    return {(c.sample_index, c.measure, c.parameter): c for c in grid.cells}


def first_resample(sample, seed, contract=0):
    """Row 0 of the first resample block the bootstrap draws for a lone
    long sample."""
    idx = _contract_stream(seed, contract).integers(
        0, sample.n, size=(1, sample.n), dtype=np.int32)
    return np.sort(sample.values[idx[0]])


def var_estimates(sample, alpha, b, seed, block_rows):
    """The resample VaR estimates of a lone long sample, drawn as the
    bootstrap lays them out: block k holds resamples k * block_rows up to
    b, drawn from block k's stream."""
    rank = math.ceil(alpha * sample.n - 1e-9)
    estimates = []
    for block, start in enumerate(range(0, b, block_rows)):
        rows = min(block_rows, b - start)
        idx = _contract_stream(seed, 0, block).integers(
            0, sample.n, size=(rows, sample.n), dtype=np.int32)
        estimates.append(np.sort(sample.values[idx], axis=1)[:, rank - 1])
    return np.concatenate(estimates)


class TestSampleStream:
    def test_same_coordinates_same_draws(self):
        a = _contract_stream(7, 3).integers(0, 1000, size=20)
        b = _contract_stream(7, 3).integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_any_coordinate_changes_the_stream(self):
        base = _contract_stream(7, 3).integers(0, 2 ** 62, size=8)
        for seed, sample in ((8, 3), (7, 4), (3, 7)):
            other = _contract_stream(seed, sample).integers(0, 2 ** 62, size=8)
            assert not np.array_equal(base, other)

    def test_coordinate_bounds(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="master seed"):
                _contract_stream(seed, 0)
        for sample in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="contract index"):
                _contract_stream(0, sample)
        _contract_stream(2 ** 64 - 1, 2 ** 64 - 1)  # both ends of the range are usable

    def test_block_k_is_the_contract_stream_jumped_k_times(self):
        key = np.array([7, 3], dtype=np.uint64)
        draws = []
        for block in (0, 1, 5):
            jumped = np.random.Generator(np.random.Philox(key=key).jumped(block))
            draws.append(_contract_stream(7, 3, block).integers(0, 2 ** 62, size=8))
            assert np.array_equal(draws[-1], jumped.integers(0, 2 ** 62, size=8))
        assert np.array_equal(draws[0], _contract_stream(7, 3).integers(0, 2 ** 62, size=8))
        assert len({tuple(d) for d in draws}) == 3

    def test_int32_draws_match_the_int64_default(self):
        for n in (400, 401, 3392):
            narrow = _contract_stream(5, 1).integers(0, n, size=(3, n), dtype=np.int32)
            wide = _contract_stream(5, 1).integers(0, n, size=(3, n))
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
        assert not np.array_equal(a, first_resample(sample, seed=5, contract=1))


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

    def test_plug_in_matches_direct_measure_calls(self):
        sample = normal_sample(seed=3)
        config = BootstrapConfig(resamples=50, master_seed=4)
        assert bootstrap_estimate(sample, EstimatorSpec(Measure.VAR, 0.99), config) \
            .plug_in_estimate == value_at_risk(sample, 0.99)
        assert bootstrap_estimate(sample, EstimatorSpec(Measure.ES, 0.99), config) \
            .plug_in_estimate == expected_shortfall(sample, 0.99)
        assert bootstrap_estimate(sample, EstimatorSpec(Measure.SRM, 20.0), config) \
            .plug_in_estimate == spectral_risk_measure(sample, 20.0)

    def test_plug_in_respects_quantile_method(self):
        sample = normal_sample(seed=5)
        config = BootstrapConfig(resamples=50, master_seed=4,
                                 quantile_method=QuantileMethod.LINEAR_INTERPOLATION)
        result = bootstrap_estimate(sample, EstimatorSpec(Measure.VAR, 0.95), config)
        assert result.plug_in_estimate == value_at_risk(
            sample, 0.95, QuantileMethod.LINEAR_INTERPOLATION)

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

    def test_blocks_draw_from_their_own_streams(self, monkeypatch):
        """Blocks of 150 rows of 400 losses split 500 resamples into blocks
        of 150, 150, 150 and 50 rows, block k drawn from stream k."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 150 * 400 + 399)
        sample = normal_sample(seed=6)
        config = BootstrapConfig(resamples=500, master_seed=11)
        result = bootstrap_estimate(sample, EstimatorSpec(Measure.VAR, 0.9), config)
        estimates = var_estimates(sample, 0.9, 500, seed=11, block_rows=150)
        assert result.point_estimate == estimates.mean()
        assert result.std_error == estimates.std(ddof=1)

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


class TestRunGrid:
    GRID = {Measure.VAR: [0.9, 0.99], Measure.ES: [0.95], Measure.SRM: [5.0, 20.0]}
    # Levels that reach every branch of _first_column: rank 1 at n <= 300,
    # a low rank (below a quarter of the row, so sorted whole) and a middle
    # one (partitioned), a tail of one loss, and, at n = 257, an
    # interpolation rank that rounds up to n.
    ALPHAS = [0.001, 0.01, 0.5, 0.8, 0.99, 0.999, float(np.nextafter(1.0, 0.0))]

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

    def test_cell_results_do_not_depend_on_which_measures_ran(self):
        """Streams are keyed on the contract, not on the cell or the grid
        layout, and a grid that sorts only the ends of each resample reads
        the same values there as one that sorts it all. So a subset grid
        reproduces the shared cells of the full grid exactly. The mirrored
        pair D reads both ends of one row: at 0.8 and above the two ends
        are partitioned, at 0.5 they overlap and at 0.01 the long end alone
        covers most of the row, so the row is sorted whole. D is long
        enough that a partition does not leave its 400-long ends at 0.8
        sorted by chance."""
        samples = self.samples() + [normal_sample(n=257, seed=25, label="C"),
                                    *mirrored_pair(2000, 28, "D")]
        subsets = [{Measure.VAR: self.ALPHAS}, {Measure.ES: self.ALPHAS},
                   {Measure.VAR: self.ALPHAS, Measure.ES: self.ALPHAS},
                   {Measure.VAR: [0.99, 0.999], Measure.ES: [0.99]}]
        subsets += [{measure: [alpha]} for measure in (Measure.VAR, Measure.ES)
                    for alpha in self.ALPHAS]
        for method in QuantileMethod:
            config = BootstrapConfig(resamples=100, master_seed=6, quantile_method=method)
            full = by_coordinates(run_grid(
                samples, {Measure.VAR: self.ALPHAS, Measure.ES: self.ALPHAS,
                          Measure.SRM: [5.0]}, config))
            for subset in subsets:
                for cell in run_grid(samples, subset, config).cells:
                    assert cell == full[cell.sample_index, cell.measure, cell.parameter]

    def test_contract_cells_do_not_depend_on_the_positions_requested(self):
        """A contract's stream is keyed on its ordinal and a lone short
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
        is a contract of its own, with its own stream."""
        first, second = normal_sample(seed=30), normal_sample(seed=31)
        short = normal_sample(seed=32, position=Position.SHORT)
        config = BootstrapConfig(resamples=100, master_seed=13)
        after_first = run_grid([first, short], self.GRID, config).cells
        after_second = run_grid([second, short], self.GRID, config).cells
        half = len(after_first) // 2
        assert after_first[half:] == after_second[half:]

    def test_failed_cell_is_isolated(self):
        """A parameter that one estimator rejects must not take down the
        rest of the grid."""
        grid_params = {Measure.VAR: [0.9], Measure.SRM: [1e-12]}  # srm k too flat
        grid = run_grid(self.samples()[:1], grid_params, BootstrapConfig(resamples=50, master_seed=7))
        assert len(grid.cells) == 2
        failed = grid.failed
        assert len(failed) == 1
        assert failed[0].measure is Measure.SRM
        assert "plain mean" in failed[0].error
        assert by_coordinates(grid)[0, Measure.VAR, 0.9].result is not None

    def test_bare_call_equals_its_grid_cell(self):
        """bootstrap_estimate is sample 0 of a grid: it reproduces that cell
        of a one-cell grid and of the full default grid bit for bit."""
        sample = normal_sample(n=300, seed=24)
        default = {Measure.VAR: [0.9, 0.95, 0.99], Measure.ES: [0.9, 0.95, 0.99],
                   Measure.SRM: [5.0, 10.0, 20.0, 40.0, 80.0]}
        for method in QuantileMethod:
            config = BootstrapConfig(resamples=120, master_seed=8, quantile_method=method)
            full = run_grid([sample], default, config)
            for cell in full.cells:
                bare = bootstrap_estimate(
                    sample, EstimatorSpec(cell.measure, cell.parameter), config)
                single = run_grid([sample], {cell.measure: [cell.parameter]}, config)
                assert bare == cell.result
                assert bare == single.cells[0].result

    def test_failing_cell_leaves_the_sample_s_other_cells_unchanged(self):
        config = BootstrapConfig(resamples=100, master_seed=9)
        clean = run_grid(self.samples(), self.GRID, config)
        with_bad = {**self.GRID, Measure.SRM: self.GRID[Measure.SRM] + [1e-12]}
        mixed = run_grid(self.samples(), with_bad, config)
        assert len(mixed.failed) == len(self.samples())
        assert tuple(c for c in mixed.cells if c.error is None) == clean.cells

    def test_more_workers_than_samples(self):
        config = BootstrapConfig(resamples=150, master_seed=5)
        samples = self.samples()[:1]
        assert run_grid(samples, self.GRID, config, workers=2) \
            == run_grid(samples, self.GRID, config, workers=1)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_results_do_not_depend_on_the_chunk_budget(self, monkeypatch, rows):
        """The draws do not depend on how the rows are chunked, and every
        estimator reduces a row in one fixed order, so every cell of both
        positions matches bit for bit."""
        samples = mirrored_pair(301, 26, "A")
        config = BootstrapConfig(resamples=100, master_seed=10)
        tails = {Measure.VAR: [0.5, 0.9, 0.99], Measure.ES: [0.95]}
        srm = {Measure.SRM: [5.0, 20.0]}
        baseline = run_grid(samples, tails, config), run_grid(samples, srm, config)
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 12 * 301 * rows)
        assert run_grid(samples, tails, config) == baseline[0]
        assert run_grid(samples, srm, config) == baseline[1]

    def test_chunk_memory_stays_within_the_budget(self, monkeypatch):
        """At n = 20 000 a 64-row chunk of indices alone takes 5 MB; the
        budget caps it at 4 rows."""
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 2 ** 20)
        samples = [normal_sample(n=20_000, seed=27)]
        config = BootstrapConfig(resamples=64, master_seed=11)
        tracemalloc.start()
        try:
            grid = run_grid(samples, {Measure.ES: [0.99]}, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not grid.failed
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("grid, whole", [
        ({Measure.VAR: [0.9, 0.99], Measure.ES: [0.95]}, False),
        ({Measure.SRM: [5.0, 20.0]}, True)], ids=["partition", "whole-sort"])
    def test_multi_block_cells_do_not_depend_on_workers_or_chunks(self, monkeypatch, grid, whole):
        """Blocks of 23 rows split 100 resamples of a mirrored pair into
        five blocks, the last one of 8 rows. Each block draws from its own
        stream and a chunk never straddles two blocks, so every cell matches
        bit for bit at any worker count and chunk budget, on the path that
        partitions the rows' ends and on the one that sorts them whole."""
        n = 301
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 23 * n)
        paths = []
        prepare = bootstrap._Contract.__init__

        def spy(contract, *args):
            prepare(contract, *args)
            paths.append(contract._whole)

        monkeypatch.setattr(bootstrap._Contract, "__init__", spy)
        samples = mirrored_pair(n, 26, "A")
        config = BootstrapConfig(resamples=100, master_seed=10)
        baseline = run_grid(samples, grid, config)
        assert not baseline.failed
        for rows in (1, 3, 7):
            monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 12 * n * rows)
            for workers in (1, 2, 3):
                assert run_grid(samples, grid, config, workers) == baseline
        assert set(paths) == {whole}

    def test_one_contract_s_blocks_share_the_workers(self, monkeypatch):
        """The first two blocks of one contract wait for each other at a
        barrier, so the grid fails unless two workers run them at once."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 25 * 301)
        barrier = threading.Barrier(2, timeout=10)
        run_block = bootstrap._Contract._run_block

        def meet(contract, block, chunk_bytes):
            if block < 2:
                barrier.wait()
            return run_block(contract, block, chunk_bytes)

        monkeypatch.setattr(bootstrap._Contract, "_run_block", meet)
        config = BootstrapConfig(resamples=100, master_seed=10)
        grid = run_grid(mirrored_pair(301, 26, "A"), {Measure.ES: [0.95]}, config, workers=2)
        assert not grid.failed

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
    def test_workers_share_one_chunk_budget(self, monkeypatch, workers):
        """Sorted whole, a chunk holds 12 bytes per element, so 1 MiB takes
        4 rows of 20 000 losses. Two workers share that budget: each taking
        all of it would double the chunks' memory past the bound."""
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
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_block_fails_only_its_contract(self, monkeypatch, workers):
        """A block that runs out of memory fails every cell of its
        contract; the other contracts' cells come out as in a clean run."""
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMS", 23 * 301)
        samples = [*mirrored_pair(301, 26, "A"), *mirrored_pair(257, 29, "B"),
                   normal_sample(n=250, seed=23, label="C")]
        config = BootstrapConfig(resamples=100, master_seed=10)
        clean = run_grid(samples, self.GRID, config, workers)
        run_block = bootstrap._Contract._run_block

        def fail_b(contract, block, chunk_bytes):
            if contract.ordinal == 1 and block == 2:
                raise MemoryError("no room for block 2")
            return run_block(contract, block, chunk_bytes)

        monkeypatch.setattr(bootstrap._Contract, "_run_block", fail_b)
        grid = run_grid(samples, self.GRID, config, workers)
        assert len(grid.cells) == len(clean.cells)
        for cell, clean_cell in zip(grid.cells, clean.cells):
            if cell.sample_label == "B":
                assert cell.result is None
                assert cell.error == "MemoryError: no room for block 2"
            else:
                assert cell == clean_cell

    @pytest.mark.parametrize("workers", [1, 2])
    def test_contract_with_no_estimable_cell_runs_no_block(self, monkeypatch, workers):
        """A contract whose every parameter the estimator rejects has no
        blocks to run, and each of its cells still carries the message."""
        run_block = bootstrap._Contract._run_block
        calls = []

        def spy(contract, block, chunk_bytes):
            calls.append(block)
            return run_block(contract, block, chunk_bytes)

        monkeypatch.setattr(bootstrap._Contract, "_run_block", spy)
        grid = run_grid(mirrored_pair(300, 26, "A"), {Measure.SRM: [1e-12]},
                        BootstrapConfig(resamples=50, master_seed=7), workers)
        assert calls == []
        assert len(grid.cells) == len(grid.failed) == 2
        assert all(cell.result is None and "plain mean" in cell.error for cell in grid.cells)

    def test_worker_validation(self):
        with pytest.raises(ValueError, match="at least 1 worker"):
            run_grid(self.samples(), self.GRID, BootstrapConfig(resamples=10), workers=0)
        with pytest.raises(ValueError, match="worker count must be an integer"):
            run_grid(self.samples(), self.GRID, BootstrapConfig(resamples=10), workers=1.5)
        config = BootstrapConfig(resamples=10)
        assert run_grid(self.samples(), self.GRID, config, workers=np.int32(2)) \
            == run_grid(self.samples(), self.GRID, config)
