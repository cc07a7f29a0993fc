"""Quantile, tail and spectral measures on loss samples.

The randomized suites use fixed seeds: the point is exercising the
invariants across many shapes, not chasing flaky draws.
"""

import datetime
import math

import numpy as np
import pytest

from riskboot import (
    LossSample,
    Measure,
    Position,
    QuantileMethod,
    ReturnSeries,
    expected_shortfall,
    spectral_risk_measure,
    spectral_weights,
    to_losses,
    value_at_risk,
)
from riskboot.measures import _apply, _first_column, _plan, _weight_density

from weight_checks import validate_weighting

ONE_TO_HUNDRED = LossSample(np.arange(1.0, 101.0))


def interval_mass(k, lo, hi):
    """Oracle: closed-form integral of the exponential profile phi at risk
    aversion k over [lo, hi], a second route to the masses spectral_weights
    gives."""
    return np.exp(-k * (1.0 - hi)) * -np.expm1(-k * (hi - lo)) / -np.expm1(-k)


def evaluate(rows, measure, args, method=QuantileMethod.ORDER_STATISTIC, n=None, mirrored=False):
    """The one estimator on rows of width columns of full rows of n, at one
    end: apply(plan(...))."""
    return _apply(rows, _plan(measure, args, n or rows.shape[1], method, rows.shape[1], (mirrored,)))


def random_sample(rng, n=None):
    """One loss sample from a rotating family of shapes."""
    n = n or int(rng.integers(2, 2001))
    family = rng.integers(0, 3)
    if family == 0:
        x = rng.normal(0.0, 1.0, n)
    elif family == 1:
        x = rng.standard_t(4, n)
    else:
        x = np.where(rng.random(n) < 0.1, rng.normal(-3.0, 3.0, n), rng.normal(0.0, 1.0, n))
    return LossSample(x)


class TestLossSample:
    def test_sorted_on_construction(self):
        s = LossSample(np.array([3.0, -1.0, 2.0]), Position.SHORT, "x")
        assert s.values.tolist() == [-1.0, 2.0, 3.0]
        assert s.position is Position.SHORT
        assert s.label == "x"
        assert s.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            LossSample(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            LossSample(np.array([1.0, np.nan]))

    def test_position_must_be_a_position(self):
        """A string would pass for the short position in to_losses' sign
        choice; the sample rejects it instead of mislabelling the losses."""
        series = ReturnSeries("c", [datetime.date(2001, 1, 1), datetime.date(2001, 1, 2)],
                              np.array([0.01, -0.02]))
        with pytest.raises(ValueError, match="^unknown position 'long'$"):
            to_losses(series, "long")

    @pytest.mark.parametrize("values, shape", [([[1.0, 2.0], [3.0, 0.0]], "(2, 2)"), (3.0, "()")],
                             ids=["two_d", "zero_d"])
    def test_values_must_be_one_dimensional(self, values, shape):
        with pytest.raises(ValueError) as caught:
            LossSample(values)
        assert str(caught.value) == f"loss sample must be one-dimensional, got shape {shape}"


class TestToLosses:
    def make_series(self, returns):
        dates = [datetime.date(2001, 1, 1) + datetime.timedelta(days=i)
                 for i in range(len(returns))]
        return ReturnSeries("c", dates, np.asarray(returns, dtype=float))

    def test_long_position_negates_returns(self):
        """A fall in price is the loss of the long holder."""
        losses = to_losses(self.make_series([0.01, -0.02]), Position.LONG)
        assert losses.values.tolist() == [-0.01, 0.02]
        assert losses.position is Position.LONG
        assert losses.label == "c"

    def test_short_position_keeps_returns(self):
        losses = to_losses(self.make_series([0.01, -0.02]), Position.SHORT)
        assert losses.values.tolist() == [-0.02, 0.01]

    def test_long_short_mirror(self):
        rng = np.random.default_rng(3)
        r = rng.normal(0.0, 0.01, 500)
        long_losses = to_losses(self.make_series(r), Position.LONG)
        short_losses = to_losses(self.make_series(-r), Position.SHORT)
        assert np.array_equal(long_losses.values, short_losses.values)


class TestEmpiricalQuantile:
    def test_order_statistic_examples(self):
        assert value_at_risk(ONE_TO_HUNDRED, 0.95) == 95.0
        assert value_at_risk(ONE_TO_HUNDRED, 0.90) == 90.0

    def test_linear_interpolation_examples(self):
        method = QuantileMethod.LINEAR_INTERPOLATION
        assert value_at_risk(ONE_TO_HUNDRED, 0.95, method) == pytest.approx(95.05, abs=1e-12)
        assert value_at_risk(ONE_TO_HUNDRED, 0.90, method) == pytest.approx(90.1, abs=1e-12)

    def test_var_is_the_empirical_quantile(self):
        s = random_sample(np.random.default_rng(1))
        assert value_at_risk(s, 0.975) == s.values[math.ceil(0.975 * s.n - 1e-9) - 1]

    def test_single_observation(self):
        s = LossSample(np.array([4.5]))
        for alpha in (0.01, 0.5, 0.999):
            assert value_at_risk(s, alpha) == 4.5
            assert value_at_risk(s, alpha, QuantileMethod.LINEAR_INTERPOLATION) == 4.5

    def test_interpolation_hits_order_stats_at_grid_levels(self):
        # alpha = (r - 1) / (n - 1) puts the fractional rank exactly on r
        s = LossSample(np.array([10.0, 20.0, 30.0, 40.0, 50.0]))
        method = QuantileMethod.LINEAR_INTERPOLATION
        assert value_at_risk(s, 0.25, method) == 20.0
        assert value_at_risk(s, 0.75, method) == 40.0

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, 1.0, -0.5, 1.5, float("nan"), "x"):
            with pytest.raises(ValueError, match="between 0 and 1"):
                value_at_risk(ONE_TO_HUNDRED, alpha)

    def test_a_method_that_is_no_quantile_method_is_rejected(self):
        """The method is a QuantileMethod; its value as a string is not."""
        with pytest.raises(ValueError, match="unknown quantile method 'interp'"):
            value_at_risk(ONE_TO_HUNDRED, 0.95, "interp")

    def test_extreme_levels_clamp_to_end_points(self):
        assert value_at_risk(ONE_TO_HUNDRED, 1e-12) == 1.0
        assert value_at_risk(ONE_TO_HUNDRED, 1 - 1e-12) == 100.0


class TestExpectedShortfall:
    def test_tail_mean_example(self):
        assert expected_shortfall(ONE_TO_HUNDRED, 0.90) == 95.5

    def test_tail_never_empty(self):
        """(1 - alpha) * n below one observation still averages the worst loss."""
        assert expected_shortfall(ONE_TO_HUNDRED, 0.995) == 100.0

    def test_alpha_near_zero_averages_everything(self):
        assert expected_shortfall(ONE_TO_HUNDRED, 1e-12) == pytest.approx(50.5, rel=1e-15)

    def test_never_below_var(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = random_sample(rng)
            alpha = float(rng.uniform(0.01, 0.999))
            assert expected_shortfall(s, alpha) >= value_at_risk(s, alpha)

    def test_constant_sample(self):
        s = LossSample(np.full(37, 5.0))
        assert expected_shortfall(s, 0.95) == 5.0


class TestTailBlock:
    def test_the_tail_from_the_first_column_gives_the_full_row_value(self):
        """The bootstrap sorts and gathers only the columns from _first_column
        on; fed that tail and the full row length, the estimator must return
        the full-row value bit for bit. Each level of a batch gives the
        column that it gives alone, in the batch's order."""
        rng = np.random.default_rng(8)
        alphas = (0.001, 0.01, 0.5, 0.95, 0.999, float(np.nextafter(1.0, 0.0)))
        cases = [(Measure.VAR, method) for method in QuantileMethod]
        cases.append((Measure.ES, QuantileMethod.ORDER_STATISTIC))
        for n in (1, 2, 5, 257, 300):
            rows = np.sort(rng.standard_t(4, size=(3, n)), axis=1)
            assert _first_column(Measure.SRM, spectral_weights(n, 5.0), n) == 0
            for measure, method in cases:
                for batch in (alphas, alphas[::-1]):
                    full = evaluate(rows, measure, batch, method)
                    assert full.shape == (3, len(batch))
                    for j, alpha in enumerate(batch):
                        first = _first_column(measure, alpha, n, method)
                        assert 0 <= first < n
                        for k in range(first + 1):
                            tail = rows[:, k:].copy()
                            assert np.array_equal(
                                evaluate(tail, measure, [alpha], method, n=n),
                                full[:, j:j + 1])

    def test_the_mirrored_head_gives_the_opposite_position_s_value(self):
        """A short cell reads the long rows through the mirror, from their
        first columns up to n minus _first_column. Fed any such head, the
        estimator returns the full mirrored value bit for bit. That equals
        the value on the short rows themselves: VaR bit for bit, ES and SRM,
        which sum in the opposite order, to rounding."""
        rng = np.random.default_rng(9)
        alphas = (0.001, 0.01, 0.5, 0.95, 0.999, float(np.nextafter(1.0, 0.0)))
        cases = [(Measure.VAR, method) for method in QuantileMethod]
        cases.append((Measure.ES, QuantileMethod.ORDER_STATISTIC))
        for n in (1, 2, 5, 257, 300):
            rows = np.sort(rng.standard_t(4, size=(3, n)), axis=1)
            short = -rows[:, ::-1]
            for measure, method in cases:
                full = evaluate(rows, measure, alphas, method, mirrored=True)
                own = evaluate(short, measure, alphas, method)
                if measure is Measure.VAR:
                    assert np.array_equal(full, own)
                else:
                    assert full == pytest.approx(own, rel=1e-12, abs=1e-12)
                for j, alpha in enumerate(alphas):
                    first = _first_column(measure, alpha, n, method)
                    for k in range(n - first, n + 1):
                        head = rows[:, :k].copy()
                        assert np.array_equal(evaluate(
                            head, measure, [alpha], method, n=n, mirrored=True), full[:, j:j + 1])
            for k in (5.0, 80.0):
                w = spectral_weights(n, k)[None, :]  # a one-row stack
                full = evaluate(rows, Measure.SRM, w, mirrored=True)  # the plan reverses w
                assert full.shape == (3, 1)
                assert full == pytest.approx(evaluate(short, Measure.SRM, w),
                                             rel=1e-12, abs=1e-12)


    def test_both_ends_side_by_side_keep_each_end_s_bits(self):
        """A plan for a mirrored pair's two ends, in either order, reads
        both in one call: its columns are each end's own, the k parameters
        of the first end and then those of the second, bit for bit, for
        VaR by either method, ES and SRM, on whole rows and, but for SRM,
        on narrow rows."""
        rng = np.random.default_rng(10)
        alphas = (0.01, 0.5, 0.95, 0.999, float(np.nextafter(1.0, 0.0)))
        cases = [(Measure.VAR, alphas, method) for method in QuantileMethod]
        cases.append((Measure.ES, alphas, QuantileMethod.ORDER_STATISTIC))
        for n in (1, 5, 300, 8193):
            rows = np.sort(rng.standard_t(4, size=(3, n)), axis=1)
            weights = np.array([spectral_weights(n, k) for k in (5.0, 80.0)])
            for measure, args, method in [*cases, (Measure.SRM, weights, None)]:
                for ends in ((False, True), (True, False)):
                    both = _apply(rows, _plan(measure, args, n, method, n, ends))
                    each = [evaluate(rows, measure, args, method, mirrored=end) for end in ends]
                    assert np.array_equal(both, np.hstack(each))


class TestExponentialWeighting:
    def test_density_example(self):
        assert _weight_density(1.0, 5.0) == pytest.approx(5.033918274531521, abs=1e-12)

    def test_tail_tilt_is_e_to_the_k(self):
        assert _weight_density(1.0, 3.0) / _weight_density(0.0, 3.0) == pytest.approx(
            math.e ** 3, rel=1e-12)

    def test_bad_aversion_rejected(self):
        for k in (0.0, -1.0, float("inf"), float("nan"), "x"):
            for weighting in (lambda: spectral_weights(10, k), lambda: _weight_density(0.5, k)):
                with pytest.raises(ValueError, match="positive finite"):
                    weighting()

    def test_flat_aversion_directs_to_the_mean(self):
        for weighting in (lambda: spectral_weights(10, 1e-9), lambda: _weight_density(0.5, 1e-9)):
            with pytest.raises(ValueError, match="plain mean"):
                weighting()

    def test_interval_mass_total_and_additivity(self):
        assert interval_mass(4.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        left, right = interval_mass(4.0, 0.1, 0.6), interval_mass(4.0, 0.6, 0.9)
        assert left + right == pytest.approx(interval_mass(4.0, 0.1, 0.9), abs=1e-15)

    def test_interval_mass_matches_riemann_sum(self):
        p = np.linspace(0.3, 0.8, 400_001)
        riemann = float(np.trapezoid(_weight_density(p, 7.0), p))
        assert interval_mass(7.0, 0.3, 0.8) == pytest.approx(riemann, abs=1e-9)


class TestSpectralWeights:
    def test_two_cell_example(self):
        w = spectral_weights(2, 2.0)
        assert w[1] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert w[0] == pytest.approx(1.0 - 0.7310585786300049, abs=1e-12)

    def test_cells_are_interval_masses(self):
        """The discrete weights and the closed-form interval integrals are
        two routes to the same numbers."""
        n = 257
        edges = np.arange(n + 1) / n
        masses = interval_mass(13.0, edges[:-1], edges[1:])
        assert np.max(np.abs(spectral_weights(n, 13.0) - masses)) <= 1e-15

    def test_coherence_across_sizes_and_aversions(self):
        for n in (1, 2, 10, 3392, 100_000):
            for k in (5.0, 10.0, 20.0, 40.0, 80.0):
                w = spectral_weights(n, k)
                assert w.shape == (n,)
                assert abs(w.sum() - 1.0) <= 1e-12
                assert np.all(w >= 0.0)
                assert np.all(np.diff(w) >= 0.0)

    def test_tiny_aversion_weights_are_nearly_uniform(self):
        w = spectral_weights(1000, 1e-6)
        assert np.max(np.abs(w - 1e-3)) <= 1e-9

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            spectral_weights(0, 5.0)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_cell_count_rejected(self, n):
        with pytest.raises(ValueError) as caught:
            spectral_weights(n, 5.0)
        assert str(caught.value) == f"cell count must be an integer, got {n!r}"


class TestValidateWeighting:
    def test_exponential_weights_pass(self):
        report = validate_weighting(spectral_weights(3392, 20.0))
        assert report.coherent
        assert report.nonnegative and report.sums_to_one and report.nondecreasing
        assert report.first_violation is None
        assert report.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_negative_weight_flagged(self):
        report = validate_weighting([0.5, -0.1, 0.6])
        assert not report.nonnegative
        assert report.first_violation == 2

    def test_decreasing_weight_flagged(self):
        report = validate_weighting([0.2, 0.5, 0.3])
        assert not report.nondecreasing
        assert report.first_violation == 3
        assert not report.coherent  # mass for this vector happens to be 1

    def test_mass_drift_flagged(self):
        report = validate_weighting([0.25, 0.25, 0.25])
        assert not report.sums_to_one
        assert report.first_violation is None
        assert report.total_mass == 0.75

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_weighting([])


class TestSpectralRiskMeasure:
    def test_two_point_example(self):
        s = LossSample(np.array([0.0, 10.0]))
        assert spectral_risk_measure(s, 2.0) == pytest.approx(7.310585786300049, abs=1e-4)

    def test_tiny_aversion_approaches_the_mean(self):
        assert spectral_risk_measure(ONE_TO_HUNDRED, 1e-6) == pytest.approx(50.5, abs=0.1)

    def test_huge_aversion_approaches_the_max(self):
        assert spectral_risk_measure(ONE_TO_HUNDRED, 1e4) == pytest.approx(100.0, abs=1e-6)

    def test_bounded_by_mean_and_max(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = random_sample(rng)
            k = float(rng.uniform(0.5, 100.0))
            value = spectral_risk_measure(s, k)
            assert float(s.values.mean()) - 1e-12 <= value <= float(s.values.max()) + 1e-12

    def test_monotone_in_aversion(self):
        rng = np.random.default_rng(9)
        ks = [0.1, 1.0, 5.0, 20.0, 80.0, 300.0]
        for _ in range(50):
            s = random_sample(rng)
            values = [spectral_risk_measure(s, k) for k in ks]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestCoherenceProperties:
    """The measure-level coherence behavior on random samples."""

    def test_positive_homogeneity_and_translation(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_sample(rng)
            lam = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(-2.0, 2.0))
            alpha = float(rng.uniform(0.5, 0.99))
            k = float(rng.uniform(1.0, 80.0))
            scaled = LossSample(s.values * lam)
            shifted = LossSample(s.values + c)
            for measure in (
                lambda x: value_at_risk(x, alpha),
                lambda x: expected_shortfall(x, alpha),
                lambda x: spectral_risk_measure(x, k),
            ):
                base = measure(s)
                assert measure(scaled) == pytest.approx(lam * base, rel=1e-12, abs=1e-12)
                assert measure(shifted) == pytest.approx(base + c, abs=1e-12)

    def test_subadditivity_of_es_and_srm(self):
        """Tail means and spectral measures of a combined book never exceed
        the sum of the stand-alone measures; plain quantiles have no such
        guarantee, which is the point of the coherent measures."""
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 1500))
            x = rng.standard_t(4, n)
            y = 0.4 * x + rng.normal(0.0, 1.0, n)  # correlated book
            sx, sy, sxy = LossSample(x), LossSample(y), LossSample(x + y)
            alpha = float(rng.uniform(0.5, 0.99))
            k = float(rng.uniform(1.0, 80.0))
            assert expected_shortfall(sxy, alpha) <= (
                expected_shortfall(sx, alpha) + expected_shortfall(sy, alpha) + 1e-12)
            assert spectral_risk_measure(sxy, k) <= (
                spectral_risk_measure(sx, k) + spectral_risk_measure(sy, k) + 1e-12)
