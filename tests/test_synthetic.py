"""Synthetic generators and the closed-form / quadrature oracles.

The frozen reference numbers in this file were computed independently
before the estimators were written: normal quantile and density values
from the standard normal distribution, spectral reference values by
adaptive quadrature of the weighted quantile integrand, and the uniform
quantile case from its closed-form antiderivative.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskboot import (
    BootstrapConfig,
    Measure,
    Position,
    build_measure_table,
    run_grid,
    summary_stats,
    to_kv,
    to_losses,
)
from riskboot.synthetic import (
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

# adaptive-quadrature references for the standard normal loss quantile
SRM_NORMAL_REF = {
    5.0: 1.0815686725276046,
    20.0: 1.8537326703658912,
    80.0: 2.4241694481793,
}


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(family=Normal(0.0, 0.01), n=1000, seed=42)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.returns, b.returns)
        assert np.array_equal(a.dates, b.dates)

    def test_different_seeds_differ(self):
        a = generate(SyntheticSpec(family=Normal(), n=100, seed=1))
        b = generate(SyntheticSpec(family=Normal(), n=100, seed=2))
        assert not np.array_equal(a.returns, b.returns)

    def test_row_count_and_consecutive_dates(self):
        series = generate(SyntheticSpec(family=Normal(0.0, 0.01), n=3392, seed=0))
        assert series.n == 3392
        assert series.dates[0] == np.datetime64("1991-01-01")
        assert set(np.diff(series.dates).astype(int).tolist()) == {1}

    def test_every_date_falls_before_year_10000(self):
        """Dates run one a day from 1991-01-01, and strptime's %Y reads four
        digits, so n stops at the day count up to 9999-12-31 rather than
        writing a file that cannot be read back."""
        last = int((np.datetime64("9999-12-31") - np.datetime64("1991-01-01")).astype(int)) + 1
        assert SyntheticSpec(family=Normal(), n=last, seed=0).n == last
        with pytest.raises(ValueError, match=f"need n <= {last}, the days from 1991-01-01"):
            SyntheticSpec(family=Normal(), n=last + 1, seed=0)

    def test_default_labels_name_the_family(self):
        assert generate(SyntheticSpec(family=Normal(), n=5, seed=0)).label.startswith("normal(")
        assert generate(SyntheticSpec(family=StudentT(dof=4.0), n=5, seed=0)).label.startswith("t(")
        assert generate(SyntheticSpec(family=SkewedMix(), n=5, seed=0)).label.startswith("skewmix(")
        assert generate(SyntheticSpec(family=Normal(), n=5, seed=0, label="SP")).label == "SP"

    def test_default_labels_can_head_a_table(self):
        """A generated series goes through to_losses, run_grid and the
        measure table under the label generate gave it."""
        families = [Normal(0.0, 0.01), StudentT(dof=4.0, scale=0.01), SkewedMix()]
        samples = [to_losses(generate(SyntheticSpec(family=f, n=50, seed=1)), Position.LONG)
                   for f in families]
        grid = run_grid(samples, {Measure.ES: [0.9]}, BootstrapConfig(resamples=20))
        table = build_measure_table(grid, Measure.ES)
        assert table.contracts == tuple(f.tag() for f in families)
        assert f"contracts = {','.join(f.tag() for f in families)}" in to_kv(table)

    def test_normal_moments(self):
        series = generate(SyntheticSpec(family=Normal(mu=0.001, sigma=0.02), n=200_000, seed=3))
        stats = summary_stats(series)
        assert stats.mean == pytest.approx(0.001, abs=3e-4)
        assert stats.std_dev == pytest.approx(0.02, rel=0.01)

    def test_student_t_has_heavy_tails(self):
        series = generate(SyntheticSpec(family=StudentT(dof=4.0, scale=0.01), n=200_000, seed=4))
        assert summary_stats(series).kurtosis > 4.0

    def test_skewed_mix_skews_the_stated_way(self):
        left = generate(SyntheticSpec(family=SkewedMix(shift=-3.0), n=100_000, seed=5))
        right = generate(SyntheticSpec(family=SkewedMix(shift=3.0), n=100_000, seed=5))
        assert summary_stats(left).skewness < -0.3
        assert summary_stats(right).skewness > 0.3

    def test_family_validation(self):
        """Each field has one rule, whatever the family; a bool, a string or
        an int past the float range is refused, and every field is stored
        as a float."""
        for family, bad, message in [
                (Normal, {"sigma": 0.0}, "sigma must be a positive finite number, got 0.0"),
                (Normal, {"sigma": True}, "sigma must be a positive finite number, got True"),
                (Normal, {"mu": "a"}, "mu must be a finite number, got 'a'"),
                (Normal, {"sigma": 10**400},
                 f"sigma must be a positive finite number, got {10**400}"),
                (StudentT, {"dof": 2.0},
                 "degrees of freedom must be a finite number above 2, got 2.0"),
                (StudentT, {"dof": "3"},
                 "degrees of freedom must be a finite number above 2, got '3'"),
                (StudentT, {"dof": 4.0, "scale": -1.0},
                 "scale must be a positive finite number, got -1.0"),
                (SkewedMix, {"weight": 1.0},
                 "mixture weight must lie strictly between 0 and 1, got 1.0"),
                (SkewedMix, {"weight": 10**400},
                 f"mixture weight must lie strictly between 0 and 1, got {10**400}"),
                (SkewedMix, {"sigma": 0.0}, "sigma must be a positive finite number, got 0.0"),
                (SkewedMix, {"sigma": math.inf}, "sigma must be a positive finite number, got inf"),
                (SkewedMix, {"mu": math.nan}, "mu must be a finite number, got nan"),
                (SkewedMix, {"shift": -math.inf}, "shift must be a finite number, got -inf"),
                (SkewedMix, {"widen": 0.0}, "widen must be a positive finite number, got 0.0"),
                (SkewedMix, {"widen": math.inf},
                 "widen must be a positive finite number, got inf")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                family(**bad)
        mix = SkewedMix(mu=1, sigma=np.float32(0.5), weight=np.float64(0.25))
        assert [type(value) for value in vars(mix).values()] == [float] * 5
        assert (mix.mu, mix.sigma, mix.weight) == (1.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="n >= 1"):
            SyntheticSpec(family=Normal(), n=0, seed=0)
        for n in (2.5, True):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
                SyntheticSpec(family=Normal(), n=n, seed=0)


class TestNormalOracles:
    def test_frozen_quantiles(self):
        assert normal_var_oracle(0.99) == pytest.approx(2.3263478740408408, abs=1e-12)
        assert normal_var_oracle(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
        assert normal_var_oracle(0.5) == 0.0

    def test_frozen_tail_means(self):
        assert normal_es_oracle(0.99) == pytest.approx(2.665214220345806, abs=1e-12)
        assert normal_es_oracle(0.95) == pytest.approx(2.0627128075074257, abs=1e-12)
        assert normal_es_oracle(0.5) == pytest.approx(0.7978845608028654, abs=1e-12)

    def test_tail_mean_exceeds_quantile(self):
        for alpha in (0.5, 0.9, 0.99, 0.999):
            assert normal_es_oracle(alpha) > normal_var_oracle(alpha)

    def test_quantile_fn_is_vectorized(self):
        p = np.array([0.5, 0.99])
        out = normal_quantile(p)
        assert isinstance(out, np.ndarray)
        assert out == pytest.approx([0.0, 2.3263478740408408])
        scalar = normal_quantile(0.99)
        assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
        assert scalar == pytest.approx(2.3263478740408408, abs=1e-12)

    @staticmethod
    def modules_after(statement, prefix):
        """The modules under prefix that a fresh interpreter holds after
        running statement."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (f"{statement}; import sys; "
                f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        return done.stdout.strip()

    def test_import_loads_no_scipy(self):
        assert self.modules_after("import riskboot", "scipy") == "[]"

    def test_estimate_path_loads_no_oracles(self):
        """The generators and oracles serve only synth, validate and the
        tests, so importing the command line leaves them unloaded."""
        assert self.modules_after("import riskboot.cli", "riskboot.synthetic") == "[]"

    def test_bad_arguments(self):
        for bad in (0.0, 1.0, "0.5", math.nan):
            message = f"confidence level must lie strictly between 0 and 1, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                normal_var_oracle(bad)
            with pytest.raises(ValueError, match=re.escape(message)):
                normal_es_oracle(bad)


class TestQuadratureOracle:
    def test_constant_quantile_returns_the_constant(self):
        value = srm_quadrature_oracle(lambda p: np.full_like(p, 3.25), 12.0)
        assert value == pytest.approx(3.25, abs=1e-9)

    def test_uniform_quantile_closed_form(self):
        """q(p) = p integrates to 1 - (1 - (1+k) e^-k) / (k (1 - e^-k))."""
        for k, expected in ((5.0, 0.8067836549063042), (0.5, 0.5414940825367983)):
            value = srm_quadrature_oracle(lambda p: p, k)
            assert value == pytest.approx(expected, rel=1e-9)

    def test_normal_references(self):
        for k, expected in SRM_NORMAL_REF.items():
            value = srm_quadrature_oracle(normal_quantile, k)
            assert value == pytest.approx(expected, rel=1e-8)

    def test_linear_in_the_quantile_function(self):
        base = srm_quadrature_oracle(normal_quantile, 20.0)
        shifted = srm_quadrature_oracle(lambda p: 2.0 * normal_quantile(p) + 3.0, 20.0)
        assert shifted == pytest.approx(2.0 * base + 3.0, rel=1e-10)

    def test_tiny_aversion_drifts_to_the_distribution_mean(self):
        value = srm_quadrature_oracle(normal_quantile, 1e-6)
        assert abs(value) < 1e-5  # standard normal mean is 0

    def test_bad_aversion_rejected(self):
        for k in (0.0, -2.0, float("nan"), True, 10**400):
            with pytest.raises(ValueError, match="positive finite"):
                srm_quadrature_oracle(normal_quantile, k)

    def test_unstable_integrand_reports_non_convergence(self):
        calls = {"count": 0}

        def jittery(p):
            calls["count"] += 1
            return np.full_like(p, float(calls["count"]))

        with pytest.raises(ArithmeticError, match="did not settle"):
            srm_quadrature_oracle(jittery, 5.0)
