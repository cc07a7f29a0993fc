r"""Release acceptance checks, one test per criterion.

Each test enforces one end-to-end contract of the estimator suite at its
stated tolerance and prints the measured margin, so `pytest -v` reads as a
pass/fail checklist. Golden files for the command-line criterion live in
tests/data/golden and were produced by the exact command in
test_criterion_7_cli_end_to_end_reproduction. After an intentional output
change, regenerate them by running that command from tests/data/inputs:

    PYTHONPATH=../../../src python -m riskboot estimate \
        --input c1.csv --input c2.csv --input c3.csv --input c4.csv --input c5.csv \
        --return-col return --seed 11 --format csv --out ../golden
"""

import csv
import math
import os
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from riskboot import (
    BootstrapConfig,
    EstimatorSpec,
    LossSample,
    Measure,
    Position,
    bootstrap_estimate,
    expected_shortfall,
    run_grid,
    spectral_risk_measure,
    spectral_weights,
    to_losses,
    value_at_risk,
)
from riskboot import ingest
from riskboot.cli import main
from riskboot.synthetic import (
    Normal,
    StudentT,
    SyntheticSpec,
    generate,
    normal_es_oracle,
    normal_quantile,
    normal_var_oracle,
    srm_quadrature_oracle,
)

from report_records import parse_csv
from weight_checks import validate_weighting

DATA_DIR = Path(__file__).parent / "data"

# standard normal 99% quantile and its tail mean, to 16 digits
_Z99 = 2.3263478740408408
_ES99 = 2.665214220345806


def test_criterion_1_spectral_weights_validity():
    """Exponential spectral weights are nonnegative, nondecreasing and sum
    to one within 1e-12 across sample sizes and risk aversions."""
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 10, 3392, 100_000):
        for k in (5.0, 10.0, 20.0, 40.0, 80.0):
            report = validate_weighting(spectral_weights(n, k))
            assert report.nonnegative and report.nondecreasing
            assert abs(report.total_mass - 1.0) <= 1e-12
            worst = max(worst, abs(report.total_mass - 1.0))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: worst |sum-1| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_large_sample_accuracy_vs_oracles():
    """On 500k standard normal draws the estimators land within 1% (VaR,
    spectral) and 1.5% (ES) of their closed-form and quadrature oracles."""
    start = time.perf_counter()
    # the package oracles must agree with the frozen references before
    # they are trusted as the comparison route
    assert normal_var_oracle(0.99) == pytest.approx(_Z99, abs=1e-12)
    assert normal_es_oracle(0.99) == pytest.approx(_ES99, abs=1e-12)

    series = generate(SyntheticSpec(family=Normal(0.0, 1.0), n=500_000, seed=7))
    losses = to_losses(series, Position.LONG)

    var_rel = abs(value_at_risk(losses, 0.99) / _Z99 - 1.0)
    es_rel = abs(expected_shortfall(losses, 0.99) / _ES99 - 1.0)
    assert var_rel <= 0.01
    assert es_rel <= 0.015
    srm_rels = {}
    for k in (5.0, 20.0, 80.0):
        reference = srm_quadrature_oracle(normal_quantile, k)
        srm_rels[k] = abs(spectral_risk_measure(losses, k) / reference - 1.0)
        assert srm_rels[k] <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: var rel {var_rel:.2e}, es rel {es_rel:.2e}, "
          f"srm rel {max(srm_rels.values()):.2e}, {elapsed:.2f}s")


def test_criterion_3_coherence_properties_randomized():
    """Positive homogeneity and translation invariance hold to 1e-12, ES
    dominates VaR, and ES and spectral measures are subadditive, across at
    least 1000 randomized samples of sizes 2 to 2000."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    samples_seen = 0
    worst_hom = worst_trans = worst_excess = 0.0
    for i in range(500):
        n = int(rng.integers(2, 2001))
        kind = i % 3
        if kind == 0:
            x = rng.normal(0.0, 1.0, n)
            y = 0.6 * x + 0.8 * rng.normal(0.0, 1.0, n)
        elif kind == 1:
            x = rng.standard_t(4, n)
            y = 0.5 * x + rng.standard_t(5, n)
        else:
            x = rng.normal(0.0, 1.0, n) + (rng.random(n) < 0.1) * rng.normal(-3.0, 3.0, n)
            y = rng.normal(0.0, 1.0, n)
        alpha = float(rng.uniform(0.5, 0.995))
        k = float(rng.uniform(0.5, 80.0))
        lam = float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(-2.0, 2.0))

        sx, sy, sxy = LossSample(x), LossSample(y), LossSample(x + y)
        samples_seen += 2
        for fn, arg in ((value_at_risk, alpha), (expected_shortfall, alpha),
                        (spectral_risk_measure, k)):
            base = fn(sx, arg)
            scale = max(1.0, abs(base))
            worst_hom = max(worst_hom,
                            abs(fn(LossSample(lam * x), arg) - lam * base) / (lam * scale))
            worst_trans = max(worst_trans,
                              abs(fn(LossSample(x + c), arg) - (base + c)) / scale)
        assert expected_shortfall(sx, alpha) >= value_at_risk(sx, alpha) - 1e-12
        for fn, arg in ((expected_shortfall, alpha), (spectral_risk_measure, k)):
            excess = fn(sxy, arg) - (fn(sx, arg) + fn(sy, arg))
            worst_excess = max(worst_excess, excess)

    assert samples_seen >= 1000
    assert worst_hom <= 1e-12
    assert worst_trans <= 1e-12
    assert worst_excess <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[PASS] criterion 3: {samples_seen} samples, homogeneity {worst_hom:.1e}, "
          f"translation {worst_trans:.1e}, subadditivity excess {worst_excess:.1e}, "
          f"{elapsed:.2f}s")


def test_criterion_4_risk_aversion_limits_and_monotonicity():
    """The spectral measure is nondecreasing in risk aversion and spans its
    limits: near-zero aversion recovers the sample mean to 1e-4 relative,
    extreme aversion recovers the worst loss to 1e-6 absolute."""
    # the max-limit deviation scales like exp(-k/n) at k = 1e4, which stays
    # below 1e-6 only for n up to a few hundred, hence sizes 2..250
    rng = np.random.default_rng(11)
    ks = [1e-6, 1.0, 5.0, 10.0, 20.0, 40.0, 80.0, 1e4]
    worst_step = worst_mean = worst_max = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 251))
        x = rng.normal(5.0, 1.0, n)  # shifted so the mean is far from zero
        sample = LossSample(x)
        values = [spectral_risk_measure(sample, k) for k in ks]
        worst_step = max(worst_step, max(a - b for a, b in zip(values, values[1:])))
        worst_mean = max(worst_mean, abs(values[0] / x.mean() - 1.0))
        worst_max = max(worst_max, abs(values[-1] - x.max()))
    assert worst_step <= 1e-12
    assert worst_mean <= 1e-4
    assert worst_max <= 1e-6
    print(f"[PASS] criterion 4: monotone step {worst_step:.1e}, mean limit "
          f"{worst_mean:.1e}, max limit {worst_max:.1e}")


def test_criterion_5_bootstrap_determinism_and_convergence():
    """Bootstrap grids are bit-identical at any worker count, degenerate
    samples produce exact zero spread, and point estimates at 500 and 50000
    resamples agree within three standard errors of their difference."""
    rng = np.random.default_rng(55)
    samples = [
        LossSample(rng.standard_t(4, 500), position=Position.LONG, label="X"),
        LossSample(rng.normal(0.0, 1.0, 300), position=Position.SHORT, label="Y"),
    ]
    params = {Measure.VAR: [0.9, 0.99], Measure.ES: [0.95], Measure.SRM: [5.0, 20.0]}
    config = BootstrapConfig(resamples=400, master_seed=21)
    baseline = run_grid(samples, params, config, workers=1)
    assert run_grid(samples, params, config, workers=4) == baseline
    assert run_grid(samples, params, config, workers=8) == baseline

    constant = LossSample(np.full(64, 5.0))
    for spec in (EstimatorSpec(Measure.VAR, 0.95), EstimatorSpec(Measure.ES, 0.95)):
        result = bootstrap_estimate(constant, spec, config)
        assert result.point_estimate == 5.0
        assert result.std_error == 0.0
        assert result.coeff_variation is None
        assert result.ci_standardized == (1.0, 1.0)
    srm_result = bootstrap_estimate(constant, EstimatorSpec(Measure.SRM, 20.0), config)
    assert srm_result.point_estimate == pytest.approx(5.0, rel=1e-12)
    assert srm_result.std_error == 0.0
    assert srm_result.ci_standardized == (1.0, 1.0)

    spec = EstimatorSpec(Measure.ES, 0.95)
    coarse = bootstrap_estimate(samples[0], spec, BootstrapConfig(resamples=500, master_seed=21))
    fine = bootstrap_estimate(samples[0], spec, BootstrapConfig(resamples=50_000, master_seed=22))
    gap = abs(coarse.point_estimate - fine.point_estimate)
    bound = 3.0 * math.sqrt(coarse.std_error ** 2 / 500 + fine.std_error ** 2 / 50_000)
    assert gap <= bound
    print(f"[PASS] criterion 5: grids worker-invariant, degenerate spread exact, "
          f"|p500 - p50000| = {gap:.2e} <= {bound:.2e}")


def test_criterion_6_heavy_tail_precision_ordering():
    """On a heavy-tailed t(4) sample of the reference size, standard errors
    rise with confidence level and risk aversion, ES exceeds VaR at every
    level, and spectral estimates are commensurate with the quantile family."""
    start = time.perf_counter()
    series = generate(SyntheticSpec(family=StudentT(dof=4, scale=1.0), n=3392, seed=7))
    losses = to_losses(series, Position.LONG)
    alphas = [0.90, 0.95, 0.99]
    ks = [5.0, 20.0, 80.0]
    grid = run_grid(
        [losses],
        {Measure.VAR: alphas, Measure.ES: alphas, Measure.SRM: ks},
        BootstrapConfig(resamples=5000, master_seed=7), workers=4)
    res = {(c.measure, c.parameter): c.result for c in grid.cells}

    var_se = [res[(Measure.VAR, a)].std_error for a in alphas]
    es_se = [res[(Measure.ES, a)].std_error for a in alphas]
    srm_se = [res[(Measure.SRM, k)].std_error for k in ks]
    for seq in (var_se, es_se, srm_se):
        assert all(a < b for a, b in zip(seq, seq[1:]))
    for a in alphas:
        assert res[(Measure.ES, a)].point_estimate > res[(Measure.VAR, a)].point_estimate

    ratio_low = res[(Measure.SRM, 5.0)].point_estimate \
        / res[(Measure.VAR, 0.90)].point_estimate
    ratio_high = res[(Measure.SRM, 80.0)].point_estimate \
        / res[(Measure.ES, 0.99)].point_estimate
    assert 0.5 <= ratio_low <= 1.5
    assert 0.5 <= ratio_high <= 1.5
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"[PASS] criterion 6: se ordering strict, srm5/var90 = {ratio_low:.3f}, "
          f"srm80/es99 = {ratio_high:.3f}, {elapsed:.2f}s")


def test_criterion_7_cli_end_to_end_reproduction(tmp_path, monkeypatch):
    """The default estimation run over five committed return files
    reproduces the committed golden outputs byte for byte, and those
    outputs satisfy the table contracts independently of the goldens."""
    monkeypatch.chdir(DATA_DIR / "inputs")
    out_dir = tmp_path / "out"
    code = main([
        "estimate",
        "--input", "c1.csv", "--input", "c2.csv", "--input", "c3.csv",
        "--input", "c4.csv", "--input", "c5.csv",
        "--return-col", "return", "--seed", "11",
        "--format", "csv", "--out", str(out_dir)])
    assert code == 0

    for name in ("summary.csv", "var.csv", "es.csv", "srm.csv", "run.kv"):
        produced = (out_dir / name).read_bytes()
        golden = (DATA_DIR / "golden" / name).read_bytes()
        assert produced == golden, f"{name} departed from its golden copy"

    meta = (out_dir / "run.kv").read_text()
    for line in ("seed = 11", "seed_source = flag", "resamples = 5000",
                 "failed_cells = 0", "labels = c1,c2,c3,c4,c5"):
        assert line in meta

    contracts = ["c1", "c2", "c3", "c4", "c5"]
    for name, scalar_rows in (("var.csv", 3), ("es.csv", 3), ("srm.csv", 5)):
        records = parse_csv((out_dir / name).read_text())
        sections = []
        for record in records:
            if record["section"] not in sections:
                sections.append(record["section"])
        assert [s[:3] for s in sections] == ["(a)", "(b)", "(c)", "(d)"]

        positions = [r["position"] for r in records if r["position"]]
        assert positions.index("Long position") < positions.index("Short position")

        by_section = {}
        for record in records:
            by_section.setdefault(record["section"], []).append(record)
        for section in sections[:3]:
            rows = {}
            for record in by_section[section]:
                rows.setdefault((record["position"], record["row"]), {})[
                    record["column"]] = record["value"]
            data_rows = {k: v for k, v in rows.items() if k[1] != "Overall mean"}
            assert len(data_rows) == 2 * scalar_rows  # both positions
            row_means = []
            for cells in data_rows.values():
                values = [cells[c] for c in contracts]
                assert cells["Mean"] == pytest.approx(
                    sum(values) / len(values), rel=1e-10)
                row_means.append(cells["Mean"])
            overall = rows[("", "Overall mean")]["Mean"]
            assert overall == pytest.approx(sum(row_means) / len(row_means), rel=1e-10)
        ci_records = by_section[sections[3]]
        assert all(isinstance(r["value"], tuple) for r in ci_records)
        assert all(r["column"] != "Mean" for r in ci_records)
    print("[PASS] criterion 7: golden outputs reproduced byte for byte")


GOLDEN_INPUTS = [f"c{i}.csv" for i in range(1, 6)]
GOLDEN_TABLES = ("summary.csv", "var.csv", "es.csv", "srm.csv")


def golden_args(inputs, out_dir, *extra):
    """The golden command of criterion 7 on the given inputs."""
    args = ["estimate"]
    for name in inputs:
        args += ["--input", str(name)]
    return args + ["--return-col", "return", "--seed", "11", "--format", "csv",
                   "--out", str(out_dir), *extra]


def contract_rows(directory, labels):
    """Each contract's lines of every table in directory, keyed on (table,
    label): the lines whose column field is that label, verbatim."""
    rows = {}
    for name in GOLDEN_TABLES:
        for line in (directory / name).read_text().splitlines()[1:]:
            label = next(csv.reader([line]))[4]
            if label in labels:
                rows.setdefault((name, label), []).append(line)
    return rows


@pytest.mark.parametrize("workers", ["1", "2", "4"])
def test_contract_rows_do_not_depend_on_the_other_inputs(tmp_path, monkeypatch, workers):
    """Streams are keyed on the series length, not on a contract's place
    among the inputs. So the golden command with its inputs reversed, or
    with a sixth input of another length (c1's first 300 returns), writes
    every golden contract's rows of every table as the golden files hold
    them, byte for byte, at any worker count."""
    monkeypatch.chdir(DATA_DIR / "inputs")
    sixth = tmp_path / "c6.csv"
    sixth.write_text("".join(Path("c1.csv").read_text().splitlines(keepends=True)[:301]))
    labels = [Path(name).stem for name in GOLDEN_INPUTS]
    golden = contract_rows(DATA_DIR / "golden", labels)
    assert len(golden) == len(GOLDEN_TABLES) * len(labels)
    for key, inputs in (("as_is", GOLDEN_INPUTS), ("reversed", GOLDEN_INPUTS[::-1]),
                        ("sixth", [*GOLDEN_INPUTS, sixth])):
        out_dir = tmp_path / key
        assert main(golden_args(inputs, out_dir, "--workers", workers)) == 0
        assert contract_rows(out_dir, labels) == golden, key


def test_golden_command_on_quoted_inputs_read_row_by_row(tmp_path, monkeypatch):
    """Copies of c1-c5 whose return cells are all quoted, under the same
    file names, are each read row by row, since the column-wise read
    leaves any file holding a quote to the per-row read. The golden
    command on them writes all five golden files byte for byte, run.kv
    included."""
    quoted = tmp_path / "quoted"
    quoted.mkdir()
    for name in GOLDEN_INPUTS:
        header, *lines = (DATA_DIR / "inputs" / name).read_text().splitlines()
        rows = [f'{day},"{value}"' for day, value in (line.split(",") for line in lines)]
        (quoted / name).write_text("\n".join([header, *rows]) + "\n")
    read_rows, calls = ingest._read_rows, []

    def spy(path, *args):
        calls.append(str(path))
        return read_rows(path, *args)

    monkeypatch.setattr(ingest, "_read_rows", spy)
    monkeypatch.chdir(quoted)
    assert main(golden_args(GOLDEN_INPUTS, tmp_path / "out")) == 0
    assert calls == GOLDEN_INPUTS
    for name in (*GOLDEN_TABLES, "run.kv"):
        assert (tmp_path / "out" / name).read_bytes() == (DATA_DIR / "golden" / name).read_bytes(), name


def dispatch_environments():
    """Two environments for a subprocess that runs riskboot from this
    tree: one with numpy's SIMD dispatch as the CPU allows it, and one with
    every dispatched group above the build's baseline switched off by
    numpy's own NPY_DISABLE_CPU_FEATURES, which stands in for an older CPU.
    On a CPU that lacks a group, switching it off changes nothing. A build
    that dispatches nothing above its baseline has nothing to switch off,
    so there the calling test is skipped. numpy reads the switch at
    import, so every run must be a subprocess."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    above = [group for group in umath.__cpu_dispatch__ if group not in umath.__cpu_baseline__]
    if not above:
        pytest.skip("this numpy build dispatches nothing above its baseline")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(src)
    return [env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(above)}]


def run_cli(args, cwd, env):
    """Run the command line in a subprocess, and check that it exits 0 and
    writes nothing to stderr: a warning there would not reach this
    process's warning filter."""
    code = "import sys; from riskboot.cli import main; sys.exit(main())"
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def test_golden_command_does_not_depend_on_cpu_dispatch(tmp_path):
    """numpy picks the SIMD code of some functions by the CPU at run time.
    With the dispatched groups switched off (dispatch_environments), the
    golden command writes the very bytes it writes without the switch, and
    so does a VaR and ES command on the same inputs, whose cells take the
    tail path and its np.exp."""
    environments = dispatch_environments()
    tail = ("--measure", "var,es", "--alpha", "0.9,0.95,0.99")
    for extra, tables in (((), GOLDEN_TABLES), (tail, GOLDEN_TABLES[:3])):
        outputs = []
        for env in environments:
            out_dir = tmp_path / f"out{len(outputs)}{len(extra)}"
            run_cli(golden_args(GOLDEN_INPUTS, out_dir, *extra), DATA_DIR / "inputs", env)
            outputs.append({name: (out_dir / name).read_bytes() for name in (*tables, "run.kv")})
        assert outputs[0] == outputs[1]


def test_golden_command_does_not_depend_on_blas_threads(tmp_path):
    """The command line asks numpy's OpenBLAS for one thread only when the
    caller has not set OPENBLAS_NUM_THREADS. riskboot calls no BLAS, so a
    caller's two threads leave the golden tables byte for byte as they
    are."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2")
    run_cli(golden_args(GOLDEN_INPUTS, tmp_path), DATA_DIR / "inputs", env)
    for name in (*GOLDEN_TABLES, "run.kv"):
        assert (tmp_path / name).read_bytes() == (DATA_DIR / "golden" / name).read_bytes(), name


def test_price_file_does_not_depend_on_cpu_dispatch(tmp_path):
    """A price file's returns are the platform libm's log of each ratio of
    consecutive prices. While they were numpy's dispatched log, switching
    the dispatched groups off moved some of these 400 prices' returns by
    an ulp, and with them the summary, VaR and ES tables of this command,
    whose cells take the tail path. Every table and run.kv keep their
    bytes."""
    steps = np.random.default_rng(7).standard_t(4, 399) * 0.01
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    start = date(2001, 1, 1).toordinal()
    (tmp_path / "p.csv").write_text("date,settle\n" + "".join(
        f"{date.fromordinal(start + i).isoformat()},{value!r}\n"
        for i, value in enumerate(prices.tolist())))
    outputs = []
    for env in dispatch_environments():
        out_dir = tmp_path / f"out{len(outputs)}"
        run_cli(["estimate", "--input", "p.csv", "--price-col", "settle", "--seed", "11",
                 "--measure", "var,es", "--alpha", "0.9,0.99", "--format", "csv",
                 "--out", str(out_dir)], tmp_path, env)
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in (*GOLDEN_TABLES[:3], "run.kv")})
    assert outputs[0] == outputs[1]


def test_summary_moments_do_not_depend_on_cpu_dispatch(tmp_path):
    """The summary's moments are means of products of the deviations,
    which every CPU rounds alike. These 400 Student-t(4) returns gave
    another Skewness with the dispatched groups switched off while the
    third and fourth moments were means of numpy powers of them."""
    returns = np.random.default_rng(19).standard_t(4, 400) * 0.01
    start = date(2001, 1, 1).toordinal()
    (tmp_path / "t4.csv").write_text("date,return\n" + "".join(
        f"{date.fromordinal(start + i).isoformat()},{value!r}\n"
        for i, value in enumerate(returns.tolist())))
    outputs = []
    for env in dispatch_environments():
        out_dir = tmp_path / f"out{len(outputs)}"
        run_cli(golden_args(["t4.csv"], out_dir, "--measure", "var", "--alpha", "0.9",
                            "--resamples", "100"), tmp_path, env)
        outputs.append((out_dir / "summary.csv").read_bytes())
    assert outputs[0] == outputs[1]
