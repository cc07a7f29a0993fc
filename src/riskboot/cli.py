"""Command line interface.

Three subcommands:

  estimate   load return or price files, bootstrap the requested measures
             and write the report tables
  synth      write a synthetic return file in the ingest CSV schema
  validate   check the estimators against their closed-form and quadrature
             oracles and report pass/fail per check

Exit codes: 0 success, 1 estimation or validation failure, 2 bad input or
configuration. Every source of randomness flows from one master seed, which
may come from --seed, from the RISKBOOT_SEED environment variable or from
the command's default; the seed and where it came from are always echoed in
the run metadata.

riskboot calls no BLAS, so importing this module asks numpy's bundled
OpenBLAS for one thread (OPENBLAS_NUM_THREADS=1) unless the caller has set
the variable or numpy is already loaded. `import riskboot` alone loads no
numpy and sets nothing.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import __version__

# riskboot calls no BLAS routine: its sums run in numpy's own loops, whose
# order does not depend on the host. numpy's bundled OpenBLAS still starts
# a worker thread when numpy loads, which burns CPU through the rest of
# numpy's import. The cap belongs to the program, not to the library, so
# it is set here, before the submodules below load numpy, and only when
# the caller has not set it; `import riskboot` leaves the environment alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bootstrap import BootstrapConfig, EstimatorSpec, Measure, _check_seed, _check_workers, run_grid
from .ingest import (
    IngestError,
    _date_regex,
    drop_zero_returns,
    load_prices,
    load_returns,
    log_returns,
    summary_stats,
)
from .measures import (
    Position,
    QuantileMethod,
    expected_shortfall,
    spectral_risk_measure,
    spectral_weights,
    to_losses,
    value_at_risk,
)
from .report import (
    build_measure_table,
    build_summary_table,
    figure_csv,
    to_csv,
    to_kv,
    to_text,
    _check_labels,
)

SEED_ENV_VAR = "RISKBOOT_SEED"

_UNKNOWN_MEASURE = "unknown measure {!r}, expected var, es or srm"


class ConfigError(ValueError):
    """Bad command configuration; carries every problem, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _resolve_seed(flag_value, default, problems):
    """Seed precedence: explicit flag, then environment, then default.

    Returns (seed, source); a seed out of range is collected under the name
    of the place it came from.
    """
    if flag_value is not None:
        _check_with("--seed", _check_seed, flag_value, problems)
        return flag_value, "flag"
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default, "default"
    try:
        seed = int(raw)
    except ValueError:
        problems.append(f"cannot parse {SEED_ENV_VAR}={raw!r} as an integer seed")
        return default, "env"
    _check_with(SEED_ENV_VAR, _check_seed, seed, problems)
    return seed, "env"


def _parse_list(text, flag, parse, unparseable, problems):
    """The values of a comma list flag, in the order given. parse turns one
    stripped token into its value or raises ValueError, and then the
    problem is unparseable formatted with the token."""
    values = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            value = parse(token)
        except ValueError:
            problems.append(f"{flag}: {unparseable.format(token)}")
            continue
        if value in values:
            problems.append(f"{flag}: duplicate value {token!r}")
        else:
            values.append(value)
    if not values:
        problems.append(f"{flag}: no usable values in {text!r}")
    return values


def _check_with(flag, check, value, problems):
    """Run a library validator on one flag value and collect its message."""
    try:
        check(value)
    except ValueError as exc:
        problems.append(f"{flag}: {exc}")


def _nearest_existing(path: Path) -> Path:
    """path itself, or the closest of its ancestors that exists."""
    return next(p for p in (path, *path.parents) if p.exists())


def _formats() -> dict:
    """Each --format value with its table file extension and its renderer.
    Built when called, so the renderers are looked up in this module's
    namespace at run time."""
    return {"text": ("txt", to_text), "csv": ("csv", to_csv), "kv": ("kv", to_kv)}


def _out_paths(args, measures) -> list:
    """The files estimate writes under --out, in the order it writes them:
    the summary table, one table per measure, figure1.csv with --figure1,
    and run.kv."""
    out_dir = Path(args.out)
    extension = _formats()[args.format][0]
    names = [f"{table}.{extension}" for table in ["summary", *(m.value for m in measures)]]
    if args.figure1:
        names.append("figure1.csv")
    return [out_dir / name for name in [*names, "run.kv"]]


def _fmt_num(x) -> str:
    return f"{x:g}"


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------

def _estimate_config(args):
    problems = []

    if not args.input:
        problems.append("at least one --input file is required")
    for path in args.input or ():
        if not os.path.isfile(path):
            problems.append(f"--input {path}: file not found")

    labels = list(args.label or ())
    if "" in labels:  # the loader would name that contract after its file instead
        problems.append("--label: a contract label may not be empty")
    if labels and len(labels) != len(args.input or ()):
        problems.append(
            f"got {len(labels)} --label values for {len(args.input or ())} --input files")
    if not labels:
        labels = [Path(p).stem for p in (args.input or ())]
    _check_with("--label" if args.label else "--input", _check_labels, labels, problems)

    if bool(args.price_col) == bool(args.return_col):
        problems.append("exactly one of --price-col and --return-col is required")
    _check_with("--date-format", _date_regex, args.date_format, problems)

    measures = _parse_list(args.measure.lower(), "--measure", Measure, _UNKNOWN_MEASURE, problems)

    # the library owns every range check; the CLI only names the flag
    alphas = _parse_list(args.alpha, "--alpha", float, "cannot parse {!r} as a number", problems)
    for a in alphas:
        _check_with("--alpha", lambda a: EstimatorSpec(Measure.VAR, a), a, problems)
    aras = _parse_list(args.ara, "--ara", float, "cannot parse {!r} as a number", problems)
    for k in aras:
        _check_with("--ara", lambda k: EstimatorSpec(Measure.SRM, k), k, problems)
    _check_with("--resamples", lambda b: BootstrapConfig(resamples=b), args.resamples, problems)
    _check_with("--ci-coverage", lambda c: BootstrapConfig(ci_coverage=c), args.ci_coverage,
                problems)
    _check_with("--workers", _check_workers, args.workers, problems)

    if args.out:
        found = _nearest_existing(Path(args.out))
        if not found.is_dir():
            problems.append(f"--out {args.out}: {found} is not a directory")
        for path in _out_paths(args, measures):
            if path.is_dir():
                problems.append(f"--out {args.out}: {path} is a directory")

    seed, seed_source = _resolve_seed(args.seed, 0, problems)

    if problems:
        raise ConfigError(problems)

    config = BootstrapConfig(resamples=args.resamples, master_seed=seed,
                             quantile_method=QuantileMethod(args.quantile_method),
                             ci_coverage=args.ci_coverage)
    positions = list(Position) if args.position == "both" else [Position(args.position)]
    return labels, measures, alphas, aras, positions, config, seed_source


def _load_series(args, labels):
    """Load every input and summarize it. Returns the series and their
    (label, SummaryStats) pairs; a file that parses but leaves no usable
    series (too short, constant, all zero) is an input error for that file."""
    series, stats_pairs = [], []
    for path, label in zip(args.input, labels):
        if args.price_col:
            one = load_prices(path, date_col=args.date_col, price_col=args.price_col,
                              date_format=args.date_format, label=label)
        else:
            one = load_returns(path, date_col=args.date_col, return_col=args.return_col,
                               date_format=args.date_format, label=label)
        try:
            if args.price_col:
                one = log_returns(one)
            if args.drop_zero_returns:
                one = drop_zero_returns(one)
            stats_pairs.append((one.label, summary_stats(one)))
        except ValueError as exc:
            raise IngestError(path, [str(exc)]) from None
        series.append(one)
    return series, stats_pairs


def _cmd_estimate(args) -> int:
    labels, measures, alphas, aras, positions, config, seed_source = _estimate_config(args)
    series, stats_pairs = _load_series(args, labels)
    samples = [to_losses(s, position) for s in series for position in positions]

    grid_params = {m: aras if m is Measure.SRM else alphas for m in measures}
    print(f"[config] seed={config.master_seed} seed_source={seed_source} "
          f"resamples={config.resamples} workers={args.workers} "
          f"cells={len(samples) * sum(len(v) for v in grid_params.values())}")
    grid = run_grid(samples, grid_params, config, workers=args.workers)
    for cell in grid.failed:
        print(f"[warn] cell failed: {cell.sample_label} {cell.position.value} "
              f"{cell.measure.value}({_fmt_num(cell.parameter)}): {cell.error}",
              file=sys.stderr)

    render = _formats()[args.format][1]
    tables = [build_summary_table(stats_pairs), *(build_measure_table(grid, m) for m in measures)]
    outputs = [render(table) for table in tables]
    if args.figure1:
        outputs.append(figure_csv(aras))
    metadata = [
        "command = estimate",
        f"version = {__version__}",
        f"seed = {config.master_seed}",
        f"seed_source = {seed_source}",
        f"resamples = {config.resamples}",
        f"ci_coverage = {_fmt_num(config.ci_coverage)}",
        f"quantile_method = {config.quantile_method.value}",
        f"measures = {','.join(m.value for m in measures)}",
        f"alphas = {','.join(_fmt_num(a) for a in alphas)}",
        f"aras = {','.join(_fmt_num(k) for k in aras)}",
        f"positions = {','.join(p.value for p in positions)}",
        f"workers = {args.workers}",
        f"format = {args.format}",
        f"inputs = {','.join(args.input)}",
        f"labels = {','.join(labels)}",
        f"failed_cells = {len(grid.failed)}",
    ]

    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        texts = [*outputs, "\n".join(metadata) + "\n"]
        for path, text in zip(_out_paths(args, measures), texts, strict=True):
            path.write_text(text, encoding="utf-8")
            print(f"[write] {path}")
    else:
        for line in metadata:
            print(f"[meta] {line}")
        for text in outputs:
            print()
            print(text, end="")

    if grid.failed:
        print(f"RESULT failed_cells={len(grid.failed)}")
        return 1
    print("RESULT ok")
    return 0


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------

def _synth_family(args, problems):
    from .synthetic import Normal, SkewedMix, StudentT

    try:
        if args.dist == "normal":
            return Normal(mu=args.mu, sigma=args.sigma)
        if args.dist == "t":
            if args.dof is None:
                problems.append("--dist t requires --dof")
                return None
            return StudentT(dof=args.dof, scale=args.scale)
        return SkewedMix(mu=args.mu, sigma=args.sigma, weight=args.weight,
                         shift=args.shift, widen=args.widen)
    except ValueError as exc:
        problems.append(str(exc))
        return None


def _cmd_synth(args) -> int:
    from .synthetic import SyntheticSpec, _check_n, generate

    problems = []
    _check_with("--n", _check_n, args.n, problems)
    seed, seed_source = _resolve_seed(args.seed, 0, problems)
    family = _synth_family(args, problems)
    out = Path(args.out)
    found = _nearest_existing(out.parent)
    if out.is_dir():
        problems.append(f"--out {args.out}: is a directory")
    elif not found.is_dir():
        problems.append(f"--out {args.out}: {found} is not a directory")
    if problems:
        raise ConfigError(problems)

    spec = SyntheticSpec(family=family, n=args.n, seed=seed, label=args.label)
    series = generate(spec)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "return"])
        writer.writerows(zip(series.dates.astype(str), map(repr, series.returns.tolist())))
    print(f"[config] dist={series.label} n={args.n} seed={seed} seed_source={seed_source}")
    print(f"[write] {out}")
    print("RESULT ok")
    return 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def _cmd_validate(args) -> int:
    from .synthetic import (
        Normal,
        SyntheticSpec,
        generate,
        normal_es_oracle,
        normal_quantile,
        normal_var_oracle,
        srm_quadrature_oracle,
    )

    problems = []
    if args.n < 100:
        problems.append(f"--n must be at least 100 for the oracle checks, got {args.n}")
    seed, seed_source = _resolve_seed(args.seed, 7, problems)
    measures = _parse_list(args.measure.lower(), "--measure", Measure, _UNKNOWN_MEASURE, problems)
    if problems:
        raise ConfigError(problems)

    method = QuantileMethod(args.quantile_method)
    print(f"[config] n={args.n} seed={seed} seed_source={seed_source} "
          f"measures={','.join(sorted(m.value for m in measures))}")
    series = generate(SyntheticSpec(family=Normal(0.0, 1.0), n=args.n, seed=seed))
    losses = to_losses(series, Position.LONG)

    checks = []  # (name, observed, reference, tolerance)
    if Measure.VAR in measures:
        checks.append(("var_0.99_vs_normal_oracle",
                       value_at_risk(losses, 0.99, method),
                       normal_var_oracle(0.99), 0.01))
    if Measure.ES in measures:
        checks.append(("es_0.99_vs_normal_oracle",
                       expected_shortfall(losses, 0.99),
                       normal_es_oracle(0.99), 0.015))
    if Measure.SRM in measures:
        for k in (5.0, 20.0, 80.0):
            checks.append((f"srm_k{k:g}_vs_quadrature_oracle",
                           spectral_risk_measure(losses, k),
                           srm_quadrature_oracle(normal_quantile, k),
                           0.01))
        checks.append(("weights_total_mass", float(spectral_weights(losses.n, 20.0).sum()),
                       1.0, 1e-12))

    failures = 0
    for name, observed, reference, tolerance in checks:
        rel = abs(observed - reference) / abs(reference)
        status = "PASS" if rel <= tolerance else "FAIL"
        failures += status == "FAIL"
        print(f"[{status}] {name} observed={observed!r} reference={reference!r} "
              f"rel_err={rel:.3e} tol={tolerance:.3e}")

    if failures:
        print(f"RESULT failed_checks={failures}")
        return 1
    print("RESULT ok")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskboot",
        description="Non-parametric VaR, expected shortfall and spectral risk "
                    "measures with bootstrap precision diagnostics.")
    parser.add_argument("--version", action="version", version=f"riskboot {__version__}")
    sub = parser.add_subparsers(dest="command")
    methods = [m.value for m in QuantileMethod]

    est = sub.add_parser("estimate", help="estimate measures from return or price files")
    est.add_argument("--input", action="append", metavar="FILE",
                     help="input CSV; repeat for several contracts")
    est.add_argument("--label", action="append", metavar="NAME",
                     help="non-empty contract label per --input; defaults to the file stem")
    est.add_argument("--date-col", default="date")
    est.add_argument("--price-col", default=None,
                     help="settlement price column; log returns are computed")
    est.add_argument("--return-col", default=None,
                     help="pre-computed return column; used as-is")
    est.add_argument("--date-format", default="%Y-%m-%d")
    est.add_argument("--position", choices=(*(p.value for p in Position), "both"),
                     default="both")
    est.add_argument("--measure", default="var,es,srm",
                     help="comma list from var, es, srm (default: all)")
    est.add_argument("--alpha", default="0.90,0.95,0.99",
                     help="comma list of confidence levels for var and es")
    est.add_argument("--ara", default="5,10,20,40,80",
                     help="comma list of risk-aversion coefficients for srm")
    est.add_argument("--resamples", type=int, default=5000)
    est.add_argument("--ci-coverage", type=float, default=0.90)
    est.add_argument("--seed", type=int, default=None,
                     help=f"master seed; falls back to ${SEED_ENV_VAR}, then 0")
    est.add_argument("--quantile-method", choices=methods, default="order")
    est.add_argument("--workers", type=int, default=1)
    est.add_argument("--format", choices=tuple(_formats()), default="text")
    est.add_argument("--out", default=None, metavar="DIR",
                     help="write one file per table here instead of stdout")
    est.add_argument("--figure1", action="store_true",
                     help="also emit the weight-curve data over p in [0.8, 1]")
    est.add_argument("--drop-zero-returns", action="store_true",
                     help="drop returns that are exactly zero, e.g. holiday padding")

    syn = sub.add_parser("synth", help="write a synthetic return file")
    syn.add_argument("--dist", choices=("normal", "t", "skewmix"), required=True)
    syn.add_argument("--mu", type=float, default=0.0)
    syn.add_argument("--sigma", type=float, default=1.0)
    syn.add_argument("--dof", type=float, default=None, help="degrees of freedom for --dist t")
    syn.add_argument("--scale", type=float, default=1.0, help="scale for --dist t")
    syn.add_argument("--weight", type=float, default=0.1, help="contamination weight for skewmix")
    syn.add_argument("--shift", type=float, default=-3.0, help="contaminant shift in sigmas")
    syn.add_argument("--widen", type=float, default=3.0, help="contaminant sigma multiplier")
    syn.add_argument("--n", type=int, required=True)
    syn.add_argument("--seed", type=int, default=None)
    syn.add_argument("--label", default="")
    syn.add_argument("--out", required=True, metavar="FILE")

    val = sub.add_parser("validate", help="check estimators against their oracles")
    val.add_argument("--n", type=int, default=500_000)
    val.add_argument("--seed", type=int, default=None)
    val.add_argument("--measure", default="var,es,srm")
    val.add_argument("--quantile-method", choices=methods, default="order")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except IngestError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
