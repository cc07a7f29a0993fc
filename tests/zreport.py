"""Put every VaR, ES and SRM cell of an estimate run next to its exact
bootstrap mean (B = infinity).

    python tests/zreport.py                       # the golden command's run
    python tests/zreport.py --inputs DIR --tables DIR

Each cell's point is the mean of B resample estimates, so it lies about
SE/sqrt(B) from the exact mean that exact_bootstrap gives, where SE is the
cell's own standard error. The script prints, per cell, the point, the
exact mean and z = (point - exact) / (SE/sqrt(B)); then max |z|, rms z and
the number of cells past |z| = 2, per measure and for all cells. The cells
of one run are correlated (across parameters, and across contracts through
common random numbers), so a few past 2 are expected; one past 4 is not.

The tables are the csv tables of `riskboot estimate --format csv` and the
run.kv written with them, which gives B, the quantile method and each
label's input file. Each input is the file that run.kv names for
its label, read from --inputs with its `return` column, as the golden
command reads it (see tests/test_acceptance.py); a run from prices is not
covered. A cell whose SE is zero gets no z. The exact means use numpy's
exp and log, whose last bits depend on the CPU's SIMD code, so the printed
digits are not byte-reproducible across hosts. Needs the standard library,
numpy and the riskboot package in src/; nothing on the estimate path
imports it.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from exact_bootstrap import exact_order_means
from report_records import parse_csv
from riskboot import (
    LossSample,
    Position,
    QuantileMethod,
    expected_shortfall,
    load_returns,
    spectral_weights,
    to_losses,
    value_at_risk,
)

DATA = ROOT / "tests" / "data"
POSITIONS = {"Long position": Position.LONG, "Short position": Position.SHORT}


def _exact(measure, row, means, method):
    """The exact bootstrap mean of the cell of measure and row label (say
    "95% VaR" or "ARA = 20"), from the exact means of a sample's order
    statistics."""
    if measure == "srm":
        return float(spectral_weights(means.size, float(row.split("=")[1])) @ means)
    alpha = float(row.split("%")[0]) / 100.0
    if measure == "var":
        return value_at_risk(LossSample(means), alpha, method)
    return expected_shortfall(LossSample(means), alpha)


def z_scores(inputs: Path, tables: Path) -> list:
    """(measure, position, row, label, point, exact, z) of every VaR, ES and
    SRM cell in the tables, z None where the SE is zero."""
    run = dict(line.split(" = ", 1) for line in
               (tables / "run.kv").read_text(encoding="utf-8").splitlines() if " = " in line)
    method = QuantileMethod(run["quantile_method"])
    resamples = int(run["resamples"])
    files = dict(zip(run["labels"].split(","), run["inputs"].split(",")))
    means = {}  # per (label, position), the exact means of its order statistics
    cells = []
    for measure in ("var", "es", "srm"):
        path = tables / f"{measure}.csv"
        if not path.exists():
            continue
        found = {}  # per cell, its point and SE
        for r in parse_csv(path.read_text(encoding="utf-8")):
            part = r["section"][:3]  # (a) holds the points, (b) the standard errors
            if r["position"] in POSITIONS and r["column"] != "Mean" and part in ("(a)", "(b)"):
                found.setdefault((r["position"], r["row"], r["column"]), {})[part] = r["value"]
        for (position, row, label), values in found.items():
            key = (label, POSITIONS[position])
            if key not in means:
                series = load_returns(inputs / files[label], return_col="return", label=label)
                means[key] = exact_order_means(to_losses(series, key[1]).values)
            point, se = values["(a)"], values["(b)"]
            exact = _exact(measure, row, means[key], method)
            z = (point - exact) / (se / math.sqrt(resamples)) if se > 0.0 else None
            cells.append((measure, position, row, label, point, exact, z))
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", type=Path, default=DATA / "inputs",
                        help="directory of the input files (default: tests/data/inputs)")
    parser.add_argument("--tables", type=Path, default=DATA / "golden",
                        help="directory of the csv tables and run.kv (default: tests/data/golden)")
    args = parser.parse_args(argv)
    cells = z_scores(args.inputs, args.tables)

    print(f"{'measure':<8}{'position':<16}{'row':<10}{'label':<8}"
          f"{'point':>14}{'exact':>14}{'z':>8}")
    for measure, position, row, label, point, exact, z in cells:
        shown = "-" if z is None else f"{z:.2f}"
        print(f"{measure:<8}{position:<16}{row:<10}{label:<8}{point:>14.6g}{exact:>14.6g}{shown:>8}")

    print(f"\n{'measure':<8}{'cells':>6}{'max |z|':>9}{'rms z':>7}{'|z|>2':>7}")
    for measure in ("var", "es", "srm", "all"):
        z = np.array([c[6] for c in cells if measure in ("all", c[0]) and c[6] is not None])
        if z.size:
            print(f"{measure:<8}{z.size:>6}{np.abs(z).max():>9.2f}"
                  f"{math.sqrt(np.mean(z ** 2)):>7.2f}{np.count_nonzero(np.abs(z) > 2.0):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
