"""Report tables and machine-readable serializations.

A ReportTable is a small tree: sections, each holding one row group per
position, each row holding one cell per contract plus a row mean. Measure
tables carry four sections, in order: point estimates, standard errors,
coefficients of variation and standardized confidence intervals; the long
position group always precedes the short one. Sections with scalar cells
also carry an overall mean, the mean of their row means.

Three output formats are provided. The text format is for reading: four
decimals for estimates and standard errors, two for coefficients of
variation, bracketed pairs for intervals. The CSV and key-value formats are
for machines: cells are written with repr(), so parsing them back
reproduces every value bit-exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .bootstrap import Measure, ResultGrid
from .measures import ExponentialWeighting, Position

# reserved column name for row means; contract labels must not collide
MEAN_COLUMN = "Mean"
OVERALL_ROW = "Overall mean"

_POSITION_HEADING = {Position.LONG: "Long position", Position.SHORT: "Short position"}


@dataclass(frozen=True)
class Row:
    label: str
    cells: tuple  # one entry per contract: float, int, (lo, hi) pair or None
    mean: float | None


@dataclass(frozen=True)
class RowGroup:
    position: str  # "Long position", "Short position" or "" for unpositioned tables
    rows: tuple[Row, ...]


@dataclass(frozen=True)
class Section:
    label: str
    kind: str  # "estimate" | "stderr" | "cv" | "ci" | "summary"
    groups: tuple[RowGroup, ...]
    overall_mean: float | None


@dataclass(frozen=True)
class ReportTable:
    name: str  # short machine name: "summary", "var", "es", "srm"
    title: str
    contracts: tuple[str, ...]
    sections: tuple[Section, ...]
    notes: tuple[str, ...] = ()


def _check_labels(labels):
    """Contract labels name table columns: unique, never MEAN_COLUMN, and
    free of the characters that delimit to_kv's keys and contract list."""
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate contract labels: {labels}")
    if MEAN_COLUMN in labels:
        raise ValueError(f"contract label {MEAN_COLUMN!r} is reserved for row means")
    for label in labels:
        if any(c in label for c in "|,\r\n"):
            raise ValueError(f"contract label {label!r} may not contain '|', ',', '\\r' or '\\n'")


def _mean_or_none(values):
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(sum(present) / len(present))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def build_summary_table(stats_by_contract) -> ReportTable:
    """Summary statistics table from ordered (label, SummaryStats) pairs.

    Rows appear in the fixed order Mean, Std Dev, Skewness, Kurtosis, n,
    Minimum, Maximum. A missing kurtosis (fewer than 4 observations) leaves
    a blank cell.
    """
    pairs = list(stats_by_contract)
    if not pairs:
        raise ValueError("no summary statistics to tabulate")
    contracts = tuple(label for label, _ in pairs)
    _check_labels(contracts)
    stats = [s for _, s in pairs]
    rows = [
        Row("Mean", tuple(s.mean for s in stats), None),
        Row("Std Dev", tuple(s.std_dev for s in stats), None),
        Row("Skewness", tuple(s.skewness for s in stats), None),
        Row("Kurtosis", tuple(s.kurtosis for s in stats), None),
        Row("n", tuple(int(s.n) for s in stats), None),
        Row("Minimum", tuple(s.minimum for s in stats), None),
        Row("Maximum", tuple(s.maximum for s in stats), None),
    ]
    section = Section(label="", kind="summary",
                      groups=(RowGroup(position="", rows=tuple(rows)),),
                      overall_mean=None)
    return ReportTable(
        name="summary",
        title="Summary statistics for daily returns",
        contracts=contracts,
        sections=(section,),
        notes=())


_MEASURE_TITLE = {
    Measure.VAR: "VaR and precision of VaR estimates",
    Measure.ES: "ES and precision of ES estimates",
    Measure.SRM: "Exponential spectral risk measures and their precision",
}

_MEASURE_SHORT = {Measure.VAR: "VaR", Measure.ES: "ES", Measure.SRM: "Spectral measure"}


def _row_label(measure: Measure, parameter: float) -> str:
    if measure is Measure.SRM:
        return f"ARA = {parameter:g}"
    return f"{parameter * 100:g}% {_MEASURE_SHORT[measure]}"


def build_measure_table(grid: ResultGrid, measure: Measure, parameters,
                        ci_coverage: float = 0.90) -> ReportTable:
    """Four-section precision table for one measure from a bootstrap grid.

    Contracts become columns in first-seen order; positions become row
    groups with long before short; each parameter becomes one row per
    group. Failed grid cells render blank and add a note.
    """
    cells = [c for c in grid.cells if c.measure is measure]
    if not cells:
        raise ValueError(f"grid holds no cells for measure {measure.value!r}")
    by_sample = {c.sample_index: c for c in cells}  # one cell stands for its sample
    samples = [by_sample[i] for i in sorted(by_sample)]
    positions = [p for p in (Position.LONG, Position.SHORT)
                 if any(c.position is p for c in cells)]
    for position in positions:  # a contract has one sample per position
        _check_labels([c.sample_label for c in samples if c.position is position])
    contracts = list(dict.fromkeys(c.sample_label for c in samples))
    lookup = {(c.sample_label, c.position, c.parameter): c for c in cells}
    notes = []

    def value_of(cell, kind):
        if cell is None or cell.result is None:
            return None
        r = cell.result
        if kind == "estimate":
            return r.point_estimate
        if kind == "stderr":
            return r.std_error
        if kind == "cv":
            return r.coeff_variation
        return r.ci_standardized

    def make_section(label, kind):
        groups = []
        for position in positions:
            rows = []
            for parameter in parameters:
                row_cells = []
                for contract in contracts:
                    cell = lookup.get((contract, position, float(parameter)))
                    if cell is not None and cell.error is not None and kind == "estimate":
                        notes.append(
                            f"{contract}, {_POSITION_HEADING[position]}, "
                            f"{_row_label(measure, parameter)}: {cell.error}")
                    row_cells.append(value_of(cell, kind))
                mean = _mean_or_none(row_cells) if kind != "ci" else None
                rows.append(Row(_row_label(measure, float(parameter)),
                                tuple(row_cells), mean))
            groups.append(RowGroup(position=_POSITION_HEADING[position], rows=tuple(rows)))
        overall = None
        if kind != "ci":
            overall = _mean_or_none([row.mean for g in groups for row in g.rows])
        return Section(label=label, kind=kind, groups=tuple(groups), overall_mean=overall)

    short = _MEASURE_SHORT[measure]
    sections = (
        make_section(f"(a) {short} estimates", "estimate"),
        make_section("(b) Standard errors", "stderr"),
        make_section("(c) Coefficients of variation", "cv"),
        make_section(f"(d) {ci_coverage * 100:g}% confidence intervals", "ci"),
    )
    return ReportTable(
        name=measure.value,
        title=_MEASURE_TITLE[measure],
        contracts=tuple(contracts),
        sections=sections,
        notes=tuple(notes))


# ----------------------------------------------------------------------
# weight curves (plot-ready data, no chart rendering here)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightCurve:
    k: float
    p: np.ndarray
    density: np.ndarray


def weight_curves(ks, points: int = 201, lo: float = 0.8, hi: float = 1.0):
    """Sample the exponential weight density over [lo, hi] for each k.

    The default window is the top quintile of quantile levels, where the
    curves separate visibly. Returns one WeightCurve per k, in input order.
    """
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"need 0 <= lo < hi <= 1, got lo={lo!r} hi={hi!r}")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    p = np.linspace(lo, hi, points)
    return [WeightCurve(k=float(k), p=p, density=ExponentialWeighting(k).density(p))
            for k in ks]


def figure_csv(curves) -> str:
    """Weight curves as plot-ready CSV with columns p, phi, k."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["p", "phi", "k"])
    for curve in curves:
        for p, phi in zip(curve.p, curve.density):
            writer.writerow([repr(float(p)), repr(float(phi)), repr(float(curve.k))])
    return out.getvalue()


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------

def _format_cell(value, kind) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, tuple):
        return f"[{value[0]:.4f}, {value[1]:.4f}]"
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if kind == "cv":
        return f"{value:.2f}"
    return f"{value:.4f}"


def to_text(table: ReportTable) -> str:
    """Human-readable rendering with aligned columns."""
    has_means = any(
        section.overall_mean is not None
        or any(row.mean is not None for g in section.groups for row in g.rows)
        for section in table.sections)
    headers = list(table.contracts) + ([MEAN_COLUMN] if has_means else [])
    lines = [table.title, "=" * len(table.title)]
    label_width = 2 + max(
        [len(OVERALL_ROW)]
        + [len(row.label) for s in table.sections for g in s.groups for row in g.rows])

    for section in table.sections:
        body = []
        widths = [len(h) for h in headers]
        for group in section.groups:
            if group.position:
                body.append((group.position, None))
            for row in group.rows:
                rendered = [_format_cell(c, section.kind) for c in row.cells]
                if has_means:
                    rendered.append("" if row.mean is None
                                    else _format_cell(row.mean, section.kind))
                body.append(("  " + row.label, rendered))
                widths = [max(w, len(r)) for w, r in zip(widths, rendered)]
        if section.overall_mean is not None:
            rendered = [""] * len(table.contracts) + [_format_cell(section.overall_mean, section.kind)]
            body.append(("  " + OVERALL_ROW, rendered))
            widths = [max(w, len(r)) for w, r in zip(widths, rendered)]

        lines.append("")
        if section.label:
            lines.append(section.label)
        lines.append(" " * label_width + "  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        for label, rendered in body:
            if rendered is None:
                lines.append(label)
            else:
                lines.append(label.ljust(label_width)
                             + "  ".join(r.rjust(w) for r, w in zip(rendered, widths)))

    for note in table.notes:
        lines.append("")
        lines.append(f"Note: {note}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# machine formats: every cell round-trips bit-exactly through repr()
# ----------------------------------------------------------------------

def _machine_value(value) -> tuple[str, str]:
    if value is None:
        return "", ""
    if isinstance(value, tuple):
        return repr(float(value[0])), repr(float(value[1]))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value)), ""
    return repr(float(value)), ""


def _iter_cells(table: ReportTable):
    """Yield (section, position, row, column, value) for every cell,
    row means and overall means included, in rendering order."""
    for section in table.sections:
        for group in section.groups:
            for row in group.rows:
                for contract, cell in zip(table.contracts, row.cells):
                    yield section.label, group.position, row.label, contract, cell
                if row.mean is not None:
                    yield section.label, group.position, row.label, MEAN_COLUMN, row.mean
        if section.overall_mean is not None:
            yield section.label, "", OVERALL_ROW, MEAN_COLUMN, section.overall_mean


def to_csv(table: ReportTable) -> str:
    """Long-format CSV: one line per cell, repr()-encoded values."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["table", "section", "position", "row", "column", "value", "value2"])
    for section, position, row, column, value in _iter_cells(table):
        v1, v2 = _machine_value(value)
        writer.writerow([table.name, section, position, row, column, v1, v2])
    return out.getvalue()


def to_kv(table: ReportTable) -> str:
    """Flat key-value rendering: '<section>|<position>|<row>|<column> = <repr>'.

    Labels must not contain '|' or newlines; CI pairs are two
    space-separated numbers.
    """
    lines = [f"table = {table.name}",
             f"title = {table.title}",
             f"contracts = {','.join(table.contracts)}"]
    for note in table.notes:
        lines.append(f"note = {note}")
    for section, position, row, column, value in _iter_cells(table):
        v1, v2 = _machine_value(value)
        if v1 == "":
            continue  # blank cells are simply absent in this format
        rendered = f"{v1} {v2}" if v2 else v1
        lines.append(f"{section}|{position}|{row}|{column} = {rendered}")
    return "\n".join(lines) + "\n"
