"""Report tables: builders, text rendering and machine round trips."""

import numpy as np
import pytest

from riskboot import (
    MEAN_COLUMN,
    OVERALL_ROW,
    BootstrapConfig,
    LossSample,
    Measure,
    Position,
    ReportTable,
    Row,
    RowGroup,
    Section,
    SummaryStats,
    build_measure_table,
    build_summary_table,
    figure_csv,
    run_grid,
    to_csv,
    to_kv,
    to_text,
    weight_curves,
)

from report_records import parse_csv, parse_kv

# phi(1) for k = 5, i.e. k / (1 - e^-k)
_PHI_AT_ONE_K5 = 5.033918274531521


def make_stats(n=250, seed=0):
    values = np.random.default_rng(seed).normal(0.0, 0.01, n)
    return SummaryStats(
        n=n, mean=float(values.mean()), std_dev=float(values.std(ddof=1)),
        skewness=0.1, kurtosis=3.5,
        minimum=float(values.min()), maximum=float(values.max()))


@pytest.fixture(scope="module")
def grid():
    rng = np.random.default_rng(31)
    samples = []
    for label in ("A", "B"):
        values = rng.standard_t(4, 200)
        for position in (Position.LONG, Position.SHORT):
            sign = -1.0 if position is Position.LONG else 1.0
            samples.append(LossSample(sign * values, position=position, label=label))
    params = {Measure.VAR: [0.9, 0.99], Measure.ES: [0.95], Measure.SRM: [5.0, 20.0]}
    return run_grid(samples, params, BootstrapConfig(resamples=80, master_seed=13))


def walk_cells(table):
    """Flatten a table to {(section, position, row, column): value}, the
    coordinate system both machine formats use."""
    out = {}
    for section in table.sections:
        for group in section.groups:
            for row in group.rows:
                for contract, cell in zip(table.contracts, row.cells):
                    out[(section.label, group.position, row.label, contract)] = cell
                if row.mean is not None:
                    out[(section.label, group.position, row.label, MEAN_COLUMN)] = row.mean
        if section.overall_mean is not None:
            out[(section.label, "", OVERALL_ROW, MEAN_COLUMN)] = section.overall_mean
    return out


class TestSummaryTable:
    def test_structure(self):
        table = build_summary_table([("C1", make_stats(seed=1)), ("C2", make_stats(seed=2))])
        assert table.name == "summary"
        assert table.contracts == ("C1", "C2")
        assert len(table.sections) == 1
        section = table.sections[0]
        assert section.kind == "summary"
        assert section.overall_mean is None
        (group,) = section.groups
        assert group.position == ""
        assert [r.label for r in group.rows] == [
            "Mean", "Std Dev", "Skewness", "Kurtosis", "n", "Minimum", "Maximum"]
        assert all(r.mean is None for r in group.rows)
        n_row = group.rows[4]
        assert n_row.cells == (250, 250)
        assert all(isinstance(c, int) for c in n_row.cells)

    def test_missing_kurtosis_leaves_a_blank_cell(self):
        stats = SummaryStats(n=3, mean=0.0, std_dev=1.0, skewness=0.0,
                             kurtosis=None, minimum=-1.0, maximum=1.0)
        table = build_summary_table([("C1", stats)])
        assert table.sections[0].groups[0].rows[3].cells == (None,)

    def test_label_validation(self):
        stats = make_stats()
        with pytest.raises(ValueError, match="duplicate"):
            build_summary_table([("C1", stats), ("C1", stats)])
        with pytest.raises(ValueError, match="reserved"):
            build_summary_table([(MEAN_COLUMN, stats)])
        for label in ("a|b", "c,d", "e\rf", "g\nh"):
            with pytest.raises(ValueError, match="may not contain"):
                build_summary_table([(label, stats)])
        with pytest.raises(ValueError, match="no summary statistics"):
            build_summary_table([])


class TestMeasureTable:
    def test_section_labels_and_order(self, grid):
        table = build_measure_table(grid, Measure.VAR, [0.9, 0.99])
        assert table.name == "var"
        assert [s.label for s in table.sections] == [
            "(a) VaR estimates",
            "(b) Standard errors",
            "(c) Coefficients of variation",
            "(d) 90% confidence intervals",
        ]
        assert [s.kind for s in table.sections] == ["estimate", "stderr", "cv", "ci"]
        assert build_measure_table(grid, Measure.ES, [0.95]).sections[0].label \
            == "(a) ES estimates"
        assert build_measure_table(grid, Measure.SRM, [5.0, 20.0]).sections[0].label \
            == "(a) Spectral measure estimates"

    def test_label_validation(self):
        """Two samples of one contract and position would share a cell, and
        a contract named Mean would shadow the row-mean column; '|' and ','
        delimit the kv format's keys and contract list."""
        values = np.random.default_rng(5).standard_t(4, 100)
        config = BootstrapConfig(resamples=20, master_seed=1)
        for labels, match in ((("A", "A"), "duplicate"), ((MEAN_COLUMN,), "reserved"),
                              (("a|b", "c,d"), "may not contain")):
            samples = [LossSample(values, label=label) for label in labels]
            grid = run_grid(samples, {Measure.ES: [0.95]}, config)
            with pytest.raises(ValueError, match=match):
                build_measure_table(grid, Measure.ES, [0.95])

    def test_ci_coverage_names_the_interval_section(self, grid):
        table = build_measure_table(grid, Measure.VAR, [0.9, 0.99], ci_coverage=0.95)
        assert table.sections[3].label == "(d) 95% confidence intervals"

    def test_long_group_precedes_short(self, grid):
        table = build_measure_table(grid, Measure.ES, [0.95])
        for section in table.sections:
            assert [g.position for g in section.groups] == ["Long position", "Short position"]

    def test_row_labels(self, grid):
        var_rows = build_measure_table(grid, Measure.VAR, [0.9, 0.99]) \
            .sections[0].groups[0].rows
        assert [r.label for r in var_rows] == ["90% VaR", "99% VaR"]
        srm_rows = build_measure_table(grid, Measure.SRM, [5.0, 20.0]) \
            .sections[0].groups[0].rows
        assert [r.label for r in srm_rows] == ["ARA = 5", "ARA = 20"]

    def test_cells_mirror_the_grid(self, grid):
        table = build_measure_table(grid, Measure.SRM, [5.0, 20.0])
        est, stderr, cv, ci = table.sections
        cells = {(c.sample_index, c.measure, c.parameter): c for c in grid.cells}
        for g, position in ((0, Position.LONG), (1, Position.SHORT)):
            for r, parameter in ((0, 5.0), (1, 20.0)):
                for c, sample_index in ((0, 0 + g), (1, 2 + g)):
                    result = cells[sample_index, Measure.SRM, parameter].result
                    assert est.groups[g].rows[r].cells[c] == result.point_estimate
                    assert stderr.groups[g].rows[r].cells[c] == result.std_error
                    assert cv.groups[g].rows[r].cells[c] == result.coeff_variation
                    assert ci.groups[g].rows[r].cells[c] == result.ci_standardized

    def test_means_recompute(self, grid):
        table = build_measure_table(grid, Measure.VAR, [0.9, 0.99])
        for section in table.sections[:3]:
            row_means = []
            for group in section.groups:
                for row in group.rows:
                    assert row.mean == sum(row.cells) / len(row.cells)
                    row_means.append(row.mean)
            assert section.overall_mean == sum(row_means) / len(row_means)

    def test_interval_rows_carry_no_means(self, grid):
        ci = build_measure_table(grid, Measure.VAR, [0.9, 0.99]).sections[3]
        assert ci.overall_mean is None
        assert all(row.mean is None for g in ci.groups for row in g.rows)

    def test_failed_cell_blanks_out_and_is_noted(self):
        values = np.random.default_rng(5).normal(0.0, 1.0, 150)
        samples = [LossSample(values, position=Position.LONG, label="A")]
        grid = run_grid(samples, {Measure.SRM: [1e-12, 5.0]},
                        BootstrapConfig(resamples=40, master_seed=2))
        table = build_measure_table(grid, Measure.SRM, [1e-12, 5.0])
        for section in table.sections:
            bad, good = section.groups[0].rows
            assert bad.label == "ARA = 1e-12"
            assert bad.cells == (None,)
            assert bad.mean is None
            assert None not in good.cells
        assert table.sections[0].overall_mean == table.sections[0].groups[0].rows[1].mean
        assert len(table.notes) == 1
        assert table.notes[0].startswith("A, Long position, ARA = 1e-12:")
        assert "plain mean" in table.notes[0]

    def test_unknown_measure_rejected(self, grid):
        var_only = run_grid(
            [LossSample(np.arange(1.0, 51.0), label="A")],
            {Measure.VAR: [0.9]}, BootstrapConfig(resamples=20))
        with pytest.raises(ValueError, match="no cells"):
            build_measure_table(var_only, Measure.ES, [0.95])


class TestWeightCurves:
    def test_window_and_shape(self):
        curves = weight_curves([5.0, 20.0], points=101)
        assert [c.k for c in curves] == [5.0, 20.0]
        for curve in curves:
            assert curve.p[0] == 0.8 and curve.p[-1] == 1.0
            assert len(curve.p) == len(curve.density) == 101
            assert np.all(np.diff(curve.density) > 0.0)

    def test_density_endpoint_value(self):
        (curve,) = weight_curves([5.0])
        assert curve.density[-1] == pytest.approx(_PHI_AT_ONE_K5, rel=1e-15)

    def test_stronger_aversion_weights_the_tail_more(self):
        curves = weight_curves([5.0, 20.0, 40.0, 80.0])
        endpoints = [c.density[-1] for c in curves]
        assert endpoints == sorted(endpoints)
        assert endpoints[0] > 1.0

    def test_figure_csv_round_trip(self):
        curves = weight_curves([5.0, 20.0], points=11)
        text = figure_csv(curves)
        lines = text.strip().splitlines()
        assert lines[0] == "p,phi,k"
        assert len(lines) == 1 + 2 * 11
        p, phi, k = lines[1].split(",")
        assert float(p) == curves[0].p[0]
        assert float(phi) == curves[0].density[0]
        assert float(k) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="lo"):
            weight_curves([5.0], lo=0.9, hi=0.9)
        with pytest.raises(ValueError, match="points"):
            weight_curves([5.0], points=1)


class TestTextRendering:
    def table(self):
        return ReportTable(
            name="var",
            title="T",
            contracts=("C1", "C2"),
            sections=(
                Section("(a) VaR estimates", "estimate",
                        (RowGroup("Long position",
                                  (Row("90% VaR", (1.23456, None), 1.23456),)),),
                        1.23456),
                Section("(c) Coefficients of variation", "cv",
                        (RowGroup("Long position",
                                  (Row("90% VaR", (12.3456, 0.5), None),)),),
                        None),
                Section("(d) 90% confidence intervals", "ci",
                        (RowGroup("Long position",
                                  (Row("90% VaR", ((0.91234, 1.23456), None), None),)),),
                        None),
            ),
            notes=("something broke",))

    def test_formats_by_section_kind(self):
        text = to_text(self.table())
        assert "1.2346" in text            # estimates: four decimals
        assert "12.35" in text             # cv: two decimals
        assert "[0.9123, 1.2346]" in text  # intervals: bracketed pair
        assert "n/a" in text               # missing data cell
        assert "Note: something broke" in text

    def test_header_and_mean_column(self):
        lines = to_text(self.table()).splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        headers = [l for l in lines if l.split() == ["C1", "C2", MEAN_COLUMN]]
        assert len(headers) == 3  # one per section
        overall = [l for l in lines if OVERALL_ROW in l]
        assert len(overall) == 1
        assert overall[0].split()[-1] == "1.2346"
        cv_line = next(l for l in lines if "12.35" in l)
        assert cv_line.rstrip().endswith("0.50")  # absent mean renders blank

    def test_summary_table_has_no_mean_column(self):
        table = build_summary_table([("C1", make_stats(seed=3)), ("C2", make_stats(seed=4))])
        lines = to_text(table).splitlines()
        assert lines[3].split() == ["C1", "C2"]
        assert not any(OVERALL_ROW in l for l in lines)
        n_line = next(l for l in lines if l.startswith("  n"))
        assert n_line.split() == ["n", "250", "250"]

    def test_position_headings_present(self, grid):
        text = to_text(build_measure_table(grid, Measure.ES, [0.95]))
        assert text.index("Long position") < text.index("Short position")


class TestCsvRoundTrip:
    def test_measure_table_survives_bit_exactly(self, grid):
        table = build_measure_table(grid, Measure.VAR, [0.9, 0.99])
        records = parse_csv(to_csv(table))
        expected = walk_cells(table)
        seen = {}
        for record in records:
            assert record["table"] == "var"
            key = (record["section"], record["position"], record["row"], record["column"])
            seen[key] = record["value"]
        # None cells are carried through explicitly in CSV
        assert seen == {k: v for k, v in expected.items()} | {
            k: None for k, v in expected.items() if v is None}

    def test_summary_table_survives(self):
        table = build_summary_table([("C1", make_stats(seed=6))])
        records = parse_csv(to_csv(table))
        by_row = {r["row"]: r["value"] for r in records}
        assert by_row["n"] == 250 and isinstance(by_row["n"], int)
        assert by_row["Mean"] == make_stats(seed=6).mean

    def test_awkward_contract_labels(self):
        label = 'Corn; No.2 "Yellow"'
        table = build_summary_table([(label, make_stats(seed=7))])
        records = parse_csv(to_csv(table))
        assert {r["column"] for r in records} == {label}

    def test_header_is_checked(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")


class TestKvRoundTrip:
    def test_row_labels_containing_the_separator(self, grid):
        """'ARA = 5' contains the key-value separator; parsing must still
        split at the value."""
        table = build_measure_table(grid, Measure.SRM, [5.0, 20.0])
        records = parse_kv(to_kv(table))
        expected = walk_cells(table)
        assert len(records) == len(expected)  # no None cells in this grid
        for record in records:
            key = (record["section"], record["position"], record["row"], record["column"])
            assert record["value"] == expected[key]
            assert record["table"] == "srm"
        assert {r["row"] for r in records} >= {"ARA = 5", "ARA = 20"}

    def test_interval_cells_come_back_as_pairs(self, grid):
        table = build_measure_table(grid, Measure.ES, [0.95])
        records = parse_kv(to_kv(table))
        pairs = [r["value"] for r in records if r["section"].startswith("(d)")]
        assert pairs and all(isinstance(v, tuple) and len(v) == 2 for v in pairs)

    def test_meta_lines(self, grid):
        table = build_measure_table(grid, Measure.VAR, [0.9, 0.99])
        lines = to_kv(table).splitlines()
        assert lines[0] == "table = var"
        assert lines[1] == "title = VaR and precision of VaR estimates"
        assert lines[2] == "contracts = A,B"

    def test_blank_cells_are_absent(self):
        samples = [LossSample(np.random.default_rng(8).normal(0, 1, 100),
                              position=Position.LONG, label="A")]
        grid = run_grid(samples, {Measure.SRM: [1e-12, 5.0]},
                        BootstrapConfig(resamples=30, master_seed=4))
        table = build_measure_table(grid, Measure.SRM, [1e-12, 5.0])
        text = to_kv(table)
        assert "ARA = 1e-12|A" not in text
        assert "note = " in text
        records = parse_kv(text)
        assert all("1e-12" not in r["row"] for r in records)

    def test_summary_ints_round_trip(self):
        table = build_summary_table([("C1", make_stats(seed=9))])
        records = parse_kv(to_kv(table))
        n = next(r["value"] for r in records if r["row"] == "n")
        assert n == 250 and isinstance(n, int)

    def test_malformed_lines_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_kv("no separator here\n")
        with pytest.raises(ValueError, match="malformed key"):
            parse_kv("only|three|parts = 1.0\n")
