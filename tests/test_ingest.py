"""Loading, return transforms and moment summaries."""

import csv
import io
import itertools
import math
import re
import sys
import tracemalloc
from datetime import date, datetime

import numpy as np
import pytest

from riskboot import ingest
from riskboot import (
    IngestError,
    PriceSeries,
    ReturnSeries,
    drop_zero_returns,
    load_prices,
    load_returns,
    log_returns,
    summary_stats,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadPrices:
    def test_well_formed_file(self, tmp_path):
        path = write(tmp_path / "sp.csv",
                     "date,price\n2001-01-02,100.0\n2001-01-03,101.5\n2001-01-04,99.25\n")
        series = load_prices(path)
        assert series.label == "sp"
        assert series.n == 3
        assert series.prices.tolist() == [100.0, 101.5, 99.25]
        assert series.dates.astype(str).tolist() == ["2001-01-02", "2001-01-03", "2001-01-04"]

    def test_explicit_label_and_columns(self, tmp_path):
        path = write(tmp_path / "x.csv", "day,settle\n02/01/2001,5.0\n03/01/2001,6.0\n")
        series = load_prices(path, date_col="day", price_col="settle",
                             date_format="%d/%m/%Y", label="DAX")
        assert series.label == "DAX"
        assert series.prices.tolist() == [5.0, 6.0]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        """Spreadsheet exports often start with a UTF-8 byte-order mark."""
        path = write(tmp_path / "x.csv", "\ufeffdate,price\n2001-01-02,0.5\n2001-01-03,2.0\n")
        assert load_prices(path).prices.tolist() == [0.5, 2.0]
        assert load_returns(path, return_col="price").returns.tolist() == [0.5, 2.0]

    def test_unordered_rows_are_sorted_by_date(self, tmp_path):
        path = write(tmp_path / "x.csv",
                     "date,price\n2001-01-04,3.0\n2001-01-02,1.0\n2001-01-03,2.0\n")
        series = load_prices(path)
        assert series.prices.tolist() == [1.0, 2.0, 3.0]
        assert np.array_equal(series.dates, np.sort(series.dates))

    def test_every_problem_reported_at_once(self, tmp_path):
        path = write(tmp_path / "bad.csv",
                     "date,price\n"
                     "2001-01-02,100.0\n"
                     "not-a-date,101.0\n"
                     "2001-01-04,zzz\n"
                     "2001-01-05,-3.0\n"
                     "2001-01-06,\n")
        with pytest.raises(IngestError) as excinfo:
            load_prices(path)
        problems = excinfo.value.problems
        assert len(problems) == 4
        text = str(excinfo.value)
        assert "line 3" in text and "not-a-date" in text
        assert "line 4" in text and "zzz" in text
        assert "line 5" in text and "not positive" in text
        assert "line 6" in text and "empty" in text

    def test_duplicate_dates_rejected(self, tmp_path):
        path = write(tmp_path / "dup.csv",
                     "date,price\n2001-01-02,1.0\n2001-01-02,2.0\n2001-01-03,3.0\n")
        with pytest.raises(IngestError, match="duplicate date 2001-01-02"):
            load_prices(path)

    def test_missing_column_lists_header(self, tmp_path):
        path = write(tmp_path / "x.csv", "date,px\n2001-01-02,1.0\n")
        with pytest.raises(IngestError, match="missing column 'price'"):
            load_prices(path)

    @pytest.mark.parametrize("text, prices, problems", [
        pytest.param("date,price\n2001-01-02,1.0\n\n2001-01-03,2.0\n2001-01-04,zzz\n",
                     None, ["line 5: cannot parse number 'zzz'"],
                     id="blank-line-skipped-lines-stay-physical"),
        pytest.param("date,price\n2001-01-02\n2001-01-03,2.0\n2001-01-04,3.0\n",
                     None, ["line 2: empty 'price' cell"], id="short-row-is-an-empty-cell"),
        pytest.param("date,price\n2001-01-02,1.0,x\n2001-01-03,2.0,y,z\n",
                     [1.0, 2.0], [], id="extra-fields-ignored"),
        pytest.param(" date , price \n 2001-01-02 , 1.0 \n2001-01-03,\t2.0\n",
                     [1.0, 2.0], [], id="header-and-cells-stripped"),
        pytest.param("date,price\n2001-01-02,1.0\n2001-01-03, \t\n",
                     None, ["line 3: empty 'price' cell"], id="blank-cell-is-empty"),
        pytest.param("\ndate,price\n2001-01-02,1.0\n2001-01-03,2.0\n",
                     None, ["missing column 'date'; header has []",
                            "missing column 'price'; header has []"],
                     id="blank-first-line-is-the-header"),
    ])
    def test_row_edge_cases(self, tmp_path, text, prices, problems):
        path = write(tmp_path / "x.csv", text)
        try:
            outcome = load_prices(path).prices.tolist(), []
        except IngestError as exc:
            outcome = None, exc.problems
        assert outcome == (prices, problems)

    @pytest.mark.parametrize("header, column", [
        ("date,price,price", "price"), (" date ,price,date", "date")])
    def test_column_named_twice_rejected(self, tmp_path, header, column):
        path = write(tmp_path / "x.csv", f"{header}\n2001-01-02,1.0,2.0\n2001-01-03,2.0,3.0\n")
        with pytest.raises(IngestError) as excinfo:
            load_prices(path)
        names = [name.strip() for name in header.split(",")]
        assert excinfo.value.problems == [
            f"column {column!r} appears 2 times; header has {names}"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot open file"):
            load_prices(str(tmp_path / "nope.csv"))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "empty.csv", "")
        with pytest.raises(IngestError, match="header"):
            load_prices(path)

    def test_single_price_is_not_enough(self, tmp_path):
        path = write(tmp_path / "one.csv", "date,price\n2001-01-02,1.0\n")
        with pytest.raises(IngestError, match="at least 2"):
            load_prices(path)

    def test_non_finite_price_rejected(self, tmp_path):
        path = write(tmp_path / "inf.csv",
                     "date,price\n2001-01-02,1.0\n2001-01-03,inf\n")
        with pytest.raises(IngestError, match="non-finite"):
            load_prices(path)


# the formats whose dates the column-wise read can take, which the date fuzz test covers
DIRECT_FORMATS = ["%Y-%m-%d", "%d/%m/%Y", "%Y%m%d"]

# near-valid values per directive: edges, out of range, padded, short and long
FUZZ_TOKENS = {
    "Y": ["0000", "0001", "1899", "1900", "1968", "2000", "2023", "2024", "9999", "199", "20240"],
    "m": ["0", "00", "1", "01", "02", "09", "10", "12", "13", " 2"],
    "d": ["0", "00", "1", "01", " 1", " 9", "9", "28", "29", "30", "31", "32", "3"],
}


def fuzz_strings(date_format, rng, count):
    """Strings close to date_format: each directive gets a near-valid
    token and each literal is usually kept; some strings then gain or
    lose a character at either end or in the middle."""
    parts = re.findall(r"%.|[^%]+", date_format)
    out = []
    for _ in range(count):
        text = "".join(
            rng.choice(FUZZ_TOKENS[part[1]]) if part.startswith("%")
            else (part if rng.random() < 0.9 else rng.choice(["", "-", "/", "  ", ".", part * 2]))
            for part in parts)
        edit = rng.integers(8)
        if edit == 0:
            text += rng.choice([" ", "x", "0", "-01", "\t"])
        elif edit == 1:
            text = rng.choice([" ", "0", "x"]) + text
        elif edit == 2 and text:
            cut = rng.integers(len(text))
            text = text[:cut] + text[cut + 1:]
        out.append(text)
    return out


class TestDateParser:
    @pytest.mark.parametrize("date_format", DIRECT_FORMATS)
    def test_same_dates_and_rejections_as_strptime(self, date_format):
        """Every fuzzed string that the column-wise read's date check takes,
        as a column of one cell, gets the date datetime.strptime gives it;
        so strptime rejects none of them. Others are refused, and a file
        holding them goes to the per-row path, which calls strptime."""
        rng = np.random.default_rng([2024, DIRECT_FORMATS.index(date_format)])
        regex = ingest._date_regex(date_format)
        taken = set()
        for text in fuzz_strings(date_format, rng, 3000):
            days = ingest._days([text], regex)
            if days is not None:
                assert days.tolist() == [datetime.strptime(text, date_format).date()], text
            taken.add(days is not None)
        assert taken == {True, False}  # the strings reach both outcomes

    def test_clean_file_never_calls_strptime(self, tmp_path, monkeypatch):
        """A clean file in the default format is read column-wise, with no
        strptime call; a file read row by row calls strptime per date."""
        class NoStrptime:
            @staticmethod
            def strptime(text, date_format):
                raise AssertionError(f"strptime({text!r}, {date_format!r}) called")

        monkeypatch.setattr(ingest, "datetime", NoStrptime)
        path = write(tmp_path / "p.csv", "date,price\n2001-01-02,1.0\n2001-01-03,2.0\n")
        assert load_prices(path).prices.tolist() == [1.0, 2.0]
        timed = write(tmp_path / "t.csv", "date,price\n2001-01-02 10:00,1.0\n")
        with pytest.raises(AssertionError, match="strptime"):  # the guard is live
            load_prices(timed, date_format="%Y-%m-%d %H:%M")

    def test_one_strptime_regex_per_load(self, tmp_path, monkeypatch):
        """A load builds strptime's TimeRE once, whether it reads the file
        column-wise or falls back to the per-row path."""
        import _strptime

        built = []

        class CountedTimeRE(_strptime.TimeRE):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_strptime, "TimeRE", CountedTimeRE)
        clean = write(tmp_path / "p.csv", "date,price\n2001-01-02,1.0\n2001-01-03,2.0\n")
        quoted = write(tmp_path / "q.csv", 'date,price\n2001-01-02,"1.0"\n2001-01-03,2.0\n')
        for path in (clean, quoted):
            for load, value_col in ((load_prices, "price_col"), (load_returns, "return_col")):
                built.clear()
                assert load(path, **{value_col: "price"}).n == 2
                assert len(built) == 1, (path.name, load.__name__)

    @pytest.mark.parametrize("date_format, message", [
        ("%Q", "'Q' is a bad directive in format '%Q'"),
        ("%", "stray % in format '%'"),
        ("%Y-%m-%d%Y", "format '%Y-%m-%d%Y' sets the same field twice"),
    ])
    def test_unusable_format_fails_before_the_file_is_opened(self, tmp_path, date_format,
                                                              message):
        with pytest.raises(ValueError) as excinfo:
            load_prices(tmp_path / "absent.csv", date_format=date_format)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message


# the formats the column-wise read can take, and one it cannot
FILE_FORMATS = DIRECT_FORMATS + ["%m/%d/%y"]

# rows of one length that strptime splits differently, so a read at the
# places of the first row would misread the second
SPLITS = {"%Y%m%d": ["2020131", "2020111"], "%Y-%m-%d": ["2020-1-10", "2020-10-1"]}


def date_text(date_format, year, month, day):
    """Date text in date_format, for years strftime would not pad."""
    return (date_format.replace("%Y", f"{year:04d}").replace("%y", f"{year % 100:02d}")
            .replace("%m", f"{month:02d}").replace("%d", f"{day:02d}"))


def edit_cells(rng, rows, date_format, case):
    """Apply one cell-level case to rows, a list of [date, value, ...] lists."""
    if not rows:
        return
    i, j = rng.integers(len(rows), size=2)
    if case == "padded":
        k = rng.integers(len(rows[i]))
        rows[i][k] = rng.choice([" ", "\t", " \t"]) + rows[i][k] + " "
    elif case == "quotes":
        rows[i][-1] = f'"{rows[i][-1]}"'
    elif case == "short row":
        del rows[i][1:]
    elif case == "extra field":
        rows[i].append("x")
    elif case == "long field":
        rows[i][-1] = "1" * (csv.field_size_limit() + 1)
    elif case == "unordered":
        rng.shuffle(rows)
    elif case == "duplicate date":
        rows[j][0] = rows[i][0]
    elif case == "non-positive":
        rows[i][1:2] = [rng.choice(["0", "-1.5", "-0.0"])]
    elif case == "special value":
        rows[i][1:2] = [rng.choice(["inf", "-inf", "nan", "1_0", "1e400", "", " ", "x"])]
    elif case == "non-ASCII digit":
        rows[i][0] = re.sub(r"\d", rng.choice(["\u0663", "\uff13"]), rows[i][0], count=1)
    elif case == "year 0000":
        rows[i][0] = date_text(date_format, 0, 1 + i % 12, 1 + i % 28)
    elif case == "Feb 29":
        rows[i][0] = date_text(date_format, int(rng.choice([2023, 2024])), 2, 29)
    elif case == "bad date":
        text = rows[i][0]
        rows[i][0] = rng.choice(["", "not-a-date", date_text(date_format, 2020, 13, 1),
                                 date_text(date_format, 2021, 4, 31),
                                 text.replace("-", "/") if "-" in text else text.replace("/", "-")])
    elif case == "same suffix":  # every date has the first one's layout, and strptime rejects it
        suffix = rng.choice(["Z", "0"])
        for row in rows:
            row[0] += suffix
    elif case == "same length, other split" and date_format in SPLITS:
        del rows[2:]  # every row of one length
        for row, text in zip(rows, SPLITS[date_format][rng.integers(2):]):
            row[0] = text


def edit_text(rng, text, case):
    """Apply one text-level case to the file's text."""
    i = int(rng.integers(len(text) + 1))
    if case == "BOM":
        return "\ufeff" + text
    if case == "CRLF":
        return text.replace("\n", "\r\n")
    if case == "lone CR":
        return text.replace("\n", "\r", 1) if rng.random() < 0.5 else text[:i] + "\r" + text[i:]
    if case == "NUL":
        return text[:i] + "\0" + text[i:]
    if case == "blank lines":
        lines = text.split("\n")
        for _ in range(rng.integers(1, 4)):
            lines.insert(int(rng.integers(len(lines) + 1)), "")
        return "\n".join(lines)
    if case == "no final newline":
        return text.rstrip("\n")
    if case == "quoted line break":  # the last cell of a line runs on into the next line
        lines = text.split("\n")
        if len(lines) < 2:
            return text
        k = int(rng.integers(len(lines) - 1))
        lines[k] = ",".join(lines[k].split(",")[:-1] + ['"' + lines[k].split(",")[-1]])
        lines[k + 1] += '"'
        return "\n".join(lines)
    return text


CELL_CASES = ["padded", "quotes", "short row", "extra field", "long field", "unordered",
              "duplicate date", "non-positive", "special value", "non-ASCII digit",
              "year 0000", "Feb 29", "bad date", "same suffix", "same length, other split"]
TEXT_CASES = ["BOM", "CRLF", "lone CR", "NUL", "blank lines", "no final newline",
              "quoted line break"]
FILE_CASES = CELL_CASES + TEXT_CASES + ["one row", "header only", "not UTF-8"]


def fuzz_file(date_format, rng):
    """A small price file in date_format, with date and value columns in
    either order and sometimes a third, and none, one or two of
    FILE_CASES applied. Returns its bytes and the cases applied."""
    count = int(rng.integers(1, 9))
    ordinals = date(1990, 1, 1).toordinal() + rng.choice(20_000, count, replace=False)
    header = ["date", "price", "volume"][:int(rng.choice([2, 3], p=[0.7, 0.3]))]
    rows = [[date.fromordinal(int(o)).strftime(date_format), repr(round(float(v), 6)),
             str(rng.integers(1000))][:len(header)]
            for o, v in zip(ordinals, rng.uniform(0.5, 200.0, count))]
    cases = list(rng.choice(FILE_CASES, int(rng.choice(3, p=[0.3, 0.5, 0.2])), replace=False))
    if "one row" in cases:
        del rows[1:]
    if "header only" in cases:
        rows = []
    for case in cases:
        edit_cells(rng, rows, date_format, case)
    if rng.random() < 0.3:  # the value column first
        for cells in [header] + rows:
            cells[:2] = cells[1::-1]
    text = "".join(",".join(cells) + "\n" for cells in [header] + rows)
    for case in cases:
        text = edit_text(rng, text, case)
    data = text.encode("utf-8")
    if "not UTF-8" in cases:
        cut = int(rng.integers(len(data) + 1))
        data = data[:cut] + b"\xff" + data[cut:]
    return data, cases


def load_outcome(load, path, date_format):
    """The dates and value bytes a loader gives for a file, or its problems."""
    value_col = {"price_col" if load is load_prices else "return_col": "price"}
    try:
        series = load(path, date_format=date_format, **value_col)
    except IngestError as exc:
        return exc.problems
    values = series.prices if load is load_prices else series.returns
    return series.dates.tolist(), values.tobytes()


class TestColumnWiseRead:
    @pytest.mark.parametrize("slice_bytes", [None, 40], ids=["default_slices", "40_byte_slices"])
    @pytest.mark.parametrize("date_format", FILE_FORMATS)
    def test_every_file_loads_as_the_per_row_path_loads_it(self, tmp_path, monkeypatch,
                                                          date_format, slice_bytes):
        """Seeded files, clean and not, give load_prices and load_returns
        the same series, or the same problems word for word, as the
        per-row path alone does; slices of 40 bytes cut most files into
        several slices and put some lines over a slice's length."""
        if slice_bytes:
            monkeypatch.setattr(ingest, "_SLICE_BYTES", slice_bytes)
        rng = np.random.default_rng([2025, FILE_FORMATS.index(date_format)])
        read_columns = ingest._read_columns
        path = tmp_path / "f.csv"
        column_wise = []
        for _ in range(150):
            data, cases = fuzz_file(date_format, rng)
            path.write_bytes(data)
            for load in (load_prices, load_returns):
                monkeypatch.setattr(ingest, "_read_columns", read_columns)
                either = load_outcome(load, path, date_format)
                monkeypatch.setattr(ingest, "_read_columns", lambda *args: None)
                assert either == load_outcome(load, path, date_format), (cases, data)
            regex = ingest._date_regex(date_format)
            column_wise.append(read_columns(path, "date", "price", regex) is not None)
        # both paths are reached, so the comparison is not with the per-row path alone
        assert set(column_wise) == ({True, False} if date_format in DIRECT_FORMATS else {False})

    def test_padded_cells_load_as_the_per_row_path_loads_them(self, tmp_path, monkeypatch):
        """The column-wise read strips no cell. Each of the 29 code points
        that str.isspace() takes, NBSP and U+001C to U+001F (which float
        rejects) among them, put before, after or around the first, a later
        or every date or value cell, gives load_prices and load_returns the
        outcome of the per-row path, which strips every cell. So does each
        under a format that ends in whitespace, which no stripped date
        matches, though every date padded alike has one layout. A plain
        file is still read column-wise, never row by row."""
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        assert len(spaces) == 29
        rows = [[date(2001, 1, 1 + i).isoformat(), repr(100 + i / 8)] for i in range(4)]
        path = tmp_path / "f.csv"

        def write_rows(rows):
            write(path, "date,price\n" + "".join(",".join(row) + "\n" for row in rows))

        def no_rows(*args):
            raise AssertionError("_read_rows called")

        write_rows(rows)
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_read_rows", no_rows)
            assert load_prices(path).n == load_returns(path, return_col="price").n == 4
        read_columns = ingest._read_columns
        column_wise = set()
        for date_format, space in itertools.product(["%Y-%m-%d", "%Y-%m-%d "], spaces):
            regex = ingest._date_regex(date_format)
            for which, column, (before, after) in itertools.product(
                    ([0], [2], range(4)), (0, 1), [(space, ""), ("", space), (space, space)]):
                padded = [list(cells) for cells in rows]
                for row in which:
                    padded[row][column] = before + padded[row][column] + after
                write_rows(padded)
                for load in (load_prices, load_returns):
                    monkeypatch.setattr(ingest, "_read_columns", read_columns)
                    either = load_outcome(load, path, date_format)
                    monkeypatch.setattr(ingest, "_read_columns", lambda *args: None)
                    assert either == load_outcome(load, path, date_format), (date_format, padded)
                column_wise.add(read_columns(path, "date", "price", regex) is not None)
        assert column_wise == {True, False}  # float skips some padding itself

    def test_the_series_type_sends_the_columns_it_refuses_row_by_row(self, tmp_path,
                                                                      monkeypatch):
        """The column-wise read checks no rule of a series; the series type
        does. With a price series that also refuses prices above 150, a
        clean file holding a price of 200 is read column-wise, refused by
        the type, read row by row once, and loading it raises the type's
        own error. A clean file within that rule never reaches the per-row
        read and loads as the patched type."""
        class CappedPrices(PriceSeries):
            def __post_init__(self):
                super().__post_init__()
                if np.any(self.prices > 150.0):
                    raise ValueError("prices must not exceed 150")

        read_rows, calls = ingest._read_rows, []

        def spy(*args):
            calls.append(args)
            return read_rows(*args)

        monkeypatch.setattr(ingest, "PriceSeries", CappedPrices)
        monkeypatch.setattr(ingest, "_read_rows", spy)
        within = write(tmp_path / "within.csv", "date,price\n2001-01-02,100.0\n2001-01-03,150.0\n")
        assert type(load_prices(within)) is CappedPrices and calls == []
        above = write(tmp_path / "above.csv", "date,price\n2001-01-02,100.0\n2001-01-03,200.0\n")
        regex = ingest._date_regex("%Y-%m-%d")
        assert ingest._read_columns(above, "date", "price", regex) is not None
        with pytest.raises(ValueError, match="^prices must not exceed 150$"):
            load_prices(above)
        assert calls == [(above, "date", "price", "%Y-%m-%d")]

    def test_a_last_line_longer_than_a_slice_ends_the_slices(self, monkeypatch):
        """A last line without a newline comes whole when it fits in a
        slice; one that outgrows a slice gives None, and the slices end."""
        monkeypatch.setattr(ingest, "_SLICE_BYTES", 8)
        assert list(ingest._slices(io.BytesIO(b"ab\ncd"))) == [b"ab\n", b"cd"]
        assert list(ingest._slices(io.BytesIO(b"ab\ncdefghijkl"))) == [b"ab\n", None]

    def test_a_header_longer_than_csv_s_field_limit_is_read_row_by_row(self, tmp_path):
        """The column-wise read leaves a header line longer than
        csv.field_size_limit() to the per-row path, which loads the file
        as it loads the same file with short column names."""
        names = ["y" * (csv.field_size_limit() // 2), "z" * (csv.field_size_limit() // 2)]
        lines = [f"{date(2001, 1, 1 + i).isoformat()},{100 + i / 8!r},1,2\n" for i in range(4)]
        wide = write(tmp_path / "wide.csv", ",".join(["date", "price", *names]) + "\n" + "".join(lines))
        short = write(tmp_path / "short.csv", "date,price,y,z\n" + "".join(lines))
        regex = ingest._date_regex("%Y-%m-%d")
        assert ingest._read_columns(wide, "date", "price", regex) is None
        assert ingest._read_columns(short, "date", "price", regex) is not None
        for load in (load_prices, load_returns):
            assert load_outcome(load, wide, "%Y-%m-%d") == load_outcome(load, short, "%Y-%m-%d")

    def test_crlf_file_is_read_column_wise(self, tmp_path, monkeypatch):
        """A clean file whose lines end in CRLF is read column-wise, never
        row by row, and loads as its LF copy does. A lone CR still sends a
        file row by row, which reads it as a line end."""
        lines = ["date,price"] + [f"{date(2001, 1, 1 + i).isoformat()},{100 + i / 8!r}"
                                  for i in range(4)]
        lf = write(tmp_path / "lf.csv", "\n".join(lines) + "\n")
        crlf = write(tmp_path / "crlf.csv", "\r\n".join(lines) + "\r\n")
        lone = write(tmp_path / "cr.csv", "\r\n".join(lines[:3]) + "\r" + "\r\n".join(lines[3:]))

        def no_rows(*args):
            raise AssertionError("_read_rows called")

        loads = (load_prices, load_returns)
        expected = [load_outcome(load, lf, "%Y-%m-%d") for load in loads]
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_read_rows", no_rows)
            assert [load_outcome(load, crlf, "%Y-%m-%d") for load in loads] == expected
            with pytest.raises(AssertionError, match="_read_rows"):  # the guard is live
                load_prices(lone)
        assert [load_outcome(load, lone, "%Y-%m-%d") for load in loads] == expected

    def test_clean_file_is_read_without_csv_in_no_more_memory(self, tmp_path, monkeypatch):
        """A clean file of a few thousand rows never reaches csv.reader. Read
        in slices smaller than the file, it holds one slice's fields at a
        time, and its peak memory is no higher than the per-row path's,
        which holds a tuple per row to the end. (In one slice of the default
        size, this file peaked at 1.4 MiB against the per-row path's 0.6.)"""
        start = date(2001, 1, 1).toordinal()
        path = write(tmp_path / "p.csv", "date,price\n" + "".join(
            f"{date.fromordinal(start + i).isoformat()},{100 + i / 64}\n" for i in range(4000)))

        def peak_memory(load):
            load(path)  # fills the regex caches first
            tracemalloc.start()
            try:
                return load(path), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(ingest, "_SLICE_BYTES", 16 * 1024)
        with monkeypatch.context() as patch:
            patch.setattr(ingest.csv, "reader", no_reader)
            column_wise, peak = peak_memory(load_prices)
            quoted = write(tmp_path / "q.csv", 'date,price\n2001-01-02,"1.0"\n2001-01-03,2.0\n')
            with pytest.raises(AssertionError, match="csv.reader"):  # the guard is live
                load_prices(quoted)
        monkeypatch.setattr(ingest, "_read_columns", lambda *args: None)
        per_row, per_row_peak = peak_memory(load_prices)
        assert np.array_equal(column_wise.dates, per_row.dates) and column_wise.n == 4000
        assert column_wise.prices.tobytes() == per_row.prices.tobytes()
        assert peak <= per_row_peak


class TestLoadReturns:
    def test_returns_loaded_verbatim(self, tmp_path):
        path = write(tmp_path / "r.csv",
                     "date,return\n2001-01-02,0.01\n2001-01-03,-0.02\n")
        series = load_returns(path)
        assert series.returns.tolist() == [0.01, -0.02]

    def test_negative_returns_allowed_zero_rows_not(self, tmp_path):
        path = write(tmp_path / "r.csv", "date,return\n")
        with pytest.raises(IngestError, match="no usable return rows"):
            load_returns(path)


class TestSeriesContainers:
    def test_price_series_validation(self):
        import datetime
        d = [datetime.date(2001, 1, 2), datetime.date(2001, 1, 3)]
        with pytest.raises(ValueError, match="positive"):
            PriceSeries("x", d, np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries("x", d[::-1], np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least 2"):
            PriceSeries("x", d[:1], np.array([1.0]))

    def test_return_series_validation(self):
        import datetime
        d = [datetime.date(2001, 1, 2)]
        with pytest.raises(ValueError, match="finite"):
            ReturnSeries("x", d, np.array([np.nan]))
        with pytest.raises(ValueError, match="empty"):
            ReturnSeries("x", [], np.array([]))

    @pytest.mark.parametrize("dates", [
        ["2001-01-02", "2001-01-03"], np.array(["2001-01-02", "2001-01-03"]),
        [1, 2], np.arange(1, 3), np.array(["2001-01-02", "2001-01-03"], "datetime64[s]"),
        [datetime(2001, 1, 2, 10), datetime(2001, 1, 3, 10)], "20",
    ], ids=["iso_strings", "iso_string_array", "integers", "integer_array", "seconds",
            "datetimes", "string"])
    def test_dates_are_never_parsed(self, dates):
        """The containers hold dates as one datetime64[D] array. They take
        such an array as it is, or datetime.date objects, and refuse
        anything numpy would otherwise turn into days: ISO strings,
        integers (days since 1970), another unit, or datetimes, whose time
        of day would be dropped."""
        message = r"dates must be a datetime64\[D\] array or a sequence of datetime.date"
        with pytest.raises(ValueError, match=message):
            PriceSeries("x", dates, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=message):
            ReturnSeries("x", dates, np.array([0.1, 0.2]))
        days = np.array(["2001-01-02", "2001-01-03"], "datetime64[D]")
        assert ReturnSeries("x", days, np.array([0.1, 0.2])).dates is days
        taken = ReturnSeries("x", [date(2001, 1, 2), date(2001, 1, 3)], np.array([0.1, 0.2]))
        assert np.array_equal(taken.dates, days)

    def test_dates_and_values_of_different_lengths_are_refused(self):
        """A series holds one date per value: one date too many or too few
        raises ValueError naming the values, whichever form the dates take."""
        days = np.array(["2001-01-02", "2001-01-03", "2001-01-04"], "datetime64[D]")
        for dates in (days, days[:1], [date(2001, 1, 2), date(2001, 1, 3), date(2001, 1, 4)]):
            with pytest.raises(ValueError, match="^dates and prices have different lengths$"):
                PriceSeries("x", dates, np.array([1.0, 2.0]))
            with pytest.raises(ValueError, match="^dates and returns have different lengths$"):
                ReturnSeries("x", dates, np.array([0.1, 0.2]))

    def test_not_a_time_is_refused(self):
        """NaT compares false with every day, so it is refused outright."""
        for dates in (["NaT"], ["2001-01-02", "NaT", "2001-01-04"]):
            with pytest.raises(ValueError, match="strictly increasing"):
                ReturnSeries("x", np.array(dates, "datetime64[D]"), np.zeros(len(dates)))


class TestLogReturns:
    def test_single_step_value(self, tmp_path):
        """A 10% price rise gives ln(1.1)."""
        path = write(tmp_path / "p.csv",
                     "date,price\n2001-01-02,100.0\n2001-01-03,110.0\n")
        r = log_returns(load_prices(path))
        assert r.returns[0] == pytest.approx(0.09531017980432493, abs=1e-15)
        assert r.n == 1
        assert str(r.dates[0]) == "2001-01-03"

    def test_repeated_price_gives_exact_zero(self, tmp_path):
        """Holiday padding repeats the settlement price; the log return
        must come out exactly 0.0, not merely small."""
        path = write(tmp_path / "p.csv",
                     "date,price\n2001-01-02,96.37\n2001-01-03,96.37\n2001-01-04,97.0\n")
        r = log_returns(load_prices(path))
        assert r.returns[0] == 0.0

    @pytest.mark.parametrize("prices", [[1e-300, 1e300, 1.0], [1e300, 1e-300, 1.0]],
                             ids=["ratio_overflows", "ratio_underflows"])
    def test_price_ratio_outside_the_float_range_is_an_error(self, prices):
        series = PriceSeries("wide", [date(2001, 1, 2 + i) for i in range(3)], prices)
        with pytest.raises(ValueError, match="ratio of consecutive prices leaves the float range"):
            log_returns(series)

    def test_returns_are_libm_log_whatever_numpy_log_gives(self, monkeypatch):
        """Each return is the platform libm's log of its ratio, bit for bit.
        numpy's log, which picks its SIMD code by the CPU, is replaced by
        one that rounds every value an ulp up, as a CPU whose dispatched
        log differs would; the returns do not move with it."""
        true_log = np.log
        monkeypatch.setattr(np, "log", lambda x, *a, **k: np.nextafter(true_log(x), np.inf))
        prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(7).normal(0.0, 0.01, 50)))
        dates = np.arange(50).astype("datetime64[D]")
        r = log_returns(PriceSeries("walk", dates, prices))
        ratios = (prices[1:] / prices[:-1]).tolist()
        assert r.returns.tolist() == [math.log(x) for x in ratios]

    def test_cumulative_sum_recovers_total_log_growth(self):
        import datetime
        rng = np.random.default_rng(42)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 500)))
        dates = [datetime.date(2001, 1, 1) + datetime.timedelta(days=i)
                 for i in range(prices.size)]
        r = log_returns(PriceSeries("walk", dates, prices))
        recovered = np.cumsum(r.returns)
        expected = np.log(prices[1:] / prices[0])
        assert np.max(np.abs(recovered - expected)) <= 1e-12


class TestDropZeroReturns:
    def test_only_exact_zeros_dropped(self):
        import datetime
        dates = [datetime.date(2001, 1, 1) + datetime.timedelta(days=i) for i in range(4)]
        series = ReturnSeries("x", dates, np.array([0.01, 0.0, -1e-300, 0.0]))
        out = drop_zero_returns(series)
        assert out.returns.tolist() == [0.01, -1e-300]
        assert len(out.dates) == 2

    def test_all_zero_series_rejected(self):
        import datetime
        dates = [datetime.date(2001, 1, 1), datetime.date(2001, 1, 2)]
        with pytest.raises(ValueError, match="every return is zero"):
            drop_zero_returns(ReturnSeries("x", dates, np.array([0.0, 0.0])))


def series_of(returns):
    """A ReturnSeries of returns on consecutive days."""
    start = date(2001, 1, 1).toordinal()
    return ReturnSeries("x", tuple(map(date.fromordinal, range(start, start + len(returns)))),
                        returns)


class TestSummaryStats:
    def test_worked_example(self):
        """(0, 0, 0, 12): skewness 2/sqrt(3), kurtosis 7/3 with the
        n-divisor central moments."""
        s = summary_stats(series_of([0.0, 0.0, 0.0, 12.0]))
        assert s.skewness == pytest.approx(1.1547005383792515, abs=1e-12)
        assert s.kurtosis == pytest.approx(2.3333333333333335, abs=1e-12)
        assert s.mean == 3.0
        assert s.n == 4
        assert s.minimum == 0.0 and s.maximum == 12.0

    def test_symmetric_three_points(self):
        s = summary_stats(series_of([-1.0, 0.0, 1.0]))
        assert s.mean == 0.0
        assert s.skewness == 0.0
        assert s.kurtosis is None  # needs at least 4 observations

    def test_std_dev_uses_n_minus_1(self):
        s = summary_stats(series_of([0.0, 2.0]))
        assert s.std_dev == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_kurtosis_of_big_normal_sample_is_near_3(self):
        """Kurtosis is reported raw, not excess."""
        x = np.random.default_rng(11).normal(0.0, 0.01, 200_000)
        s = summary_stats(series_of(x))
        assert abs(s.kurtosis - 3.0) < 0.1
        assert abs(s.skewness) < 0.05

    def test_constant_series_rejected(self):
        """Exactly, though the mean of most constants is an ulp off them, and
        the deviations from it are then tiny but not zero."""
        for value in (3.25, 0.1, 0.7, 1 / 3, 0.013):
            for n in (3, 6, 7, 10, 100):
                with pytest.raises(ValueError, match="constant series"):
                    summary_stats(series_of(np.full(n, value)))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            summary_stats(series_of([1.0]))

    @pytest.mark.parametrize("size, n", [(1e-120, 4), (1e-300, 4), (1e77, 4), (1e154, 3),
                                         (1e308, 4)])
    def test_moments_out_of_float_range_rejected(self, size, n):
        """Deviations of 1e77 overflow the fourth moment, of 1e154 the third
        (three returns have no fourth), of 1e-120 underflow the squared
        variance and of 1e-300 the variance itself, though the series is not
        constant: each is a ValueError, never a numpy warning (an error
        under pytest here), an OverflowError or non-finite statistics."""
        with pytest.raises(ValueError, match="leave the float range"):
            summary_stats(series_of(size * np.array([1.0, -1.0, 0.5, -0.25])[:n]))

    def test_moderately_large_returns_keep_finite_moments(self):
        s = summary_stats(series_of(1e70 * np.array([0.0, 0.0, 0.0, 12.0])))
        assert s.skewness == pytest.approx(1.1547005383792515, rel=1e-12)
        assert s.kurtosis == pytest.approx(2.3333333333333335, rel=1e-12)

    def test_location_shift_moves_only_the_mean(self):
        rng = np.random.default_rng(5)
        x = rng.standard_t(5, 4000) * 0.01
        a, b = summary_stats(series_of(x)), summary_stats(series_of(x + 0.37))
        assert b.mean == pytest.approx(a.mean + 0.37, abs=1e-12)
        assert b.std_dev == pytest.approx(a.std_dev, abs=1e-10)
        assert b.skewness == pytest.approx(a.skewness, abs=1e-10)
        assert b.kurtosis == pytest.approx(a.kurtosis, abs=1e-10)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0.0, 1.0, 999)
        a, b = summary_stats(series_of(x)), summary_stats(series_of(x[::-1].copy()))
        assert b.mean == pytest.approx(a.mean, abs=1e-12)
        assert b.skewness == pytest.approx(a.skewness, abs=1e-10)

    def test_accepts_return_series(self):
        assert summary_stats(series_of([0.0, 0.0, 0.0, 12.0])).n == 4
