"""CSV ingestion, log returns and moment summaries for daily price series.

Input files are plain UTF-8 CSV with a header row. The caller names the
date column and either a price column or a pre-computed return column.
Dates are read with a strptime format, which is checked once, before the
file is opened: a format strptime cannot use raises ValueError. A date is
accepted exactly when datetime.strptime accepts it. Loading is strict:
every problem in the file is collected and reported at once rather than
failing on the first bad row; a file that is not UTF-8, or a field longer
than the csv module allows, stops the read with one problem.

A clean file in a format whose directives are exactly %Y, %m and %d (plus
%% and literal text) is read column-wise, in slices of about 256 KiB of
whole lines: each slice's fields are split at once, its first date
matched against strptime's regex, every date checked by numpy to have
that date's layout and converted, and its values parsed by float. Lines
may end in LF or CRLF. No cell is stripped: float skips the whitespace
that strip would remove (bar U+001C to U+001F, which it rejects), and a
padded date cell is either the slice's first, which is refused, or laid
out unlike that one. The column-wise read only parses; its columns
become the series when the series type accepts them, and the type alone
checks its rules: distinct dates, finite values, at least two prices or
one return, positive prices. Any file in doubt (a quote, a lone CR or a
NUL, a header or field-count problem, a date or value the slice cannot
take, or values the series type rejects) is read row by row through the
csv module instead, which parses each date with strptime and alone words
problems, every rule of the series types among them. Both reads accept
the same files and give the same series, whose dates are one
datetime64[D] array throughout.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

import numpy as np


class IngestError(ValueError):
    """Malformed input. Carries every problem found, not just the first."""

    def __init__(self, path, problems):
        self.path = str(path)
        self.problems = list(problems)
        listing = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"{self.path}: {len(self.problems)} problem(s)\n{listing}")


# ----------------------------------------------------------------------
# series containers
# ----------------------------------------------------------------------

def _days_of(dates, size, values):
    """dates as a datetime64[D] array, checked to hold one day per value,
    strictly increasing. dates must be a datetime64[D] array, which is
    taken as it is, or a list or tuple of datetime.date objects (not
    datetimes, whose time of day would be dropped); strings, integers and
    anything else raise ValueError rather than being parsed as dates."""
    if not (isinstance(dates, np.ndarray) and dates.dtype == "datetime64[D]"):
        if not isinstance(dates, (list, tuple)) or not all(type(d) is date for d in dates):
            raise ValueError("dates must be a datetime64[D] array or a sequence of datetime.date")
        dates = np.array(dates, "datetime64[D]")
    if dates.shape != (size,):
        raise ValueError(f"dates and {values} have different lengths")
    if np.any(np.isnat(dates)) or not np.all(dates[1:] > dates[:-1]):
        raise ValueError("dates must be strictly increasing")
    return dates


@dataclass(frozen=True)
class PriceSeries:
    """Settlement prices on strictly increasing trading dates.

    dates is a datetime64[D] array; a list or tuple of datetime.date is
    converted to one. Prices must be positive and finite and there must be
    at least two of them, since a lone price yields no return.
    """

    label: str
    dates: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.size < 2:
            raise ValueError(f"{self.label or 'price series'}: need at least 2 prices, got {prices.size}")
        object.__setattr__(self, "dates", _days_of(self.dates, prices.size, "prices"))
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ValueError("prices must be positive and finite")

    @property
    def n(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class ReturnSeries:
    """Daily log returns, one per date, in date order; dates as in PriceSeries."""

    label: str
    dates: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        if returns.size < 1:
            raise ValueError(f"{self.label or 'return series'}: series is empty")
        object.__setattr__(self, "dates", _days_of(self.dates, returns.size, "returns"))
        if not np.all(np.isfinite(returns)):
            raise ValueError("returns must be finite")

    @property
    def n(self) -> int:
        return self.returns.size


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------

def _date_regex(date_format):
    """strptime's own regex for date_format, in the current locale.

    Raises ValueError, naming the format, when strptime could never use
    it: an unknown directive, a stray %, or a field set twice.
    """
    import _strptime  # what datetime.strptime itself loads on first use

    try:
        return _strptime.TimeRE().compile(date_format)
    except KeyError as exc:
        bad = "%" if exc.args[0] == "\\" else exc.args[0]  # "% " reaches here as "\\"
        raise ValueError(f"{bad!r} is a bad directive in format {date_format!r}") from None
    except IndexError:
        raise ValueError(f"stray % in format {date_format!r}") from None
    except re.error:  # the same group twice: "%Y-%m-%d%Y", or %d after %x
        raise ValueError(f"format {date_format!r} sets the same field twice") from None


def _records(reader, path):
    """The reader's records. Bytes that are not UTF-8, or a field longer
    than csv.field_size_limit(), stop the read with an IngestError."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise IngestError(path, [f"cannot decode the file as UTF-8: {exc.reason} "
                                 f"{exc.object[exc.start:exc.end].hex(' ')}"]) from None
    except csv.Error as exc:
        raise IngestError(path, [f"line {reader.line_num}: {exc}"]) from None


def _read_rows(path, date_col, value_col, date_format):
    """Parse (date, value) rows. Returns (rows, problems); rows carry line numbers."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(path, [f"cannot open file: {exc}"]) from None

    problems = []
    rows = []
    with handle:
        reader = csv.reader(handle)
        records = _records(reader, path)
        first = next(records, None)
        if first is None:
            raise IngestError(path, ["file is empty, expected a header row"])
        header = [name.strip() for name in first]
        bad = [f"missing column {c!r}; header has {header}" if c not in header
               else f"column {c!r} appears {header.count(c)} times; header has {header}"
               for c in (date_col, value_col) if header.count(c) != 1]
        if bad:
            raise IngestError(path, bad)
        i_date, i_value = header.index(date_col), header.index(value_col)
        for record in records:
            if not record:  # blank line
                continue
            line = reader.line_num
            # a row that stops short of a column leaves that cell empty
            raw_date = record[i_date].strip() if i_date < len(record) else ""
            raw_value = record[i_value].strip() if i_value < len(record) else ""
            parsed_date = parsed_value = None
            if not raw_date:
                problems.append(f"line {line}: empty {date_col!r} cell")
            else:
                try:
                    parsed_date = datetime.strptime(raw_date, date_format).date()
                except ValueError:
                    problems.append(
                        f"line {line}: cannot parse date {raw_date!r} with format {date_format!r}")
            if not raw_value:
                problems.append(f"line {line}: empty {value_col!r} cell")
            else:
                try:
                    parsed_value = float(raw_value)
                except ValueError:
                    problems.append(f"line {line}: cannot parse number {raw_value!r}")
                else:
                    if not math.isfinite(parsed_value):
                        problems.append(f"line {line}: non-finite value {raw_value!r}")
                        parsed_value = None
            if parsed_date is not None and parsed_value is not None:
                rows.append((parsed_date, parsed_value, line))
    return rows, problems


# Text per slice of a column-wise read. A slice's field strings and byte
# masks are what the read holds at once, a few MiB at this size, whatever
# the file's length: a whole-file read raised the long_history run's peak
# RSS from 64.5 to 86.3 MB. Smaller slices cost more calls per row: on a
# 100 000-row file (2-vCPU x86-64, Python 3.11), 32 KiB slices took about
# 20 % longer and 64 KiB about 4 %.
_SLICE_BYTES = 1 << 18


def _slices(handle):
    """An open binary file's bytes as slices of whole lines, each one read
    of _SLICE_BYTES plus the rest of the line it ends in. A line longer than
    a slice gives None in place of a slice."""
    rest = b""
    while block := handle.read(_SLICE_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield rest + block[:cut]
            rest = block[cut:]
        elif len(rest) + len(block) > _SLICE_BYTES:
            yield None
            return
        else:
            rest += block
    yield rest


def _days(texts, regex):
    """The dates of date cells as datetime64[D], or None unless the first
    cell has no whitespace to strip, regex matches it as strptime tests it,
    as a four-digit year and a two-digit month and day, and every cell is a
    valid date laid out as the first: its length, its bytes outside the
    groups and ASCII digits inside them. Each group tries two digits before
    one, so strptime then splits every cell where it splits the first.

    So no cell has whitespace to strip: a padded cell differs from the
    first in its length, holds whitespace where the first holds a digit or
    another fixed byte, or is not ASCII. The per-row path strips each cell
    before parsing it, and under a format such as "%Y-%m-%d " no stripped
    cell matches; the unstripped first cell would.

    The split has to be checked: under %Y%m%d, "2020131" is 2020-01-31,
    and reading "2020111" at the same places would give 2020-01-11 where
    strptime gives 2020-11-01."""
    if texts[0] != texts[0].strip():
        return None
    found = regex.match(texts[0])
    joined = "\0".join(texts) + "\0"
    if found is None or found.end() != len(texts[0]) or not joined.isascii():
        return None
    spans = [found.span(group) for group in "Ymd"]
    width = len(texts[0]) + 1  # a cell and the NUL after it
    if [end - start for start, end in spans] != [4, 2, 2] or len(joined) != len(texts) * width:
        return None
    rows = np.frombuffer(joined.encode("ascii"), np.uint8).reshape(len(texts), width)
    fixed = np.ones(width, bool)  # outside the groups, including the NUL
    for start, end in spans:
        fixed[start:end] = False
    numbers = rows - ord("0")  # digit values where rows hold digits
    if np.any(rows[:, fixed] != rows[0, fixed]) or np.any(numbers[:, ~fixed] > 9):
        return None
    year, month, day = (numbers[:, start:end] @ 10 ** np.arange(end - start - 1, -1, -1)
                        for start, end in spans)
    if year.min() < 1 or month.min() < 1 or month.max() > 12 or day.min() < 1:
        return None  # year 0 is no date
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    if np.any(days.astype("datetime64[M]") != months):  # a day past its month's end
        return None
    return days


def _read_columns(path, date_col, value_col, regex):
    """Read a clean file column-wise, a slice of lines at a time.

    Returns (dates, values) sorted by date, or None for any file that is
    not clean, which _read_rows then reads row by row, so every problem
    message comes from one place. A clean file is UTF-8 holding no quote,
    NUL or CR outside a CRLF line end, with a header naming each column
    once and at least one other line that is not blank. Every other line
    is blank or has the header's field count, and no field is longer than
    csv.field_size_limit(). regex, from _date_regex, has groups for %Y, %m
    and %d alone, and each slice's dates are valid and laid out as its
    first, which regex matches (see _days). Every value is a float. The
    values are not checked against any rule of a series, such as distinct
    dates or finite values: the series type checks those.
    """
    if regex.groupindex.keys() != {"Y", "m", "d"}:
        return None
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    limit = csv.field_size_limit()
    header = None
    days, values = [], []
    with handle:
        for chunk in _slices(handle):
            if chunk is None:
                return None
            chunk = chunk.replace(b"\r\n", b"\n")  # a slice ends at a LF: none is split
            if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                return None
            try:
                if header is None:
                    # without the byte-order mark, as utf-8-sig reads it
                    line, _, chunk = chunk.removeprefix(b"\xef\xbb\xbf").partition(b"\n")
                    header = [name.strip() for name in line.decode("utf-8").split(",")]
                    if header.count(date_col) != 1 or header.count(value_col) != 1:
                        return None
                    count = len(header)
                    i_date, i_value = header.index(date_col), header.index(value_col)
                    line_ends = np.array([ord(",")] * (count - 1) + [ord("\n")], np.uint8)
                    if len(line) > limit:
                        return None
                chunk = re.sub(rb"\n\n+", b"\n", chunk).strip(b"\n")  # blank lines
                text = chunk.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if not text:
                continue
            # each line has the header's field count, and no field is too long for csv
            marks = np.frombuffer(chunk, np.uint8)
            ends = np.flatnonzero((marks == ord(",")) | (marks == ord("\n")))
            kinds = np.append(marks[ends], ord("\n"))
            if (kinds.size % count or np.any(kinds.reshape(-1, count) != line_ends)
                    or np.diff(ends, prepend=-1, append=marks.size).max() - 1 > limit):
                return None
            fields = text.replace("\n", ",").split(",")
            slice_days = _days(fields[i_date::count], regex)
            if slice_days is None:
                return None
            try:  # float strips what str.strip does, bar \x1c-\x1f, which it rejects
                slice_values = np.fromiter(map(float, fields[i_value::count]), float,
                                           count=slice_days.size)
            except ValueError:
                return None
            days.append(slice_days)
            values.append(slice_values)
    if not days:
        return None
    days, values = np.concatenate(days), np.concatenate(values)
    if not np.all(days[1:] > days[:-1]):  # else already in order
        order = np.argsort(days, kind="stable")
        days, values = days[order], values[order]
    return days, values


def _load(path, date_col, value_col, date_format, kind, label):
    """A file's two columns as a series of kind, PriceSeries or
    ReturnSeries, labelled label or else the file's stem. A clean file's
    columns are read column-wise and taken when kind accepts them; any
    other file, or columns kind refuses, are read row by row, which words
    every rule of kind as a problem: a duplicate date, a value that is not
    finite, too few rows, and for prices a price that is not positive.

    Raises ValueError for a date_format strptime cannot use, before the
    file is opened, and IngestError listing every problem found.
    """
    regex = _date_regex(date_format)
    label = label or Path(path).stem
    columns = _read_columns(path, date_col, value_col, regex)
    if columns is not None:
        try:
            return kind(label, *columns)
        except ValueError:
            pass  # the per-row read words what kind refuses
    rows, problems = _read_rows(path, date_col, value_col, date_format)
    prices = kind is PriceSeries
    if prices:
        problems += [f"line {line}: price {value!r} is not positive"
                     for _, value, line in rows if value <= 0.0]
    rows.sort(key=lambda r: r[0])  # files may be unordered
    problems += [f"duplicate date {d1.isoformat()} (lines {l1} and {l2})"
                 for (d1, _, l1), (d2, _, l2) in zip(rows, rows[1:]) if d1 == d2]
    if not problems and len(rows) < (2 if prices else 1):
        problems.append(f"need at least 2 usable price rows, got {len(rows)}" if prices
                        else "no usable return rows")
    if problems:
        raise IngestError(path, problems)
    return kind(label, [r[0] for r in rows], [r[1] for r in rows])


def load_prices(path, date_col="date", price_col="price", date_format="%Y-%m-%d",
                label="") -> PriceSeries:
    """Load a settlement price file.

    Parameters:
    - path: CSV file with a header row.
    - date_col, price_col: column names to read.
    - date_format: strptime format for the date column.
    - label: name for the series; defaults to the file stem.

    Raises ValueError for a date_format strptime cannot use, before the
    file is opened. Raises IngestError listing every malformed cell,
    non-positive price and duplicate date found. Rows are sorted by date if
    the file is unordered.
    """
    return _load(path, date_col, price_col, date_format, PriceSeries, label)


def load_returns(path, date_col="date", return_col="return", date_format="%Y-%m-%d",
                 label="") -> ReturnSeries:
    """Load a file of pre-computed returns; same CSV rules as load_prices."""
    return _load(path, date_col, return_col, date_format, ReturnSeries, label)


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def log_returns(series: PriceSeries) -> ReturnSeries:
    """Daily log returns ln(P_t / P_{t-1}), dated by the later observation.

    A price repeated on consecutive dates (holiday padding) produces a
    return of exactly 0.0, because x / x is exactly 1 in floating point.
    Raises ValueError when a ratio of consecutive prices overflows to inf
    or underflows to 0, so its log is not finite.
    """
    p = series.prices
    with np.errstate(over="ignore"):  # checked below instead
        ratios = p[1:] / p[:-1]
    if not 0.0 < ratios.min() <= ratios.max() < math.inf:
        raise ValueError("a ratio of consecutive prices leaves the float range")
    # the platform libm's log, one ratio at a time: numpy's dispatched log
    # can differ in the last bit between CPUs
    r = np.fromiter(map(math.log, ratios.tolist()), float, count=ratios.size)
    return ReturnSeries(label=series.label, dates=series.dates[1:], returns=r)


def drop_zero_returns(series: ReturnSeries) -> ReturnSeries:
    """Remove returns that are exactly 0.0, e.g. from holiday-padded prices."""
    keep = series.returns != 0.0
    if not np.any(keep):
        raise ValueError(f"{series.label}: every return is zero")
    return ReturnSeries(label=series.label, dates=series.dates[keep], returns=series.returns[keep])


# ----------------------------------------------------------------------
# summary statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryStats:
    """Moment summary of a return series.

    std_dev uses the n - 1 divisor. skewness and kurtosis are built from
    central moments with the n divisor; kurtosis is not excess-adjusted, so
    a normal sample sits near 3. kurtosis is None when n < 4.
    """

    n: int
    mean: float
    std_dev: float
    skewness: float
    kurtosis: float | None
    minimum: float
    maximum: float


def summary_stats(series: ReturnSeries) -> SummaryStats:
    """Compute SummaryStats for a ReturnSeries.

    The central moments are means of products of the deviations c from
    the mean, c * c, then c**2 * c and c**2 * c**2: exact IEEE multiplies,
    so the statistics do not depend on the CPU, as numpy's dispatched power
    would make them.

    Raises ValueError for fewer than 2 observations, for a constant
    series, whose higher moments are undefined, and for a series whose
    moments leave the float range: deviations of about 1.16e77 overflow
    the fourth moment, and deviations under about 1e-81 underflow the
    squared variance that divides it.
    """
    x = series.returns  # finite, as ReturnSeries checks
    n = int(x.size)
    if n < 2:
        raise ValueError(f"need at least 2 observations for summary statistics, got {n}")
    # exactly, not by m2 == 0: the mean of a constant is often off by an ulp,
    # and an underflowed m2 of a varying series is a float-range error below
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise ValueError("moments are undefined for a constant series")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below instead
        mean = float(x.mean())
        c = x - mean
        c2 = c * c
        m2 = float(c2.mean())
        m3 = float((c2 * c).mean())
        m4 = float((c2 * c2).mean()) if n >= 4 else 0.0
    std_dev = skew = kurt = math.nan
    try:  # Python float powers raise where numpy's would overflow to inf
        std_dev = math.sqrt(m2 * n / (n - 1))
        skew = m3 / m2 ** 1.5
        kurt = m4 / m2 ** 2 if n >= 4 else None
    except (OverflowError, ZeroDivisionError):
        pass
    if not all(map(math.isfinite, (mean, m2, m3, m4, std_dev, skew, 0.0 if kurt is None else kurt))):
        raise ValueError("the series' moments leave the float range; rescale the returns")
    return SummaryStats(
        n=n,
        mean=mean,
        std_dev=std_dev,
        skewness=skew,
        kurtosis=kurt,
        minimum=lo,
        maximum=hi)
