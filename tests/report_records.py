"""Parse riskboot.report's machine formats back to cell records.

to_csv and to_kv write every cell with repr(), so these parsers give back
every value bit-exactly. Only the tests read the formats back, so the
parsers live here rather than in the package.
"""

import csv
import io


def _parse_value(text: str, text2: str):
    def one(s):
        try:
            return int(s)
        except ValueError:
            return float(s)

    if text == "":
        return None
    if text2 != "":
        return (float(text), float(text2))
    return one(text)


def parse_csv(text: str):
    """Parse to_csv output back to cell records with exact values.

    Returns a list of dicts with keys table, section, position, row,
    column, value.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    expected = ["table", "section", "position", "row", "column", "value", "value2"]
    if header != expected:
        raise ValueError(f"unexpected header {header!r}")
    records = []
    for fields in reader:
        if len(fields) != len(expected):
            raise ValueError(f"malformed line {fields!r}")
        table, section, position, row, column, v1, v2 = fields
        records.append({
            "table": table, "section": section, "position": position,
            "row": row, "column": column,
            "value": _parse_value(v1, v2)})
    return records


def parse_kv(text: str):
    """Parse to_kv output back to cell records with exact values."""
    records = []
    meta = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        head = line.split(" = ", 1)[0]
        if head in ("table", "title", "contracts", "note"):
            key, _, value = line.partition(" = ")
            meta[key] = value
            continue
        # row labels may themselves contain ' = ' (e.g. 'ARA = 5'), but the
        # numeric value never does, so cell lines split from the right
        key, sep, value = line.rpartition(" = ")
        if not sep:
            raise ValueError(f"malformed line {line!r}")
        parts = key.split("|")
        if len(parts) != 4:
            raise ValueError(f"malformed key {key!r}")
        section, position, row, column = parts
        tokens = value.split()
        if len(tokens) == 2:
            parsed = (float(tokens[0]), float(tokens[1]))
        else:
            parsed = _parse_value(tokens[0], "")
        records.append({
            "table": meta.get("table", ""), "section": section, "position": position,
            "row": row, "column": column, "value": parsed})
    return records
