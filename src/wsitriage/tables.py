"""One on-disk layout for every model file and result table.

A file is UTF-8 text: its format's fixed top lines (a version header
and/or a column line) followed by CSV rows with RFC 4180 quoting, so a
field may hold commas, quotes and newlines.  The first field of every row
is the row's key.  Readers check the bytes, the top lines, the quoting,
the field count and the key of every row and the conversion of every
field, and reject the first mismatch with a TableError that names
path:line; no row is skipped.  Blank lines between rows are ignored.

Each format keeps only its row mapping and column types.  The model files
share one: a row per array, `name,shape,values`, with the shape and the
row-major values space-separated and the values in full-precision repr.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

_ARRAY_COLUMNS = "name,shape,values"
_ECHO_CHARS = 80   # of a mismatched top line, echoed in its error


class TableError(ValueError):
    """A file whose bytes, top lines or rows do not match its format."""


def write_table(path, head, rows) -> None:
    """Write the top lines, then one CSV row per item of rows.

    Rows are formatted with a CRLF terminator, which makes the csv module
    quote every field holding a CR as well as an LF, and written ending in
    LF alone.  Floats must be Python floats: csv writes their repr, and a
    numpy scalar's repr is not a number.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in head:
            fh.write(line + "\n")
        for row in rows:
            writer.writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")
            buf.seek(0)
            buf.truncate()


def read_text(path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is rejected at
    the path:line it is on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise TableError(f"{path}:{lineno}: byte {data[exc.start]:#04x} is not UTF-8") from None


def read_table(path, head, columns):
    """Check the top lines, then yield (lineno, row) for every CSV row;
    lineno is the file line the row starts on.  columns holds one
    converter per field (str, float, ...); a field it rejects with a
    ValueError, a row whose key an earlier row has, and a row the csv
    module cannot parse are reported as a TableError naming path:line."""
    lines = io.StringIO(read_text(path), newline="")
    for lineno, expected in enumerate(head, start=1):
        line = lines.readline().rstrip("\r\n")
        if line != expected:
            got = repr(line[:_ECHO_CHARS])
            if len(line) > _ECHO_CHARS:
                got += f"... ({len(line)} characters)"
            raise TableError(f"{path}:{lineno}: expected {expected!r}, got {got}")
    reader = csv.reader(lines, strict=True)
    start = len(head) + 1
    key_lines = {}
    try:
        for row in reader:
            lineno, start = start, len(head) + reader.line_num + 1
            if not row:
                continue
            if len(row) != len(columns):
                raise TableError(f"{path}:{lineno}: expected {len(columns)} fields, "
                                 f"got {len(row)}")
            if row[0] in key_lines:
                raise TableError(f"{path}:{lineno}: repeated key {row[0]!r}, "
                                 f"first on line {key_lines[row[0]]}")
            key_lines[row[0]] = lineno
            try:
                fields = [convert(v) for convert, v in zip(columns, row)]
            except ValueError as exc:
                raise TableError(f"{path}:{lineno}: {exc}") from None
            yield lineno, fields
    except csv.Error as exc:
        raise TableError(f"{path}:{start}: {exc}") from None


def optional(convert):
    """Column converter for a field that may be empty, which reads as None."""
    return lambda v: convert(v) if v else None


def finite(value) -> float:
    """Column converter for a number that is neither NaN nor infinite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def interval(low, high, name: str = "", open_low: bool = False):
    """Converter for a finite number in [low, high], or in (low, high] when
    open_low; high may be math.inf.  The error names the value as name."""
    bounds = f"{'(' if open_low else '['}{low}, {high}{')' if high == math.inf else ']'}"

    def convert(value) -> float:
        value = float(value)
        if not (low <= value <= high and math.isfinite(value)) or (open_low and value == low):
            raise ValueError(f"{name} must be in {bounds}, got {value}".lstrip())
        return value
    return convert


def at_least(low: int):
    """Converter for an integer from low up."""
    def convert(value) -> int:
        value = int(value)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return convert


def write_arrays(path, header: str, arrays: dict) -> None:
    """Model file: one `name,shape,values` row per array, in dict order."""
    rows = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        rows.append((name, " ".join(str(s) for s in arr.shape),
                     " ".join(repr(float(v)) for v in arr.reshape(-1))))
    write_table(path, [header, _ARRAY_COLUMNS], rows)


def read_arrays(path, header: str, shapes: dict) -> dict:
    """The arrays of a model file written by write_arrays: one row for each
    name of shapes, holding an array of that shape, and no other row."""
    arrays = {}
    columns = (str, lambda text: tuple(int(d) for d in text.split()),
               lambda text: [finite(v) for v in text.split()])
    for lineno, (name, shape, values) in read_table(path, [header, _ARRAY_COLUMNS], columns):
        if name not in shapes:
            raise TableError(f"{path}:{lineno}: unknown array {name!r}")
        if shape != shapes[name] or len(values) != math.prod(shape):
            raise TableError(f"{path}:{lineno}: array {name!r} of shape {shape} with "
                             f"{len(values)} values, expected shape {shapes[name]}")
        arrays[name] = np.array(values).reshape(shape)
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise TableError(f"{path}: missing arrays {missing}")
    return arrays
