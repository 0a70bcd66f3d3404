"""One on-disk layout for every model file and result table.

A file is its format's fixed top lines (a version header and/or a column
line) followed by CSV rows with RFC 4180 quoting, so a field may hold
commas, quotes and newlines.  Readers check the top lines, the field
count of every row and the conversion of every field, and reject the
first mismatch with a TableError that names path:line; no row is skipped.
Blank lines between rows are ignored.

Each format keeps only its row mapping and column types.  The model files
share one: a row per array, `name,shape,values`, with the shape and the
row-major values space-separated and the values in full-precision repr.
"""

from __future__ import annotations

import csv
import io

import numpy as np

_ARRAY_COLUMNS = "name,shape,values"


class TableError(ValueError):
    """A file whose top lines or rows do not match its format."""


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


def read_table(path, head, columns):
    """Check the top lines, then yield (lineno, row) for every CSV row;
    lineno is the file line the row starts on.  columns holds one
    converter per field (str, float, ...); a field it rejects with a
    ValueError is reported as a TableError naming path:line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, expected in enumerate(head, start=1):
            line = fh.readline().rstrip("\r\n")
            if line != expected:
                raise TableError(f"{path}:{lineno}: expected {expected!r}, got {line!r}")
        reader = csv.reader(fh)
        start = len(head) + 1
        for row in reader:
            lineno, start = start, len(head) + reader.line_num + 1
            if not row:
                continue
            if len(row) != len(columns):
                raise TableError(f"{path}:{lineno}: expected {len(columns)} fields, "
                                 f"got {len(row)}")
            try:
                fields = [convert(v) for convert, v in zip(columns, row)]
            except ValueError as exc:
                raise TableError(f"{path}:{lineno}: {exc}") from None
            yield lineno, fields


def optional(convert):
    """Column converter for a field that may be empty, which reads as None."""
    return lambda v: convert(v) if v else None


def write_arrays(path, header: str, arrays: dict) -> None:
    """Model file: one `name,shape,values` row per array, in dict order."""
    rows = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        rows.append((name, " ".join(str(s) for s in arr.shape),
                     " ".join(repr(float(v)) for v in arr.reshape(-1))))
    write_table(path, [header, _ARRAY_COLUMNS], rows)


def read_arrays(path, header: str, names) -> dict:
    """The named arrays of a model file written by write_arrays."""
    arrays = {}
    for lineno, (name, shape, values) in read_table(path, [header, _ARRAY_COLUMNS], (str,) * 3):
        try:
            dims = [int(s) for s in shape.split()]
            arrays[name] = np.array([float(v) for v in values.split()]).reshape(dims)
        except ValueError as exc:
            raise TableError(f"{path}:{lineno}: {exc}") from None
    missing = [name for name in names if name not in arrays]
    if missing:
        raise TableError(f"{path}: missing arrays {missing}")
    return arrays
