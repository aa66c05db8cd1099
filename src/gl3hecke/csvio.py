"""The package's headed-CSV files, read and written in one place.

A file is one header row naming its columns, then one record per row.  The
reader checks the header and the field count, skips blank rows, rejects a
repeated key and reports every fault as `path:line: message`.  Each format
supplies only a row parser, which turns a row of strings into (key, value)
and raises ValueError for a field it cannot accept.
"""

from __future__ import annotations

import csv


class IngestError(ValueError):
    """A CSV file does not match its format; the message starts with path:line:."""


def read_csv(path: str, header: tuple[str, ...], key_name: str, parse_row) -> dict:
    """The records of `path` as {key: value} in file order, where
    parse_row(row) -> (key, value) and key_name names the key in the
    duplicate-key message."""
    out: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        got = next(rows, None)
        if got is None or tuple(h.strip() for h in got) != header:
            raise IngestError(f"{path}:1: expected header {','.join(header)!r}")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {row!r}")
            try:
                key, value = parse_row(row)
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}") from exc
            if key in out:
                raise IngestError(f"{path}:{lineno}: duplicate {key_name} {key}")
            out[key] = value
    return out


def write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Write the header and then each row; floats (numpy floats included) are
    written by repr(float(v)), so they read back bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
