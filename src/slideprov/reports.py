"""Deterministic report files: CSV and JSON, written atomically.

Same data in, same bytes out: fixed column order, LF line endings,
shortest round-trip float formatting, canonical JSON key order.  An exact
number (a ``Fraction``) is rounded once, here, to decimal text.
``table`` makes a report of result rows, a column per attribute path.
``write_csv`` and ``write_json`` are the only functions that write a
report file; ``write_reports`` writes a command's reports through them.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from decimal import Context
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

KEY = ("key.lecture_id", "key.slide_id")  # the columns of a slide key

# decimal only formats the text: no Decimal is kept or computed on
_DECIMAL = Context(prec=28)  # half-even, its default rounding


class Table(NamedTuple):
    """A tabular report: written as CSV, or as a JSON list of row objects."""

    header: list[str]
    rows: list[Sequence[object]]


def table(rows: Iterable, *columns: str) -> Table:
    """A row per item of ``rows``: a cell per dotted attribute path (two or more), headed by its last name."""
    get = attrgetter(*columns)  # a tuple of cells, as there are two or more paths
    return Table([column.rpartition(".")[2] for column in columns], [get(row) for row in rows])


def format_cell(value: object) -> str:
    """A cell's text: ``None`` is the empty cell and an ``Enum`` its value.

    A ``Fraction`` is written in positional notation, rounded half-even to
    28 significant digits, with trailing zeros dropped.
    """
    if value is None:
        return ""
    if isinstance(value, Enum):
        value = value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if type(value) is Fraction:  # not isinstance: its ABC check would cost every int and str cell 10x
        return format(_DECIMAL.normalize(_DECIMAL.divide(value.numerator, value.denominator)), "f")
    return str(value)


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would.
        # The umask can only be read by setting it.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path | str, header: list[str], rows: list[Sequence[object]]) -> Path:
    path = Path(path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    _atomic_write(path, buf.getvalue().encode("utf-8"))
    return path


def write_json(path: Path | str, doc: object) -> Path:
    path = Path(path)
    # allow_nan=False: NaN and Infinity are not JSON, so such a value raises ValueError
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False, default=format_cell)
    _atomic_write(path, (text + "\n").encode("utf-8"))
    return path


def write_reports(out: Path | str, reports: dict[str, Table | dict], fmt: str) -> None:
    """Write each report as ``out/<stem>.<fmt>``; a dict report is always ``<stem>.json``."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out)
    for stem, report in reports.items():
        if not isinstance(report, Table):
            write_json(out / f"{stem}.json", report)
        elif fmt == "csv":
            write_csv(out / f"{stem}.csv", report.header, report.rows)
        else:
            write_json(out / f"{stem}.json",
                       [{name: format_cell(cell) for name, cell in zip(report.header, row)}
                        for row in report.rows])
