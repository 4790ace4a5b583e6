"""Deterministic report files: CSV and JSON, written atomically.

Same data in, same bytes out: fixed column order, LF line endings,
shortest round-trip float formatting, canonical JSON key order.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path


def format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, Fraction)):
        return repr(float(value))
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


def write_csv(path: Path | str, header: list[str], rows: list[list[object]]) -> Path:
    path = Path(path)
    import io

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


def write_table(path: Path | str, header: list[str], rows: list[list[object]], fmt: str = "csv") -> Path:
    """Tabular report as CSV or as a JSON list of row objects."""
    path = Path(path)
    if fmt == "csv":
        return write_csv(path.with_suffix(".csv"), header, rows)
    if fmt == "json":
        doc = [
            {name: format_cell(cell) for name, cell in zip(header, row)}
            for row in rows
        ]
        return write_json(path.with_suffix(".json"), doc)
    raise ValueError(f"unknown report format {fmt!r}")
