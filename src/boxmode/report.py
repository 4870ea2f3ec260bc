"""Deterministic CSV tables and pass/fail check reports."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np


# Rows per ``%`` application on the array path: large enough that the
# per-chunk overhead vanishes, small enough that a chunk's text stays a few
# MiB however long the table is.
CSV_CHUNK_ROWS = 65536


def _checked_text(text: str) -> str:
    if "," in text or "\n" in text:
        raise ValueError(f"cell text may not contain ',' or newlines: {text!r}")
    return text


def format_value(value, digits: int = 12) -> str:
    """Render one CSV cell: ints plainly, floats in scientific notation.

    The same value and digits always produce the same bytes; strings pass
    through untouched but must not contain the separators themselves.
    Booleans and complex numbers have no single faithful cell and raise
    ``TypeError``.
    """
    if isinstance(value, str):
        return _checked_text(value)
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are ambiguous; format them explicitly")
    if isinstance(value, (complex, np.complexfloating)):
        raise TypeError("complex cells would lose their imaginary part; write re and im columns")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.{digits}e}"


def _cell_format(dtype: np.dtype, digits: int) -> str:
    """The ``%`` format that renders one cell of ``dtype`` as ``format_value`` does."""
    if dtype.kind == "f":
        return f"%.{digits}e"
    if dtype.kind in "iu":
        return "%d"
    raise TypeError(f"array tables hold float or integer cells, not {dtype}")


def _array_chunks(rows: np.ndarray, line: str):
    """Yield the text of ``rows``, ``CSV_CHUNK_ROWS`` rows per ``%`` application."""
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        chunk = rows[start : start + CSV_CHUNK_ROWS]
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def write_csv(path, header, rows, digits: int = 12) -> Path:
    """Write a UTF-8, LF-terminated CSV with a mandatory header line.

    ``rows`` takes one of two forms:

    * a 2-D numpy array, one table row per array row. Every cell shares the
      array's dtype: floats render as ``%.{digits}e`` and integers as
      ``%d``; bool, complex, string and object arrays raise ``TypeError``.
      The array is rendered ``CSV_CHUNK_ROWS`` rows at a time through one
      ``%`` line template and each chunk is written as it is made, so the
      text in memory stays bounded however long the table is;
    * a sequence of row tuples, each cell through ``format_value``. This is
      the form for mixed rows: strings, or ints beside floats.

    Both forms give the same bytes for the same values. Floats are rendered
    in scientific notation with the given digit count, so identical tables
    produce byte-identical files on every run. An empty table still writes
    the header. Header names and string cells may not contain ',' or
    newlines.
    """
    header = [_checked_text(str(name)) for name in header]
    if not header:
        raise ValueError("a CSV needs at least one header column")
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != len(header):
            raise ValueError(
                f"array of shape {rows.shape} does not match header width {len(header)}"
            )
        line = ",".join([_cell_format(rows.dtype, digits)] * len(header)) + "\n"
        chunks = _array_chunks(rows, line)
    else:
        chunks = []
        for row in rows:
            cells = [format_value(cell, digits) for cell in row]
            if len(cells) != len(header):
                raise ValueError(
                    f"row width {len(cells)} does not match header width {len(header)}"
                )
            chunks.append(",".join(cells) + "\n")
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(chunks)
    return path


class CheckResult(NamedTuple):
    """Outcome of one named consistency check."""

    name: str
    passed: bool
    residual: float

    def line(self, digits: int = 12) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {verdict} (residual={self.residual:.{digits}e})"


def check(name: str, residual: float, limit: float) -> CheckResult:
    """A CheckResult that passes when |residual| <= limit."""
    return CheckResult(name=name, passed=abs(residual) <= limit, residual=float(residual))


def render_report(title: str, checks, digits: int = 12) -> str:
    """Multi-line report: a title, one line per check, and a verdict."""
    lines = [title]
    lines += [c.line(digits) for c in checks]
    failed = [c.name for c in checks if not c.passed]
    lines.append(
        "all checks passed" if not failed else f"failed checks: {', '.join(failed)}"
    )
    return "\n".join(lines)


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
