"""Deterministic CSV tables and pass/fail check reports."""

from __future__ import annotations

import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np


# Rows per chunk on the array path: large enough that the per-chunk
# overhead vanishes, small enough that a chunk's text stays a few MiB
# however long the table is.
CSV_CHUNK_ROWS = 65536
# Cells per chunk on the float path, which caps its rows below
# CSV_CHUNK_ROWS: its temporaries take a few hundred bytes per cell, and a
# chunk this size keeps them in the CPU cache.
_FLOAT_CHUNK_CELLS = 16384

# Exponents k of the scales 10**k the float path uses: a cell |v| in
# [1e-280, 1e280] at 1..17 digits needs k in [-280, 298].
_SCALE_MIN, _SCALE_MAX = -290, 300
# Dekker's splitter: x * _SPLIT cuts a double into two halves of at most 26
# bits each, whose pairwise products are exact.
_SPLIT = 2.0**27 + 1.0
# Cells whose scaled value lies this close to a rounding tie are left to
# ``%``; the double-double scaling is good to about 1e-13 there.
_TIE_MARGIN = 1e-7


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


@functools.cache
def _powers_of_ten():
    """10**k for k in [_SCALE_MIN, _SCALE_MAX] as a double-double hi + lo.

    Returns (hi, hi_head, hi_tail, lo): hi is 10**k correctly rounded, lo
    is 10**k - hi correctly rounded, and hi_head + hi_tail = hi is Dekker's
    split of hi. Built from exact integers on first use.
    """
    hi, lo = [], []
    for k in range(_SCALE_MIN, _SCALE_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head = num / den
        p, q = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * q - p * den) / (den * q))
    hi, lo = np.array(hi), np.array(lo)
    scaled = _SPLIT * hi
    hi_head = scaled - (scaled - hi)
    return hi, hi_head, hi - hi_head, lo


def _times_power_of_ten(a: np.ndarray, k: np.ndarray):
    """a * 10**k as an unevaluated sum p + e, to about 2**-104 relative.

    a * hi = p + (its rounding error) exactly, by Dekker's two-product;
    a * lo adds the rest of 10**k.
    """
    hi, hi_head, hi_tail, lo = (np.take(table, k - _SCALE_MIN) for table in _powers_of_ten())
    p = a * hi
    a_head = _SPLIT * a
    a_head -= a_head - a
    a_tail = a - a_head
    e = a_head * hi_head - p + a_head * hi_tail + a_tail * hi_head + a_tail * hi_tail + a * lo
    return p, e


def _rounded_decimals(a: np.ndarray, digits: int):
    """Round each ``a`` > 0 to ``digits + 1`` significant decimals, half to even.

    Returns (mantissa, exponent, proven): a ~ mantissa * 10**(exponent -
    digits) with 10**digits <= mantissa < 10**(digits + 1). Where
    ``proven`` holds, mantissa and exponent are the ones ``%e`` prints.
    Elsewhere they are meaningless: a outside [1e-280, 1e280] (zeros and
    non-finite values included), a within ``_TIE_MARGIN`` of a tie, or a
    wrong estimate of the exponent. ``a`` is overwritten.
    """
    proven = (a >= 1e-280) & (a <= 1e280)
    a[~proven] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.int64)
    p, e = _times_power_of_ten(a, digits - exponent)
    whole = np.floor(p)
    fraction = p - whole + e
    carry_in = np.floor(fraction)
    fraction -= carry_in
    mantissa = whole.astype(np.int64) + carry_in.astype(np.int64)
    proven &= np.abs(fraction - 0.5) > _TIE_MARGIN
    proven &= (mantissa >= 10**digits) & (mantissa < 10 ** (digits + 1))
    mantissa += fraction > 0.5
    carry = mantissa == 10 ** (digits + 1)
    mantissa[carry] = 10**digits
    exponent += carry
    return mantissa, exponent, proven


def _put_decimal(cells: np.ndarray, number: np.ndarray, columns):
    """Write the low ``len(columns)`` decimal digits of ``number`` into ``columns`` as ASCII."""
    for column in reversed(columns):
        quotient = number // 10
        cells[:, column] = number - quotient * 10 + ord("0")
        number = quotient


def _float_text(chunk: np.ndarray, digits: int) -> bytes:
    """The CSV bytes of ``chunk``, each cell exactly as ``'%.{digits}e'`` prints it.

    Each cell fills a slot of ``digits + 9`` bytes: sign, leading digit,
    '.', ``digits`` digits, 'e', exponent sign, three exponent digits and
    the separator. Slot bytes a cell does not use hold spaces, which are
    deleted at the end. The cells ``_rounded_decimals`` cannot prove, and
    every cell when ``digits`` lies outside 1..17, go through ``%`` itself,
    left-justified in their slots.
    """
    with np.errstate(invalid="ignore"):  # a signaling nan stays a nan
        values = chunk.astype(np.float64).ravel()
    width = digits + 9
    cells = np.empty((values.size, width), np.uint8)
    if 1 <= digits <= 17:
        mantissa, exponent, proven = _rounded_decimals(np.abs(values), digits)
        cells[:, 0] = np.where(values < 0, np.uint8(ord("-")), np.uint8(ord(" ")))
        columns = [1, *range(3, digits + 3)]
        # Digits come out of uint32 halves of at most 9 digits each: numpy
        # divides uint32 several times faster than int64.
        if len(columns) > 9:
            high = mantissa // 10**9
            _put_decimal(cells, high.astype(np.uint32), columns[:-9])
            mantissa -= high * 10**9
        _put_decimal(cells, mantissa.astype(np.uint32), columns[-9:])
        cells[:, 2] = ord(".")
        cells[:, digits + 3] = ord("e")
        cells[:, digits + 4] = np.where(exponent < 0, np.uint8(ord("-")), np.uint8(ord("+")))
        magnitude = np.abs(exponent).astype(np.uint32)
        _put_decimal(cells, magnitude, (digits + 5, digits + 6, digits + 7))
        cells[magnitude < 100, digits + 5] = ord(" ")
    else:
        proven = np.zeros(values.size, bool)
    separators = np.full(chunk.shape[1], ord(","), np.uint8)
    separators[-1] = ord("\n")
    cells.reshape(*chunk.shape, width)[:, :, -1] = separators
    unproven = np.flatnonzero(~proven)
    if unproven.size:
        text = f"%-{width - 1}.{digits}e" * unproven.size % tuple(values[unproven].tolist())
        cells[unproven, :-1] = np.frombuffer(text.encode(), np.uint8).reshape(-1, width - 1)
    return cells.tobytes().translate(None, b" ")


def _array_chunks(rows: np.ndarray, digits: int):
    """Yield the CSV bytes of ``rows``, at most ``CSV_CHUNK_ROWS`` rows at a time."""
    step = CSV_CHUNK_ROWS
    if rows.dtype.kind == "f":
        step = min(step, max(1, _FLOAT_CHUNK_CELLS // rows.shape[1]))
        render = functools.partial(_float_text, digits=digits)
    else:
        line = ",".join(["%d"] * rows.shape[1]) + "\n"

        def render(chunk):
            return (line * len(chunk) % tuple(chunk.ravel().tolist())).encode()

    for start in range(0, len(rows), step):
        yield render(rows[start : start + step])


def write_csv(path, header, rows, digits: int = 12) -> Path:
    """Write a UTF-8, LF-terminated CSV with a mandatory header line.

    ``rows`` takes one of two forms:

    * a 2-D numpy array, one table row per array row. Every cell shares the
      array's dtype: floats render as ``%.{digits}e`` and integers as
      ``%d``; bool, complex, string and object arrays raise ``TypeError``.
      The array is rendered at most ``CSV_CHUNK_ROWS`` rows at a time
      and each chunk is written as it is made, so the text in memory stays bounded
      however long the table is. Float chunks are rounded and laid out in
      numpy, byte for byte as ``%`` prints them; the cells that cannot be
      proven so (zeros, non-finite values, magnitudes outside
      [1e-280, 1e280], near-ties) go through ``%`` itself. Integer chunks
      go through one ``%d`` line template;
    * a sequence of row tuples, each cell through ``format_value``. This is
      the form for mixed rows (strings, or ints beside floats) and the
      reference the array form is tested against.

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
        if rows.dtype.kind not in "fiu":
            raise TypeError(f"array tables hold float or integer cells, not {rows.dtype}")
        chunks = _array_chunks(rows, digits)
    else:
        chunks = []
        for row in rows:
            cells = [format_value(cell, digits) for cell in row]
            if len(cells) != len(header):
                raise ValueError(
                    f"row width {len(cells)} does not match header width {len(header)}"
                )
            chunks.append((",".join(cells) + "\n").encode("utf-8"))
    path = Path(path)
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
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
