"""Deterministic CSV tables and pass/fail check reports."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# Cells per chunk on the array path: its temporaries take a few hundred
# bytes per cell, and a chunk this size keeps them in the CPU cache however
# long the table is.
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


def _power_of_ten(k: int) -> tuple[float, float]:
    """10**k as a double-double (hi, lo): hi is 10**k correctly rounded and
    lo is 10**k - hi correctly rounded, both from exact integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


# Rows (hi, lo) of _power_of_ten(k) at index k - _SCALE_MIN, each filled the
# first time a chunk meets k; a row still zero is unfilled, as 10**k > 0 here.
_SCALE_TABLE = np.zeros((_SCALE_MAX - _SCALE_MIN + 1, 2))


def _scales(index: np.ndarray) -> np.ndarray:
    """``_SCALE_TABLE`` with its rows at ``index`` filled."""
    new = np.zeros(len(_SCALE_TABLE), bool)
    new[index] = True
    new &= _SCALE_TABLE[:, 0] == 0.0
    if new.any():
        _SCALE_TABLE[new] = [_power_of_ten(k) for k in (np.flatnonzero(new) + _SCALE_MIN).tolist()]
    return _SCALE_TABLE


def _scaled_round(a: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """(whole, fraction) of a * (hi + lo): its floor as int64 and the rest.

    a * hi = p + (its rounding error) exactly, by Dekker's two-product, and
    a * lo adds the rest of 10**k, so p + e holds the product to about
    2**-104 relative.
    """
    p = a * hi
    a_head, hi_head = _SPLIT * a, _SPLIT * hi
    a_head -= a_head - a
    hi_head -= hi_head - hi
    a_tail, hi_tail = a - a_head, hi - hi_head
    e = a_head * hi_head - p + a_head * hi_tail + a_tail * hi_head + a_tail * hi_tail + a * lo
    whole = np.floor(p)
    fraction = p - whole + e
    carry_in = np.floor(fraction)
    fraction -= carry_in
    # In int64: above 2**53 a float sum would round the carry away.
    return whole.astype(np.int64) + carry_in.astype(np.int64), fraction


def _rounded_decimals(a: np.ndarray, digits: int):
    """Round each ``a`` > 0 to ``digits + 1`` significant decimals, half to even.

    Returns (mantissa, exponent, proven): a ~ mantissa * 10**(exponent -
    digits) with 10**digits <= mantissa < 10**(digits + 1). Where
    ``proven`` holds, mantissa and exponent are the ones ``%e`` prints.
    Elsewhere they are meaningless: a outside [1e-280, 1e280] (zeros and
    non-finite values included), a within ``_TIE_MARGIN`` of a tie, or a
    wrong estimate of the exponent. ``a`` is overwritten.

    One product p = a * hi lies within 10**(digits + 1) * 2**-52 of the
    exact a * 10**k, so it rounds every cell whose fraction lies farther
    than twice that from 1/2. The rest are scaled again as a double-double
    (``_scaled_round``). From 15 digits up that margin reaches 1/2, so the
    product is skipped and the whole chunk takes the double-double.
    """
    proven = (a >= 1e-280) & (a <= 1e280)
    a[~proven] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.int64)
    index = (digits - _SCALE_MIN) - exponent
    hi, lo = _scales(index).T
    margin = 10.0 ** (digits + 1) * 2.0**-51
    if margin >= 0.5:
        unsure = slice(None)
        mantissa, fraction = _scaled_round(a, np.take(hi, index), np.take(lo, index))
    else:
        p = a * np.take(hi, index)
        whole = np.floor(p)
        fraction = p - whole
        mantissa = whole.astype(np.int64)
        unsure = np.flatnonzero(np.abs(fraction - 0.5) <= margin)
        if unsure.size:
            near = index[unsure]
            mantissa[unsure], fraction[unsure] = _scaled_round(
                a[unsure], np.take(hi, near), np.take(lo, near)
            )
    proven[unsure] &= np.abs(fraction[unsure] - 0.5) > _TIE_MARGIN
    proven &= (mantissa >= 10**digits) & (mantissa < 10 ** (digits + 1))
    mantissa += fraction > 0.5
    carry = mantissa == 10 ** (digits + 1)
    mantissa[carry] = 10**digits
    exponent += carry
    return mantissa, exponent, proven


@functools.cache
def _text_words():
    """(digit_words, exponent_words): ``digit_words[g]`` is the four digits of
    0 <= g < 10**4 as one uint32; ``exponent_words[e + 300]`` is exponent e
    as one uint64: 'e', sign, hundreds digit or blank, two digits, two
    blanks and ','."""
    pairs = np.frombuffer(("%02d" * 100 % tuple(range(100))).encode(), np.uint16)
    digit_words = np.empty((100, 100, 2), np.uint16)
    digit_words[:, :, 0] = pairs[:, None]
    digit_words[:, :, 1] = pairs
    exponents = "e-%3.2d  ," * 300 % tuple(range(300, 0, -1))
    exponents += "e+%3.2d  ," * 301 % tuple(range(301))
    return digit_words.view(np.uint32).ravel(), np.frombuffer(exponents.encode(), np.uint64)


def _float_text(chunk: np.ndarray, digits: int) -> bytes:
    """The CSV bytes of ``chunk``, each cell exactly as ``'%.{digits}e'`` prints it.

    Each cell fills a slot of whole 8-byte words: blanks, sign, leading
    digit, '.' and ``digits`` digits, right-aligned, then one exponent word
    that ends in the separator. The fraction goes in as 4-digit uint32
    words, right to left; sign, lead and '.' then overwrite the spare bytes
    of the leftmost one. Blanks are deleted at the end. The cells
    ``_rounded_decimals`` cannot prove, and every cell when ``digits`` lies
    outside 1..17, go through ``%`` itself, left-justified in their slots.
    """
    with np.errstate(invalid="ignore"):  # a signaling nan stays a nan
        values = chunk.astype(np.float64).ravel()
    width = 8 * -(-(digits + 11) // 8)
    cells = np.empty((values.size, width), np.uint8)
    if 1 <= digits <= 17:
        mantissa, exponent, proven = _rounded_decimals(np.abs(values), digits)
        digit_words, exponent_words = _text_words()
        words = cells.view(np.uint32)
        columns = range(words.shape[1] - 3, words.shape[1] - 3 - -(-digits // 4), -1)
        lead = mantissa // 10**digits
        number = mantissa - lead * 10**digits
        for column in columns[:-1]:
            quotient = number // 10**4
            words[:, column] = np.take(digit_words, number - quotient * 10**4)
            number = quotient
        words[:, columns[-1]] = np.take(digit_words, number)
        words[:, : columns[-1]] = 0x20202020  # four blanks
        point = width - 9 - digits
        negative = (values < 0).view(np.uint8)
        cells[:, point - 2] = negative * np.uint8(ord("-") - ord(" ")) + np.uint8(ord(" "))
        cells[:, point - 1] = lead + ord("0")
        cells[:, point] = ord(".")
        cells.view(np.uint64)[:, -1] = np.take(exponent_words, exponent + 300)
    else:
        proven = np.zeros(values.size, bool)
    unproven = np.flatnonzero(~proven)
    if unproven.size:
        text = f"%-{width - 1}.{digits}e," * unproven.size % tuple(values[unproven].tolist())
        cells[unproven] = np.frombuffer(text.encode(), np.uint8).reshape(-1, width)
    cells.reshape(*chunk.shape, width)[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b" ")


def _array_chunks(rows: np.ndarray, digits: int):
    """Yield the CSV bytes of ``rows``, ``_FLOAT_CHUNK_CELLS`` cells (or one row) at a time."""
    step = max(1, _FLOAT_CHUNK_CELLS // rows.shape[1])
    for start in range(0, len(rows), step):
        yield _float_text(rows[start : start + step], digits)


def write_csv(path, header, rows, digits: int = 12) -> Path:
    """Write a UTF-8, LF-terminated CSV with a mandatory header line.

    ``rows`` takes one of two forms:

    * a 2-D float array, one table row per array row, every cell rendered
      as ``%.{digits}e``; integer, bool, complex, string and object arrays
      raise ``TypeError``. The array is rendered ``_FLOAT_CHUNK_CELLS``
      cells at a time and each chunk is written as it is made, so the text
      in memory stays bounded however long the table is. Each chunk is
      rounded and laid out in numpy, byte for byte as ``%`` prints it: one
      product by a power of ten rounds most cells, a double-double the
      rest, and the digits go in four to a word. The cells that cannot be
      proven so (zeros, non-finite values, magnitudes outside [1e-280,
      1e280], near-ties) go through ``%`` itself;
    * a sequence of row tuples, each cell through ``format_value``. This is
      the form for ints and mixed rows (strings, or ints beside floats) and
      the reference the array form is tested against.

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
        if rows.dtype.kind != "f":
            raise TypeError(f"array tables hold float cells, not {rows.dtype}")
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


@dataclass(frozen=True)
class CheckResult:
    """One named consistency check: a float residual against its limit.

    A ``(lo, hi)`` limit passes when lo <= residual <= hi; a float limit L
    is the pair (-L, L), so it passes when |residual| <= L. A nan residual
    passes neither.
    """

    name: str
    residual: float
    limit: float | tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))

    @property
    def passed(self) -> bool:
        lo, hi = self.limit if isinstance(self.limit, tuple) else (-self.limit, self.limit)
        return lo <= self.residual <= hi

    def line(self, digits: int = 12) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {verdict} (residual={self.residual:.{digits}e})"


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
