import inspect
import math
import re
from argparse import Namespace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxmode import CheckResult, LandauSpec, WellSpec, report, write_csv
from boxmode.cli import (
    RunConfig,
    cmd_landau_checks,
    cmd_landau_degeneracy,
    cmd_momentum_compare,
    cmd_momentum_continuous,
)
from boxmode.report import _FLOAT_CHUNK_CELLS, all_passed, format_value


def test_format_int_stays_plain():
    assert format_value(42) == "42"
    assert format_value(np.int64(-3)) == "-3"


def test_format_float_uses_scientific():
    assert format_value(1.0, digits=3) == "1.000e+00"
    assert format_value(np.pi, digits=12) == "3.141592653590e+00"
    assert format_value(-1.5e-11, digits=2) == "-1.50e-11"


def test_format_string_passthrough():
    assert format_value("flux_ratio") == "flux_ratio"
    with pytest.raises(ValueError):
        format_value("a,b")
    with pytest.raises(ValueError):
        format_value("two\nlines")


def test_format_rejects_bool():
    with pytest.raises(TypeError):
        format_value(True)


@pytest.mark.parametrize(
    "value",
    [1 + 2j, np.complex128(1 + 2j), np.complex64(1)],
    ids=["complex", "complex128", "complex64"],
)
def test_format_rejects_complex(value):
    with pytest.raises(TypeError):
        format_value(value)


def test_write_csv_layout(tmp_path):
    path = write_csv(
        tmp_path / "t.csv", ("n", "value"), [(1, 0.5), (2, 0.25)], digits=3
    )
    text = path.read_text(encoding="utf-8")
    assert text == "n,value\n1,5.000e-01\n2,2.500e-01\n"


def test_write_csv_empty_table_keeps_header(tmp_path):
    for rows in ([], np.empty((0, 2))):
        path = write_csv(tmp_path / "empty.csv", ("a", "b"), rows)
        assert path.read_text(encoding="utf-8") == "a,b\n"


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [(1, 2, 3)])


def test_write_csv_is_deterministic(tmp_path):
    rows = [(k, np.sqrt(k)) for k in range(1, 40)]
    first = write_csv(tmp_path / "one.csv", ("k", "root"), rows).read_bytes()
    second = write_csv(tmp_path / "two.csv", ("k", "root"), rows).read_bytes()
    assert first == second


def test_check_lines():
    good = CheckResult("unitarity", residual=1e-14, limit=1e-9)
    bad = CheckResult("unitarity", residual=1e-3, limit=1e-9)
    assert good.passed and not bad.passed
    assert good.line(digits=3) == "CHECK unitarity: PASS (residual=1.000e-14)"
    assert bad.line(digits=3).startswith("CHECK unitarity: FAIL")


def test_check_result_derives_its_verdict():
    assert list(inspect.signature(CheckResult).parameters) == ["name", "residual", "limit"]
    with pytest.raises(TypeError):
        CheckResult("one", 0.0, 1.0, True)
    for residual in (3, np.float64(3.0), np.int64(3)):
        assert type(CheckResult("one", residual, 1.0).residual) is float


def test_all_passed():
    checks = [CheckResult("one", 0.0, 1.0), CheckResult("two", 2.0, (0.0, 1.0))]
    assert not all_passed(checks)
    assert all_passed(checks[:1])


@pytest.fixture(scope="module")
def cli_limits():
    """Check name -> limit, as the CLI leaves with former hand-built verdicts give them."""
    rc, well, landau = RunConfig(), WellSpec(), LandauSpec()
    runs = [
        cmd_momentum_continuous(Namespace(n=1, p_max=None, count=3), well, rc),
        cmd_momentum_compare(Namespace(n=1, window=None), well, rc),
        cmd_landau_degeneracy(Namespace(), landau, rc),
        cmd_landau_checks(Namespace(), landau, rc),
    ]
    return {check.name: check.limit for checks, *_ in runs for check in checks}


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


def _limit_cases(limit, passing, failing):
    """Rows (residual, limit, verdict) around one limit."""
    return [(v, limit, True) for v in passing] + [(v, limit, False) for v in failing]


def _former_cases(name, old_rule, residual_of, values):
    """Rows whose limit is the CLI check ``name``'s and whose verdict is the
    inequality the check evaluated by hand before it had a limit."""
    return [(residual_of(v), name, old_rule(v)) for v in values]


SPECIALS = (math.nan, math.inf, -math.inf)
VERDICT_CASES = [
    *_limit_cases(1e-9, (1e-9, -1e-9, 0.0), (_up(1e-9), _down(-1e-9), *SPECIALS)),
    *_limit_cases(0.0, (0.0, -0.0), (5e-324, -5e-324, *SPECIALS)),
    *_limit_cases((-0.5, 2.0), (-0.5, 2.0, 0.0), (_down(-0.5), _up(2.0), *SPECIALS)),
    *_limit_cases((4.0, math.inf), (4.0, math.inf), (_down(4.0), math.nan, -math.inf)),
    *_former_cases(
        "trapezoid-normalization",
        lambda integral: 0.999 <= integral <= 1.0 + 1e-9,
        lambda integral: integral - 1.0,
        [
            *(f(x) for x in (0.999, 1.0 + 1e-9) for f in (_down, float, _up)),
            0.0, 0.5, 1.0, 2.0, 2.2, *SPECIALS,
        ],
    ),
    *_former_cases(
        "window-mass-bounded",
        lambda mass: 0.0 < mass < 1.0,
        float,
        [0.0, -0.0, 5e-324, 0.5, _down(1.0), 1.0, _up(1.0), *SPECIALS],
    ),
    *_former_cases("counts-within-one", lambda spread: spread <= 1, float, [0, 1, 2, 10**6]),
    *_former_cases(
        "refinement-drop-at-least-4x",
        lambda ratio: ratio >= 4.0,
        float,
        [0.0, _down(4.0), 4.0, _up(4.0), *SPECIALS],
    ),
]


@pytest.mark.parametrize(
    "residual, limit, verdict",
    [pytest.param(*case, id=f"{case[1]}-{case[0]!r}") for case in VERDICT_CASES],
)
def test_verdict_is_the_residual_against_its_limit(cli_limits, residual, limit, verdict):
    limit = cli_limits.get(limit, limit)
    assert CheckResult("c", residual, limit).passed is verdict


@pytest.mark.parametrize("rows", [[(1, 2)], np.ones((1, 2))], ids=["tuples", "array"])
@pytest.mark.parametrize("header", [("a,b", "c"), ("a", "b\nc")])
def test_write_csv_rejects_separators_in_header(tmp_path, rows, header):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(path, header, rows)
    assert not path.exists()


_INTEGER_DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")


@pytest.mark.parametrize(
    "rows, error",
    [
        (np.ones((3, 2), dtype=bool), TypeError),
        (np.ones((3, 2), dtype=complex), TypeError),
        (np.array([["x", "y"]]), TypeError),
        (np.array([[1.0, None]], dtype=object), TypeError),
        *((np.ones((3, 2), dtype=dtype), TypeError) for dtype in _INTEGER_DTYPES),
        (np.ones(2), ValueError),
        (np.ones((1, 2, 1)), ValueError),
        (np.ones((3, 3)), ValueError),
    ],
    ids=["bool", "complex", "string", "object", *_INTEGER_DTYPES, "1-d", "3-d", "wrong-width"],
)
def test_write_csv_rejects_unwritable_arrays(tmp_path, rows, error):
    path = tmp_path / "bad.csv"
    # A TypeError names the dtype; integer tables go as row tuples.
    with pytest.raises(error, match=re.escape(str(rows.dtype)) if error is TypeError else None):
        write_csv(path, ("a", "b"), rows)
    assert not path.exists()


_SPECIAL = {
    "float64": [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 9.5, 0.125],
    "float32": [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1.2e-40, 1.17549435e-38,
                3.4028235e38, 0.5, 9.5],
}


def _table(dtype: str, n_rows: int, width: int, seed: int) -> np.ndarray:
    """Random cells of every magnitude the dtype holds, salted with its edge values."""
    rng = np.random.default_rng(seed)
    size = n_rows * width
    lo, hi = (-320, 300) if dtype == "float64" else (-45, 37)
    cells = (rng.standard_normal(size) * 10.0 ** rng.integers(lo, hi, size)).astype(dtype)
    special = np.array(_SPECIAL[dtype], dtype=dtype)
    salt = rng.random(size) < 0.2
    cells[salt] = rng.choice(special, int(salt.sum()))
    return cells.reshape(n_rows, width)


def _assert_forms_agree(directory, table, digits):
    header = [f"c{j}" for j in range(table.shape[1])]
    fast = write_csv(directory / "array.csv", header, table, digits).read_bytes()
    rows = [tuple(r) for r in table.tolist()]
    slow = write_csv(directory / "rows.csv", header, rows, digits).read_bytes()
    assert fast == slow
    assert fast.count(b"\n") == len(table) + 1


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dtype=st.sampled_from(sorted(_SPECIAL)),
    chunk=st.integers(1, 6),
    rows_past_chunk=st.sampled_from([None, -1, 0, 1, 4]),
    small_rows=st.integers(0, 20),
    width=st.integers(1, 4),
    digits=st.integers(1, 17),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_rows_match_tuple_rows(
    tmp_path, dtype, chunk, rows_past_chunk, small_rows, width, digits, seed
):
    # A small chunk puts every boundary case (0, 1, chunk - 1, chunk,
    # chunk + 1 rows, several chunks) within reach of cheap examples.
    n_rows = small_rows if rows_past_chunk is None else chunk + rows_past_chunk
    with mock.patch.object(report, "_FLOAT_CHUNK_CELLS", chunk * width):
        _assert_forms_agree(tmp_path, _table(dtype, n_rows, width, seed), digits)


# Two columns: a chunk holds _FLOAT_CHUNK_CELLS // 2 rows.
@pytest.mark.parametrize("n_rows", [_FLOAT_CHUNK_CELLS // 2 - 1, _FLOAT_CHUNK_CELLS // 2 + 1])
@pytest.mark.parametrize("dtype", sorted(_SPECIAL))
def test_array_rows_match_tuple_rows_at_chunk_size(tmp_path, dtype, n_rows):
    _assert_forms_agree(tmp_path, _table(dtype, n_rows, 2, seed=n_rows), digits=12)


def _binary_ties() -> np.ndarray:
    """Values k / 2**j (k odd), exact in binary, whose decimal expansion ends in 5.

    Such a value with s significant decimals is an exact tie at s - 2 digits.
    """
    return np.array(
        [0.125, 1.25, 2.5e-1, 9.5, 0.5]
        + [k / 2.0**j for k in (1, 3, 7, 11, 123, 4097, 65537, 2**52 - 1) for j in range(1, 48)]
    )


def _decimal_near_ties() -> np.ndarray:
    """The doubles nearest to decimal ties at each digit count 1..17.

    Each lies within half an ulp of its tie: from 9 digits on, that is
    mostly outside the tie margin, so the array path decides the rounding.
    """
    rng = np.random.default_rng(17)
    return np.array([
        float(f"{rng.integers(10**d, 10 ** (d + 1))}5e{rng.integers(-290, 290)}")
        for d in range(1, 18)
        for _ in range(40)
    ])


def _edge_cells() -> np.ndarray:
    powers = np.array([float(f"1e{e}") for e in range(-307, 309)])
    tiny = np.finfo(np.float64).smallest_subnormal
    smallest_normal, largest = np.finfo(np.float64).smallest_normal, np.finfo(np.float64).max
    float32 = np.finfo(np.float32)
    finite = np.concatenate([
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        _binary_ties(),
        _decimal_near_ties(),
        [tiny, 2 * tiny, 12345 * tiny, smallest_normal - tiny, smallest_normal, largest],
        [float32.smallest_subnormal, float32.smallest_normal, float32.max],
        # The edges of the magnitudes the array path rounds itself.
        [1e-280, np.nextafter(1e-280, 0.0), 1e280, np.nextafter(1e280, np.inf)],
    ])
    special = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf]
    random_bits = np.random.default_rng(20).integers(0, 2**64, 3000, dtype=np.uint64)
    return np.concatenate([finite, -finite, special, random_bits.view(np.float64)])


def _array_lines(directory, rows: np.ndarray, digits: int) -> list[str]:
    header = [f"c{j}" for j in range(rows.shape[1])]
    path = write_csv(directory / "cells.csv", header, rows, digits)
    return path.read_text(encoding="utf-8").splitlines()[1:]


def _percent_lines(rows: np.ndarray, digits: int) -> list[str]:
    return [",".join(f"%.{digits}e" % float(v) for v in row) for row in rows.tolist()]


def test_binary_ties_reach_every_digit_count():
    # Guards the tie cells below: each digit count 1..17 meets exact ties.
    lengths = {len(Decimal(float(v)).normalize().as_tuple().digits) for v in _binary_ties()}
    assert set(range(3, 20)) <= lengths


@pytest.mark.parametrize("digits", [0, *range(1, 18), 18, 20])
def test_array_cells_match_percent_format(tmp_path, digits):
    # Widths 2 and 3 end some copies of each cell in ',' and others in a row end.
    cells = _edge_cells()
    for width in (1, 2, 3):
        rows = np.resize(cells, (-(-cells.size // width), width))
        assert _array_lines(tmp_path, rows, digits) == _percent_lines(rows, digits)


@pytest.mark.parametrize("digits", [1, 7, 12, 17])
def test_float32_array_cells_match_percent_format(tmp_path, digits):
    float32 = np.finfo(np.float32)
    rng = np.random.default_rng(digits)
    cells = np.concatenate([
        [float32.smallest_subnormal, float32.smallest_normal, float32.max, -float32.max],
        rng.integers(0, 2**32, 2000, dtype=np.uint32).view(np.float32),
    ]).astype(np.float32).reshape(-1, 1)
    assert _array_lines(tmp_path, cells, digits) == _percent_lines(cells, digits)


def test_powers_of_ten_are_exact():
    for k in range(report._SCALE_MIN, report._SCALE_MAX + 1):
        hi, lo = report._power_of_ten(k)
        exact = Fraction(10) ** k
        assert (hi, lo) == (float(exact), float(exact - Fraction(hi))), k
