"""The CSV table writer against ``%`` formatting, its reference: numpy
blocks must give the same bytes, and blocks numpy declines must still be
written by ``%``."""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import COMPARISON_CSV_SHA256
from taxsim.config import SimConfig
from taxsim.simulation import HOUSEHOLD_COLUMNS, ComparisonResult, run, sweep
from taxsim.tables import _format_block, _format_numbers, word_tables, write_rows

TABLES = word_tables()

INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def percent(formats, columns) -> bytes:
    """The reference: ``%`` over each row."""
    row_format = ",".join(formats) + "\r\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join(row_format % row for row in rows).encode()


def numpy_text(formats, columns) -> bytes:
    """The block's text, which must come from the numpy path."""
    assert _format_numbers(formats, columns, TABLES) is not None, "numpy declined it"
    return _format_block(formats, columns, TABLES)


def assert_floats_match(values) -> None:
    x = np.asarray(values, np.float64)
    assert numpy_text(["%.6f"], [x]) == percent(["%.6f"], [x])


def bits_to_floats(bits) -> np.ndarray:
    return np.array(bits, np.uint64).view(np.float64)


def bits_with_exponent(low: int, high: int):
    """Float bit patterns of either sign whose biased exponent lies in
    [low, high]."""
    return st.builds(
        lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
        st.integers(0, 1),
        st.integers(low, high),
        st.integers(0, 2**52 - 1),
    )


# Where the six decimals and the integer digits both vary (2**-30 to 2**62).
MID_BITS = bits_with_exponent(1023 - 30, 1023 + 62)
# Any bit pattern, or a mid one.
FLOAT_BITS = st.one_of(st.integers(0, 2**64 - 1), MID_BITS)
# Any float numpy formats (zeros and subnormals up to 2**63), or a mid one.
FORMABLE_BITS = st.one_of(bits_with_exponent(0, 1023 + 62), MID_BITS)


class TestFloatsMatchPercent:
    @given(st.lists(FLOAT_BITS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bit_pattern_corpus(self, bits):
        x = bits_to_floats(bits)
        formable = np.abs(x) < 2.0**63  # False for NaN
        if formable.any():
            assert_floats_match(x[formable])
        assert _format_block(["%.6f"], [x], TABLES) == percent(["%.6f"], [x])

    def test_decimal_midpoints_and_neighbours(self):
        # (k + 0.5) / 1e6 lies within an ulp of a rounding boundary: a naive
        # np.rint(x * 1e6) misrounds about half of these.
        k = np.random.default_rng(5).integers(0, 10**6, 100_000)
        for whole, count in ((0, 100_000), (1, 10_000), (977, 10_000), (123_456_789, 10_000)):
            mid = whole + (k[:count] + 0.5) / 1e6
            for x in (mid, np.nextafter(mid, np.inf), np.nextafter(mid, -np.inf)):
                assert_floats_match(np.concatenate([x, -x[:1000]]))

    @pytest.mark.parametrize(
        "value,text",
        [
            (0.0078125, "0.007812"),  # 2**-7: an exact tie, rounded to even
            (0.0234375, "0.023438"),  # 3 * 2**-7: the tie rounds up to even
            (-0.0, "-0.000000"),
            (-1e-9, "-0.000000"),
            (0.9999994999999999, "0.999999"),  # just below the half
            (0.9999995, "1.000000"),  # just above it: the carry into the integer part
            (999_999.9999999, "1000000.000000"),
        ],
    )
    def test_named_values(self, value, text):
        assert numpy_text(["%.6f"], [[value]]) == (text + "\r\n").encode()
        assert ("%.6f" % value) == text

    def test_subnormals_and_powers_of_two(self):
        tiny = [5e-324, -5e-324, 2.2250738585072009e-308, np.nextafter(2.2250738585072014e-308, 0)]
        big = [2.0**52, 2.0**53, np.nextafter(2.0**53, 0), np.nextafter(2.0**53, np.inf)]
        top = [np.nextafter(2.0**63, 0), -np.nextafter(2.0**63, 0)]  # the largest taken
        assert_floats_match(tiny + big + top)

    def test_ties_in_later_columns_of_a_block(self):
        # Floats whose fl(fraction * 1e6) is exactly a half, so that only the
        # exact product tells which way "%.6f" rounds them, placed at other
        # rows in the second and third float column than in the first.
        mid = 7.0 + (np.arange(200_000) + 0.5) / 1e6
        hi = (mid - 7.0) * 1e6
        ties = mid[np.abs(hi - np.rint(hi)) == 0.5]
        six = [float(("%.6f" % t)[2:]) for t in ties]  # the decimals of "7.dddddd"
        naive = np.rint((ties - 7.0) * 1e6)
        assert (naive > six).any() and (naive < six).any()  # both ways off
        n_rows = 24
        plain = np.linspace(0.25, 99.5, n_rows) + 1 / 3
        columns = [plain, np.arange(n_rows), plain.copy(), -plain]
        columns[2][3::4] = ties[: len(columns[2][3::4])]
        columns[3][[0, 5, 17, 22]] = -ties[-4:]
        formats = ["%.6f", "%d", "%.6f", "%.6f"]
        assert numpy_text(formats, columns) == percent(formats, columns)

    @pytest.mark.parametrize("bad", [2.0**63, -(2.0**63), 1e300, np.inf, -np.inf, np.nan])
    def test_beyond_the_int64_range_falls_back_to_percent(self, bad):
        x = np.array([1.5, bad, -2.25])
        assert _format_numbers(["%d", "%.6f"], [[1, 2, 3], x], TABLES) is None
        text = _format_block(["%d", "%.6f"], [[1, 2, 3], x], TABLES)
        assert text == percent(["%d", "%.6f"], [[1, 2, 3], x])


class TestIntsMatchPercent:
    def test_every_digit_count(self):
        values = [0, INT64_MAX]
        for digits in range(1, 20):
            values += [10 ** (digits - 1), 10**digits - 1]
        values = [v for v in values if v <= INT64_MAX]
        values += [-v for v in values]
        assert numpy_text(["%d"], [values]) == percent(["%d"], [values])

    def test_minus_two_to_the_63_falls_back_to_percent(self):
        # The one int64 whose magnitude no int64 holds.
        assert _format_numbers(["%d", "%.6f"], [[5, INT64_MIN], [0.5, -0.5]], TABLES) is None
        text = _format_block(["%d", "%.6f"], [[5, INT64_MIN], [0.5, -0.5]], TABLES)
        assert text == percent(["%d", "%.6f"], [[5, INT64_MIN], [0.5, -0.5]])

    @given(st.lists(st.integers(INT64_MIN + 1, INT64_MAX), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_int64_corpus_beside_floats(self, values):
        floats = np.linspace(-3.0, 3.0, len(values))
        columns = [values, floats, values]
        formats = ["%d", "%.6f", "%d"]
        assert numpy_text(formats, columns) == percent(formats, columns)


@st.composite
def mixed_blocks(draw):
    """Float and int columns in any order and number, rows of any formable
    float and any int64 but -2**63; at times every float, or every int, of
    the block is non-negative."""
    n_rows = draw(st.integers(1, 12))
    formats = draw(st.lists(st.sampled_from(["%d", "%.6f"]), min_size=1, max_size=6))
    unsigned = draw(st.sets(st.sampled_from(["%d", "%.6f"])))
    columns = []
    for f in formats:
        if f == "%d":
            values = st.lists(st.integers(INT64_MIN + 1, INT64_MAX), min_size=n_rows, max_size=n_rows)
            column = np.array(draw(values), np.int64)
        else:
            column = bits_to_floats(draw(st.lists(FORMABLE_BITS, min_size=n_rows, max_size=n_rows)))
        columns.append(np.abs(column) if f in unsigned else column)
    return formats, columns


class TestMixedColumnsMatchPercent:
    @given(mixed_blocks())
    @settings(max_examples=300, deadline=None)
    def test_any_column_order_corpus(self, block):
        formats, columns = block
        assert numpy_text(formats, columns) == percent(formats, columns)

    @pytest.mark.parametrize("float_sign", [1.0, -1.0])
    @pytest.mark.parametrize("int_sign", [1, -1])
    def test_with_and_without_a_negative(self, float_sign, int_sign):
        floats = float_sign * np.array([0.0, 1.5, 12_345.678901, 1e-7])
        ints = int_sign * np.array([0, 7, 123_456_789, 10**18])
        formats = ["%.6f", "%d", "%.6f", "%d"]
        columns = [floats, ints, floats[::-1], ints[::-1]]
        assert numpy_text(formats, columns) == percent(formats, columns)
        # A field's words: a sign only when its kind holds a negative, then
        # 2 digit groups and 2 decimal words a float, 5 groups and a
        # separator an int; and the row end.
        words = _format_numbers(formats, columns, TABLES)
        assert len(words) == 2 * ((float_sign < 0) + 4) + 2 * ((int_sign < 0) + 6) + 1


class TestWriter:
    def test_blocks_join_into_the_whole_table(self, tmp_path):
        rng = np.random.default_rng(3)
        n_rows = 1500  # several blocks and a partial one
        ids = np.arange(n_rows)
        x = rng.lognormal(8.0, 3.0, n_rows) * rng.choice([-1.0, 1.0], n_rows)
        path = tmp_path / "t.csv"
        write_rows(path, ["id", "x"], ["%d", "%.6f"], n_rows, lambda a, b: [ids[a:b], x[a:b]])
        assert path.read_bytes() == b"id,x\r\n" + percent(["%d", "%.6f"], [ids, x])

    def test_string_column_goes_through_percent(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("free", 0, 1.25), ("saez", 12, -0.5)]
        columns = list(zip(*rows))
        formats = ["%s", "%d", "%.6f"]
        write_rows(path, ["s", "i", "f"], formats, 2, lambda a, b: [c[a:b] for c in columns])
        assert path.read_bytes() == b"s,i,f\r\nfree,0,1.250000\r\nsaez,12,-0.500000\r\n"

    def test_households_csv_with_huge_and_nan_values(self, tmp_path):
        result = run(SimConfig(n_households=3, months=700, seed=2, tax_system="free"))
        result.households["savings"][1, 2] = 1e300  # in the first block
        result.households["tax_paid"][600, 0] = np.nan  # in a later one
        result.households["hourly_wage"][650, 1] = -0.0
        out = result.write_outputs(tmp_path)
        assert (out / "households.csv").read_bytes() == percent_households_csv(result.households)

    def test_savings_drawn_at_the_bounds_are_written_by_percent(self, tmp_path):
        config = SimConfig(n_households=50, months=3, seed=2)
        config.initial = replace(config.initial, savings_median=1e9, savings_sigma=10.0)
        result = run(config)
        assert result.households["savings"].max() >= 2.0**63
        out = result.write_outputs(tmp_path)
        assert (out / "households.csv").read_bytes() == percent_households_csv(result.households)


def test_households_block_memory_peak():
    # The tracemalloc peak (numpy reports its buffers to it) of formatting
    # the first 512-row block of a saez run at N=500: a regression guard on
    # the formatter's temporaries, which peak RSS of the benchmark follows.
    result = run(SimConfig(n_households=500, months=2, seed=0, tax_system="saez"))
    households = result.households
    formats = ["%d", "%d", *("%d" if c == "employed" else "%.6f" for c in HOUSEHOLD_COLUMNS)]
    row = np.arange(512)
    columns = [row // 500 + 1, row % 500, *(households[c].ravel()[:512] for c in HOUSEHOLD_COLUMNS)]
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = _format_block(formats, columns, TABLES)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert text == percent(formats, columns)
    assert peak <= 400_000


def patch_word_tables(monkeypatch, replacement) -> None:
    """Replace ``word_tables`` in every taxsim module that holds the name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("taxsim") and hasattr(module, "word_tables"):
            monkeypatch.setattr(module, "word_tables", replacement)


def test_word_tables_built_once_a_numeric_file(tmp_path, monkeypatch):
    built = []
    patch_word_tables(monkeypatch, lambda: built.append(1) or TABLES)
    run(SimConfig(n_households=3, months=24, seed=1)).write_outputs(tmp_path)
    assert len(built) == 3  # monthly.csv, annual.csv, households.csv


def test_comparison_csv_builds_no_word_tables(tmp_path, monkeypatch):
    # Its string column sends every block through ``%``.
    rows = sweep(SimConfig(n_households=50, months=120), ("free", "us_federal", "saez"), (0, 1))

    def refuse():
        raise AssertionError("comparison.csv needs no word tables")

    patch_word_tables(monkeypatch, refuse)
    ComparisonResult(rows).write_csv(tmp_path / "comparison.csv")
    digest = hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest()
    assert digest == COMPARISON_CSV_SHA256


def percent_households_csv(households) -> bytes:
    """households.csv built row by row with ``%``."""
    months, n = households["savings"].shape
    formats = ["%d", "%d", *("%d" if c == "employed" else "%.6f" for c in HOUSEHOLD_COLUMNS)]
    month = np.repeat(np.arange(1, months + 1), n)
    household = np.tile(np.arange(n), months)
    columns = [month, household, *(households[c].ravel() for c in HOUSEHOLD_COLUMNS)]
    header = ",".join(["month", "household_id", *HOUSEHOLD_COLUMNS]) + "\r\n"
    return header.encode() + percent(formats, columns)
