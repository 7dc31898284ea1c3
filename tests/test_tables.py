"""The CSV table writer against ``%`` formatting, its reference: numpy
blocks must give the same bytes, and blocks numpy declines must still be
written by ``%``."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxsim.config import SimConfig
from taxsim.simulation import HOUSEHOLD_COLUMNS, run
from taxsim.tables import _format_block, _word_tables, write_rows

TABLES = _word_tables()

INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def percent(formats, columns) -> bytes:
    """The reference: ``%`` over each row."""
    row_format = ",".join(formats) + "\r\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join(row_format % row for row in rows).encode()


def numpy_text(formats, columns) -> bytes:
    """The block's text, which must come from the numpy path."""
    text = _format_block(formats, columns, TABLES)
    assert isinstance(text, np.ndarray), "numpy declined a block it should format"
    return text.tobytes()


def block_text(formats, columns) -> bytes:
    """The block's text, from either path."""
    return bytes(_format_block(formats, columns, TABLES))


def assert_floats_match(values) -> None:
    x = np.asarray(values, np.float64)
    assert numpy_text(["%.6f"], [x]) == percent(["%.6f"], [x])


def bits_to_floats(bits) -> np.ndarray:
    return np.array(bits, np.uint64).view(np.float64)


# Any bit pattern, or one whose exponent puts it where the six decimals and
# the integer digits both vary (2**-30 to 2**62).
FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(
        lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
        st.integers(0, 1),
        st.integers(1023 - 30, 1023 + 62),
        st.integers(0, 2**52 - 1),
    ),
)


class TestFloatsMatchPercent:
    @given(st.lists(FLOAT_BITS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bit_pattern_corpus(self, bits):
        x = bits_to_floats(bits)
        formable = np.abs(x) < 2.0**63  # False for NaN
        if formable.any():
            assert_floats_match(x[formable])
        assert block_text(["%.6f"], [x]) == percent(["%.6f"], [x])

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

    @pytest.mark.parametrize("bad", [2.0**63, -(2.0**63), 1e300, np.inf, -np.inf, np.nan])
    def test_beyond_the_int64_range_falls_back_to_percent(self, bad):
        x = np.array([1.5, bad, -2.25])
        text = _format_block(["%d", "%.6f"], [[1, 2, 3], x], TABLES)
        assert isinstance(text, bytes)
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
        text = _format_block(["%d", "%.6f"], [[5, INT64_MIN], [0.5, -0.5]], TABLES)
        assert isinstance(text, bytes)
        assert text == percent(["%d", "%.6f"], [[5, INT64_MIN], [0.5, -0.5]])

    @given(st.lists(st.integers(INT64_MIN + 1, INT64_MAX), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_int64_corpus_beside_floats(self, values):
        floats = np.linspace(-3.0, 3.0, len(values))
        columns = [values, floats, values]
        formats = ["%d", "%.6f", "%d"]
        assert numpy_text(formats, columns) == percent(formats, columns)


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

    def test_savings_median_of_1e300_is_written_by_percent(self, tmp_path):
        config = SimConfig(n_households=4, months=3, seed=1)
        config.initial = replace(config.initial, savings_median=1e300)
        result = run(config)
        assert result.households["savings"].max() >= 2.0**63
        out = result.write_outputs(tmp_path)
        assert (out / "households.csv").read_bytes() == percent_households_csv(result.households)


def percent_households_csv(households) -> bytes:
    """households.csv built row by row with ``%``."""
    months, n = households["savings"].shape
    formats = ["%d", "%d", *("%d" if c == "employed" else "%.6f" for c in HOUSEHOLD_COLUMNS)]
    month = np.repeat(np.arange(1, months + 1), n)
    household = np.tile(np.arange(n), months)
    columns = [month, household, *(households[c].ravel() for c in HOUSEHOLD_COLUMNS)]
    header = ",".join(["month", "household_id", *HOUSEHOLD_COLUMNS]) + "\r\n"
    return header.encode() + percent(formats, columns)
