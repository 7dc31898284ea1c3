"""The CSV writer of every output table (monthly.csv, annual.csv,
households.csv, comparison.csv): ints in full, floats with six decimals,
lines ending in "\r\n", byte for byte what ``%`` formatting gives.

Numbers are formatted by numpy a block of rows at a time; ``%`` itself
formats only a block that holds a string, a non-finite float, a float of
magnitude 2**63 or more, or the int -2**63.
"""

from __future__ import annotations

from dataclasses import astuple, fields
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

# Column format of a record field by its annotation, which dataclasses keep as
# a string here (postponed evaluation): ints in full, floats six decimals.
_FORMATS = {"int": "%d", "float": "%.6f", "str": "%s"}

# Rows formatted in one numpy pass. A block's temporaries take about 700
# bytes a row of households.csv, and peak RSS grows with them: at 500 x 120,
# 4096 rows a block wrote about 10 % faster than 512 but raised peak RSS by
# 2 to 4 MiB.
_BLOCK_ROWS = 512


def _words(text: bytes) -> np.ndarray:
    """Text of four bytes a word, as uint32 words that hold those bytes in
    memory order, so that the bytes of an array of them read as the text."""
    return np.frombuffer(text, np.uint32)


_Tables = tuple[np.ndarray, np.ndarray, np.ndarray]  # see _word_tables
_MINUS, _ROW_END = _words(b"\0\0\0-" b"\r\n\0\0")
_VELTKAMP = 2.0**27 + 1  # splits a float64 into halves of at most 26 significant bits


def write_rows(
    path: Path,
    header: Sequence[str],
    formats: Sequence[str],
    n_rows: int,
    block: Callable[[int, int], Sequence],
) -> None:
    """Write a CSV table: ``header``, then ``n_rows`` rows, every line
    ending in "\\r\\n". Column j is formatted as ``formats[j]`` ("%d",
    "%.6f" or "%s"), so row r reads ``",".join(formats) % row``.
    ``block(start, stop)`` returns the columns of rows start..stop-1, each
    a sequence or a numpy array.

    Rows go _BLOCK_ROWS at a time through ``_format_numbers``, which gives
    the bytes of ``%`` from numpy arithmetic; a block it declines (a string
    column, a float that is not finite or reaches 2**63 in magnitude, the
    int -2**63) goes through ``%`` itself. No value needs quoting: the only
    strings are tax system names."""
    tables = _word_tables()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            columns = block(start, min(start + _BLOCK_ROWS, n_rows))
            fh.write(_format_block(formats, columns, tables))


def _format_block(
    formats: Sequence[str], columns: Sequence, tables: _Tables
) -> bytes | np.ndarray:
    """The text of the rows whose columns are given, by numpy when
    ``_format_numbers`` takes them, else by ``%``."""
    words = _format_numbers(formats, columns, tables)
    if words is None:
        row_format = ",".join(formats) + "\r\n"
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        return "".join(map(row_format.__mod__, rows)).encode()
    text = words.view(np.uint8)
    return text[text != 0]


def write_tuples(
    path: Path, header: Sequence[str], formats: Sequence[str], rows: Sequence[tuple]
) -> None:
    """Write a table given as a list of row tuples."""
    columns = list(zip(*rows))
    write_rows(path, header, formats, len(rows), lambda a, b: [c[a:b] for c in columns])


def write_records(path: Path, record_type: type, records: Iterable) -> None:
    """Write dataclass records, one column per field of ``record_type``,
    each formatted by the field's type."""
    columns = fields(record_type)
    write_tuples(
        path,
        [f.name for f in columns],
        [_FORMATS[f.type] for f in columns],
        [astuple(r) for r in records],
    )


def _word_tables() -> _Tables:
    """The words a field is spelled from, each table indexed by value plus
    an offset: digit groups ("0000" to "9999", the same as the top group of
    a number, then a blank group above the top one); the point and first
    three decimals (".000" to ".999", then an int's none); the last three
    decimals and the separator ("000," to "999,", the same without the
    separator of a row's last field, then an int's "," or none).

    Built for each table written: held for the life of the process, these
    100 KiB made the C heap keep a second copy (4 MiB) of the household
    arrays of ``run_large`` resident in the benchmark."""
    # Row n spells n: digit k of n repeats 10**(3 - k) times over.
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(
        [np.tile(np.repeat(ascii_digits, 10 ** (3 - k)), 10**k) for k in range(4)], axis=1
    )
    top = digits.copy()
    for k in range(3):  # digit k of n < 10**(3 - k) is a leading zero
        top[: 10 ** (3 - k), k] = 0
    three = digits[:1000, 1:]
    column = np.ones((1000, 1), np.uint8)
    groups = _words(digits.tobytes() + top.tobytes() + bytes(4))
    point = _words(np.hstack([ord(".") * column, three]).tobytes() + bytes(4))
    tail = _words(
        np.hstack([three, ord(",") * column]).tobytes()
        + np.hstack([three, 0 * column]).tobytes()
        + b"\0\0\0,"
        + bytes(4)
    )
    return groups, point, tail


def _format_numbers(
    formats: Sequence[str], columns: Sequence, tables: _Tables
) -> np.ndarray | None:
    """The text that ``%`` gives for these rows as uint32 words whose
    nonzero bytes, in memory order, are that text; or None when a column is
    "%s" or ``_split_numbers`` declines a value.

    Each value is spelled into a field of g + 3 words: a sign, g groups of
    four integer digits, the point and three decimals, three decimals and
    the separator; each row ends in one more word, "\r\n". The bytes that
    are no text are zero: the sign of a positive, leading zeros, an int's
    decimals, the separator of the last field."""
    if "%s" in formats:
        return None
    is_float = np.array([f == "%.6f" for f in formats])
    parts = _split_numbers(is_float, columns)
    if parts is None:
        return None
    negative, whole, decimals = parts
    del parts  # so that the digit loop frees each step's integers
    n_rows, n_cols = whole.shape
    g = (len(str(whole.max())) + 3) // 4  # digit groups of the widest integer

    out = np.empty((n_rows, n_cols * (g + 3) + 1), np.uint32)
    out[:, -1] = _ROW_END
    cells = out[:, :-1].reshape(n_rows, n_cols, g + 3)
    groups, point, tail = tables
    cells[:, :, 0] = np.where(negative, _MINUS, 0)
    # Offsets into point and tail by column: an int field's words, and the
    # last field's tail, whose separator is the row end.
    last = np.arange(n_cols) == n_cols - 1
    tail_offset = np.where(is_float, 1000 * last, 2000 + last)
    q = decimals // 1000
    cells[:, :, g + 1] = point.take(q + 1000 * ~is_float)
    cells[:, :, g + 2] = tail.take(decimals - q * 1000 + tail_offset)
    del negative, decimals, q  # freed early, see _BLOCK_ROWS
    for k in range(g, 0, -1):  # digit groups, from the units up
        q = whole // 10_000
        group = whole - q * 10_000
        group += 10_000 * (q == 0)  # a number's top group blanks its leading zeros
        if k < g:
            group += 10_000 * (whole == 0)  # and the groups above it are blank
        cells[:, :, k] = groups.take(group)
        whole = q
    return out


def _split_numbers(
    is_float: np.ndarray, columns: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Rows x columns arrays of each value's sign, integer part and six
    decimals (zero for an int column), or None when a float is not finite
    or reaches 2**63 in magnitude, or an int is -2**63: past int64."""
    n_rows = len(columns[0])
    negative = np.empty((n_rows, len(columns)), bool)
    whole = np.empty((n_rows, len(columns)), np.int64)
    decimals = np.zeros((n_rows, len(columns)), np.int64)
    if is_float.any():
        x = np.column_stack([np.asarray(c, np.float64) for c in compress(columns, is_float)])
        negative[:, is_float] = np.signbit(x)  # -0.0 too, as "%.6f" writes it
        x = np.abs(x, out=x)
        if not x.max() < 2.0**63:  # also when a NaN makes the max NaN
            return None
        whole[:, is_float], decimals[:, is_float] = _six_decimals(x)
    if not is_float.all():
        v = np.column_stack([np.asarray(c, np.int64) for c in compress(columns, ~is_float)])
        if v.min() == -(2**63):  # no int64 holds its magnitude
            return None
        negative[:, ~is_float] = v < 0
        whole[:, ~is_float] = np.abs(v)
    return negative, whole, decimals


def _six_decimals(size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part and the six decimals, as ``%.6f`` rounds them, of
    finite floats in [0, 2**63): the fraction times 1e6, rounded half to
    even from its exact value, carrying into the integer part."""
    fraction = np.empty_like(size)
    np.modf(size, out=(fraction, size))  # size keeps the integer part
    # fraction * 1e6 = hi + lo exactly (Dekker's product: 1e6 has 14
    # significant bits, so only the fraction is split, into upper + lower).
    hi = fraction * 1e6
    upper = fraction * _VELTKAMP
    upper -= upper - fraction
    lo = upper * 1e6
    lo -= hi
    fraction -= upper  # the lower half
    fraction *= 1e6
    lo += fraction
    del fraction, upper  # freed early, see _BLOCK_ROWS
    r = np.rint(hi)
    # hi on a half: the exact value lies on the side of lo, or is the tie.
    hi -= r
    r += (hi == 0.5) & (lo > 0)
    r -= (hi == -0.5) & (lo < 0)
    carry = r == 1e6
    r[carry] = 0.0
    size += carry
    return size, r
