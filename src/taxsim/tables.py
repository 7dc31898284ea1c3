"""The CSV writer of every output table (monthly.csv, annual.csv,
households.csv, comparison.csv): ints in full, floats with six decimals,
lines ending in "\r\n", byte for byte what ``%`` formatting gives.

Numbers are formatted by numpy a block of rows at a time: each field is
spelled in four-byte words looked up in ``word_tables``, as many as the
widest number of its kind (float or int) in the block needs, and the zero
bytes that pad the words are dropped with one ``bytes.translate``. ``%``
itself formats only a block that holds a string, a non-finite float, a
float of magnitude 2**63 or more, or the int -2**63.
"""

from __future__ import annotations

from dataclasses import astuple, fields
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

# Column format of a record field by its annotation, which dataclasses keep as
# a string here (postponed evaluation): ints in full, floats six decimals.
_FORMATS = {"int": "%d", "float": "%.6f", "str": "%s"}

# Rows formatted in one numpy pass. A block's temporaries peak at about 570
# bytes a row of households.csv (tracemalloc, saez at N=500), and peak RSS
# grows with them. At 500 x 120, 4096 rows a block format no faster than 512
# (and raised peak RSS by 2 to 4 MiB when a row took 700 bytes); 1024 rows
# format about 15 % faster than 512, with twice the temporaries.
_BLOCK_ROWS = 512


def _words(text: bytes) -> np.ndarray:
    """Text of four bytes a word, as uint32 words that hold those bytes in
    memory order, so that the bytes of an array of them read as the text."""
    return np.frombuffer(text, np.uint32)


WordTables = tuple[np.ndarray, np.ndarray, np.ndarray]  # see word_tables
_MINUS, _COMMA, _ROW_END = _words(b"\0\0\0-" b"\0\0\0," b"\r\n\0\0")
_VELTKAMP = 2.0**27 + 1  # splits a float64 into halves of at most 26 significant bits


def write_rows(
    path: Path,
    header: Sequence[str],
    formats: Sequence[str],
    n_rows: int,
    block: Callable[[int, int], Sequence],
    tables: WordTables,
) -> None:
    """Write a CSV table: ``header``, then ``n_rows`` rows, every line
    ending in "\\r\\n". Column j is formatted as ``formats[j]`` ("%d",
    "%.6f" or "%s"), so row r reads ``",".join(formats) % row``.
    ``block(start, stop)`` returns the columns of rows start..stop-1, each
    a sequence or a numpy array. ``tables`` is ``word_tables()``.

    Rows go _BLOCK_ROWS at a time through ``_format_numbers``, which gives
    the bytes of ``%`` from numpy arithmetic; a block it declines (a string
    column, a float that is not finite or reaches 2**63 in magnitude, the
    int -2**63) goes through ``%`` itself. No value needs quoting: the only
    strings are tax system names."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            columns = block(start, min(start + _BLOCK_ROWS, n_rows))
            fh.write(_format_block(formats, columns, tables))


def _format_block(formats: Sequence[str], columns: Sequence, tables: WordTables) -> bytes:
    """The text of the rows whose columns are given, by numpy when
    ``_format_numbers`` takes them, else by ``%``."""
    words = _format_numbers(formats, columns, tables)
    if words is None:
        row_format = ",".join(formats) + "\r\n"
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        return "".join(map(row_format.__mod__, rows)).encode()
    return words.tobytes("F").translate(None, b"\0")


def write_tuples(
    path: Path,
    header: Sequence[str],
    formats: Sequence[str],
    rows: Sequence[tuple],
    tables: WordTables,
) -> None:
    """Write a table given as a list of row tuples."""
    columns = list(zip(*rows))
    write_rows(path, header, formats, len(rows), lambda a, b: [c[a:b] for c in columns], tables)


def write_records(path: Path, record_type: type, records: Iterable, tables: WordTables) -> None:
    """Write dataclass records, one column per field of ``record_type``,
    each formatted by the field's type."""
    columns = fields(record_type)
    write_tuples(
        path,
        [f.name for f in columns],
        [_FORMATS[f.type] for f in columns],
        [astuple(r) for r in records],
        tables,
    )


def word_tables() -> WordTables:
    """The words a field is spelled from, each table indexed by value plus
    an offset: digit groups ("0000" to "9999", the same as the top group of
    a number, then a blank group above the top one); the point and first
    three decimals (".000" to ".999"); the last three decimals and the
    separator ("000," to "999,", then the same without the separator of a
    row's last field).

    Built by each caller that writes, once for all the tables it writes,
    and dropped after: held for the life of the process, these 92 KiB made
    the C heap keep a second copy (4 MiB) of the household arrays of
    ``run_large`` resident in the benchmark."""
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
    point = _words(np.hstack([ord(".") * column, three]).tobytes())
    tail = _words(
        np.hstack([three, ord(",") * column]).tobytes() + np.hstack([three, 0 * column]).tobytes()
    )
    return groups, point, tail


def _format_numbers(
    formats: Sequence[str], columns: Sequence, tables: WordTables
) -> np.ndarray | None:
    """The text that ``%`` gives for these rows as a words x rows array of
    uint32 words: row r's column, its words in order, holds row r's text in
    its nonzero bytes (so the array's bytes in Fortran order are the text);
    or None when a column is "%s" or ``_float_words`` or ``_int_words``
    declines a value.

    Float fields and int fields are spelled apart, each kind in a number
    of words of its own (see those two), and each row ends in one more
    word, "\r\n". The bytes that are no text are zero: the sign of a
    positive, leading zeros, the separator of the last field."""
    if "%s" in formats:
        return None
    is_float = [f == "%.6f" for f in formats]
    words = {}
    for kind, spell in ((True, _float_words), (False, _int_words)):
        index = [j for j, f in enumerate(is_float) if f == kind]
        if index:
            words[kind] = spell([columns[j] for j in index], index[-1] == len(formats) - 1, tables)
            if words[kind] is None:
                return None
    out = np.empty((sum(len(words[f]) for f in is_float) + 1, len(columns[0])), np.uint32)
    out[-1] = _ROW_END
    # Each word of a kind is a fields x rows array. A run of n adjacent
    # fields of one kind spans n * w rows of out, w its kind's words a
    # field: word k of its fields goes to every w-th row from k.
    start, taken = 0, {True: 0, False: 0}
    for kind, run in groupby(is_float):
        n, w = len(list(run)), len(words[kind])
        fields = slice(taken[kind], taken[kind] + n)
        for k, word in enumerate(words[kind]):
            out[start + k : start + n * w : w] = word[fields]
        start += n * w
        taken[kind] += n
    return out


def _float_words(columns: Sequence, ends_row: bool, tables: WordTables) -> list | None:
    """The words of "%.6f" fields, fields x rows each, or None when a float
    is not finite or reaches 2**63 in magnitude: past int64. A field is a
    sign (only when some float of the block is negative), g groups of four
    integer digits, the point and three decimals, then three decimals and
    the separator, which ``ends_row`` drops from the last field."""
    x = np.array(columns, np.float64)
    negative = np.signbit(x)  # -0.0 too, as "%.6f" writes it
    x = np.abs(x, out=x)
    if not x.max() < 2.0**63:  # also when a NaN makes the max NaN
        return None
    whole, decimals = _six_decimals(x)
    del x  # freed early, see _BLOCK_ROWS
    groups, point, tail = tables
    q = decimals // 1000
    decimals -= 1000 * q
    if ends_row:
        decimals[-1] += 1000
    return [*_sign(negative), *_digit_groups(whole, groups), point.take(q), tail.take(decimals)]


def _int_words(columns: Sequence, ends_row: bool, tables: WordTables) -> list | None:
    """The words of "%d" fields, fields x rows each, or None when an int is
    -2**63, whose magnitude no int64 holds. A field is a sign (only when
    some int of the block is negative), g groups of four digits and the
    separator, none on the row's last field."""
    v = np.array(columns, np.int64)
    if v.min() == -(2**63):
        return None
    separator = np.full((len(columns), 1), _COMMA)
    if ends_row:
        separator[-1] = 0
    return [*_sign(v < 0), *_digit_groups(np.abs(v), tables[0]), separator]


def _sign(negative: np.ndarray) -> list:
    """The sign words of one kind's fields: none when none is negative."""
    return [np.where(negative, _MINUS, 0)] if negative.any() else []


def _digit_groups(whole: np.ndarray, groups: np.ndarray) -> list:
    """The words of non-negative int64s, top first: g groups of four digits,
    g set by the largest. A number's top group blanks its leading zeros,
    and the groups above it are blank."""
    words = []
    for k in range((len(str(whole.max())) + 3) // 4 - 1):  # below the top, units up
        q = whole // 10_000
        group = whole - 10_000 * q
        group += 10_000 * (q == 0)
        if k:
            group += 10_000 * (whole == 0)
        words.append(groups.take(group))
        whole = q
    top = whole + 10_000  # every number's top group is here or below
    if words:
        top += 10_000 * (whole == 0)
    words.append(groups.take(top))
    return words[::-1]


def _six_decimals(size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part and the six decimals, as int64s and as ``%.6f``
    rounds them, of finite floats in [0, 2**63): the fraction times 1e6,
    rounded half to even from its exact value, carrying into the integer
    part."""
    whole = np.floor(size)
    fraction = size - whole
    hi = fraction * 1e6
    r = np.rint(hi)
    # The exact product rounds like hi unless hi is a half: under
    # round-to-nearest no representable half (and every half below 1e6 is
    # one) lies strictly between a product and its rounding.
    tie = np.abs(hi - r) == 0.5
    if tie.any():
        # fraction * 1e6 = h + lo exactly (Dekker's product: 1e6 has 14
        # significant bits, so only the fraction is split, into upper +
        # lower); the product lies on the side of lo, or is the tie.
        tie = np.nonzero(tie)
        f, h = fraction[tie], hi[tie]
        upper = f * _VELTKAMP
        upper -= upper - f
        lo = (upper * 1e6 - h) + (f - upper) * 1e6
        r[tie] = np.where(lo > 0, np.ceil(h), np.where(lo < 0, np.floor(h), r[tie]))
    del fraction, hi  # freed early, see _BLOCK_ROWS
    carry = r == 1e6
    if carry.any():
        r[carry] = 0.0
        whole += carry
    return whole.astype(np.int64), r.astype(np.int64)
