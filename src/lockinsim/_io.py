"""Helpers shared by every layer of the library and the CLI: deterministic
serialization, :func:`check_range`, the one range check of numeric inputs,
:func:`frozen`, the one rule by which a frozen record owns its arrays, and
the error-free products and sums of double-double arithmetic.

A CSV cell is Python's ``str`` of its value. For a float that is the
shortest round-trip repr: the fewest significant digits that read back as
the same double, and of those the string nearest to it (Steele & White
1990; David Gay's ``dtoa``, mode 0). :func:`csv_blocks` builds these
strings with numpy, for every integer cell, +-0.0, and every float64 with
1e-4 <= |x| < 1e16 (where ``repr`` prints no exponent) whose significand is
not a power of two. Each cell's digits are proved, not guessed:

- With E = floor(log10|x|), q = |x| 10^(16-E) is exactly p + r, the
  error-free product of :func:`two_prod` (10^(16-E) <= 10^20 is a double).
  So q = d + res with d = p + rint(r) a 17-digit integer and
  res = r - rint(r), |res| <= 1/2. At |res| = 1/2, d is even (p >= 2^53
  is even, rint ties to even): the 17-digit tie, which ``dtoa`` also
  rounds to even.
- Half an ulp of x in the same units, hu = 10^(16-E) 2^(e-54) for x in
  [2^(e-1), 2^e), is an exact double, and 1/2 < hu < 12. The ulp 2 hu is
  5^(16-E) < 2^47 times a power of two and exceeds 1, so q and res are
  multiples of 2^-46.
- 17 - s significant digits stand for a multiple c of 10^s. The one
  nearest q reads back as x iff |c - q| < hu (Clinger 1990). For
  |c - d| <= 100, c - q = (c - d) - res is a multiple of 2^-46 below
  2^7, so the double subtraction is exact, and so is the comparison.
  |c - q| = hu, where reading would round half to even, cannot occur: c
  would be the midpoint of x and a neighbour, which takes 18 or more
  significant digits below 2^52, and from 2^52 on is never the multiple
  of 10 or 100 nearest q.
- The shortest repr is the c of the largest s that reads back, with its
  trailing zeros dropped. s = 0 (c = d) always reads back, as |res| < hu.
  A multiple of 10^(s+1) is a multiple of 10^s, so if s fails, so do all
  larger s. Hence the test is made for s = 1 and s = 2 alone: if the
  multiple of 100 nearest q reads back, no other multiple of 100 is
  within hu of q (hu < 50), so for every larger s it is the only
  candidate, and it reads back for exactly the s whose 10^s divide it.
  It is never 10^17: that would make x the double nearest 10^(E+1) and
  below it, but 10^j is a double for 0 <= j <= 16, and the doubles
  nearest 0.1, 0.01 and 0.001 lie above them.

Any other cell goes through ``str``, and so does the rest of its row: NaN,
+-inf, subnormals, |x| outside that range, a power-of-two significand
(whose lower neighbour is half as far), and a nearest multiple of 10 that
ties and reads back. So does a whole block where such rows are the
majority, or where a column is not a 1-d array of integers or of floats
of up to 64 bits (bool, object, ...).

This module imports nothing else of the package, so any module can use it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = [
    "CSV_BLOCK_ROWS",
    "canonical_json",
    "check_range",
    "csv_blocks",
    "frozen",
    "sha256_hex",
    "split",
    "two_prod",
    "two_sum",
]


def check_range(
    low: float | None,
    /,
    *,
    high: float | None = None,
    strict: bool = False,
    integer: bool = False,
    prefix: str = "",
    **values: Any,
) -> None:
    """Raise ValueError unless every keyword value is finite and in range.

    The range is ``>= low`` (``> low`` when ``strict``); with ``high`` it is
    [low, high] ((low, high) when ``strict``); ``low`` None asks for
    finiteness alone. ``integer`` also asks for a Python or numpy integer.
    A None value is skipped and each entry of a list value is checked, as
    for the optional and list fields of a config section. The message names
    the keyword after ``prefix``: ``<name> must be <bound>, got <value>``,
    and ``<name> must be finite, got <value>`` for NaN or +-inf.
    """
    if low is None:
        bound = "finite"
    elif high is None:
        bound = f"{'>' if strict else '>='} {low}"
    else:
        bound = f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
    if integer:
        bound = f"an integer {bound}"
    for name, value in values.items():
        for v in value if isinstance(value, list) else [value]:
            if v is None:
                continue
            if integer and not isinstance(v, (int, np.integer)):
                fault = bound
            elif not integer and not math.isfinite(v):
                fault = "finite"
            elif low is not None and (
                (v <= low if strict else v < low)
                or (high is not None and (v >= high if strict else v > high))
            ):
                fault = bound
            else:
                continue
            raise ValueError(f"{prefix}{name} must be {fault}, got {v}")


def frozen(values: Any, dtype: Any) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` that no caller can change.

    A read-only ndarray of ``dtype`` is returned as given, so a producer
    that marks its fresh array read-only hands it to a record uncopied; it
    must then write to it through no other view. Anything else (a writable
    array, another dtype, a sequence) becomes a read-only copy, so a record
    keeps holding what it validated.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and stable float repr.

    Identical inputs always produce identical bytes (Python float repr is the
    shortest round-trip form), which backs the byte-determinism contract.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def sha256_hex(text: str) -> str:
    """Hex sha256 of a text payload (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Dekker's splitter 2**27 + 1: ``_DEKKER * a`` cuts a double into two
#: halves of at most 26 significant bits each.
_DEKKER = 134217729.0


def split(a: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a exactly and at most 26 significant bits in
    each (Veltkamp's split); an integer below 2**26 splits as (a, 0)."""
    c = _DEKKER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float | np.ndarray, b: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971), barring
    overflow and underflow."""
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def two_sum(a: float | np.ndarray, b: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


# Rows per block of :func:`csv_blocks`: a block's byte matrix and text stay a
# few MB, however long the columns are.
CSV_BLOCK_ROWS = 1 << 15

#: "00" .. "99" as two-byte codes: one divmod by 100 gives two ASCII digits.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
#: 10**k as doubles, exact for k = 0 .. 20.
_POW10 = np.array([float(10**k) for k in range(21)])
#: 10, 100, ..., 10**19: an unsigned 64-bit integer has one digit more than
#: the number of these it reaches.
_DIGIT_STEPS = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
#: A float cell: sign, "0." and three zeros (for 1e-4 <= |x| < 1), then 17
#: digits with a "." slot between each two.
_FLOAT_WIDTH = 6 + 17 + 16
_FRACTION_BITS = np.uint64((1 << 52) - 1)


def _ascii_digits(value: np.ndarray, width: int) -> np.ndarray:
    """The last ``width`` (even) decimal digits of each non-negative integer,
    as ASCII bytes of shape (n, width)."""
    pairs = np.empty((width // 2, value.shape[0]), dtype=value.dtype)
    for i in range(width // 2 - 1, -1, -1):
        quotient = value // 100
        np.subtract(value, np.multiply(quotient, 100, out=pairs[i]), out=pairs[i])
        value = quotient
    return np.ascontiguousarray(_DIGIT_PAIRS[pairs.T]).view(np.uint8)


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each float64 of ``x`` as a row of bytes, where a zero
    byte is no character, and the mask of the cells it proved (see the
    module docstring for the rule); the other rows hold junk."""
    ax = np.abs(x)
    fraction = ax.view(np.uint64) & _FRACTION_BITS
    ok = (ax >= 1e-4) & (ax < 1e16) & (fraction != 0)
    ax = np.where(ok, ax, 1.5)
    exp10 = np.floor(np.log10(ax)).astype(np.int64)
    scale = _POW10[16 - exp10]
    p, r = two_prod(ax, scale)
    rounded = np.rint(r)
    res = r - rounded
    d = p.astype(np.int64) + rounded.astype(np.int64)
    ok &= (d >= 10**16) & (d < 10**17)
    half_ulp = np.ldexp(scale, (ax.view(np.uint64) >> 52).astype(np.int32) - 1076)

    c = d.copy()
    for step in (10, 100):
        m, half = d % step, step // 2
        delta = np.where((m > half) | ((m == half) & (res > 0)), step - m, -m)
        fits = ok & (np.abs(delta - res) < half_ulp)
        ok &= ~(fits & (m == half) & (res == 0))  # two nearest: left to str
        np.copyto(c, d + delta, where=fits)
    zero = x == 0  # 0.0 and -0.0: the digits of c = 0, and decpt 1 below
    c[zero] = 0
    ok |= zero

    # |x| = 0.c_0 c_1 ... c_16 * 10^decpt; keep the digits up to the last
    # nonzero one, and at least one after the point. A cell left to ``str``
    # may have any exp10 (log10(9999999999999998.0) rounds to 16).
    decpt = np.where(ok, exp10 + 1, 1)
    out = np.zeros((x.shape[0], _FLOAT_WIDTH), dtype=np.uint8)
    np.copyto(out[:, 0], ord("-"), where=np.signbit(x))
    leading = np.flatnonzero(decpt <= 0)
    out[leading, 1] = ord("0")
    out[leading, 3:6] = (np.arange(1, 4) <= -decpt[leading, None]) * np.uint8(ord("0"))
    out[np.arange(x.shape[0]), np.where(decpt > 0, 5 + 2 * decpt, 2)] = ord(".")
    digits = _ascii_digits(c, 18)[:, 1:]
    trailing_zeros = np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    keep = np.maximum(np.where(zero, 1, 17 - trailing_zeros), decpt + 1)
    np.copyto(out[:, 6::2], digits, where=np.arange(17) < keep[:, None])
    return out, ok


def _int_cells(v: np.ndarray) -> np.ndarray:
    """Each integer of ``v`` as a row of bytes, where a zero byte is no
    character."""
    if v.dtype == np.uint64:
        negative, magnitude = np.zeros(v.shape, dtype=bool), v
    else:
        negative = v < 0
        magnitude = v.view(np.uint64)
        magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)
    digits = 1 + np.searchsorted(_DIGIT_STEPS, magnitude, side="right")
    width = int(digits.max() + 1) // 2 * 2
    out = np.zeros((v.shape[0], 1 + width), dtype=np.uint8)
    np.copyto(out[:, 0], ord("-"), where=negative)
    keep = np.arange(width) >= width - digits[:, None]
    np.copyto(out[:, 1:], _ascii_digits(magnitude, width), where=keep)
    return out


def _cell_array(column: Any) -> np.ndarray:
    """The column as float64, int64 or uint64 when it holds numbers of one of
    those kinds; any other array as it is (its cells go through ``str``)."""
    column = np.asarray(column)
    if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
        return column.astype(np.float64, copy=False)
    if column.dtype.kind in "iu" and column.dtype != np.uint64:
        return column.astype(np.int64, copy=False)
    return column


def _str_lines(columns: Sequence[np.ndarray]) -> list[str]:
    """Each row as ``str`` of its cells joined by commas, newline included."""
    cells = [map(str, c.tolist()) for c in columns]
    return [f"{line}\n" for line in map(",".join, zip(*cells))]


def _csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """Rows of equal-length 1-d columns as CSV bytes, each line ``str`` of
    its cells joined by commas (see the module docstring)."""
    rows = columns[0].shape[0]
    if any(c.ndim != 1 or c.dtype.kind not in "fiu" or c.dtype.itemsize != 8 for c in columns):
        return "".join(_str_lines(columns)).encode()
    ok = np.ones(rows, dtype=bool)
    cells = []
    for column in columns:
        if column.dtype.kind == "f":
            text, proved = _float_cells(column)
            ok &= proved
        else:
            text = _int_cells(column)
        cells += [text, np.full((rows, 1), ord(","), dtype=np.uint8)]
    cells[-1] = np.full((rows, 1), ord("\n"), dtype=np.uint8)
    slow = np.flatnonzero(~ok)
    if 2 * slow.size > rows:  # splicing in most rows costs more than numpy saves
        return "".join(_str_lines(columns)).encode()
    matrix = np.concatenate(cells, axis=1)
    matrix[slow] = 0
    text = matrix.tobytes().translate(None, b"\0")
    if slow.size == 0:
        return text
    # Row k's text starts at starts[k] of ``text``; a blanked row adds nothing.
    starts = np.zeros(slow[-1] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(matrix[: slow[-1]], axis=1), out=starts[1:])
    parts = []
    prev = 0
    for cut, line in zip(starts[slow].tolist(), _str_lines([c[slow] for c in columns])):
        parts += [text[prev:cut], line.encode()]
        prev = cut
    parts.append(text[prev:])
    return b"".join(parts)


def csv_blocks(header: Sequence[str], columns: Sequence[Any]) -> Iterator[bytes]:
    """CSV bytes in blocks: the ``header`` lines, then row k joins value k of
    every column, ``CSV_BLOCK_ROWS`` rows per block; every line ends in a newline.

    Each cell is ``str`` of the column's Python scalar (``tolist``), so
    numpy scalars print as plain numbers and a float as its shortest
    round-trip repr: identical columns give identical bytes. Integer and
    float columns are formatted by numpy, and only the rows the module
    docstring lists go through ``str``; the bytes are the same either way.
    Write the blocks in turn to a binary file (``writelines``); joined, they
    are the whole file.

    Raises:
        ValueError: if the columns differ in length.
    """
    columns = [_cell_array(column) for column in columns]
    lengths = [column.shape[0] for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {', '.join(map(str, lengths))}")
    yield "".join(f"{line}\n" for line in header).encode()
    rows = lengths[0] if lengths else 0
    for start in range(0, rows, CSV_BLOCK_ROWS):
        yield _csv_block([column[start : start + CSV_BLOCK_ROWS] for column in columns])
