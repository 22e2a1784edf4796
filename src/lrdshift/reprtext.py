"""Python's ``repr`` of many floats at once, in numpy, byte for byte.

The CSV writers of :mod:`lrdshift.cli` format every float they write here:
``repr`` costs about 0.55 us a value, and a 15 x 2^16 map has about 10^6.
It is not part of ``cli.py``: a command run without cached bytecode
compiles its modules one at a time, and compiling them as one module
raised every command's peak memory by about 0.7 MiB.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["repr_join"]


def repr_join(values: np.ndarray, sep: bytes, lead: bool, repeat: int = 1) -> bytes:
    """``repr`` of each float64 value, ``repeat`` times, with the one byte
    ``sep`` before (``lead``) or after it; a NaN's text is empty.

    The bytes equal those of the ``repr`` join.  Each value takes one
    28-byte slot row: the separator if it leads, ``-``, ``0.000``, the 17
    digits of :func:`_shortest_decimal`, one spare byte, the separator if
    it trails, 2 bytes of padding.  The value's text is the row's bytes that
    :func:`_text_masks` keeps, and all rows are compacted at once.  A value
    :func:`_shortest_decimal` leaves undecided has ``repr`` written into its
    row instead.
    """
    x = np.asarray(values, dtype=np.float64)
    digits, e, ok = _shortest_decimal(np.abs(x))
    slots, significant = _digit_slots(digits)
    slots[:, 0] = np.frombuffer(sep + b"-0.", np.uint32)[0]
    slots[:, 6] = np.frombuffer(b"0" + sep + b"\0\0", np.uint32)[0]
    code = ((x < 0) * 20 + e + 4) * 18 + significant
    code[~ok] = 0
    keep = np.take(_text_masks(), code, axis=0)
    row = slots.view(np.uint8)
    large = np.flatnonzero(ok & (e >= 0))
    if len(large):
        row[large, 7:25] = np.take_along_axis(row[large], _point_after()[e[large]], axis=1)
    other = np.flatnonzero(~ok)
    if len(other):
        texts = np.array([b"" if v != v else repr(v).encode() for v in x[other].tolist()], "S24")
        texts = texts.view(np.uint8).reshape(len(other), 24)
        row[other, 1:25] = texts
        keep[other, 1:25] = texts != 0
    keep[:, 0] = lead
    keep[:, 25] = not lead
    text = row.ravel()[keep.ravel()].tobytes()
    if repeat == 1:
        return text
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return b"".join(text[start:end] * repeat for start, end in zip([0] + ends, ends))


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10.0**k for k = 0..22, each exact, and its Veltkamp split into two
    26-bit halves, with which its product with a double is formed exactly."""
    power = np.array([10.0**k for k in range(23)])
    high = power * 134217729.0  # 2**27 + 1
    high -= high - power
    return power, high, power - high


def _shortest_decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal ``repr`` writes for each of ``a`` (>= 0, or NaN): its
    digits as a 17-digit int64, trailing zeros included, its exponent e, and
    whether the two are decided.  ``a`` is overwritten.

    Values in [1e-4, 1e16), which ``repr`` writes positionally, are decided.
    ``repr`` writes the shortest decimal that reads back as a, the nearest
    of that length, ties to even (Steele & White 1990; Gay 1990).  With
    e = floor(log10 a), V = a 10^(16-e) is formed exactly as ``p + err``
    (Dekker's two-product; p is an even integer >= 2^53 and |err| <= 8), so
    V rounded to a multiple of 1, 10 and 100 gives the 17-, 16- and 15-digit
    decimals.  The shortest is the first of the 15- and 16-digit ones within
    h, half an ulp of a in the same units (0.55 < h < 11.1), else the
    17-digit one.  Those distances are known to about 1e-14, so a value
    whose distance lies within 1e-9 of h, or whose 16-digit rounding lies
    within 1e-9 of a tie, is left undecided, as are one whose e was
    misjudged, 0 and NaN.  Below a power of two the interval is h/2 wide,
    but no decimal falls between h/2 and h below any power of two in the
    range (``tests/test_reprtext.py::TestReprJoin::test_powers_of_two``).
    """
    ok = (a >= 1e-4) & (a < 1e16)
    a[~ok] = 1.5
    e = np.floor(np.log10(a)).astype(np.intp)
    power, power_hi, power_lo = (table[16 - e] for table in _powers_of_ten())
    h = np.ldexp(power, np.frexp(a)[1] - 54)
    p = a * power
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a -= a_hi  # the low half
    err = a_hi * power_hi
    err -= p
    err += a_hi * power_lo
    err += a * power_hi
    err += a * power_lo
    ok &= p - 1e16 + err >= 0  # e is not too large
    whole = p.astype(np.int64)
    step = np.rint(err)  # the 17-digit decimal is whole + step; a tie goes to even
    for unit in (10, 100):  # the 16-, then the 15-digit decimal
        residue = whole % unit
        distance = residue + err
        nearest = np.rint(distance / unit)
        nearest *= unit
        distance -= nearest
        np.abs(distance, out=distance)
        ok &= np.abs(distance - h) > 1e-9
        if unit == 10:
            ok &= np.abs(distance - unit / 2) > 1e-9
        nearest -= residue
        step = np.where(distance < h, nearest, step)
    ok &= p - 1e17 + step < 0  # no decimal rounded up to 10^17
    return whole + step.astype(np.int64), e, ok


@functools.cache
def _four_digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For 0..9999: its four digits as one uint32 ("0000".."9999"), and how
    many of them are trailing zeros (4 for 0); built from the pairs 00..99."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    text = np.empty((100, 100, 4), np.uint8)
    text[:, :, :2] = pairs[:, None]
    text[:, :, 2:] = pairs[None, :]
    pair_zeros = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)], np.int8)
    zeros = np.empty((100, 100), np.int8)
    zeros[:] = pair_zeros
    zeros[:, 0] += pair_zeros
    return text.view(np.uint32).ravel(), zeros.ravel()


def _digit_slots(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot rows of 7 uint32 holding the 17 digits of each of ``digits`` in
    bytes 7..23 (columns 0 and 6 left to the caller), and how many of them
    are significant.  Column 1 is "000d", whose zeros are those of "0.000"."""
    slots = np.empty((len(digits), 7), np.uint32)
    first, digits = np.divmod(digits, 10**16)
    high, low = np.divmod(digits, 10**8)
    groups = np.empty((len(digits), 4), np.int64)
    np.divmod(high, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10**4, out=(groups[:, 2], groups[:, 3]))
    text, trailing_zeros = _four_digit_tables()
    slots[:, 1] = text[first]
    slots[:, 2:6] = text[groups]
    zeros = trailing_zeros[groups[:, 3]]  # the first digit is not 0
    for column, count in ((2, 4), (1, 8), (0, 12)):
        zeros = np.where(zeros == count, count + trailing_zeros[groups[:, column]], zeros)
    return slots, 17 - zeros


@functools.cache
def _text_masks() -> np.ndarray:
    """Which of a slot row's 28 bytes the text of a decided value keeps, by code.

    The code is ``(negative * 20 + e + 4) * 18 + j`` for a value with
    exponent e (-4..15) and j significant digits (1..17); code 0 keeps
    nothing.  Below 1 the text is ``0.``, -e-1 zeros and the digits.  From
    1 on it is the digits with a ``.`` after digit e and at least one digit
    after that; :func:`repr_join` moves the ``.`` there (:func:`_point_after`).
    """
    negative, e, j, col = np.ix_(range(2), range(-4, 16), range(18), range(28))
    small = (col == 2) | (col == 3) | ((4 <= col) & (col < 3 - e)) | ((7 <= col) & (col < 7 + j))
    large = (7 <= col) & (col < 8 + np.maximum(j, e + 2))
    keep = ((negative == 1) & (col == 1)) | np.where(e < 0, small, large)
    return (keep & (j > 0)).reshape(-1, 28)


@functools.cache
def _point_after() -> np.ndarray:
    """For e = 0..15, the row bytes that make bytes 7..24: the digits with the
    ``.`` of byte 3 after digit e."""
    e, col = np.ix_(range(16), range(18))
    return np.where(col <= e, 7 + col, np.where(col == e + 1, 3, 6 + col))
