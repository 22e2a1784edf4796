"""Python's ``repr`` of many floats at once, in numpy, byte for byte.

The CSV writers of :mod:`lrdshift.cli` format every float they write here:
``repr`` costs about 0.55 us a value, and a 15 x 2^16 map has about 10^6.
:func:`repr_join` decides every value with 1e-30 <= |x| < 1e16 but a few
(powers of two, near-ties) in numpy: 157-178 ns a value on the detect-map
benchmark's maps at seeds 1, 7 and 951, whose p-values reach 6.8e-21 and
of which none is left to ``repr``.  It is not part of ``cli.py``: a
command run without cached bytecode compiles its modules one at a time,
and compiling them as one module raised every command's peak memory by
about 0.7 MiB.
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
    it trails, 2 bytes of padding.  From 1 on the ``.`` is moved after the
    integer digits, and below 1e-4 the first digit, the ``.``, the other
    digits and ``e-XX`` are gathered from byte 2 on.  The value's text is
    the row's bytes that :func:`_text_masks` keeps, and all rows are
    compacted at once.  A value :func:`_shortest_decimal` leaves undecided
    has ``repr`` written into its row instead.
    """
    x = np.asarray(values, dtype=np.float64)
    digits, e, ok = _shortest_decimal(np.abs(x))
    slots, significant = _digit_slots(digits)
    slots[:, 0] = np.frombuffer(sep + b"-0.", np.uint32)[0]
    slots[:, 6] = np.frombuffer(b"0" + sep + b"\0\0", np.uint32)[0]
    code = ((x < 0) * 46 + e + 30) * 18 + significant
    code[~ok] = 0
    keep = np.take(_text_masks(), code, axis=0)
    row = slots.view(np.uint8)
    large = np.flatnonzero(ok & (e >= 0))
    if len(large):
        row[large, 7:25] = np.take_along_axis(row[large], _point_after()[e[large]], axis=1)
    scientific = np.flatnonzero(ok & (e < -4))
    if len(scientific):
        source = np.concatenate([row[scientific], _exponent_text()[-e[scientific]]], axis=1)
        order = _scientific_order()[significant[scientific]]
        row[scientific, 2:25] = np.take_along_axis(source, order, axis=1)
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
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """For k = 0..47: hi = fl(10^k), lo = fl(10^k - hi) (0 up to k = 22,
    where 10^k is exact), and hi's Veltkamp split into two 26-bit halves,
    with which hi's product with a double is formed exactly."""
    power = np.array([float(10**k) for k in range(48)])
    tail = np.array([float(10**k - int(v)) for k, v in enumerate(power.tolist())])
    high = power * 134217729.0  # 2**27 + 1
    high -= high - power
    return power, tail, high, power - high


def _shortest_decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal ``repr`` writes for each of ``a`` (>= 0, or NaN): its
    digits as a 17-digit int64, trailing zeros included, its exponent e, and
    whether the two are decided.  ``a`` is overwritten.

    Values in [1e-30, 1e16) are decided.  ``repr`` writes the shortest
    decimal that reads back as a, the nearest of that length, ties to even
    (Steele & White 1990; Gay 1990).  With e = floor(log10 a), V = a 10^(16-e)
    is formed as ``p + err``: p = fl(a hi) is an even integer >= 2^53, and
    err, with |err| <= 20, is Dekker's exact residual of ``a hi`` plus
    ``a lo`` in plain double, where 10^(16-e) = hi + lo to about 2^-106
    relative (:func:`_powers_of_ten`; lo = 0 down to e = -6).  So err is
    exact from 1e-6 on and within about 3e-15 below.  V rounded to a
    multiple of 1, 10 and 100 gives the 17-, 16- and 15-digit decimals.  The
    shortest is the first of the 15- and 16-digit ones within h, half an ulp
    of a in the same units (0.55 < h < 11.1), else the 17-digit one.  Those
    distances are known to about 1e-14, so a value whose distance lies within
    1e-9 of h, or whose 16- or 17-digit rounding lies within 1e-9 of a tie,
    is left undecided, as are one whose e was misjudged, 0 and NaN.  Where
    err is inexact, rounding it can move a value within 3e-15 of a
    17-digit tie to the tie and then to the far neighbour
    (``NEAR_TIES`` in ``tests/test_reprtext.py``).  A power of two is left
    undecided too, since below it the interval is only h/2 wide: from
    2^-44 down, a 15- or 16-digit decimal falls between h/2 and h below
    some (``tests/test_reprtext.py::TestReprJoin::test_powers_of_two``).
    """
    ok = (a >= 1e-30) & (a < 1e16)
    a[~ok] = 1.5
    e = np.floor(np.log10(a)).astype(np.intp)
    power, tail, power_hi, power_lo = (table[16 - e] for table in _powers_of_ten())
    mantissa, exponent = np.frexp(a)
    ok &= mantissa != 0.5  # a power of two
    h = np.ldexp(power, exponent - 54)
    p = a * power
    tail *= a
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a -= a_hi  # the low half
    err = a_hi * power_hi
    err -= p
    err += a_hi * power_lo
    err += a * power_hi
    err += a * power_lo
    err += tail
    ok &= p - 1e16 + err >= 0  # e is not too large
    whole = p.astype(np.int64)
    step = np.rint(err)  # the 17-digit decimal is whole + step
    ok &= np.abs(err - step) < 0.5 - 1e-9  # not within 1e-9 of a tie
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

    The code is ``(negative * 46 + e + 30) * 18 + j`` for a value with
    exponent e (-30..15) and j significant digits (1..17); code 0 keeps
    nothing.  From 1 on the text is the digits with a ``.`` after digit e
    and at least one digit after that; :func:`repr_join` moves the ``.``
    there (:func:`_point_after`).  From 1e-4 to 1 it is ``0.``, -e-1 zeros
    and the digits.  Below 1e-4 it is ``d[.ddd]e-XX`` from byte 2 on, which
    :func:`repr_join` gathers there (:func:`_scientific_order`).
    """
    negative, e, j, col = np.ix_(range(2), range(-30, 16), range(18), range(28))
    scientific = (2 <= col) & (col < 6 + j + (j > 1))
    small = (col == 2) | (col == 3) | ((4 <= col) & (col < 3 - e)) | ((7 <= col) & (col < 7 + j))
    large = (7 <= col) & (col < 8 + np.maximum(j, e + 2))
    keep = ((negative == 1) & (col == 1)) | np.where(e < -4, scientific, np.where(e < 0, small, large))
    return (keep & (j > 0)).reshape(-1, 28)


@functools.cache
def _point_after() -> np.ndarray:
    """For e = 0..15, the row bytes that make bytes 7..24: the digits with the
    ``.`` of byte 3 after digit e."""
    e, col = np.ix_(range(16), range(18))
    return np.where(col <= e, 7 + col, np.where(col == e + 1, 3, 6 + col))


@functools.cache
def _exponent_text() -> np.ndarray:
    """``e-XX`` for XX = 00..30, one row of 4 bytes each."""
    return np.frombuffer(b"".join(b"e-%02d" % k for k in range(31)), np.uint8).reshape(31, 4)


@functools.cache
def _scientific_order() -> np.ndarray:
    """For j = 0..17 significant digits, the bytes of a slot row extended by
    its :func:`_exponent_text` (bytes 28..31) that make bytes 2..24: the
    first digit, the ``.`` of byte 3 and the other j - 1 digits if j > 1,
    then the exponent."""
    order = np.zeros((18, 23), np.intp)
    for j in range(18):
        text = [7] + ([3, *range(8, 7 + j)] if j > 1 else []) + [28, 29, 30, 31]
        order[j, :len(text)] = text
    return order
