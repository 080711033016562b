"""The exact "%.17g" kernel of the CSV writer.

``exact_texts(x)`` spells each float64 of x with 1e-6 < |v| < 1e17 byte for
byte as ``"%.17g" % v`` does, a block at a time, in a few vector passes.
``cli._csv_spell`` reads it for blocks where it covers enough cells and
spells every other value with ``%``; it imports this module only then, so
commands that write no such block never compile it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_VELTKAMP = 2.0**27 + 1  # splits a double into two halves of 26 bits


@cache
def _tables():
    """The tables of _cells, built on its first call.

    A cell's text is a row of 56 bytes, 7 words, each byte at a fixed place:
    '-' at 6, the integer slot of digits 1..17 at 7..23, '.' at 24, the
    "0.000" lead at 25..29, the fraction slot of digits 1..17 at 31..47, the
    exponent "e-0d" at 48..51 and "\\n" at 52.  Row (e, last) of the layout,
    for the decimal exponent e in [-6, 16] and the place last of the last
    nonzero digit, holds the literals the text keeps (the '-' always: the
    digit words keep it for negative values only), 0xFF where a slot keeps
    its digit and 0 at a dropped byte.  It is stored as words by row,
    (7, 23 * 17).  Also 10**k for k in [0, 22], exact doubles, with their
    Veltkamp halves, (3, 23), and the doubles nearest 10**j for j in [-6, 17].
    """
    e = np.arange(-6, 17)[:, None, None]
    last = np.arange(1, 18)[None, :, None]
    place = np.arange(1, 18)
    # %g's fixed form for e >= -4: e + 1 integer digits, or "0." and up to
    # three zeros before the digits; else one integer digit and an exponent
    integer = np.where(e >= 0, e + 1, np.where(e >= -4, 0, 1))
    first = np.where(e >= 0, e + 2, np.where(e >= -4, 1, 2))  # of the fraction
    rows = np.zeros((23, 17, 56), np.uint8)
    rows[..., 6] = ord("-")
    rows[..., 7:24] = 255 * (place <= integer)
    rows[..., 24] = (ord(".") * (last >= first) * (integer > 0))[..., 0]
    rows[..., 25:30] = np.array(list(b"0.000")) * (np.arange(5) <= -e) * (integer == 0)
    rows[..., 31:48] = 255 * (place >= first) * (place <= last)
    rows[..., 48:51] = np.array(list(b"e-0")) * (e < -4)
    rows[..., 51] = ((ord("0") - e) * (e < -4))[..., 0]
    rows[..., 52] = ord("\n")
    layout = np.ascontiguousarray(rows.reshape(-1, 56).view(np.int64).T)
    powers = np.array([float(10**k) for k in range(23)])
    high = powers * _VELTKAMP
    high -= high - powers
    tens = np.array([float(f"1e{j}") for j in range(-6, 18)])
    return layout, np.stack([powers, high, powers - high]), tens


def exact_texts(x: np.ndarray) -> list[str]:
    """The "%.17g" texts of x, each with 1e-6 < |v| < 1e17 (_cells)."""
    cells = _cells(x)
    # one bytes.translate drops the cells' unused bytes, after the words no
    # cell of the block uses (the integer slot of values below 1, say); "\n"
    # ends each text
    used = np.flatnonzero(np.count_nonzero(cells, axis=1))
    text = cells.take(used, axis=0).T.tobytes().translate(None, b"\0").decode("ascii")
    return text.split("\n")[:-1]


def _cells(x: np.ndarray) -> np.ndarray:
    """The layout rows, (7, len(x)) words, of the "%.17g" texts of x, each
    with 1e-6 < |v| < 1e17, from exact float64 arithmetic:

    * e = floor(log10|v|) is floor(b * log10(2)) for the binary exponent b,
      or one more where |v| reaches 10**(e + 1).  |v| is compared with the
      double nearest that power, which lies above it, or is 1e-6, below the
      range, so the comparison is exact.  10**(16 - e) <= 1e22 is a double,
      so Dekker's product gives |v| * 10**(16 - e) in [1e16, 1e17) exactly
      as hi + lo.  hi >= 1e16 > 2**53 is an even integer, so D = hi +
      rint(lo) is the 17-digit integer % rounds to, half to even.  D < 1e17:
      no double of the range lies within half a unit of its 17th digit below
      a power of ten.  The tests pin the neighbours of each power of ten.
    * D = d1 * 10**16 + a * 10**8 + b.  a and b are spelled eight digits to
      a word, the most significant in the lowest byte: three rounds divide
      each lane by a power of ten through a multiply and a shift, and put
      quotient and remainder in the two halves of the lane.
    * The cell's layout row (_tables) is ANDed with the digit words in both
      slots.
    """
    layout, powers, tens = _tables()
    mag = np.abs(x)
    # 7 + floor(b * log10(2)); 78913 / 2**18 is log10(2) closely enough for
    # the binary exponents b of the range
    j = (((mag.view(np.int64) >> 52) - 1023) * 78913 >> 18) + 7
    k = 23 - j  # 16 - e
    k -= mag >= tens.take(j)
    hi, lo = _times_power(mag, k, powers)
    top, b = np.divmod(hi.astype(np.int64) + np.rint(lo).astype(np.int64), 10**8)
    d1, a = np.divmod(top, 10**8)
    t = np.stack([a, b])
    for multiplier, shift, lanes, unit, width in _SWAR_ROUNDS:
        q = t * multiplier >> shift & lanes
        t = (t << width) + q * (1 - (unit << width))
    # digit 10 + i is byte i of b, digit 2 + i byte i of a and digit 1 is
    # never 0, so the binary exponent of one sum places the last nonzero digit
    last = ((np.ldexp(t[0], -64) + t[1] + 2.0**-70).view(np.int64) >> 52) - 943 >> 3
    cells = layout.take((22 - k) * 17 + last - 1, axis=1)
    # ASCII digits; d1's word keeps the literals before the slot, and the
    # '-' at byte 6 only for a negative value
    sign = np.signbit(x) * 0xFF000000000000
    digits = np.stack([(d1 | 0x30) << 56 | 0xFFFFFFFFFFFF | sign, *(t | 0x3030303030303030)])
    cells[:3] &= digits
    cells[3:6] &= digits
    return cells


# (multiplier, shift, lane mask, power of ten, half-lane bits) of the rounds
# that split 8 digits into 4 + 4, 2 + 2 and 1 + 1; each multiply and shift
# divides exactly for the lane's values, without carrying across lanes
_SWAR_ROUNDS = (
    (109951163, 40, 0xFFFFFFFF, 10**4, 32),
    (10486, 20, 0x0000007F0000007F, 100, 16),
    (103, 10, 0x000F000F000F000F, 10, 8),
)


def _times_power(a, k, powers):
    """a * 10**k as hi + lo exactly: Dekker's product with Veltkamp halves."""
    p, p_hi, p_lo = powers.take(k, axis=1)
    hi = a * p
    a_hi = a * _VELTKAMP
    a_hi -= a_hi - a
    a_lo = a - a_hi
    lo = a_hi * p_hi - hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return hi, lo
