"""The exact float kernel of the CSV and JSON writers.

``_cells(x)`` spells each float64 of x with 1e-6 < |v| < 1e17 byte for byte
as ``"%.17g" % v`` does, and ``_cells(x, shortest=True)`` each with
1e-6 < |v| < 1e16 as ``repr(v)``, and so ``json.dumps``, does: the shortest
decimal that reads back as v (Steele & White; Gay, 1990).  It works a block
at a time, in a few vector passes, and gives each text as seven 8-byte words.
``cli._run_cells`` reads them for each block of a run where the kernel
covers a cell and spells every other value with ``%`` or the C encoder; it
imports this module only then, so commands that write no such block never
compile it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_VELTKAMP = 2.0**27 + 1  # splits a double into two halves of 26 bits


@cache
def _tables(shortest: bool):
    """The tables of _cells for "%.17g" or, with shortest, repr, built on
    its first call for each.

    A cell's text is a row of 56 bytes, 7 words, each byte at a fixed place:
    '-' at 6, the integer slot of digits 1..17 at 7..23, '.' at 24, the
    "0.000" lead at 25..29, the fraction slot of digits 1..17 at 31..47, the
    exponent "e-0d" (or repr's "0" after a bare '.') at 48..51 and "\\n" at
    52.  Row (e, last) of the layout, for the decimal exponent e in [-6, 16]
    and the place last of the last nonzero digit, holds the literals the
    text keeps (the '-' always: the digit words keep it for negative values
    only), 0xFF where a slot keeps its digit and 0 at a dropped byte.  It is
    stored as words by row, (7, 23 * 17).  Also 10**k for k in [0, 22],
    exact doubles, with their Veltkamp halves, (3, 23), and the doubles
    nearest 10**j for j in [-6, 17].
    """
    e = np.arange(-6, 17)[:, None, None]
    last = np.arange(1, 18)[None, :, None]
    place = np.arange(1, 18)
    # %g's fixed form for e >= -4: e + 1 integer digits, or "0." and up to
    # three zeros before the digits; else one integer digit and an exponent
    integer = np.where(e >= 0, e + 1, np.where(e >= -4, 0, 1))
    first = np.where(e >= 0, e + 2, np.where(e >= -4, 1, 2))  # of the fraction
    # repr's fixed form (e in [-4, 15] here) always writes a fraction, ".0"
    # where no digit falls after the point
    bare = shortest & (e >= 0) & (last < first)
    rows = np.zeros((23, 17, 56), np.uint8)
    rows[..., 6] = ord("-")
    rows[..., 7:24] = 255 * (place <= integer)
    rows[..., 24] = (ord(".") * ((last >= first) | bare) * (integer > 0))[..., 0]
    rows[..., 25:30] = np.array(list(b"0.000")) * (np.arange(5) <= -e) * (integer == 0)
    rows[..., 31:48] = 255 * (place >= first) * (place <= last)
    rows[..., 48] = (ord("e") * (e < -4) + ord("0") * bare)[..., 0]
    rows[..., 49:51] = np.array(list(b"-0")) * (e < -4)
    rows[..., 51] = ((ord("0") - e) * (e < -4))[..., 0]
    rows[..., 52] = ord("\n")
    layout = np.ascontiguousarray(rows.reshape(-1, 56).view(np.int64).T)
    powers = np.array([float(10**k) for k in range(23)])
    high = powers * _VELTKAMP
    high -= high - powers
    tens = np.array([float(f"1e{j}") for j in range(-6, 18)])
    return layout, np.stack([powers, high, powers - high]), tens


def _cells(x: np.ndarray, shortest: bool = False) -> np.ndarray:
    """The layout rows, (7, len(x)) words, of the "%.17g" texts of x, each
    with 1e-6 < |v| < 1e17, or with shortest, of the repr texts of x, each
    with 1e-6 < |v| < 1e16, from exact float64 arithmetic:

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
    * With shortest, D becomes the 17-digit form of repr's digits (_shortest).
    * The cell's layout row (_tables) is ANDed with the digit words in both
      slots.
    """
    layout, powers, tens = _tables(shortest)
    mag = np.abs(x)
    # 7 + floor(b * log10(2)); 78913 / 2**18 is log10(2) closely enough for
    # the binary exponents b of the range
    j = (((mag.view(np.int64) >> 52) - 1023) * 78913 >> 18) + 7
    k = 23 - j  # 16 - e
    k -= mag >= tens.take(j)
    hi, lo = _times_power(mag, k, powers)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    if shortest:
        d = _shortest(mag, k, d, lo, powers[0])
    top, b = np.divmod(d, 10**8)
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


def _shortest(mag, k, d, lo, powers):
    """D, the 17-digit rounding of |v| * 10**k, made the 17-digit form of
    repr's digits:

    * repr's digits are the shortest decimal that round-trips and, of
      those, the nearest |v|, ties to even.  15-digit decimals lie more
      than an ulp of |v| apart, so a 15-digit decimal that round-trips is
      repr's, its trailing zeros dropped; else the nearest 16-digit
      decimal, if it round-trips; else D, which always does.
    * D15 and D16, the nearest 15- and 16-digit decimals, round the integer
      2 * D + sign(r), where r = lo - rint(lo) is D's exact residue: it
      keeps on which side of each place's half the product lies.  D16 takes
      ties to even; D15 takes them down, as a tie at 15 digits lies more
      than half an ulp from |v| and never round-trips.
    * D_p round-trips when D_p / 10**(p - 1 - e) == |v|: D_p < 2**53 and
      10**(p - 1 - e) <= 1e22 are exact doubles, so the division rounds the
      decimal correctly.  At e = 15 the 15-digit test reads D15 / 1 < |v|
      and fails, and D16 = rint(|v|) then serves.  D16 >= 2**53 is no
      double, but there the ulp of |v| exceeds 10**(e - 15), so D16 lies
      inside the rounding interval of |v|.  That interval is asymmetric only
      at powers of two, and those of the range have at most 16 digits: D15
      or D16 is |v| itself.  The tests pin the ties, the neighbours of each
      power of ten and every power of two.
    """
    twice = 2 * d + np.sign(lo - np.rint(lo)).astype(np.int64)
    d16 = (twice + 9 + (twice // 20 & 1)) // 20
    d15 = (twice + 99) // 200
    fits15 = d15 / powers.take(np.maximum(k - 2, 0)) == mag
    fits16 = (d16 >= 2**53) | (d16 / powers.take(k - 1) == mag)
    return np.where(fits15, d15 * 100, np.where(fits16, d16 * 10, d))


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
