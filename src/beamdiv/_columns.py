"""The CSV text of a block of floats.

The CSV holds each float as its ``repr``: the shortest decimal string that
reads back as the same float, and of those the nearest to it (Gay 1990,
the algorithm behind CPython's ``dtoa.c``).  ``csv_text`` finds those digits
for a whole block of cells at once with float64 and int64 arithmetic that
is exact, and lays them out the way ``repr`` does.  A cell outside its
range -- NaN, an infinity, a magnitude outside [1e-6, 1e17) -- is handed to
``repr`` itself (``_splice_repr``), so every cell is byte for byte
``repr(v)``.

How the digits are found, for one finite ``v`` with ``a = |v| = m * 2**e``:

- ``a * 10**s`` lies in [1e16, 1e17) for one ``s`` in [0, 22], and since
  ``10**s`` is an exact float64 a two-product gives that value exactly as
  ``P + LO / 2**52`` (``P`` an integer, ``LO`` an int64).
- ``float()`` reads back as ``a`` every decimal within half a gap of it; a
  gap scaled by ``10**s`` is exact too (``U``, and half of it below a power
  of two), and the ends count when ``m`` is even (round half to even).
  So the candidates are the integers ``A..B`` of that scaled interval.
- The shortest digits are the multiple of the largest power of ten inside
  ``[A, B]``.  The interval spans at most 24 integers, so a multiple of
  ``10**k`` lies in it exactly when ``B mod 10**k <= B - A``: for ``k >= 2``
  that is ``B mod 100 <= B - A``, and the multiple is ``B - B mod 100``.
  Otherwise the digits end in the units or the tens, and the candidate
  nearest ``a`` is the rounded value, clamped into the interval.  When
  ``a`` lies exactly halfway, ``dtoa.c`` takes the even last digit, and so
  does this.

The 17 digits of that multiple, with trailing zeros dropped, are ``repr``'s
digits; ``17 - s`` places the decimal point.  Each cell is then six
little-endian int64 words of fixed byte slots (sign and leading ``0.000``,
the digits with a point slot after each, the exponent, the separator),
written with table lookups; the empty slots are zero bytes, and one
``bytes.translate`` deletes them all.
"""

from __future__ import annotations

import math

import numpy as np


def _at_least(k: int) -> float:
    """The smallest float64 that is at least ``10**k``."""
    f = float(10**k) if k >= 0 else 1 / 10**-k
    num, den = f.as_integer_ratio()
    below = num * 10**-k < den if k < 0 else num < 10**k * den
    return math.nextafter(f, math.inf) if below else f


def _veltkamp(v):
    """``v`` split into a high and a low half of at most 26 bits each: ``hi + lo == v``."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


_LOW = _at_least(-6)        # the kernel's range is [_LOW, _HIGH)
_HIGH = 1e17
_MANT = (1 << 52) - 1
_EXP = 0x7FF << 52
_TWO52 = 2.0**52

# By biased exponent: ``s`` is _S_TOP, or one less from _S_STEP up, so that
# every float in the binade with 10**16 <= a * 10**s < 10**17 gets its s.
_S_TOP = np.full(2048, 16, np.int64)
_S_STEP = np.full(2048, math.inf)
for _ef in range(1003, 1080):   # the binades of [_LOW, _HIGH)
    _e = _ef - 1023
    _d = len(str(2**_e)) - 1 if _e >= 0 else -len(str(2**-_e))   # floor(log10(2**_e))
    _S_TOP[_ef] = 16 - _d
    _S_STEP[_ef] = _at_least(_d + 1)

_P10 = np.array([float(10**s) for s in range(23)])
_P10_HI, _P10_LO = _veltkamp(_P10)

# Four digits ``g`` as one word: digit, point slot, digit, ...  The first
# 10000 entries drop trailing zeros (the group ends the number), the next
# 10000 keep them.
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T   # row g: the digits of g
_GROUPS = np.zeros((2, 10000, 8), np.uint8)
_GROUPS[:, :, ::2] = _DIGITS + 0x30
_GROUPS[0, :, ::2] *= np.logical_or.accumulate(_DIGITS[:, ::-1] != 0, axis=1)[:, ::-1]
_GROUPS = _GROUPS.view("<i8").reshape(-1)


def _pattern(decpt: int, more: bool, negative: bool) -> bytes:
    """The fixed bytes of a cell whose digits are ``0.d1d2... * 10**decpt``.

    Bytes 0-5 hold the sign and a leading ``0.``/``0.000``, byte 6 ``'0'``
    plus the first digit, bytes 8-39 the other 16 digits each followed by a
    point slot, bytes 40-43 the exponent and byte 47 the separator.  The
    pattern sets the sign, the leading zeros, the point, the zeros that pad
    an integer out to the point (``1000.0``) and the exponent; ``more`` says
    the number has more than one digit.
    """
    cell = bytearray(48)
    cell[0] = ord("-") if negative else 0
    cell[6] = ord("0")
    fixed = -4 < decpt <= 16   # repr's switch to exponent notation
    if fixed and decpt <= 0:
        lead = b"0." + b"0" * -decpt
        cell[1:1 + len(lead)] = lead
    elif fixed:
        for j in range(1, decpt + 1):
            cell[6 + 2 * j] = ord("0")
        cell[5 + 2 * decpt] = ord(".")
    else:
        if more:
            cell[7] = ord(".")
        cell[40:44] = b"e%+03d" % (decpt - 1)
    return bytes(cell)


# Row 2*(s+1) + more + 48*negative, for s in [-1, 22]; the last row marks a
# cell that repr writes.
_PATTERNS = np.frombuffer(
    b"".join(_pattern(17 - s, more, negative) for negative in (0, 1) for s in range(-1, 23) for more in (0, 1))
    + b"\x01" + bytes(47),
    "<i8",
).reshape(-1, 6)
_MARKER = len(_PATTERNS) - 1


def _scaled(a: np.ndarray):
    """``s``, ``P``, ``LO`` and ``U`` of each ``a`` in [_LOW, _HIGH): ``a * 10**s == P + LO / 2**52``.

    ``U / 2**52`` is half the gap above ``a``, times ``10**s``.
    """
    bits = a.view(np.int64)
    ef = bits >> 52
    s = _S_TOP[ef]
    s -= a >= _S_STEP[ef]
    b = _P10[s]
    p = a * b
    P = p.astype(np.int64)
    # Dekker's two-product: err = a*b - p exactly, in place to hold few arrays.
    ah, al = _veltkamp(a)
    t = _P10_HI[s]
    err = ah * t
    err -= p
    np.multiply(al, t, out=t)
    err += t
    np.take(_P10_LO, s, out=t)
    ah *= t
    err += ah
    al *= t
    err += al
    err *= _TWO52
    LO = err.astype(np.int64)
    half_gap = (bits & _EXP).view(np.float64) * b
    half_gap *= 0.5
    return s, P, LO, half_gap.astype(np.int64)


def _shortest(a: np.ndarray):
    """``repr``'s digits of each ``a`` in [_LOW, _HIGH) as a 17-digit integer ``M``, and its ``s``.

    ``a`` is ``M * 10**-s`` rounded to the nearest float, ``M``'s nonzero
    digits are the fewest that do that, and of those candidates ``M`` is
    the nearest to ``a`` (the even one of two equally near).
    """
    s, P, LO, U = _scaled(a)
    mant = a.view(np.int64) & _MANT
    odd = mant & 1
    B = LO + U
    B -= odd
    B >>= 52
    B += P
    U >>= mant == 0   # the gap below a power of two is half the gap above
    U -= LO
    U -= odd
    U >>= 52
    A = P - U
    width = B - A
    mod100 = B // 100
    mod100 *= -100
    mod100 += B
    mod10 = mod100 // 10
    mod10 *= -10
    mod10 += mod100
    # Nearest integer, a half to the even one, clamped into [A, B].
    t0 = LO + (1 << 51)
    M = t0 >> 52
    M += P
    t0 &= _MANT
    M -= (t0 == 0) & M   # halfway and rounded up to an odd M: back to the even one
    np.maximum(M, A, out=M)
    np.minimum(M, B, out=M)
    # Nearest multiple of ten, a half to an even tens digit, moved into
    # [A, B] when it falls just outside.
    tens = P // 10
    t1 = tens * -10
    t1 += P
    t1 <<= 52
    t1 += LO
    t1 += 5 << 52
    k = t1 // (10 << 52)
    tens += k
    k *= 10 << 52
    tens -= (t1 == k) & tens   # the same for the tens digit
    tens *= 10
    tens += 10 * (tens < A)
    tens -= 10 * (tens > B)
    M = np.where(mod10 <= width, tens, M)
    B -= mod100
    M = np.where(mod100 <= width, B, M)
    rolled = M == 10**17   # 9.999...e-06 -> 1e-05
    M[rolled] = 10**16
    s -= rolled
    return M, s


def csv_text(block: np.ndarray) -> str:
    """The CSV lines of a 2-D float64 block: ``",".join(map(repr, row)) + "\\n"`` for each row."""
    n, c = block.shape
    x = block.ravel()
    a = np.abs(x)
    exact = (a >= _LOW) & (a < _HIGH)
    a[~exact] = 1.0   # in range for the arithmetic; written as 0.0 or by repr
    M, row = _shortest(a)
    zero = x == 0.0
    fallback = ~exact & ~zero
    spliced = fallback.any()
    if spliced:
        M[fallback] = 0
    first = M // 10**16
    M -= first * 10**16
    # The pattern row, from s, whether there is more than one digit, and the sign.
    row += 1
    row *= 2
    row += M != 0
    row += 48 * np.signbit(x)
    if spliced:
        row[fallback] = _MARKER
    cells = np.take(_PATTERNS, row, axis=0)
    first -= zero
    first <<= 48
    cells[:, 0] |= first
    # The other 16 digits in four groups of four; a group drops its trailing
    # zeros when it ends the number.
    hi = M // 10**8
    M -= hi * 10**8
    more = M != 0
    g = hi // 10**4
    hi -= g * 10**4
    cells[:, 2] |= _GROUPS[hi + 10000 * more]
    more |= hi != 0
    cells[:, 1] |= _GROUPS[g + 10000 * more]
    g = M // 10**4
    M -= g * 10**4
    cells[:, 4] |= _GROUPS[M]
    cells[:, 3] |= _GROUPS[g + 10000 * (M != 0)]
    separators = np.full(c, ord(",") << 56, np.int64)
    separators[-1:] = ord("\n") << 56
    cells.reshape(n, c, 6)[:, :, 5] |= separators
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    return _splice_repr(text, x[fallback]) if spliced else text


def _splice_repr(text: str, values: np.ndarray) -> str:
    """``text`` with its ``"\\x01"`` markers replaced, in order, by ``repr`` of ``values``."""
    parts = text.split("\x01")
    return parts[0] + "".join(cell + rest for cell, rest in zip(map(repr, values.tolist()), parts[1:]))
