"""The text of ``repr(float(x))`` for a whole float64 array, computed in numpy.

``repr`` writes the shortest decimal that reads back as the same double
(the nearest such decimal, ties to an even last digit): in fixed notation
for 1e-4 <= |x| < 1e16 and as ``d.ddde±XX`` otherwise.  :func:`shortest`
finds those digits with Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), whose arithmetic fits 64-bit integers: a 126-bit
power of ten times a scaled significand, rounded to odd at 64 bits.  numpy
has no 128-bit product, so the high words come from 32-bit limbs.
:func:`render` lays the digits out as Python does.  Zeros, subnormals, NaN
and infinities are left to ``repr``, one value at a time.

The text of each value comes back as a fixed-width byte field whose
nonzero bytes, in order, are the text, so that a caller can lay fields
side by side and cut every row's text out with one boolean compress.  A
normal value's field is::

    bytes 0-7     pad pad sign '0' '.' '0' '0' '0'    (the "0.000" of 1e-4 <= |x| < 1)
    bytes 8-43    '0' . d0 . d1 . ... d16 .           (17 digits, each followed by a '.')
    bytes 44-47   pad
    bytes 48-55   e±XX or e±XXX in bytes 48-52, pad   (the exponent)

with NUL in every byte its text does not use: all but the sign of a
negative, the prefix of a small fixed value, the significant digits (and
the zeros up to the point), the one '.' after the units digit and the
exponent with its two or three digits.  A value left to ``repr`` writes
its text from byte 0.

Importing this module builds nothing: its tables are made on first use.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: Bytes per value of :func:`render`.
WIDTH = 56

#: Decimal exponents k of the shortest digits f of a normal double, x = f 10^k.
K_MIN, K_MAX = -324, 292

#: Layouts by decimal exponent E of the first digit: fixed notation for each
#: E in [-4, 15], then exponent notation.
_CLASSES = 21

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(0x7FFFFFFFFFFFFFFF)
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_U = {k: np.uint64(k) for k in (1, 2, 32, 52, 63)}
_ONE = np.float64(1.0).view(np.uint64)


@cache
def _tables():
    """Schubfach's powers of ten and the byte tables of the layout.

    For each k in [K_MIN, K_MAX], 10^-k = beta 2^r with 2^125 <= beta < 2^126
    and g = floor(beta) + 1 = g1 2^63 + g0 (the table of Giulietti's
    MathUtils, built here from exact integers); g0 and g1 are also kept as
    32-bit limbs for :func:`_mulhi`.  Then the bytes :func:`render` lays
    out: ``pairs`` (two digits, each followed by a NUL, per value below
    100), ``exps`` (the exponent bytes of each E in [-400, 400]), and for
    each layout code the words of its digit mask and of its fixed text
    (sign, "0.000" prefix, point).
    """
    g = []
    for e in range(-K_MIN, -K_MAX - 1, -1):
        if e >= 0:
            p = 10 ** e
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            d = 10 ** -e
            g.append((1 << (d.bit_length() + 125)) // d + 1)
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=np.uint64)
    limbs = np.stack([g0 & _M32, g0 >> _U[32], g1 & _M32, g1 >> _U[32], g1])

    pairs = np.array([[48 + v // 10, 0, 48 + v % 10, 0] for v in range(100)],
                     dtype=np.uint8).view(np.uint32).ravel()
    exps = np.frombuffer(b"".join(f"e{E:+03d}".encode().rjust(5, b"\0").ljust(8, b"\0")
                                  for E in range(-400, 401)), dtype=np.uint64)
    masks, texts = [], []
    for cls in range(_CLASSES):
        for nd in range(1, 18):
            for negative in (False, True):
                mask, text = bytearray(WIDTH), bytearray(WIDTH)
                E = cls - 4
                if cls == _CLASSES - 1:             # d.ddde±XX
                    kept, dot, prefix = nd, 0 if nd > 1 else -1, 0
                    mask[48:56] = b"\xff" * 8
                elif E >= 0:                        # dd.dd, at least one digit after the point
                    kept, dot, prefix = max(nd, E + 2), E, 0
                else:                               # 0.000dd
                    kept, dot, prefix = nd, -1, 1 - E
                text[2] = ord("-") if negative else 0
                text[3:3 + prefix] = b"0.000"[:prefix]
                for i in range(kept):
                    mask[10 + 2 * i] = 0xFF
                if dot >= 0:
                    text[11 + 2 * dot] = ord(".")
                masks.append(mask)
                texts.append(text)
    masks = np.frombuffer(b"".join(masks), dtype=np.uint64).reshape(-1, WIDTH // 8)
    texts = np.frombuffer(b"".join(texts), dtype=np.uint64).reshape(-1, WIDTH // 8)
    return limbs, pairs, exps, masks, texts


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the 128-bit product of a and b, given as 32-bit limbs
    (summed in place, so that few temporaries are alive at once)."""
    mid = a_lo * b_lo
    mid >>= _U[32]
    cross = a_hi * b_lo
    mid += cross & _M32
    cross >>= _U[32]
    hi = a_hi * b_hi
    hi += cross
    np.multiply(a_lo, b_hi, out=cross)
    mid += cross & _M32
    cross >>= _U[32]
    hi += cross
    mid >>= _U[32]
    hi += mid
    return hi


def _round_to_odd(g, cp):
    """g cp / 2^127 rounded to odd, for g < 2^126 and cp < 2^63 (``rop``)."""
    g0_lo, g0_hi, g1_lo, g1_hi, g1 = g
    cp_lo, cp_hi = cp & _M32, cp >> _U[32]
    z = g1 * cp
    z >>= _U[1]
    z += _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    vb = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi)
    vb += z >> _U[63]
    z &= _M63
    z += _M63
    z >>= _U[63]
    vb |= z
    return vb


# floor(log10 2^q), floor(log10 (3/4) 2^q) and floor(log2 10^e) in fixed
# point, Giulietti's constants: exact for every exponent a double reaches.
def _floor_log10_pow2(q):
    return (q * 661_971_961_083) >> 41


def _floor_log10_three_quarters_pow2(q):
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


def shortest(bits):
    """Shortest round-trip digits of normal doubles: ``(f, k)`` with x = ±f 10^k.

    ``bits`` are the uint64 patterns of normal (finite, non-zero,
    non-subnormal) doubles.  f has 16 or 17 digits: a shorter decimal
    shows as trailing zeros.
    """
    limbs = _tables()[0]
    bq = ((bits >> _U[52]) & np.uint64(0x7FF)).astype(np.int64)
    fraction = bits & _FRACTION
    c = fraction | _HIDDEN
    q = bq - 1075
    closer = (fraction == 0) & (bq > 1)       # 2^q: the next double below is nearer
    k = np.where(closer, _floor_log10_three_quarters_pow2(q), _floor_log10_pow2(q))
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g = np.take(limbs, k - K_MIN, axis=1)
    out = c & _U[1]
    cb = c << _U[2]
    vb, vbl, vbr = _round_to_odd(g, np.stack([cb, cb - _U[2] + closer, cb + _U[2]]) << h)

    # a multiple of ten in the rounding interval is the shorter answer ...
    s = vb >> _U[2]
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl + out <= sp10 << _U[2]
    wpin = (tp10 << _U[2]) + out <= vbr
    # ... else the nearer of s and s + 1 that lies in it, ties to even
    t = s + _U[1]
    uin = vbl + out <= s << _U[2]
    win = (t << _U[2]) + out <= vbr
    mid = (s + t) << _U[1]
    pick_t = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _U[1] == _U[1])))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(pick_t, t, s))
    return f, k


def render(values) -> np.ndarray:
    """``repr(float(x))`` of each value as a (n, WIDTH) byte field: the
    nonzero bytes of row i, in order, are the text of x_i.

    A normal value's field is its 17 digits and exponent in fixed places,
    ANDed with the mask and ORed with the text of its layout: one of
    ``_CLASSES`` classes of decimal exponent, by its number of significant
    digits and sign.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    _, pairs, exps, masks, texts = _tables()
    bits = x.view(np.uint64)
    bq = (bits >> _U[52]) & np.uint64(0x7FF)
    normal = (bq != 0) & (bq != 0x7FF)
    if not normal.all():                # laid out as 1.0, then given their repr below
        bits = np.where(normal, bits, _ONE)
    f, k = shortest(bits)

    # 17 digits d0 . d1...d8 d9...d16, x = d0.d1...d16 10^E
    f = f.astype(np.intp)
    short = f < 10 ** 16
    f = np.where(short, f * 10, f)
    E = k + 16 - short
    d0 = f // 10 ** 16
    rest = f - d0 * 10 ** 16
    hi = rest // 10 ** 8
    halves = np.stack([hi, rest - hi * 10 ** 8], axis=1)
    m = E.size
    digit_pairs = np.empty((m, 2, 4), dtype=np.intp)
    quot = halves
    for j in range(3, -1, -1):
        rem, quot = quot, quot // 100
        digit_pairs[:, :, j] = rem - quot * 100

    # significant digits: 17 less the trailing zeros of the last nonzero half
    tail = np.where(halves[:, 1] != 0, halves[:, 1], halves[:, 0])
    nd = np.where(halves[:, 1] != 0, 17, np.where(halves[:, 0] != 0, 9, 1))
    tail[tail == 0] = 1
    for zeros, step in ((4, 10_000), (2, 100), (1, 10)):
        quot = tail // step
        divides = quot * step == tail
        tail = np.where(divides, quot, tail)
        nd -= zeros * divides

    raw = np.empty((m, WIDTH // 4), dtype=np.uint32)
    raw[:, 2] = np.take(pairs, d0)
    raw[:, 3:11] = np.take(pairs, digit_pairs.reshape(m, 8))
    words = raw.view(np.uint64)
    fixed = (E >= -4) & (E < 16)
    words[:, 6] = np.take(exps, E + 400)
    code = ((np.where(fixed, E + 4, _CLASSES - 1) * 17 + nd - 1) * 2
            + (bits >> _U[63]).astype(np.int64))
    words &= np.take(masks, code, axis=0)
    words |= np.take(texts, code, axis=0)
    text = raw.view(np.uint8)
    for i in np.flatnonzero(~normal):
        cell = repr(float(x[i])).encode()
        text[i] = 0
        text[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return text
