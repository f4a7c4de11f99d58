"""Shortest round-trip decimals of float64 arrays, byte for byte as ``repr``.

``fields(x, out)`` writes one fixed-width row of ASCII bytes per value,
zero bytes as padding, that reads as Python's ``repr(float(v))`` minus a
trailing ``.0`` once the zero bytes are dropped.  The digits come from
Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018), its
``d2d`` run across lanes in numpy: each lane's mantissa times a 125-bit
multiplier taken from ``5^q`` or ``2^k / 5^q``, in 32-bit limbs held in
uint64, gives the scaled value ``vr``, and the bounds ``vp`` and ``vm`` of
the interval that reads back as the same double follow from ``vr`` and
the bits below it; digits are removed while the bounds stay apart.
Subnormals and Ryū's general path, taken where ``vr`` or ``vm`` may end in
zeros (exactly representable short decimals such as ``0.5``, ``3.0`` or
``1e22``), run in the same lanes.  Zeros, infinities and nan skip Ryū and
are written ``0``, ``-0``, ``inf``, ``-inf`` and ``nan``.

The layout follows ``repr``: with |x| = 0.d1d2... * 10^decpt, positional
when ``-4 < decpt <= 16``, else ``d.ddde±XX`` with at least two exponent
digits.  Each row is built as four uint64 words from lookup tables keyed
by decpt and the digit count, and the exponent and the special values
are written only on the lanes that have them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WIDTH", "fields"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _pow5bits(e):
    # ceil(log2(5^e)) for e >= 1, and 1 for e = 0
    return ((e * 1217359) >> 19) + 1


def _limbs(values) -> np.ndarray:
    """Four rows of 32-bit limbs, least significant first, of Python ints."""
    return np.array([[(v >> (32 * k)) & 0xFFFFFFFF for v in values] for k in range(4)], np.uint64)


# Ryū's multipliers, 125 bits each: rows q < 342 are 2^k / 5^q rounded up
# (for e2 >= 0), rows 342 + i are the top 125 bits of 5^i (for e2 < 0)
_MULTIPLIERS = _limbs(
    [(1 << (_pow5bits(q) + 124)) // 5**q + 1 for q in range(342)]
    + [(5**i << 125) >> _pow5bits(i) for i in range(326)]
)


def _exponent_tables():
    """Per biased exponent: multiplier row, shift, e10 and trailing-zero tests."""
    # a double is m2 * 2^(e2 + 2), m2 = 2^52 + mantissa; subnormals (exponent
    # 0) share exponent 1's e2 with m2 = mantissa; 2047 (inf, nan) borrows it
    e2 = np.arange(2048, dtype=np.int64) - 1077
    e2[[0, 2047]] = -1076
    up = e2 >= 0
    # for e2 >= 0: q = log10(2^e2) - (e2 > 3); for e2 < 0: q = log10(5^-e2) - (-e2 > 1)
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = np.where(up, q, -e2 - q)
    row = np.where(up, q, 342 + i)
    shift = np.where(up, -e2 + q + 124 + _pow5bits(q), q - _pow5bits(i) + 125)
    e10 = np.where(up, q, q + e2)
    # e2 < 0: vr ends in zeros when 2^q divides mv, which holds for q <= 2
    # as mv = 4 m2; an all-ones mask never matches
    low_bits = (_U64(1) << np.minimum(q, 63).astype(np.uint64)) - _U64(1)
    low_bits[up] = ~_U64(0)
    # e2 < 0 and q <= 1: vm ends in zeros too, or vp is one too high
    tiny_q = ~up & (q <= 1)
    # e2 >= 0 and q <= 21: vr or a bound may be a multiple of 5^q
    pow5 = np.where(up & (q <= 21), 5 ** np.minimum(q, 21), 0).astype(np.uint64)
    return row, shift.astype(np.uint64) - _U64(96), e10, low_bits, tiny_q, pow5


_ROW, _SHIFT, _E10, _LOW_BITS, _TINY_Q, _POW5 = _exponent_tables()
_LIMBS = _MULTIPLIERS[:, _ROW]  # the multiplier's limbs per biased exponent


def _bound_tables():
    """Per biased exponent, how the bounds vp and vm follow from vr.

    With P = mv * M and S = 96 + shift, vr = P >> S.  vp = (P + 2M) >> S
    is vr + (2M >> S), plus one where P's low S bits reach 2^S less those
    of 2M; vm = (P - kM) >> S, k = 1 + mm_shift, is vr - (kM >> S), less
    one where P's low S bits are below kM's.  Both tests compare limb 3's
    bits below the shift, moved to the top of a word; where they are equal
    the lower limbs decide.
    """
    l0, l1, l2, l3 = _LIMBS
    top = _U64(64) - _SHIFT
    below = (_U64(1) << _SHIFT) - _U64(1)
    double = (l3 << _U64(1)) | (l2 >> _U64(31))  # 2M >> 96
    # 2^sh - ceil(low bits of 2M / 2^96); none of 2M's low bits set: no carry
    spill = (l0 | l1 | (l2 & _U64(0x7FFFFFFF))) != 0
    rest = (_U64(1) << _SHIFT) - (double & below) - spill
    carry = np.where(((double & below) == 0) & ~spill, ~_U64(0), rest << top)
    down = np.stack([l3 >> _SHIFT, double >> _SHIFT], axis=1).ravel()
    borrow = np.stack([(l3 & below) << top, (double & below) << top], axis=1).ravel()
    return double >> _SHIFT, carry, down, borrow


_UP, _CARRY, _DOWN, _BORROW = _bound_tables()


def _mul_shift(m, limbs, shift):
    """(m * M) >> (96 + shift) for m < 2^55 and a 4-limb multiplier M, shift in [22, 29],
    and the product's bits from 96 to 96 + shift at the top of a word.

    Schoolbook product in 32-bit limbs; only limbs 3 to 5 of the product
    are kept, the lower ones pass on their carries.
    """
    a0 = m & _MASK32
    a1 = m >> _U64(32)
    l0, l1, l2, l3 = limbs
    t = a0 * l0
    t = a0 * l1 + (t >> _U64(32))
    r1 = t & _MASK32
    t = a0 * l2 + (t >> _U64(32))
    r2 = t & _MASK32
    t = a0 * l3 + (t >> _U64(32))
    r3 = t & _MASK32
    r4 = t >> _U64(32)
    t = a1 * l0 + r1
    t = a1 * l1 + r2 + (t >> _U64(32))
    t = a1 * l2 + r3 + (t >> _U64(32))
    r3 = t & _MASK32
    t = a1 * l3 + r4 + (t >> _U64(32))
    # t holds limbs 4 and 5 of the product
    return (t << (_U64(32) - shift)) | (r3 >> shift), r3 << (_U64(64) - shift)


def _remove(vr, vp, vm, steps):
    """Remove each step's count of digits, largest step first, from the
    lanes whose vp and vm still differ above them; returns vr, vp and vm
    after, the count removed and the last digit removed from vr."""
    removed = np.zeros(vr.size, np.intp)
    last = np.zeros(vr.size, np.uint64)
    for step in steps:
        vp_s, vm_s = vp // _POW10[step], vm // _POW10[step]
        apart = vp_s > vm_s
        if not apart.any():
            continue
        head = vr // _POW10[step - 1]
        vr_s = head // _U64(10)
        last = np.where(apart, head - vr_s * _U64(10), last)
        vr = np.where(apart, vr_s, vr)
        vp = np.where(apart, vp_s, vp)
        vm = np.where(apart, vm_s, vm)
        removed += step * apart
    return vr, vp, vm, removed, last


def _digits(x):
    """Ryū's shortest digits ``d`` and exponent ``e10``, |x| = d * 10^e10,
    for finite nonzero lanes; other lanes hold garbage.
    """
    bits = x.view(np.uint64)
    mant = bits & _U64((1 << 52) - 1)
    expo = ((bits >> _U64(52)) & _U64(0x7FF)).view(np.int64)
    m2 = mant | ((expo != 0).astype(np.uint64) << _U64(52))
    even = (m2 & _U64(1)) == 0
    mv = m2 << _U64(2)
    mm_shift = (mant != 0) | (expo <= 1)
    limbs = [np.take(row, expo) for row in _LIMBS]
    shift = np.take(_SHIFT, expo)
    vr, low = _mul_shift(mv, limbs, shift)
    carry = np.take(_CARRY, expo)
    bound = expo * 2 + mm_shift
    borrow = np.take(_BORROW, bound)
    vp = vr + np.take(_UP, expo) + (low > carry)
    vm = vr - np.take(_DOWN, bound) - (low < borrow)
    # ties are rare except for doubles from 2^50 to 2^61, whose q is small
    # and whose bits below the shift are often all zero
    (ties,) = np.nonzero((low == carry) | (low == borrow))
    if ties.size:
        m, t_limbs, t_shift = mv[ties], [row[ties] for row in limbs], shift[ties]
        vp[ties] = _mul_shift(m + _U64(2), t_limbs, t_shift)[0]
        vm[ties] = _mul_shift(m - _U64(1) - mm_shift[ties], t_limbs, t_shift)[0]
    # whether vr and vm end in zeros below the digits that are removed; an
    # odd m2 excludes the bounds, so vp drops by one where it would end so
    vr_tz = (mv & np.take(_LOW_BITS, expo)) == 0
    tiny_q = np.take(_TINY_Q, expo)
    vm_tz = tiny_q & even & mm_shift
    vp -= tiny_q & ~even
    (five,) = np.nonzero(np.take(_POW5, expo))
    if five.size:
        mvs, p = mv[five], _POW5[expo[five]]
        tail5 = mvs % _U64(5) == 0
        vr_tz[five] = tail5 & (mvs % p == 0)
        vm_tz[five] = ~tail5 & even[five] & ((mvs - _U64(1) - mm_shift[five]) % p == 0)
        vp[five] -= ~tail5 & ~even[five] & ((mvs + _U64(2)) % p == 0)
    # Ryū removes digits one at a time while vp and vm differ above them,
    # which holds for the first k digits and no more: two at once where
    # they allow, then, over the lanes that can lose more, k bit by bit
    vr_k, vp_k, vm_k, removed, last = _remove(vr, vp, vm, (2,))
    (lanes,) = np.nonzero(vp_k // _U64(10) > vm_k // _U64(10))
    if lanes.size:
        steps = (16, 8, 4, 2, 1)
        vr_l, _, vm_l, more, last_l = _remove(vr_k[lanes], vp_k[lanes], vm_k[lanes], steps)
        vr_k[lanes], vm_k[lanes], last[lanes] = vr_l, vm_l, last_l
        removed[lanes] += more
    # Ryū's general path.  Where all digits removed from vm are zeros, vm
    # sheds its further trailing zeros, and vr as many digits
    (lanes,) = np.nonzero(vm_tz)
    vm_tz[lanes] = vm_k[lanes] * _POW10[removed[lanes]] == vm[lanes]
    lanes = lanes[vm_tz[lanes]]
    if lanes.size:
        zeros = sum(vm_k[lanes] % p == 0 for p in _POW10[1:])
        removed[lanes] += zeros
        lanes = lanes[zeros > 0]
        head = vr[lanes] // _POW10[removed[lanes] - 1]
        vr_k[lanes], last[lanes] = head // _U64(10), head % _U64(10)
    # where vr's removed digits are a 5 and zeros, the tie rounds to even
    (lanes,) = np.nonzero(vr_tz & (last == 5))
    tie = (vr[lanes] % _POW10[removed[lanes] - 1] == 0) & (vr_k[lanes] % _U64(2) == 0)
    last[lanes[tie]] = 4
    # vr_k == vm_k is outside the interval unless vm is in it: m2 even (as
    # vm_tz implies) and vm exact
    out = vr_k + (((vr_k == vm_k) & ~vm_tz) | (last >= 5))
    return out, np.take(_E10, expo) + removed


# A field is WIDTH bytes, four little-endian uint64 words: byte 0 the sign,
# bytes 1 to 5 a positional 0.ddd's "0.000" lead, bytes 8 to 25 eighteen
# digit slots, bytes 26 to 30 the exponent "e-308"; the rest zero
WIDTH = 32


def _digit_tables():
    """ASCII digits of 0..9999 as bytes 0-3 and 4-7 of a word, of 0..99 as bytes 0-1."""
    v = np.arange(10000, dtype=np.uint64)
    quad = sum((v // _POW10[3 - k] % _U64(10) + _U64(48)) << _U64(8 * k) for k in range(4))
    v = v[:100]
    pair = (v // _U64(10) + _U64(48)) | ((v % _U64(10) + _U64(48)) << _U64(8))
    return quad, quad << _U64(32), pair


_QUAD_LO, _QUAD_HI, _PAIR = _digit_tables()


def _layout_tables():
    """Per layout key, from decpt clipped to [-4, 17] (both ends stand for
    the exponent form) and the digit count nd, 1 to 17, key = 17 (decpt +
    4) + nd - 1: an AND and an OR mask over the four words that leave the
    slots shown and add the point or the "0.ddd" lead (word 0, the sign and
    the lead, takes no AND mask), and 10^(17 - dp), dp the count of digits
    before the point (0 for 0.ddd, 1 in the exponent form).
    """
    decpt = np.repeat(np.arange(-4, 18), 17)[:, None]
    nd = np.tile(np.arange(1, 18), 22)[:, None]
    exp_form = (decpt < -3) | (decpt > 16)
    dp = np.where(exp_form, 1, np.maximum(decpt, 0))
    shown = np.where(exp_form, nd, np.maximum(nd, decpt))
    # slot dp holds the point, where digits follow it; the digits shown
    # sit in the slots before and after it
    slot = np.arange(18)
    keep = np.zeros((decpt.size, WIDTH), np.uint8)
    keep[:, 8:26] = 0xFF * ((slot <= shown) & (slot != dp))
    put = np.zeros((decpt.size, WIDTH), np.uint8)
    put[:, 8:26] = ord(".") * ((slot == dp) & (dp >= 1) & (dp < nd))
    # "0.000": byte k of it is written when decpt < below[k]
    below = np.array([1, 1, 0, -1, -2])
    put[:, 1:6] = np.frombuffer(b"0.000", np.uint8) * (~exp_form & (decpt < below))
    base = (np.clip(np.arange(-323, 310), -4, 17) + 4) * 17 - 1
    keep, put = (np.ascontiguousarray(t.view(np.uint64).T) for t in (keep, put))
    return keep, put, _POW10[17 - dp.ravel()], base


_KEEP, _PUT, _SPLIT, _KEY_BASE = _layout_tables()
# "e-308" to "e+308" at bytes 2 to 6 of the last word, bytes 26 to 30 of the field
_EXPONENT = np.array([f"e{e:+03d}" for e in range(-324, 309)], "S8").view(np.uint64) << _U64(16)
_SPECIAL = np.array([b"inf", b"-inf", b"nan"], f"S{WIDTH}").view(np.uint64).reshape(3, 4)
# 10^(17 - nd), and nd for d < 10^17 from the biased exponent of float(d):
# the digit count of its power of two, or one more
_LEFT = _POW10[17 - np.arange(18)]
_ND_LOW = np.ones(2048, np.intp)
_ND_LOW[1023:1081] = [len(str(2**k)) for k in range(58)]


def fields(x, out: np.ndarray):
    """Write repr(float(x[k])) minus a trailing ".0" into row k of ``out``.

    ``out`` is a C-contiguous (x.size, WIDTH) uint8 array.  Each row gets
    the field's bytes in order with zero bytes between them as padding; its
    last byte is always zero.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    words = out.view(np.uint64)
    bits = x.view(np.uint64)
    special = (bits & _U64(0x7FF << 52)) == _U64(0x7FF << 52)
    # zeros and non-finite values skip Ryū: d = 0 lays out as "0"
    live = ((bits << _U64(1)) != 0) & ~special
    if live.all():
        d, e10 = _digits(x)
    else:
        d = np.zeros(n, np.uint64)
        e10 = np.zeros(n, np.intp)
        (lanes,) = np.nonzero(live)
        d[lanes], e10[lanes] = _digits(x[lanes])
    low = np.take(_ND_LOW, (d.astype(np.float64).view(np.uint64) >> _U64(52)).view(np.int64))
    nd = low + (d >= np.take(_POW10, low))
    decpt = nd + e10
    key = np.take(_KEY_BASE, decpt + 323) + nd
    # d's digits left-aligned to 17, then a zero slot inserted after the
    # first dp of them for the point: 18 digit slots, 8 + 8 + 2
    d17 = d * np.take(_LEFT, nd)
    split = np.take(_SPLIT, key)
    slots = d17 + d17 // split * (split * _U64(9))
    high = slots // _U64(10**10)
    rest = slots - high * _U64(10**10)
    mid = rest // _U64(100)
    words[:, 0] = ((bits >> _U64(63)) * _U64(ord("-"))) | np.take(_PUT[0], key)
    for k, eight in ((1, high), (2, mid)):
        four = eight // _U64(10**4)
        quad = np.take(_QUAD_LO, four.view(np.int64))
        quad |= np.take(_QUAD_HI, (eight - four * _U64(10**4)).view(np.int64))
        words[:, k] = quad & np.take(_KEEP[k], key) | np.take(_PUT[k], key)
    pair = np.take(_PAIR, (rest - mid * _U64(100)).view(np.int64))
    words[:, 3] = pair & np.take(_KEEP[3], key) | np.take(_PUT[3], key)
    (lanes,) = np.nonzero((decpt < -3) | (decpt > 16))
    words[lanes, 3] |= np.take(_EXPONENT, decpt[lanes] + 323)
    (lanes,) = np.nonzero(special)
    words[lanes] = _SPECIAL[np.where(np.isnan(x[lanes]), 2, bits[lanes] >> _U64(63))]
