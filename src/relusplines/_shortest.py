"""Shortest round-trip decimals of float64 arrays, byte for byte as ``repr``.

``fields(x)`` gives one fixed-width row of ASCII bytes per value, zero
bytes as padding, that reads as Python's ``repr(float(v))`` minus a
trailing ``.0`` once the zero bytes are dropped.  The digits come from
Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018), its
``d2d`` run across lanes in numpy: each lane's mantissa times a 125-bit
multiplier taken from ``5^q`` or ``2^k / 5^q``, in 32-bit limbs held in
uint64, gives the scaled value ``vr`` and the bounds ``vp`` and ``vm``
of the interval that reads back as the same double; digits are removed
while the bounds stay apart.  Subnormals and Ryū's general path, taken
where ``vr`` or ``vm`` may end in zeros (exactly representable short
decimals such as ``0.5``, ``3.0`` or ``1e22``), run in the same lanes.
Zeros, infinities and nan are written directly: ``0``, ``-0``, ``inf``,
``-inf`` and ``nan``.

The layout follows ``repr``: with |x| = 0.d1d2... * 10^decpt, positional
when ``-4 < decpt <= 16``, else ``d.ddde±XX`` with at least two exponent
digits.
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


def _mul_shift(m, limbs, shift):
    """(m * M) >> (96 + shift) for m < 2^55 and a 4-limb multiplier M, shift in [22, 29].

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
    return (t << (_U64(32) - shift)) | (r3 >> shift)


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
    expo = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.intp)
    m2 = mant | ((expo != 0).astype(np.uint64) << _U64(52))
    even = (m2 & _U64(1)) == 0
    mv = m2 << _U64(2)
    mm_shift = ((mant != 0) | (expo <= 1)).astype(np.uint64)
    limbs = np.take(_MULTIPLIERS, _ROW[expo], axis=1)
    shift = _SHIFT[expo]
    vr = _mul_shift(mv, limbs, shift)
    vp = _mul_shift(mv + _U64(2), limbs, shift)
    vm = _mul_shift(mv - _U64(1) - mm_shift, limbs, shift)
    # whether vr and vm end in zeros below the digits that are removed; an
    # odd m2 excludes the bounds, so vp drops by one where it would end so
    vr_tz = (mv & _LOW_BITS[expo]) == 0
    vm_tz = _TINY_Q[expo] & even & (mm_shift == 1)
    vp -= (_TINY_Q[expo] & ~even).astype(np.uint64)
    (five,) = np.nonzero(_POW5[expo])
    if five.size:
        mvs, p = mv[five], _POW5[expo[five]]
        tail5 = mvs % _U64(5) == 0
        vr_tz[five] = tail5 & (mvs % p == 0)
        vm_tz[five] = ~tail5 & even[five] & ((mvs - _U64(1) - mm_shift[five]) % p == 0)
        vp[five] -= (~tail5 & ~even[five] & ((mvs + _U64(2)) % p == 0)).astype(np.uint64)
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
    return out, _E10[expo] + removed


WIDTH = 29  # sign, "0.000", 17 digits and a point, "e-308"
_ZERO, _DOT, _MINUS, _PLUS, _E = (ord(c) for c in "0.-+e")
# "0.000" before the digits of a positional 0.ddd: byte k is written when decpt < _LEAD_BELOW[k]
_LEAD = np.array([[_ZERO], [_DOT], [_ZERO], [_ZERO], [_ZERO]], np.uint8)
_LEAD_BELOW = np.array([[1], [1], [0], [-1], [-2]])
_COLUMN = np.arange(18)[:, None]
_SPECIAL = np.array([b"inf", b"-inf", b"nan"], f"S{WIDTH}").view(np.uint8).reshape(3, WIDTH)


def fields(x) -> np.ndarray:
    """An (n, WIDTH) uint8 view: row k holds the bytes of repr(float(x[k]))
    minus a trailing ".0", in order, with zero bytes between them as padding.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    bits = x.view(np.uint64)
    expo = (bits >> _U64(52)) & _U64(0x7FF)
    zero = (bits << _U64(1)) == 0
    special = expo == 0x7FF
    d, e10 = _digits(x)
    d[zero] = 0
    e10[zero] = 0
    nd = np.searchsorted(_POW10[1:], d, side="right") + 1
    decpt = nd + e10
    exp_form = (decpt > 16) | (decpt < -3)

    out = np.zeros((WIDTH, n), np.uint8)
    out[0] = (bits >> _U64(63)).astype(np.uint8) * np.uint8(_MINUS)
    out[1:6] = _LEAD * ((decpt < _LEAD_BELOW) & ~exp_form)
    # rows 1 to 17: the digits of d scaled to 17 digits, so row 1 holds the
    # first significant one; rows 0 and 18 stay zero
    digits = np.zeros((19, n), np.uint8)
    d17 = d * _POW10[17 - nd]
    digits[1] = d17 // _POW10[16]
    rest = d17 - digits[1] * _POW10[16]
    hi = rest // _POW10[8]
    halves = np.stack([hi, rest - hi * _POW10[8]]).astype(np.uint32)
    tail = digits[2:18].reshape(2, 8, n)
    for k in range(7, -1, -1):
        q = halves // np.uint32(10)
        tail[:, k] = halves - q * np.uint32(10)
        halves = q
    # write all significant digits and an integer's trailing zeros
    shown = np.where(exp_form, nd, np.maximum(nd, decpt))
    digits[1:18] = (digits[1:18] + np.uint8(_ZERO)) * (_COLUMN[:17] < shown)
    # the digit area: digit k in column k before column dp, the point (if
    # digits follow it) in column dp, digit k - 1 in column k after it;
    # dp is the count of digits before the point, 0 for 0.ddd
    dp = np.where(exp_form, 1, np.maximum(decpt, 0))
    area = out[6:24]
    area[:] = np.where(_COLUMN < dp, digits[1:], digits[:-1])
    area[dp, np.arange(n)] = np.where((dp >= 1) & (dp < nd), _DOT, 0)
    exp = decpt - 1
    mag = np.abs(exp)
    tens = mag // 10
    out[24] = exp_form * np.uint8(_E)
    out[25] = np.where(exp < 0, _MINUS, _PLUS) * exp_form
    out[26] = np.where(mag >= 100, tens // 10 + _ZERO, 0) * exp_form
    out[27] = (tens - tens // 10 * 10 + _ZERO) * exp_form
    out[28] = (mag - tens * 10 + _ZERO) * exp_form
    rows = out.T
    (special,) = np.nonzero(special)
    rows[special] = _SPECIAL[np.where(np.isnan(x[special]), 2, bits[special] >> _U64(63))]
    return rows
