"""Packed big-integer kernels for dense polynomial arithmetic.

Coefficient vectors are packed into a single Python int (little-endian, a
fixed slot width in whole bytes), combined with native big-int ops, and
decoded back.  Slot widths always come from exact bounds at the call site,
so nothing here approximates.  CPython's Karatsuba does the heavy lifting
for multiplication; there is deliberately no FFT.

Every codec step is linear in the packed size, and for slots of up to
8 bytes no step loops over slots in Python:

- Truncation to a window of slots is a mask, never ``%`` by a power of
  two, which CPython computes as a quadratic long division.
- Encoding converts the coefficients to 64-bit lanes with ``array('q')``
  and re-strides the lanes' low bytes into slots with extended-slice
  copies.  A negative coefficient then stands as its two's complement in
  its slot, which is 2**(8*width) too much; one correction int, built from
  the lanes' sign bits, takes that surplus off again.  A coefficient of
  2**63 or more in size, or one wider than its slot, sends the vector
  through a per-slot loop, which raises OverflowError for the latter.
- Decoding a signed slot needs no borrow chain.  Adding a bias of
  2**(bits-1) to every slot makes every slot nonnegative, so no borrow
  crosses a slot boundary; xoring the same bias back leaves each slot's
  two's-complement value, valid whenever |c| < 2**(bits-1).  The slots
  are spread into 8-byte lanes by strided copies, the lanes' upper bytes
  filled from the slots' sign bytes through ``bytes.translate``, and read
  with ``array('q').frombytes``.  Slots wider than 8 bytes are read one
  at a time with ``int.from_bytes(..., signed=True)``.

Slot widths stay the tight byte counts the bounds give.  Strided copies
decode a 3-byte slot as cheaply per byte as an 8-byte one, so rounding
slots up to 4 or 8 bytes would only make every product larger.
"""

from __future__ import annotations

import math
import sys
from array import array

# below this many coefficient products, plain loops beat packing overhead
_SCHOOLBOOK_AREA = 4096

# byte -> its sign fill (0xff if the top bit is set, else 0), and -> sign bit
_SIGN_FILL = bytes(0xFF if b & 0x80 else 0 for b in range(256))
_SIGN_BIT = bytes(b >> 7 for b in range(256))

# array('q') holds native-endian lanes; the codec works little-endian
_BIG_ENDIAN = sys.byteorder == "big"


def max_abs(coeffs):
    return max(max(coeffs, default=0), -min(coeffs, default=0))


def _lanes(coeffs):
    """Little-endian 8-byte two's-complement lanes, or None if some
    |c| >= 2**63."""
    try:
        lanes = array("q", coeffs)
    except OverflowError:
        return None
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes.tobytes()


def pack(coeffs, nbytes):
    """Return the exact integer sum c_i * 2**(8*nbytes*i)."""
    n = len(coeffs)
    lanes = _lanes(coeffs)
    if lanes is not None:
        width = min(nbytes, 8)
        fill = lanes[7::8].translate(_SIGN_FILL)
        # bytes above the slot must be the sign fill, or the slot truncates c
        if all(lanes[j::8] == fill for j in range(width, 8)):
            slots = bytearray(nbytes * n)
            for j in range(width):
                slots[j::nbytes] = lanes[j::8]
            value = int.from_bytes(slots, "little")
            if b"\xff" not in fill:
                return value
            # a negative c stands as c + 2**(8*width) in its slot
            surplus = bytearray(nbytes * n + 1)
            surplus[width:width + nbytes * n:nbytes] = fill.translate(_SIGN_BIT)
            return value - int.from_bytes(surplus, "little")
    pos = bytearray(nbytes * n)
    neg = None
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * nbytes:(i + 1) * nbytes] = c.to_bytes(nbytes, "little")
        elif c < 0:
            if neg is None:
                neg = bytearray(nbytes * n)
            neg[i * nbytes:(i + 1) * nbytes] = (-c).to_bytes(nbytes, "little")
    value = int.from_bytes(bytes(pos), "little")
    if neg is not None:
        value -= int.from_bytes(bytes(neg), "little")
    return value


def _decode(raw, nbytes, signed):
    """Read the little-endian slots of nbytes each that fill raw."""
    if nbytes > 8:
        return [int.from_bytes(raw[i:i + nbytes], "little", signed=signed)
                for i in range(0, len(raw), nbytes)]
    lanes = bytearray(8 * (len(raw) // nbytes))
    for j in range(nbytes):
        lanes[j::8] = raw[j::nbytes]
    if signed:
        fill = raw[nbytes - 1::nbytes].translate(_SIGN_FILL)
        for j in range(nbytes, 8):
            lanes[j::8] = fill
    out = array("q" if signed else "Q")
    out.frombytes(lanes)
    if _BIG_ENDIAN:
        out.byteswap()
    return out.tolist()


def unpack_signed(value, count, nbytes):
    """Decode count slots; requires |true coefficient| < 2**(8*nbytes-1)."""
    size = nbytes * count
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
    unbiased = ((value + bias) & ((1 << (8 * size)) - 1)) ^ bias
    return _decode(unbiased.to_bytes(size, "little"), nbytes, signed=True)


def _unpack_unsigned(value, count, nbytes):
    return _decode(value.to_bytes(nbytes * count, "little"), nbytes,
                   signed=False)


def convolve(a, b, out_len, modulus=None):
    """Exact truncated product: out[k] = sum_i a[i]*b[k-i] for k < out_len.

    Entries of a and b beyond out_len cannot contribute and are ignored.
    With a modulus, inputs must already be canonical and the output is
    reduced.
    """
    if out_len <= 0:
        return []
    a = list(a[:out_len])
    b = list(b[:out_len])
    if len(a) > len(b):
        a, b = b, a
    while a and a[-1] == 0:
        a.pop()
    if not a or not any(b):
        return [0] * out_len
    nonzero = sum(1 for c in a if c)
    if nonzero * len(b) <= _SCHOOLBOOK_AREA:
        out = [0] * out_len
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[:out_len - i]):
                    if bj:
                        out[i + j] += ai * bj
        if modulus is not None:
            out = [c % modulus for c in out]
        return out

    terms = min(len(a), len(b))
    if modulus is not None:
        # products are < modulus^2 * terms, all nonnegative
        bits = 2 * (modulus - 1).bit_length() + terms.bit_length() + 1
        nbytes = (bits + 7) // 8
        p = pack(a, nbytes) * pack(b, nbytes)
        p &= (1 << (8 * nbytes * out_len)) - 1
        return [c % modulus for c in _unpack_unsigned(p, out_len, nbytes)]

    bits = (max_abs(a).bit_length() + max_abs(b).bit_length()
            + terms.bit_length() + 2)
    nbytes = (bits + 7) // 8
    return unpack_signed(pack(a, nbytes) * pack(b, nbytes), out_len, nbytes)


def newton_invert(coeffs, lead_inverse, modulus=None):
    """Invert a power series with unit constant term; output length matches.

    lead_inverse must satisfy coeffs[0] * lead_inverse == 1 in the ring.
    Classic quadratic Newton iteration g <- g*(2 - f*g).
    """
    total = len(coeffs)
    g = [lead_inverse]
    done = 1
    while done < total:
        done = min(2 * done, total)
        t = convolve(coeffs[:done], g, done, modulus)
        w = [-c for c in t]
        w[0] += 2
        if modulus is not None:
            w = [c % modulus for c in w]
        g = convolve(g, w, done, modulus)
    return g


class PackedSeries:
    """Mutable packed window [0, length) for the u/v recurrence
    (partitions.uv_series_def).

    Only linear operations are provided; at any slot width they are exact
    modulo 2**(slot_bits * length), so a transient needs no headroom.  The
    width only matters where a window is decoded (to_coeffs, widen): there
    it must hold every true coefficient (see uv_series_def for the bound).
    """

    __slots__ = ("length", "nbytes", "slot_bits", "mask", "value")

    def __init__(self, length, slot_bits, value=0):
        self.length = length
        self.nbytes = (slot_bits + 7) // 8
        self.slot_bits = 8 * self.nbytes
        self.mask = (1 << (self.slot_bits * length)) - 1
        self.value = value

    def mul_one_minus(self, k):
        """*= (1 - q^k); no-op for k >= length."""
        if 0 < k < self.length:
            self.value = (self.value - (self.value << (k * self.slot_bits))) & self.mask

    def div_one_minus(self, k):
        """*= 1/(1 - q^k) mod q^length, by the doubling product
        (1+q^k)(1+q^2k)(1+q^4k)... which telescopes to the geometric series."""
        if k <= 0:
            raise ValueError("div_one_minus needs k >= 1")
        j = k
        v = self.value
        sb = self.slot_bits
        while j < self.length:
            v = (v + (v << (j * sb))) & self.mask
            j *= 2
        self.value = v

    def add_shifted(self, other, k):
        """+= q^k * other (same geometry required)."""
        self.value = (self.value + (other.value << (k * self.slot_bits))) & self.mask

    def to_coeffs(self):
        return unpack_signed(self.value, self.length, self.nbytes)

    def widen(self, slot_bits):
        """Re-pack at slot_bits; the current width must hold every
        coefficient, since the window is decoded at it first."""
        coeffs = self.to_coeffs()
        self.__init__(self.length, slot_bits)
        self.value = pack(coeffs, self.nbytes) & self.mask


def partition_bound_bits(n):
    """Overestimate of bits(p(n)) via p(n) < exp(pi*sqrt(2n/3)), integer-only.

    log2 exp(pi*sqrt(2n/3)) = pi/(3*ln2) * sqrt(6n), and pi/(3*ln2) =
    1.51078...; 15108/10000 with a ceiling sqrt keeps the bound safe
    without floats.
    """
    if n <= 1:
        return 2
    root = math.isqrt(6 * n) + 1
    return (15108 * root) // 10000 + 2
