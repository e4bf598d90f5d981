"""Packed big-integer kernels for dense polynomial arithmetic.

Coefficient vectors are packed into a single Python int (little-endian, a
fixed slot width in whole bytes), combined with native big-int ops, and
decoded back.  Slot widths come from exact bounds at the call site, or,
for the u/v recurrence, from a one-step growth bound plus an exact check
(``PackedSeries.fits``), so nothing here approximates.  CPython's
Karatsuba does the heavy lifting for multiplication; there is
deliberately no FFT.

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
- Re-striding a packed window (``PackedSeries.restride``: wider, narrower
  or shorter) decodes nothing: the same bias, at the narrower of the two
  widths, makes every slot nonnegative and small enough for both, one
  strided copy per kept byte moves the slots, and one subtraction takes
  the bias off again.  Only shortening at the same width is a mask.

Over ZZ, slot widths stay the tight byte counts the bounds give.  Strided
copies decode a 3-byte slot as cheaply per byte as an 8-byte one, so
rounding slots up to 4 or 8 bytes would only make every product larger.

Over Z/m the slots are whole native lanes of 2, 4 or 8 bytes instead.
Canonical inputs make every output sum nonnegative and at most (m-1)**2
times the shorter operand's length, so in the narrowest lane that holds
that bound no carry crosses a lane.  The operands are ``array`` buffers
read as ints and the product's lanes are read back with
``array.frombytes``: no strided copy, sign fill or bias, which saves more
than the byte or two a tight slot would on the short x = q^ell products
the mod-ell checks make.  Moduli whose bound outgrows 8 bytes (above
about 2**32) multiply over ZZ and reduce.  The same lane codec
(``_lane_int`` to pack, ``_read_lanes`` to read and reduce) serves the
P-monomial sums of ``verify._monomial_sums``, which keep whole partial
sums in 8-byte lanes and track a bound per sum instead of per product.

Division by a series that is sparse by construction (Jacobi's E(1)**3, a
triple-product sum, E(1) itself) packs nothing: ``sparse_divide`` runs
the recurrence g_m = c_0**-1 (f_m - sum_{j>=1} d_j g_{m-j}) over the
divisor's nonzero terms only, in length times terms plain-int steps.  A
dense divisor costs length squared steps; the call sites divide only by
sparse ones.

A product by a sparse series packs nothing new either: ``sparse_mul``
adds the packed operand shifted by each term's exponent, times its
coefficient (a +-1 term adds or subtracts), and masks to the window.
Every step is exact modulo 2**(slot bits * slots), so a chain of such
products needs no headroom; the slot must only hold the values read
back, which the call site bounds by sum |c| prod l1(factor).
"""

from __future__ import annotations

import sys
from array import array

# over ZZ, below this many coefficient products plain loops beat packing
_SCHOOLBOOK_AREA = 4096

# (bytes, unsigned array typecode) of the Z/m lanes, narrowest first
_LANES = [(array(code).itemsize, code) for code in "HIQ"]

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


def unpack_signed(value, count, nbytes):
    """Decode count slots; requires |true coefficient| < 2**(8*nbytes-1)."""
    size = nbytes * count
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
    raw = (((value + bias) & ((1 << (8 * size)) - 1)) ^ bias).to_bytes(
        size, "little")
    if nbytes > 8:
        return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                for i in range(0, size, nbytes)]
    lanes = bytearray(8 * count)
    for j in range(nbytes):
        lanes[j::8] = raw[j::nbytes]
    fill = raw[nbytes - 1::nbytes].translate(_SIGN_FILL)
    for j in range(nbytes, 8):
        lanes[j::8] = fill
    out = array("q")
    out.frombytes(lanes)
    if _BIG_ENDIAN:
        out.byteswap()
    return out.tolist()


def _lane_int(lanes):
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _read_lanes(value, count, code, modulus):
    """The first count lanes of value, array typecode code, each reduced
    mod modulus."""
    size = array(code).itemsize * count
    out = array(code)
    out.frombytes((value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))
    if _BIG_ENDIAN:
        out.byteswap()
    return [c % modulus for c in out]


def convolve(a, b, out_len, modulus=None):
    """Exact truncated product: out[k] = sum_i a[i]*b[k-i] for k < out_len.

    Entries of a and b beyond out_len cannot contribute and are ignored.
    With a modulus, inputs must already be canonical and the output is
    reduced, and the product runs in native lanes (see the module
    docstring).  Over ZZ, short products run a schoolbook loop and the
    rest tight packed slots.
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
    if modulus is not None:
        # each output sums at most len(a) products, each <= (m-1)**2
        bound = (modulus - 1) ** 2 * len(a)
        for width, code in _LANES:
            if bound >> (8 * width) == 0:
                break
        else:
            return [c % modulus for c in convolve(a, b, out_len)]
        p = _lane_int(array(code, a)) * _lane_int(array(code, b))
        return _read_lanes(p, out_len, code, modulus)
    nonzero = sum(1 for c in a if c)
    if nonzero * len(b) <= _SCHOOLBOOK_AREA:
        out = [0] * out_len
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[:out_len - i]):
                    if bj:
                        out[i + j] += ai * bj
        return out

    terms = min(len(a), len(b))
    bits = (max_abs(a).bit_length() + max_abs(b).bit_length()
            + terms.bit_length() + 2)
    nbytes = (bits + 7) // 8
    return unpack_signed(pack(a, nbytes) * pack(b, nbytes), out_len, nbytes)


def sparse_mul(value, terms, nbytes, count):
    """value, packed in count slots of nbytes, times the sparse series of
    (exponent, coeff) terms in increasing exponent order: the sum of
    c * (value << 8*nbytes*e), cut to count slots, a +-1 term with no
    multiply.  Exact modulo 2**(8*nbytes*count) whatever the slots hold,
    so only the slots read back (unpack_signed) must hold their values."""
    bits = 8 * nbytes
    out = 0
    for e, c in terms:
        if e >= count:
            break
        if c == 1:
            out += value << bits * e
        elif c == -1:
            out -= value << bits * e
        else:
            out += c * value << bits * e
    return out & ((1 << bits * count) - 1)


def sparse_divide(coeffs, terms, lead_inverse, modulus=None):
    """coeffs / d as a power series of the same length, d given by its
    nonzero (exponent, coeff) terms in increasing exponent order, the
    first at exponent 0 with coeff * lead_inverse == 1 in the ring.

    g_m = lead_inverse * (f_m - sum_{j>=1} d_j g_{m-j}).  Between two
    consecutive exponents of d the terms that reach back into g are the
    same, so each stretch of m runs over a fixed list, with no bound test
    per term.  With a modulus, inputs must be canonical and so is the
    output.
    """
    rest = [(e, d * lead_inverse) for e, d in terms[1:]]
    g = [c * lead_inverse for c in coeffs]
    start = 0
    for k, stop in enumerate([e for e, _ in rest if e < len(g)] + [len(g)]):
        active = rest[:k]
        for m in range(start, stop):
            total = g[m]
            for e, d in active:
                total -= d * g[m - e]
            g[m] = total if modulus is None else total % modulus
        start = stop
    return g


class PackedSeries:
    """Mutable packed window [0, length) for the u/v recurrence
    (partitions.uv_series_def).

    Only linear operations are provided; at any slot width they are exact
    modulo 2**(slot_bits * length), so a transient needs no headroom.  The
    width only matters where the slots are read (to_coeffs, fits, and
    restride, which re-strides them without decoding): there it must hold
    every true coefficient, each read as the signed value of its slot.
    """

    __slots__ = ("length", "nbytes", "slot_bits", "mask", "value", "fit_masks")

    def __init__(self, length, slot_bits, value=0):
        self.length = length
        self.nbytes = (slot_bits + 7) // 8
        self.slot_bits = 8 * self.nbytes
        self.mask = (1 << (self.slot_bits * length)) - 1
        self.value = value
        # bits -> (bias, high) of fits, for at most two bits at a time;
        # dropped with the width or window
        self.fit_masks = {}

    def mul_one_minus(self, k):
        """*= (1 - q^k); no-op for k >= length.  Both terms stay
        nonnegative, so no two's-complement copy is made: a negative
        difference wraps by adding 2**(slot_bits * length) once."""
        if 0 < k < self.length:
            v = self.value
            v -= (v << (k * self.slot_bits)) & self.mask
            if v < 0:
                v += 1 << (self.slot_bits * self.length)
            self.value = v

    def fits(self, bits):
        """Whether every slot, read as signed at the slot width, lies in
        [-2**(bits-1), 2**(bits-1)), for 1 <= bits <= slot_bits.

        Two linear passes: adding 2**(bits-1) to every slot maps each
        fitting value to [0, 2**bits), with no carry into the next slot,
        so then no bit at or above bits is set in any slot.  Conversely,
        if none is set, the biased slots minus the bias are a digit
        vector of value in the slot's signed range, and that vector is
        unique, so every slot fits."""
        masks = self.fit_masks.get(bits)
        if masks is None:
            if len(self.fit_masks) == 2:
                self.fit_masks.clear()
            nb, count = self.nbytes, self.length
            masks = self.fit_masks[bits] = (
                int.from_bytes((1 << (bits - 1)).to_bytes(nb, "little") * count,
                               "little"),
                int.from_bytes(((1 << self.slot_bits) - (1 << bits)).to_bytes(
                    nb, "little") * count, "little"))
        bias, high = masks
        return not (self.value + bias) & high

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
        """+= q^k * other, cut to this window (same slot width required;
        the lengths may differ)."""
        self.value = (self.value + (other.value << (k * self.slot_bits))) & self.mask

    def to_coeffs(self):
        return unpack_signed(self.value, self.length, self.nbytes)

    def restride(self, length, slot_bits):
        """Keep the first length slots (at most the current length), in
        slots of slot_bits (rounded up to whole bytes), in linear time and
        without decoding.  At the same width this is a mask.  Otherwise
        every kept coefficient c must lie in [-2**(8h - 1), 2**(8h - 1)),
        h the narrower of the two widths in bytes.  Adding 2**(8h - 1) to
        every slot, as unpack_signed does, leaves each slot a nonnegative
        value below 2**(8h); its low h bytes are copied into the new slots,
        zeros above, and the same half-range at the new stride is taken off
        again."""
        old = self.nbytes
        value = self.value
        self.__init__(length, slot_bits)
        new = self.nbytes
        if new == old:
            self.value = value & self.mask
            return
        h = min(old, new)
        half = bytes(h - 1) + b"\x80"
        size = old * length
        biased = value + int.from_bytes((half + bytes(old - h)) * length, "little")
        raw = (biased & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        slots = bytearray(new * length)
        for j in range(h):
            slots[j::new] = raw[j::old]
        bias = int.from_bytes((half + bytes(new - h)) * length, "little")
        self.value = (int.from_bytes(slots, "little") - bias) & self.mask
