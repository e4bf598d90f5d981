"""Edge tests for the packed kernel codec.

The fixtures force convolve onto its packed path and compare against a
naive convolution, with coefficients at the slot-width bounds, on both the
array codec (slots of up to 8 bytes) and the per-slot path (wider slots).
Over Z/m they record which native lane convolve picks, and the tests put
the largest output sum just below and just above each lane's limit.
"""

import random

import pytest

from qcong import _kernel

WIDTHS = list(range(1, 10)) + [16]


def naive_convolve(a, b, out_len, modulus=None):
    out = [0] * out_len
    for i, x in enumerate(a[:out_len]):
        for j, y in enumerate(b[:out_len - i]):
            out[i + j] += x * y
    return out if modulus is None else [c % modulus for c in out]


def slot_value(cs, nbytes):
    return sum(c << (8 * nbytes * i) for i, c in enumerate(cs))


@pytest.fixture
def packed(monkeypatch):
    """Force the packed ZZ path and record the slot width of every decode."""
    monkeypatch.setattr(_kernel, "_SCHOOLBOOK_AREA", 0)
    widths = []
    decode = _kernel.unpack_signed

    def spy(value, count, nbytes):
        widths.append(nbytes)
        return decode(value, count, nbytes)
    monkeypatch.setattr(_kernel, "unpack_signed", spy)
    return widths


@pytest.fixture
def lanes(monkeypatch):
    """Record the array typecode of every Z/m lane operand."""
    codes = []
    read = _kernel._lane_int

    def spy(buf):
        codes.append(buf.typecode)
        return read(buf)
    monkeypatch.setattr(_kernel, "_lane_int", spy)
    return codes


# convolve on the packed path -----------------------------------------------

@pytest.mark.parametrize("nbytes", WIDTHS)
def test_convolve_at_slot_bound_magnitudes(packed, nbytes):
    rng = random.Random(nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    a = [rng.choice((top, -top, 0, 1)) for _ in range(23)]
    b = [rng.choice((top, -top)) for _ in range(19)]
    for out_len in (1, 7, 19, 41, 60):
        assert _kernel.convolve(a, b, out_len) == naive_convolve(a, b, out_len)
    assert packed


def test_convolve_slot_widths_cover_both_decoders(packed):
    for k in range(0, 70, 3):
        c = (1 << k) - 1 or 1
        a = [c] * 12
        b = [-c] * 9 + [0, 0, 0]
        assert _kernel.convolve(a, b, 21) == naive_convolve(a, b, 21)
    assert {w for w in packed if w <= 8} == set(range(1, 9))
    assert max(packed) >= 16


def test_convolve_all_negative(packed):
    rng = random.Random(3)
    a = [-rng.randrange(1, 1 << 40) for _ in range(50)]
    b = [-rng.randrange(1, 1 << 12) for _ in range(50)]
    assert _kernel.convolve(a, b, 99) == naive_convolve(a, b, 99)
    assert all(c > 0 for c in _kernel.convolve(a, b, 99))


def test_convolve_single_nonzero_entry(packed):
    for pos in (0, 1, 17, 39):
        a = [0] * 40
        a[pos] = -(1 << 30) + 1
        b = list(range(-20, 20))
        assert _kernel.convolve(a, b, 40) == naive_convolve(a, b, 40)
        assert _kernel.convolve(b, a, 40) == naive_convolve(a, b, 40)


def test_convolve_trailing_zeros_and_short_output(packed):
    rng = random.Random(5)
    a = [rng.randrange(-999, 1000) for _ in range(30)] + [0] * 25
    b = [rng.randrange(-999, 1000) for _ in range(12)] + [0] * 40
    for out_len in (1, 2, 11, 29, 55, 90):
        assert _kernel.convolve(a, b, out_len) == naive_convolve(a, b, out_len)


@pytest.mark.parametrize("modulus", [2, 3, 13, 255, 257, 65537])
def test_convolve_mod(lanes, modulus):
    rng = random.Random(modulus)
    top = modulus - 1
    cases = [
        ([top] * 64, [top] * 64),
        ([rng.randrange(modulus) for _ in range(70)],
         [rng.randrange(modulus) for _ in range(45)] + [0] * 10),
        ([0] * 20 + [top], [rng.randrange(modulus) for _ in range(40)]),
    ]
    for a, b in cases:
        for out_len in (1, 33, 64, 130):
            want = naive_convolve(a, b, out_len, modulus)
            assert _kernel.convolve(a, b, out_len, modulus) == want
    assert lanes


# convolve over Z/m: lane choice at its edges ---------------------------------

def out_lens(a, b):
    """Output lengths below, at and above len(a) + len(b) - 1."""
    full = len(a) + len(b) - 1
    return [n for n in (1, full - 1, full, full + 3) if n > 0]


@pytest.mark.parametrize("modulus,length,code", [
    (13, 455, "H"),         # 12**2 * 455 = 65520 < 2**16
    (13, 456, "I"),         # 12**2 * 456 = 65664
    (65536, 1, "I"),        # 65535**2 < 2**32
    (65536, 2, "Q"),        # 2 * 65535**2 > 2**32
    (2 ** 32 + 1, 1, None),  # (2**32)**2 = 2**64 needs the ZZ path
])
def test_convolve_mod_lane_edges(lanes, modulus, length, code):
    rng = random.Random(length)
    top = [modulus - 1] * length
    mixed = [rng.randrange(modulus) for _ in range(length)] + [modulus - 1]
    for a, b in ((top, top), (top, mixed), (mixed, top)):
        for out_len in out_lens(a, b):
            lanes.clear()
            want = naive_convolve(a, b, out_len, modulus)
            assert _kernel.convolve(a, b, out_len, modulus) == want
            if out_len >= length:
                assert set(lanes) == ({code} if code else set())


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_convolve_mod_full_range(lanes, nbytes):
    # (m-1)**2 < 2**(8*nbytes) <= m**2: one product of top values fills
    # nbytes, so it takes the narrowest lane of at least nbytes
    modulus = 1 << (4 * nbytes)
    top = modulus - 1
    assert _kernel.convolve([top], [top], 1, modulus) == [1]
    want = [code for width, code in _kernel._LANES if width >= nbytes][:1]
    assert lanes == 2 * want
    rng = random.Random(200 + nbytes)
    a = [top] * 5 + [rng.randrange(modulus) for _ in range(30)]
    b = [rng.randrange(modulus) for _ in range(30)] + [top] * 5
    for out_len in out_lens(a, b):
        want = naive_convolve(a, b, out_len, modulus)
        assert _kernel.convolve(a, b, out_len, modulus) == want


# codec round trips ---------------------------------------------------------

@pytest.mark.parametrize("nbytes", WIDTHS)
def test_pack_unpack_signed_round_trip(nbytes):
    rng = random.Random(100 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    cs = [top, -top, 0, -1, 1] + [rng.randint(-top, top) for _ in range(40)]
    value = _kernel.pack(cs, nbytes)
    assert value == slot_value(cs, nbytes)
    assert _kernel.unpack_signed(value, len(cs), nbytes) == cs
    assert _kernel.unpack_signed(value, 3, nbytes) == cs[:3]
    window = 8 * nbytes * len(cs)
    for junk in (1, -1, rng.randrange(1 << 200), -rng.randrange(1 << 200)):
        assert _kernel.unpack_signed(value + (junk << window),
                                     len(cs), nbytes) == cs


@pytest.mark.parametrize("nbytes", [1, 3, 7, 8, 9])
def test_pack_full_unsigned_slot_is_exact(nbytes):
    # 0 <= c < 2**(8*nbytes) fits a slot even with its top bit set
    full = (1 << (8 * nbytes)) - 1
    cs = [full, -full, 1 << (8 * nbytes - 1), 0, full]
    assert _kernel.pack(cs, nbytes) == slot_value(cs, nbytes)


@pytest.mark.parametrize("nbytes", [1, 3, 7, 9])
def test_pack_rejects_a_coefficient_wider_than_its_slot(nbytes):
    for c in (1 << (8 * nbytes), -(1 << (8 * nbytes)) - 1):
        with pytest.raises(OverflowError):
            _kernel.pack([1, c, -1], nbytes)


def test_pack_beyond_64_bits():
    for nbytes in (9, 12, 16):
        top = (1 << (8 * nbytes - 1)) - 1
        cs = [1 << 63, -(1 << 63) - 1, top, -top, 0, 5, -5]
        value = _kernel.pack(cs, nbytes)
        assert value == slot_value(cs, nbytes)
        assert _kernel.unpack_signed(value, len(cs), nbytes) == cs


def test_empty_vectors():
    assert _kernel.pack([], 3) == 0
    assert _kernel.unpack_signed(12345, 0, 3) == []


@pytest.mark.parametrize("coeffs,want", [
    ((), 0),
    ((-3, -7, -1), 7),
    ((5, -9, 2), 9),
    ((9, -5, 0), 9),
    ((0, 0), 0),
    ((1 << 70, -(1 << 70) + 1, 3), 1 << 70),
    ((-(1 << 90), 1 << 89), 1 << 90),
])
def test_max_abs(coeffs, want):
    assert _kernel.max_abs(coeffs) == want
    assert _kernel.max_abs(list(coeffs)) == want


# newton_invert ---------------------------------------------------------------

@pytest.mark.parametrize("length", [1, 2, 3, 257])
@pytest.mark.parametrize("modulus", [None, 13])
@pytest.mark.parametrize("force_packed", [False, True])
def test_newton_invert(monkeypatch, length, modulus, force_packed):
    if force_packed:
        monkeypatch.setattr(_kernel, "_SCHOOLBOOK_AREA", 0)
    rng = random.Random(length)
    if modulus is None:
        f = [1] + [rng.randint(-5, 5) for _ in range(length - 1)]
        lead_inverse = 1
    else:
        f = [rng.randrange(1, modulus)] + [
            rng.randrange(modulus) for _ in range(length - 1)]
        lead_inverse = pow(f[0], -1, modulus)
    g = _kernel.newton_invert(f, lead_inverse, modulus)
    assert len(g) == length
    assert naive_convolve(f, g, length, modulus) == [1] + [0] * (length - 1)


def test_newton_invert_mod_crosses_lanes(lanes):
    # the last Newton step multiplies by a 512-term g, and 12**2 * 512
    # outgrows 2-byte lanes, so the earlier steps run in H and the last in I
    rng = random.Random(600)
    f = [rng.randrange(1, 13)] + [rng.randrange(13) for _ in range(599)]
    g = _kernel.newton_invert(f, pow(f[0], -1, 13), 13)
    assert naive_convolve(f, g, 600, 13) == [1] + [0] * 599
    assert set(lanes) == {"H", "I"}


# sparse_divide -------------------------------------------------------------------

@pytest.mark.parametrize("length", [1, 2, 3, 200])
@pytest.mark.parametrize("modulus", [None, 7, 13])
def test_sparse_divide_undoes_the_product(length, modulus):
    # g = f / d exactly when d * g = f on the window; d has terms past the
    # window too, which cannot reach it
    rng = random.Random(length)
    m = modulus or 50
    lead = rng.choice([1, -1]) if modulus is None else rng.randrange(1, m)
    exps = sorted(rng.sample(range(1, 2 * length + 2), min(6, length + 1)))
    terms = [(0, lead)] + [(e, rng.randrange(1, m)) for e in exps]
    d = [0] * length
    for e, c in terms:
        if e < length:
            d[e] = c
    f = [rng.randrange(m) for _ in range(length)]
    inv = lead if modulus is None else pow(lead, -1, modulus)
    g = _kernel.sparse_divide(f, terms, inv, modulus)
    assert len(g) == length
    assert naive_convolve(d, g, length, modulus) == f
    if modulus is not None:
        assert all(0 <= c < modulus for c in g)


# sparse_mul ----------------------------------------------------------------------

def sparse_dense(terms, length):
    cs = [0] * length
    for e, c in terms:
        if e < length:
            cs[e] = c
    return cs


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_sparse_mul_matches_the_dense_product(nbytes):
    # +-1 terms, wider coefficients and exponents at and past the window;
    # the dense factor fills its slots to the signed bound, so the product
    # fits only because its sparse factor has one term of size 1
    rng = random.Random(nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    for count in (1, 2, 9, 40):
        dense = [rng.randrange(-top, top + 1) for _ in range(count)]
        for terms in ([(0, 1)], [(0, -1)], [(count - 1, -1)], [(count, 1)],
                      [(rng.randrange(count), 1)]):
            got = _kernel.sparse_mul(_kernel.pack(dense, nbytes), terms,
                                     nbytes, count)
            assert _kernel.unpack_signed(got, count, nbytes) == \
                naive_convolve(dense, sparse_dense(terms, count), count)
        small = [rng.randrange(-3, 4) for _ in range(count)]
        terms = sorted({(rng.randrange(2 * count), 0) for _ in range(6)})
        terms = [(e, rng.choice((1, -1, 2, -7))) for e, _ in terms]
        got = _kernel.sparse_mul(_kernel.pack(small, nbytes), terms, nbytes,
                                 count)
        assert _kernel.unpack_signed(got, count, nbytes) == \
            naive_convolve(small, sparse_dense(terms, count), count)


@pytest.mark.parametrize("nbytes", [1, 2, 9])
def test_sparse_mul_chain_is_exact_modulo_the_window(nbytes):
    # times (1 - q)^40 and then 40 times by 1 / (1 - q) = sum q^e on the
    # window: the transients reach C(40, 20) > 2^37 times the start, far
    # past a 1- or 2-byte slot, yet every step is exact modulo the window,
    # so the start comes back
    rng = random.Random(nbytes)
    count = 50
    start = [rng.randrange(-9, 10) for _ in range(count)]
    v = _kernel.pack(start, nbytes)
    geometric = [(e, 1) for e in range(count + 3)]
    for terms in [[(0, 1), (1, -1)]] * 40 + [geometric] * 40:
        v = _kernel.sparse_mul(v, terms, nbytes, count)
        assert 0 <= v < 1 << 8 * nbytes * count
    assert _kernel.unpack_signed(v, count, nbytes) == start


# PackedSeries ------------------------------------------------------------------

LENGTH = 29
SHIFTS = (1, 2, 3, 7, LENGTH - 1)


def packed_series(cs, nbytes):
    ps = _kernel.PackedSeries(len(cs), 8 * nbytes)
    ps.value = slot_value(cs, nbytes) & ps.mask
    return ps


def shifted(cs, k, sign, other=None):
    """cs + sign * q^k * other (other defaults to cs), on len(cs) terms."""
    other = cs if other is None else other
    return [c + sign * (other[i - k] if i >= k else 0) for i, c in enumerate(cs)]


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_packed_series_mul_one_minus(nbytes):
    rng = random.Random(300 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    for sign in (1, -1):
        for k in SHIFTS:
            x = [sign * rng.choice((0, top, rng.randint(0, top)))
                 for _ in range(LENGTH)]
            x[0], x[k] = sign * top, 0
            ps = packed_series(x, nbytes)
            ps.mul_one_minus(k)
            want = shifted(x, k, -1)
            assert -sign * top in want
            assert ps.to_coeffs() == want
        # a difference that wraps: with no negative slot, a top slot of 0
        # and top k slots below it, the shifted value exceeds the value,
        # and the top slot comes out at -top
        x = [rng.randint(0, top) for _ in range(LENGTH)]
        x[-1], x[-1 - k] = 0, top
        ps = packed_series(x, nbytes)
        assert ps.value < (ps.value << (8 * nbytes * k)) & ps.mask
        ps.mul_one_minus(k)
        assert ps.to_coeffs() == shifted(x, k, -1)
        assert ps.to_coeffs()[-1] == -top


@pytest.mark.parametrize("nbytes", [1, 3, 8, 9])
def test_packed_series_fits_at_its_edges(nbytes):
    # each edge value at slot 0 (where a negative value's bias borrows from
    # every slot above), 1 and the last, among in-range values of both signs
    slot = 8 * nbytes
    rng = random.Random(1000 + nbytes)
    for bits in range(1, slot + 1):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        edges = [(hi, True), (lo, True)]
        if bits < slot:
            edges += [(hi + 1, False), (lo - 1, False)]
        for i in (0, 1, LENGTH - 1):
            for c, ok in edges:
                x = [rng.randint(lo, hi) for _ in range(LENGTH)]
                x[i] = c
                ps = packed_series(x, nbytes)
                assert ps.fits(bits) is ok, (bits, i, c)
                assert ps.fits(slot)
                assert len(ps.fit_masks) <= 2
    # at the slot width every value fits, the slot bounds included
    top = (1 << (slot - 1)) - 1
    ps = packed_series([top, -top - 1, -1, 0] * 7 + [1], nbytes)
    assert ps.fits(slot)


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_packed_series_mul_one_plus(nbytes):
    # *= (1 + q^k) as add_shifted of the series onto itself; signs
    # alternate between blocks of k terms, so c_i + c_{i-k} never adds two
    # values of one sign
    rng = random.Random(400 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    for k in SHIFTS:
        x = [(-1) ** (i // k) * rng.choice((0, top, rng.randint(0, top)))
             for i in range(LENGTH)]
        x[0], x[k] = top, 0
        ps = packed_series(x, nbytes)
        ps.add_shifted(ps, k)
        want = shifted(x, k, 1)
        assert top in want
        assert ps.to_coeffs() == want


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_packed_series_div_one_minus(nbytes):
    # x = (1 - q^k) z, so x / (1 - q^k) = z sits at the slot bound
    rng = random.Random(500 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    for sign in (1, -1):
        for k in SHIFTS:
            z = [sign * rng.choice((0, top, rng.randint(0, top)))
                 for _ in range(LENGTH)]
            z[0] = sign * top
            ps = packed_series(shifted(z, k, -1), nbytes)
            ps.div_one_minus(k)
            assert ps.to_coeffs() == z


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_packed_series_add_shifted(nbytes):
    rng = random.Random(600 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    for sign in (1, -1):
        for k in (0,) + SHIFTS:
            a = [sign * rng.randint(0, top) for _ in range(LENGTH)]
            b = [-sign * rng.randint(0, top) for _ in range(LENGTH)]
            a[k], b[0] = sign * top, 0
            ps = packed_series(a, nbytes)
            ps.add_shifted(packed_series(b, nbytes), k)
            want = shifted(a, k, 1, b)
            assert sign * top in want
            assert ps.to_coeffs() == want


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_packed_series_widen(nbytes):
    # restride to wider slots at the same length
    rng = random.Random(700 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    x = [top, -top, 0, -1] + [rng.randint(-top, top) for _ in range(LENGTH - 4)]
    for wider in [w for w in WIDTHS if w > nbytes] + [48]:
        ps = packed_series(x, nbytes)
        ps.restride(LENGTH, 8 * wider)
        assert (ps.nbytes, ps.slot_bits) == (wider, 8 * wider)
        assert ps.value == slot_value(x, wider) & ps.mask
        assert ps.to_coeffs() == x
        ps.add_shifted(ps, 1)   # twice the old bound fits the wider slot
        assert ps.to_coeffs() == shifted(x, 1, 1)
    ps = packed_series(x, nbytes)
    ps.restride(LENGTH, 8 * nbytes + 1)   # slot bits round up to whole bytes
    assert ps.nbytes == nbytes + 1
    assert ps.to_coeffs() == x


@pytest.mark.parametrize("nbytes", WIDTHS)
def test_packed_series_restride_narrows_and_shrinks(nbytes):
    # nbytes is the narrower width; every kept slot lies in its range, with
    # both ends -2^(b-1) and 2^(b-1) - 1 present, and every dropped high
    # slot is negative, so a borrow from them must not reach a kept slot
    rng = random.Random(900 + nbytes)
    lo, hi = -(1 << (8 * nbytes - 1)), (1 << (8 * nbytes - 1)) - 1
    kept = LENGTH - 7
    x = [hi, lo, 0, -1, lo, hi] + [rng.randint(lo, hi) for _ in range(kept - 6)]
    x += [rng.randint(lo, -1) for _ in range(LENGTH - kept)]
    for wider in [w for w in WIDTHS if w > nbytes] + [48]:
        for length in (LENGTH, kept):
            ps = packed_series(x, wider)
            ps.restride(length, 8 * nbytes)
            assert (ps.length, ps.nbytes) == (length, nbytes)
            assert ps.value == slot_value(x[:length], nbytes) & ps.mask
            assert ps.to_coeffs() == x[:length]
        ps = packed_series(x, nbytes)   # shorter and wider
        ps.restride(kept, 8 * wider)
        assert ps.value == slot_value(x[:kept], wider) & ps.mask
    for length in (kept, 1):   # same width: a mask
        ps = packed_series(x, nbytes)
        ps.restride(length, 8 * nbytes)
        assert (ps.length, ps.value) == (length, slot_value(x[:length], nbytes) & ps.mask)


@pytest.mark.parametrize("nbytes", [1, 8, 9])
def test_packed_series_no_op_branches(nbytes):
    rng = random.Random(800 + nbytes)
    top = (1 << (8 * nbytes - 1)) - 1
    x = [top, -top] + [rng.randint(-top, top) for _ in range(LENGTH - 2)]
    y = [rng.randint(-top, top) // 2 for _ in range(LENGTH)]
    for k in (LENGTH, LENGTH + 5, 10 * LENGTH):
        for op in ("mul_one_minus", "div_one_minus"):
            ps = packed_series(x, nbytes)
            getattr(ps, op)(k)
            assert ps.to_coeffs() == x, (op, k)
        ps = packed_series(x, nbytes)
        ps.add_shifted(packed_series(y, nbytes), k)
        assert ps.to_coeffs() == x
    ps = packed_series(x, nbytes)
    ps.mul_one_minus(0)
    assert ps.to_coeffs() == x
    ps = packed_series(x, nbytes)
    with pytest.raises(ValueError):
        ps.div_one_minus(0)
    half = [c // 2 for c in x]
    ps = packed_series(half, nbytes)
    ps.add_shifted(packed_series(y, nbytes), 0)
    assert ps.to_coeffs() == [a + b for a, b in zip(half, y)]
