import random
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from qcong import _kernel
from qcong.series import (
    LaurentSeries,
    NonUnitError,
    Ring,
    RingMismatchError,
    WindowError,
    Zmod,
    ZZ,
)


# independent oracles ------------------------------------------------------

def pentagonal_coeffs(prec):
    """(q;q)_inf by the pentagonal number theorem: sum (-1)^k q^{k(3k-1)/2}."""
    cs = [0] * prec
    k = 0
    while k * (3 * k - 1) // 2 < prec:
        sign = -1 if k % 2 else 1
        for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if e < prec:
                cs[e] += sign
        k += 1
    return cs


def partition_counts(prec, parts=None):
    """Coin-change DP; default counts ordinary partitions."""
    dp = [0] * prec
    dp[0] = 1
    for part in parts if parts is not None else range(1, prec):
        for w in range(part, prec):
            dp[w] += dp[w - part]
    return dp


def euler(prec):
    return LaurentSeries(ZZ, 0, pentagonal_coeffs(prec))


def subst_pow(f, k):
    """f(q^k); the window scales to [k*low, k*(prec-1)+1)."""
    cs = [0] * (k * (len(f.coeffs) - 1) + 1)
    cs[::k] = f.coeffs
    return LaurentSeries(f.ring, k * f.low, cs)


def naive_convolve(a, b, out_len):
    out = [0] * out_len
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < out_len:
                out[i + j] += x * y
    return out


# windows and element access ----------------------------------------------

def test_add_on_overlap_window():
    f = LaurentSeries(ZZ, 0, [0, 1, 1])
    g = LaurentSeries(ZZ, 0, [0, 0, 1])
    assert (f + g).coeffs == (0, 1, 2)


def test_add_window_runs_from_the_lower_low_to_the_lower_prec():
    # below its low a series is zero, so the lower low is sound
    f = LaurentSeries(ZZ, -2, [5, 5, 5, 5, 5])   # [-2, 3)
    g = LaurentSeries(ZZ, 0, [1, 1, 1, 1, 1])    # [0, 5)
    for h in (f + g, g + f):
        assert (h.low, h.prec) == (-2, 3)
        assert h.coeffs == (5, 5, 6, 6, 6)
    d = g - f
    assert (d.low, d.prec) == (-2, 3)
    assert d.coeffs == (-5, -5, -4, -4, -4)


def test_add_of_disjoint_windows_keeps_the_lower_one():
    f = LaurentSeries(ZZ, 0, [1, 2])
    g = LaurentSeries(ZZ, 5, [1])
    for h in (f + g, g + f):
        assert (h.low, h.prec) == (0, 2)
        assert h.coeffs == (1, 2)
    assert (g - f).coeffs == (-1, -2)


def test_add_and_sub_against_zero_padded_coefficients():
    rng = random.Random(11)
    for _ in range(200):
        f, g = (LaurentSeries(ZZ, rng.randrange(-6, 7),
                              [rng.randrange(-9, 10)
                               for _ in range(rng.randrange(1, 9))])
                for _ in range(2))

        def at(s, n):
            return s.coeff(n) if n >= s.low else 0

        lo, hi = min(f.low, g.low), min(f.prec, g.prec)
        for h, sign in ((f + g, 1), (f - g, -1)):
            assert (h.low, h.prec) == (lo, hi)
            assert list(h.coeffs) == [at(f, n) + sign * at(g, n)
                                      for n in range(lo, hi)]


def test_first_difference_is_the_first_mismatch_on_the_overlap():
    rng = random.Random(12)
    for _ in range(300):
        f, g = (LaurentSeries(ZZ, rng.randrange(-6, 7),
                              [rng.randrange(-1, 2)
                               for _ in range(rng.randrange(1, 12))])
                for _ in range(2))
        lo, hi = max(f.low, g.low), min(f.prec, g.prec)
        if hi <= lo:
            with pytest.raises(WindowError, match="do not overlap"):
                f.first_difference(g)
            continue
        want = next(((n, f.coeff(n), g.coeff(n)) for n in range(lo, hi)
                     if f.coeff(n) != g.coeff(n)), None)
        assert f.first_difference(g) == want
        assert (f == g) == (want is None)
    # outside the overlap nothing is compared; a mismatch at its last
    # coefficient is still found
    f = LaurentSeries(ZZ, -2, [7, 1, 2, 3])      # [-2, 2)
    g = LaurentSeries(ZZ, 0, [2, 4, 9])          # [0, 3)
    assert f.first_difference(g) == (1, 3, 4)
    assert f.first_difference(LaurentSeries(ZZ, 0, [2, 3, 9])) is None


def test_one_minus_a_series_keeps_the_constant_term():
    f = LaurentSeries(ZZ, 1, [1, 0, 0, 0])       # q on [1, 5)
    h = LaurentSeries.one(ZZ, 5) - f
    assert (h.low, h.prec) == (0, 5)
    assert h.coeffs == (1, -1, 0, 0, 0)
    h7 = LaurentSeries.one(Zmod(7), 5) - f.reduce_mod(7)
    assert h7.coeffs == (1, 6, 0, 0, 0)


def test_ring_mismatch_is_an_error():
    f = LaurentSeries(ZZ, 0, [1])
    g = LaurentSeries(Zmod(5), 0, [1])
    with pytest.raises(RingMismatchError):
        f + g


def test_shift_moves_window():
    f = LaurentSeries.one(ZZ, 10).shift(-8)
    assert (f.low, f.prec) == (-8, 2)
    assert f.coeff(-8) == 1


def test_scale_negates_euler_head():
    f = euler(5).scale(-1)
    assert f.coeffs == (-1, 1, 1, 0, 0)


def test_coeff_out_of_window_raises_both_sides():
    f = LaurentSeries(ZZ, 0, [1, 2])
    assert f.coeff(1) == 2
    with pytest.raises(WindowError):
        f.coeff(f.prec)
    with pytest.raises(WindowError):
        f.coeff(-1)


def test_empty_window_rejected():
    with pytest.raises(WindowError):
        LaurentSeries(ZZ, 0, [])
    with pytest.raises(WindowError):
        LaurentSeries.zeros(ZZ, 3, 3)


def test_mod_ring_canonicalizes():
    f = LaurentSeries(Zmod(5), 0, [5, -3, 7])
    assert f.coeffs == (0, 2, 2)
    with pytest.raises(ValueError):
        Ring(1)


# multiplication -----------------------------------------------------------

def test_mul_geometric_inverse():
    f = LaurentSeries(ZZ, 0, [1, -1])
    g = LaurentSeries(ZZ, 0, [1] * 10)
    h = f * g
    assert h.coeffs == (1, 0)  # window = min(0+2, 0+10) = 2
    assert h.low == 0


def test_mul_window_rule():
    f = LaurentSeries(ZZ, -1, [1, 0, 0])   # q^-1, window [-1, 2)
    g = LaurentSeries(ZZ, 1, [1, 0])       # q, window [1, 3)
    h = f * g
    assert (h.low, h.prec) == (0, 2)
    assert h.coeff(0) == 1


def test_mul_prec_is_min_of_cross_bounds():
    f = LaurentSeries(ZZ, 2, [1] * 7)    # [2, 9)
    g = LaurentSeries(ZZ, -3, [1] * 4)   # [-3, 1)
    h = f * g
    assert (h.low, h.prec) == (-1, 3)    # min(2+1, -3+9) = 3


def test_euler_cube_is_jacobi_sum():
    cube = euler(8) ** 3
    # sum over n >= 0 of (-1)^n (2n+1) q^{n(n+1)/2}
    want = [0] * 8
    n = 0
    while n * (n + 1) // 2 < 8:
        want[n * (n + 1) // 2] = (2 * n + 1) * (-1 if n % 2 else 1)
        n += 1
    assert cube.coeffs == tuple(want)
    assert want[:7] == [1, -3, 0, 5, 0, 0, -7]


def test_scalar_mul():
    f = LaurentSeries(ZZ, 0, [1, 2])
    assert (3 * f).coeffs == (3, 6)
    assert (f * 3).coeffs == (3, 6)


def test_pow_zero_is_one():
    f = LaurentSeries(ZZ, 1, [2, 3, 4])
    assert (f ** 0).coeffs == (1, 0, 0)


# inversion ----------------------------------------------------------------

def test_invert_one_minus_q():
    f = LaurentSeries(ZZ, 0, [1, -1, 0, 0, 0])
    assert f.invert().coeffs == (1, 1, 1, 1, 1)


def test_invert_with_valuation():
    # q(1-q) on [1, 5), and stored on [-2, 5) with three leading zeros:
    # either way v = 1 and L = 4
    for ring, low, cs in ((ZZ, 1, [1, -1, 0, 0]),
                          (ZZ, -2, [0, 0, 0, 1, -1, 0, 0]),
                          (Zmod(7), -2, [0, 0, 0, 1, -1, 0, 0])):
        g = LaurentSeries(ring, low, cs).invert()
        assert (g.low, g.prec) == (-1, 3)
        assert g.coeffs == (1, 1, 1, 1)


def test_partition_counts_oracle_with_no_part_left():
    assert partition_counts(6) == [1, 1, 2, 3, 5, 7]
    assert partition_counts(6, range(6, 6)) == [1, 0, 0, 0, 0, 0]


def test_invert_euler_sub5_counts_multiples_of_5_partitions():
    e5 = subst_pow(euler(12), 5).truncate(12)
    inv = e5.invert()
    assert list(inv.coeffs) == partition_counts(12, parts=[5, 10])


def test_invert_requires_unit_lead():
    with pytest.raises(NonUnitError):
        LaurentSeries(ZZ, 0, [2, 1]).invert()
    with pytest.raises(NonUnitError):
        LaurentSeries(ZZ, 0, [0, 0, 0]).invert()
    # 2 is a unit mod 5 though
    f = LaurentSeries(Zmod(5), 0, [2, 1, 0, 0])
    assert (f * f.invert()).coeff(0) == 1


def test_invert_random_units_two_sided():
    rng = random.Random(7)
    for trial in range(200):
        ring = ZZ if trial % 2 else Zmod(rng.choice([3, 5, 13, 9]))
        low = rng.randrange(-4, 5)
        length = rng.randrange(2, 12)
        lead = rng.choice([1, -1]) if ring.modulus is None else 1 + rng.randrange(ring.modulus - 1)
        while ring.modulus is not None and not ring.is_unit(lead):
            lead = 1 + rng.randrange(ring.modulus - 1)
        cs = [lead] + [rng.randrange(-9, 10) for _ in range(length - 1)]
        f = LaurentSeries(ring, low, cs)
        g = f.invert()
        left = f * g
        right = g * f
        expected = LaurentSeries.one(ring, left.prec).with_low(left.low)
        assert left == expected
        assert right == expected


def test_divide_exact():
    f = LaurentSeries(ZZ, 0, [2, -4, 6])
    assert f.divide_exact(2).coeffs == (1, -2, 3)
    with pytest.raises(ValueError):
        LaurentSeries(ZZ, 0, [3]).divide_exact(2)
    with pytest.raises(RingMismatchError):
        LaurentSeries(Zmod(5), 0, [2]).divide_exact(2)


# division by a sparse series ----------------------------------------------

def _sparse_divisor(rng, ring, v, lead, length):
    """lead q^v plus a few random terms above it, on [v - 2, v + length):
    stored zeros below the valuation, and zeros between the terms."""
    cs = [0, 0, lead] + [0] * (length - 1)
    for e in rng.sample(range(1, length), min(5, length - 1)):
        cs[2 + e] = rng.randrange(-9, 10)
    return LaurentSeries(ring, v - 2, cs)


@pytest.mark.parametrize("ring, leads", [
    (ZZ, (1, -1)), (Zmod(7), (1, 6, 3)), (Zmod(13), (1, 12, 5))])
@pytest.mark.parametrize("v", [0, 1, 2, 3])
def test_divide_equals_times_the_inverse(ring, leads, v):
    # same coefficients and the same window as f * g.invert(), whether f or
    # g is the longer
    rng = random.Random(31 * v + len(leads))
    for lead in leads:
        for f_len, g_len in ((40, 25), (25, 40), (30, 30), (1, 1)):
            f = LaurentSeries(ring, rng.randrange(-3, 4),
                              [rng.randrange(-20, 21) for _ in range(f_len)])
            g = _sparse_divisor(rng, ring, v, lead, g_len)
            got, want = f.divide(g), f * g.invert()
            assert (got.low, got.prec) == (want.low, want.prec)
            assert got.coeffs == want.coeffs


def test_divide_raises_as_times_the_inverse_does():
    f = LaurentSeries(ZZ, 0, [1, 2, 3])
    for bad in (LaurentSeries(ZZ, 0, [2, 1, 0]), LaurentSeries(ZZ, 0, [0, 0]),
                LaurentSeries(Zmod(7), 0, [0, 7, 14])):
        with pytest.raises(NonUnitError):
            f.divide(bad)
    with pytest.raises(NonUnitError):
        LaurentSeries(Zmod(9), 0, [1, 1]).divide(
            LaurentSeries(Zmod(9), 1, [3, 1]))
    with pytest.raises(RingMismatchError):
        f.divide(LaurentSeries(Zmod(7), 0, [3, 1]))
    with pytest.raises(RingMismatchError):
        LaurentSeries(Zmod(7), 0, [1]).divide(LaurentSeries(Zmod(13), 0, [1]))


def test_divide_by_euler_counts_partitions():
    got = LaurentSeries.one(ZZ, 60).divide(euler(60))
    assert list(got.coeffs) == partition_counts(60)


# substitution, reduction, dissection ---------------------------------------

def test_reduce_mod_examples():
    f = LaurentSeries(ZZ, 0, [5, -3])
    r = f.reduce_mod(5)
    assert r.coeffs == (0, 2)
    assert LaurentSeries(ZZ, 0, [-1]).reduce_mod(13).coeff(0) == 12
    with pytest.raises(RingMismatchError):
        r.reduce_mod(5)


def test_euler_cube_mod3_equals_dilated_euler():
    cube = (euler(8) ** 3).reduce_mod(3)
    e3 = subst_pow(euler(3), 3).reduce_mod(3)  # window [0, 7), compared on overlap
    assert cube == e3


def test_dissect_examples():
    f = LaurentSeries(ZZ, 0, [1, 1, 1])
    f0, f1 = f.dissect(2)
    assert f0.coeffs == (1, 1) and f1.coeffs == (1,)

    g = LaurentSeries(ZZ, -8, [1] + [0] * 12 + [1])   # q^-8 + q^5
    comps = g.dissect(13)
    assert comps[5].valuation() == -1
    assert comps[5].coeff(-1) == 1 and comps[5].coeff(0) == 1
    for j, c in enumerate(comps):
        if j != 5:
            assert not any(c.coeffs)


def test_truncate_and_with_low():
    f = LaurentSeries(ZZ, 0, [1, 2, 3, 4])
    assert f.truncate(2).coeffs == (1, 2)
    g = f.with_low(-2)
    assert (g.low, g.prec) == (-2, 4)
    assert g.coeff(-1) == 0
    with pytest.raises(WindowError):
        f.truncate(5)
    with pytest.raises(WindowError):
        f.with_low(1)


@pytest.mark.parametrize("m", [7, 13])
def test_unreduced_paths_match_the_reducing_constructor(m):
    # shift, with_low, truncate, *, scale, + and - build their results
    # without a second reduction; each must equal the series the reducing
    # __init__ gives, for scalars below 0 and at or above m, and for sums
    # and differences that leave [0, m)
    ring = Zmod(m)
    rng = random.Random(m)
    raw_f = [rng.randint(-3 * m, 3 * m) for _ in range(40)]
    raw_g = [rng.randint(-3 * m, 3 * m) for _ in range(90)]   # packed path
    f = LaurentSeries(ring, -2, raw_f)
    g = LaurentSeries(ring, 5, raw_g)
    # f and g on f's window [-2, 38), g zero below its low 5
    g_on_f = [0] * 7 + raw_g[:33]
    cases = [
        (f.shift(7), LaurentSeries(ring, 5, raw_f)),
        (f.with_low(-6), LaurentSeries(ring, -6, [0] * 4 + raw_f)),
        (f.truncate(20), LaurentSeries(ring, -2, raw_f[:22])),
        (f * g, LaurentSeries(ring, 3, naive_convolve(raw_f, raw_g, 40))),
        (g * g, LaurentSeries(ring, 10, naive_convolve(raw_g, raw_g, 90))),
        (f.scale(-5), LaurentSeries(ring, -2, [-5 * c for c in raw_f])),
        (f.scale(3 * m + 2),
         LaurentSeries(ring, -2, [(3 * m + 2) * c for c in raw_f])),
        (f * (m - 1), LaurentSeries(ring, -2, [(m - 1) * c for c in raw_f])),
        (f + g, LaurentSeries(ring, -2, list(map(add, raw_f, g_on_f)))),
        (g - f, LaurentSeries(ring, -2, list(map(sub, g_on_f, raw_f)))),
    ]
    for got, want in cases:
        assert isinstance(got.coeffs, tuple)
        assert (got.low, got.coeffs) == (want.low, want.coeffs)


def test_valuation_skips_stored_zeros():
    f = LaurentSeries(ZZ, -3, [0, 0, 7, 1])
    assert f.valuation() == -1
    assert LaurentSeries.zeros(ZZ, 0, 4).valuation() is None


# kernel crosschecks ---------------------------------------------------------

def test_convolve_matches_naive_across_cutoff():
    rng = random.Random(11)
    for n, lo, hi in [(8, -9, 9), (40, -999, 999), (90, -10 ** 9, 10 ** 9), (130, 0, 3)]:
        a = [rng.randrange(lo, hi + 1) for _ in range(n)]
        b = [rng.randrange(lo, hi + 1) for _ in range(n + 7)]
        for out_len in (1, n // 2, n + 5):
            assert _kernel.convolve(a, b, out_len) == naive_convolve(a, b, out_len)


def test_convolve_mod_path():
    rng = random.Random(13)
    m = 13
    a = [rng.randrange(m) for _ in range(120)]
    b = [rng.randrange(m) for _ in range(120)]
    want = [c % m for c in naive_convolve(a, b, 100)]
    assert _kernel.convolve(a, b, 100, modulus=m) == want


def test_packed_series_roundtrip():
    rng = random.Random(17)
    cs = [rng.randrange(-50, 51) for _ in range(40)]
    ps = _kernel.PackedSeries(40, 16, _kernel.pack(cs, 2))
    ps.mul_one_minus(3)
    ps.div_one_minus(3)
    assert ps.to_coeffs() == cs


# algebraic laws -------------------------------------------------------------

rings = st.sampled_from([ZZ, Zmod(2), Zmod(3), Zmod(13)])


@st.composite
def series(draw, ring=None, min_len=1, max_len=12):
    r = draw(rings) if ring is None else ring
    low = draw(st.integers(-5, 5))
    n = draw(st.integers(min_len, max_len))
    cs = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return LaurentSeries(r, low, cs)


@st.composite
def series_triple(draw):
    r = draw(rings)
    low = draw(st.integers(-4, 4))
    n = draw(st.integers(2, 10))
    mk = lambda: LaurentSeries(
        r, low, draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
    return mk(), mk(), mk()


@given(series_triple())
def test_ring_laws(fgh):
    f, g, h = fgh
    assert (f + g) == (g + f)
    assert ((f + g) + h) == (f + (g + h))
    assert (f * g) == (g * f)
    assert ((f * g) * h) == (f * (g * h))
    assert (f * (g + h)) == (f * g + f * h)


@given(series_triple(), st.sampled_from([2, 3, 5, 13]), st.integers(-6, 6),
       st.integers(1, 5))
def test_reduce_mod_commutes(fgh, m, s, ell):
    f, g, h = fgh
    if f.ring.modulus is not None:
        return
    assert (f + g).reduce_mod(m) == (f.reduce_mod(m) + g.reduce_mod(m))
    assert (f * g).reduce_mod(m) == (f.reduce_mod(m) * g.reduce_mod(m))
    assert f.shift(s).reduce_mod(m) == f.reduce_mod(m).shift(s)
    for a, b in zip(f.dissect(ell), f.reduce_mod(m).dissect(ell)):
        assert a.reduce_mod(m) == b


@settings(max_examples=60)
@given(series(min_len=11, max_len=18), st.integers(1, 4))
def test_dissect_reassembles(f, ell):
    parts = f.dissect(ell)
    total = None
    for j, fj in enumerate(parts):
        piece = subst_pow(fj, ell).shift(j)
        total = piece if total is None else total + piece
    assert total == f


@given(series(min_len=11, max_len=18), st.integers(1, 4))
def test_dissect_component_windows_sound(f, ell):
    for j, fj in enumerate(f.dissect(ell)):
        for t in range(fj.low, fj.prec):
            e = ell * t + j
            want = f.coeff(e) if f.low <= e < f.prec else 0
            assert fj.coeff(t) == want
