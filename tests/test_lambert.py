import math

import pytest

from qcong.lambert import double_pole_sum, s_series, t_series
from qcong.products import euler_E
from qcong.series import LaurentSeries, ZZ
from qcong.verify import pole_split_check

U_HEADS = [0, 1, 5, 15, 44, 105, 252, 539, 1135, 2259, 4390, 8213, 15099,
           26975, 47397, 81600, 138414, 230938, 380475, 618317]
V_HEADS = [0, 0, 1, 4, 15, 39, 105, 237, 530, 1100, 2223, 4285, 8113, 14838,
           26655, 46778, 80775, 136910, 228923, 377010]


# oracle: every term is a monomial times a Newton inversion, no geometric
# fills and no pole normalization shared with the implementation

def one_minus(d, prec):
    lo = min(0, d)
    cs = [0] * (prec - lo)
    cs[-lo] += 1
    cs[d - lo] -= 1
    return LaurentSeries(ZZ, lo, cs)


def pole_term(sign, e0, d, prec, square=False):
    if e0 + (abs(d) if d < 0 else 0) * (2 if square else 1) >= prec:
        return None
    inv = one_minus(d, prec - min(e0, 0) + 2 * abs(d) + 2).invert()
    if square:
        inv = inv * inv
    return LaurentSeries.monomial(ZZ, sign, e0, max(e0 + 1, prec)) * inv


def t_oracle(a, b, c, prec, low=0):
    n_max = 2 + (abs(b) + abs(a) + math.isqrt(2 * c * max(prec - low, 0)) + c) // c + 10
    total = LaurentSeries.zeros(ZZ, min(low, -1), prec)
    for n in range(-n_max, n_max + 1):
        term = pole_term(-1 if n % 2 else 1, c * n * (n + 1) // 2 + b * n,
                         c * n + a, prec)
        if term is not None:
            total = total + term.truncate(prec)
    return total


def s_oracle(ell, b, prec, low=0):
    n_max = 2 * (abs(b) + ell) + 3 + math.isqrt(2 * max(prec - low, 0)) + 10
    total = LaurentSeries.zeros(ZZ, min(low, -1), prec)
    for n in range(-n_max, n_max + 1):
        w = n * (n + 1)
        if w == 0:
            continue
        term = pole_term((-1 if n % 2 else 1) * w,
                         n * (n + 1) // 2 + b * n, ell * n, prec)
        if term is not None:
            total = total + term.truncate(prec)
    return total


def double_pole_oracle(weight, prec):
    n_max = math.isqrt(2 * prec) + 10
    total = LaurentSeries.zeros(ZZ, -1, prec)
    for n in range(-n_max, n_max + 1):
        w = n * (n + 1) if weight == "u" else n * (n - 1)
        if n == 0 or w == 0:
            continue
        term = pole_term((-1 if n % 2 else 1) * w, n * (n + 1) // 2, n, prec,
                         square=True)
        if term is not None:
            total = total + term.truncate(prec)
    return total


T_CASES = [(1, 0, 2), (3, 3, 9), (6, 6, 9), (5, 5, 25), (13, 13, 169),
           (2, -3, 7), (7, -1, 3), (-5, 2, 3), (10, 5, 25)]


def test_t_series_against_inversion_oracle():
    for a, b, c in T_CASES:
        got = t_series(a, b, c, 40)
        want = t_oracle(a, b, c, 40)
        assert got == want, (a, b, c)


def test_t_series_with_negative_low():
    for a, b, c in [(1, 0, 2), (-5, 2, 3), (13, 13, 169)]:
        got = t_series(a, b, c, 30).with_low(-12)
        want = t_oracle(a, b, c, 30, low=-12)
        assert got.low == -12
        assert got == want


def test_t_series_widen_is_inert():
    # a wider window takes more term indices; below the narrower prec they
    # must add nothing, and the floor stays the least term exponent
    for a, b, c in T_CASES:
        base = t_series(a, b, c, 35)
        wide = t_series(a, b, c, 35 + 4 * c)
        assert wide.truncate(35) == base
        assert wide.low == base.low


def test_t_series_pole_raises():
    for a, b, c in [(4, 1, 2), (0, 0, 3), (-9, 2, 3), (169, 13, 169)]:
        with pytest.raises(ValueError):
            t_series(a, b, c, 10)


def test_t_series_head_by_hand():
    # n=0 gives 1/(1-q); n=-1 folds to +q/(1-q); n=1 gives -q^2/(1-q^3)
    f = t_series(1, 0, 2, 5)
    assert f.coeff(0) == 1 and f.coeff(1) == 2 and f.coeff(2) == 1


def test_t_inversion_symmetry():
    # T(a,b,c) = q^{c-a-b} T(c-a, c-b, c)
    for a, b, c in [(3, 3, 9), (1, 0, 2), (5, 5, 25), (2, -3, 7)]:
        lhs = t_series(a, b, c, 40)
        rhs = t_series(c - a, c - b, c, 40).shift(c - a - b)
        assert lhs == rhs, (a, b, c)


def test_s_series_against_inversion_oracle():
    for ell, b in [(3, 0), (3, 1), (5, 0), (5, 2), (7, 3), (13, 6), (5, -2)]:
        assert s_series(ell, b, 35) == s_oracle(ell, b, 35), (ell, b)


def test_s_series_low_extension():
    f = s_series(3, 0, 50).with_low(-5)
    assert f.low == -5
    for e in range(-5, 0):
        assert f.coeff(e) == 0


def test_s_series_widen_is_inert():
    for ell, b in [(3, 0), (5, 2), (13, 6)]:
        assert s_series(ell, b, 200).truncate(40) == s_series(ell, b, 40)


def test_double_pole_against_inversion_oracle():
    for weight in ("u", "v"):
        assert double_pole_sum(weight, 40) == double_pole_oracle(weight, 40)


def test_double_pole_rejects_unknown_weight():
    with pytest.raises(ValueError):
        double_pole_sum("w", 10)


def test_counting_series_from_double_poles():
    prec = 20
    inv_e3 = (euler_E(1, prec) ** 3).invert()
    u = double_pole_sum("u", prec).divide_exact(-2).truncate(prec) * inv_e3
    v = double_pole_sum("v", prec).divide_exact(-2).truncate(prec) * inv_e3
    assert [u.coeff(n) for n in range(prec)] == U_HEADS[:prec]
    assert [v.coeff(n) for n in range(prec)] == V_HEADS[:prec]


def test_double_pole_splits_into_single_poles_mod_ell():
    # 1/(1-q^n)^2 = sum_k (k+1) q^{nk}/(1-q^{ell n}) mod ell turns each
    # double pole into the weighted single-pole sums
    prec = 80
    for ell in (3, 5, 7):
        du = double_pole_sum("u", prec).reduce_mod(ell)
        dv = double_pole_sum("v", prec).reduce_mod(ell)
        su = None
        sv = None
        for b in range(ell - 1):
            tu = s_series(ell, b, prec).reduce_mod(ell).scale(b + 1)
            tv = s_series(ell, b + 1, prec).reduce_mod(ell).scale(b + 1)
            su = tu if su is None else su + tu
            sv = tv if sv is None else sv + tv
        assert du == su, ell
        assert dv == sv, ell


def test_pole_split_check_passes():
    for ell in (3, 5, 7, 13):
        rep = pole_split_check(ell, prec=60)
        assert rep.status == "pass", (ell, rep.notes)
