import gc
import math
import random
from functools import reduce
from operator import add

import pytest

from qcong import _kernel, products
from qcong.products import (
    cap_P,
    euler_E,
    jacobi_theta,
    pochhammer_finite,
)
from qcong.series import LaurentSeries, Zmod, ZZ
from qcong.verify import (
    _RULES13,
    _folded,
    _monomial_sums,
    _p_basis,
    load_table,
)


# oracles -------------------------------------------------------------------

def pentagonal_series(prec, step=1):
    cs = [0] * prec
    k = 0
    while step * (k * (3 * k - 1) // 2) < prec:
        sign = -1 if k % 2 else 1
        for e in {step * (k * (3 * k - 1) // 2), step * (k * (3 * k + 1) // 2)}:
            if e < prec:
                cs[e] += sign
        k += 1
    return LaurentSeries(ZZ, 0, cs)


def triple_product_sum(a, m, low, prec):
    """sum over all integers n of (-1)^n q^{m n(n-1)/2 + a n}, windowed."""
    big = prec + abs(low) + abs(a) + m
    n_max = 2 * math.isqrt(big // m + 1) + abs(a) // m + 5
    terms = {}
    for n in range(-n_max, n_max + 1):
        e = m * n * (n - 1) // 2 + a * n
        if low <= e < prec:
            terms[e] = terms.get(e, 0) + (-1 if n % 2 else 1)
    out = [0] * (prec - low)
    for e, c in terms.items():
        out[e - low] = c
    return LaurentSeries(ZZ, low, out)


def product_expansion(r, m, prec):
    """prod_{j>=0} (1 - q^{r+jm}) (1 - q^{m-r+jm}) on [0, prec), multiplied
    out one factor at a time on a plain list."""
    cs = [1] + [0] * (prec - 1)
    for e in [*range(r, prec, m), *range(m - r, prec, m)]:
        for i in range(prec - 1, e - 1, -1):
            cs[i] -= cs[i - e]
    return tuple(cs)


def partition_counts(prec, parts=None):
    dp = [0] * prec
    dp[0] = 1
    for part in parts if parts is not None else range(1, prec):
        for w in range(part, prec):
            dp[w] += dp[w - part]
    return dp


def q_basis(ell, prec, ring):
    """_p_basis built in q itself, on [0, prec): {a: P(a)} for
    0 < a < ell/2, "E": E(ell^2) and "e": E(ell)."""
    basis = {a: cap_P(a, ell, prec, ring) for a in range(1, (ell + 1) // 2)}
    basis["E"] = euler_E(ell * ell, prec, ring)
    basis["e"] = euler_E(ell, prec, ring)
    return basis


def per_term_sums(basis, *term_lists):
    """Each term built on its own (a product per extra factor, then scale
    and shift) and the terms added one by one, all in q; the reference the
    Horner evaluator must match in window and coefficients."""
    ref = next(iter(basis.values()))
    for terms in term_lists:
        built = []
        for coeff, qpow, exps in terms:
            out = None
            for key, e in exps.items():
                if e:
                    f = basis[key] ** e if e > 0 else basis[key].invert() ** -e
                    out = f if out is None else out * f
            if out is None:
                out = LaurentSeries.one(ref.ring, len(ref.coeffs))
            built.append(out.scale(coeff).shift(qpow))
        yield reduce(add, built)


# infinite products ----------------------------------------------------------

def test_euler_head():
    f = euler_E(1, 6)
    assert f.coeffs == (1, -1, -1, 0, 0, 1)


def test_poch_requires_positive_offsets():
    with pytest.raises(ValueError):
        euler_E(0, 10)
    with pytest.raises(ValueError):
        euler_E(-3, 10)
    with pytest.raises(ValueError):
        euler_E(1, 0)


def test_euler_E_is_dilated_euler():
    assert euler_E(3, 20) == pentagonal_series(20, step=3)


def test_partition_counts_oracle_with_no_part_left():
    assert partition_counts(6) == [1, 1, 2, 3, 5, 7]
    assert partition_counts(6, range(6, 6)) == [1, 0, 0, 0, 0, 0]


def test_inverse_euler_counts_partitions():
    inv = euler_E(1, 30).invert()
    assert list(inv.coeffs) == partition_counts(30)
    assert inv.coeff(5) == 7


# finite products ------------------------------------------------------------

def test_poch_finite_small():
    f = pochhammer_finite(1, 3, 10)
    assert f.low == 0
    assert f.coeffs == (1, -1, -1, 0, 1, 1, -1, 0, 0, 0)


def test_poch_finite_empty_is_one():
    f = pochhammer_finite(5, 0, 4)
    assert f.coeffs == (1, 0, 0, 0)


def test_poch_finite_negative_offsets():
    f = pochhammer_finite(-2, 2, 3)  # (1-q^-2)(1-q^-1)
    assert f.low == -3
    assert f.coeffs == (1, -1, -1, 1, 0, 0)


def test_poch_finite_zero_factor_gives_zero_series():
    f = pochhammer_finite(-1, 2, 5)  # contains (1 - q^0)
    assert not any(f.coeffs)
    assert f.low == -1


def test_poch_finite_vs_infinite_ratio():
    # (q;q)_{a-1} (q^a;q)_n = E(1) / (q^{a+n};q)_inf, and the inverse
    # product counts the partitions into parts >= a + n
    # (1, 39) and (2, 38) leave no part below 40: the tail is 1
    for a, n in ((1, 0), (1, 4), (2, 4), (3, 17), (1, 38), (1, 39), (2, 38)):
        head = pochhammer_finite(1, a - 1, 40)
        tail = LaurentSeries(ZZ, 0, partition_counts(40, range(a + n, 40)))
        assert head * pochhammer_finite(a, n, 40) == euler_E(1, 40) * tail


# theta blocks ---------------------------------------------------------------

def test_theta_against_triple_product_sum():
    for a, m in [(1, 3), (2, 5), (3, 5), (1, 25), (7, 25), (13, 169), (-2, 5),
                 (7, 5), (11, 9), (-17, 13)]:
        th = jacobi_theta(a, m, 120)
        lhs = th * euler_E(m, 120)
        rhs = triple_product_sum(a, m, lhs.low, lhs.prec)
        assert lhs == rhs, (a, m)


@pytest.mark.parametrize("m", [3, 4, 5, 9, 13, 25])
def test_theta_matches_product_expansion(m):
    # m = 4, r = 2: the triple-product terms n and -n fall on one exponent
    for r in range(1, m):
        for prec in sorted({1, r, m - 1, m, m + 1, 200}):
            th = jacobi_theta(r, m, prec)
            assert (th.low, th.prec) == (0, prec)
            assert th.coeffs == product_expansion(r, m, prec), (r, m, prec)


@pytest.mark.parametrize("r, m, prec", [(6, 169, 5000), (2, 25, 2000)])
def test_theta_matches_product_expansion_long(r, m, prec):
    assert jacobi_theta(r, m, prec).coeffs == product_expansion(r, m, prec)


def test_theta_one_three_restores_full_euler():
    th = jacobi_theta(1, 3, 60)
    assert th * pentagonal_series(60, step=3) == pentagonal_series(60)


def test_theta_normalization_examples():
    neg = jacobi_theta(-2, 5, 40)
    pos = jacobi_theta(2, 5, 40)
    assert neg == LaurentSeries.monomial(ZZ, -1, -2, 40) * pos
    assert jacobi_theta(7, 5, 40) == neg


def test_theta_functional_equation_battery():
    rng = random.Random(23)
    done = 0
    while done < 50:
        m = rng.choice([3, 5, 7, 9, 13, 25, 49])
        a = rng.randrange(-3 * m, 3 * m)
        if a % m == 0:
            continue
        lhs = jacobi_theta(a + m, m, 60)
        rhs = jacobi_theta(a, m, 60).scale(-1).shift(-a)
        assert lhs == rhs, (a, m)
        done += 1


def test_theta_vanishing_raises():
    with pytest.raises(ValueError):
        jacobi_theta(0, 5, 10)
    with pytest.raises(ValueError):
        jacobi_theta(10, 5, 10)
    with pytest.raises(ValueError):
        cap_P(5, 5, 10)


def test_cap_P_symmetry():
    assert cap_P(2, 5, 50) == cap_P(3, 5, 50)
    assert cap_P(6, 13, 50) == cap_P(7, 13, 50)


# sums of P-monomials --------------------------------------------------------

def test_monomial_sums_constant_term_window():
    basis = _p_basis(5, 30, ZZ)
    [const, single] = _monomial_sums(basis, 5, 30, [(3, 2, {})],
                                     [(3, 2, {1: 1})])
    assert (const.low, const.prec) == (2, 32)
    assert const == LaurentSeries.monomial(ZZ, 3, 2, 32)
    assert (single.low, single.prec) == (2, 32)
    assert single == cap_P(1, 5, 30).scale(3).shift(2)


def test_monomial_sums_negative_exponent_is_inverse():
    [inv] = _monomial_sums({"E": euler_E(1, 30)}, 1, 30, [(1, 0, {"E": -1})])
    assert list(inv.coeffs) == partition_counts(30)
    [cube] = _monomial_sums(_p_basis(7, 40, ZZ), 7, 40, [(1, 0, {2: -3})])
    assert cube == cap_P(2, 7, 40).invert() ** 3


def test_monomial_sums_merged_exponents_match_product():
    rng = random.Random(5)
    basis = {**q_basis(7, 50, ZZ), "E": euler_E(5, 50)}
    keys = list(basis)

    def exps():
        return {k: rng.randrange(-2, 3)
                for k in rng.sample(keys, rng.randrange(0, 4))}

    for _ in range(20):
        ea, eb = exps(), exps()
        ca, cb = rng.randrange(1, 5), rng.randrange(-4, 5)
        qa, qb = rng.randrange(-3, 4), rng.randrange(-3, 4)
        merged = {k: ea.get(k, 0) + eb.get(k, 0) for k in {**ea, **eb}}
        ab, a, b = _monomial_sums(basis, 1, 50,
                                  [(ca * cb, qa + qb, merged)],
                                  [(ca, qa, ea)], [(cb, qb, eb)])
        assert ab == a * b, (ea, eb)


def test_monomial_sums_mod_ring_matches_integer_reduction():
    terms = [(2, 1, {2: 2, 1: -3}), (4, 0, {}), (1, 5, {1: 1, 2: -1})]
    [over_z] = _monomial_sums(_p_basis(5, 80, ZZ), 5, 80, terms)
    [over_5] = _monomial_sums(_p_basis(5, 80, Zmod(5)), 5, 80, terms)
    assert over_z.reduce_mod(5) == over_5


def test_monomial_sums_fold_reflects_P():
    assert _folded(13, (7, 12, 1, 6)) == {6: 2, 1: 2}
    [s] = _monomial_sums(_p_basis(13, 60, ZZ), 13, 60,
                         [(1, 0, _folded(13, (7, 12, 3)))])
    assert s == cap_P(7, 13, 60) * cap_P(12, 13, 60) * cap_P(3, 13, 60)


def test_monomial_sums_several_lists_match_separate_calls():
    basis = _p_basis(7, 60, Zmod(7))
    lists = ([(4, 1, {2: 2, 1: -1}), (6, 1, {3: 2, 2: -1})],
             [(5, 8, {1: 2, 3: -1}), (1, 0, {})],
             [(3, 2, {2: -2}), (2, 0, {3: -2, 1: 1})])
    together = list(_monomial_sums(basis, 7, 60, *lists))
    apart = [next(_monomial_sums(basis, 7, 60, terms)) for terms in lists]
    assert together == apart
    assert [(s.low, s.prec) for s in together] == \
        [(s.low, s.prec) for s in apart]


@pytest.mark.parametrize("modulus", [None, 5, 7, 13])
def test_monomial_sums_match_per_term_path(modulus):
    ring = ZZ if modulus is None else Zmod(modulus)
    prec = 48
    basis = {**q_basis(11, prec, ring), "E": euler_E(2, prec, ring),
             "X": jacobi_theta(1, 4, prec, ring)}
    keys = list(basis)
    rng = random.Random(1000 + (modulus or 0))

    def coeff():
        if modulus is None and rng.random() < 0.2:
            return rng.randrange(-2 ** 70, 2 ** 70)
        return rng.randrange(-30, 31)

    lists = []
    for _ in range(24):
        spread = rng.choice((3, 20, 2 * prec))
        terms = []
        for _ in range(rng.randrange(1, 16)):
            if terms and rng.random() < 0.25:
                exps = dict(rng.choice(terms)[2])  # a repeated exponent vector
            else:
                exps = {k: rng.randrange(-2, 4)
                        for k in rng.sample(keys, rng.randrange(0, 7))}
            terms.append((coeff(), rng.randrange(-spread, spread + 1), exps))
        lists.append(terms)
    for got, want in zip(_monomial_sums(basis, 1, prec, *lists),
                         per_term_sums(basis, *lists), strict=True):
        assert (got.low, got.prec) == (want.low, want.prec)
        assert got.coeffs == want.coeffs


def test_monomial_sums_cut_where_a_class_window_ends():
    # F starts at x^2, so 1/F = x^-2 (1 - x) ends at x^8, that is q^16 at
    # step 2, below min qpow + prec = q^20
    F = LaurentSeries(ZZ, 2, [1] * 10)
    [got] = _monomial_sums({"F": F}, 2, 20, [(1, 0, {"F": -1}), (1, 1, {})])
    want = {-4: 1, -2: -1, 1: 1}
    assert got == LaurentSeries.from_terms(ZZ, want, -4, 16)
    assert (got.low, got.prec) == (-4, 16)


def test_monomial_sums_reject_an_empty_term_list():
    sums = _monomial_sums(_p_basis(5, 20, ZZ), 5, 20, [(1, 0, {1: 1})], [])
    assert next(sums) == cap_P(1, 5, 20)
    with pytest.raises(ValueError, match="at least one term"):
        next(sums)


@pytest.mark.parametrize("name", ["A13", "B13"])
def test_monomial_sums_share_products_on_the_13_tables(monkeypatch, name):
    # the per-term path makes 861 (A13) and 828 (B13) products here.  The
    # rows start at q^-8, A13 has no residue class 0 and B13 none 10, and
    # B13's class 0 starts one x-power above its other classes
    rows = load_table(name)
    basis = _p_basis(13, 338, Zmod(13))
    calls = []
    mul = LaurentSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    [got] = _monomial_sums(basis, 13, 338, rows)
    assert len(calls) <= 400
    monkeypatch.undo()
    [want] = per_term_sums(q_basis(13, 338, Zmod(13)), rows)
    assert (got.low, got.prec) == (want.low, want.prec) == (-8, 330)
    assert got.coeffs == want.coeffs


def _rule_lists():
    return [[(1, q1, _folded(13, m1)), (-1, q2, _folded(13, m2)),
             (1, q3, _folded(13, m3))]
            for q1, m1, q2, m2, q3, m3 in _RULES13]


def _random_lists(ell, ring, seed):
    """Term lists in which some residue classes mod ell are absent and the
    present ones start at different x-lows, with qpow down to -2 ell; the
    factors are drawn from every key of _p_basis."""
    rng = random.Random(seed)
    keys = [*range(1, (ell + 1) // 2), "E", "e"]

    def coeff():
        if ring.modulus is None and rng.random() < 0.3:
            return rng.randrange(2 ** 70, 2 ** 72) * rng.choice((1, -1))
        return rng.randrange(-20, 21)

    lists = []
    for _ in range(6):
        residues = rng.sample(range(ell), rng.randrange(1, ell))
        terms = []
        for _ in range(rng.randrange(1, 10)):
            qpow = ell * rng.randrange(-2, 4) + rng.choice(residues)
            exps = {k: rng.randrange(-2, 4)
                    for k in rng.sample(keys, rng.randrange(0, len(keys) + 1))}
            terms.append((coeff(), qpow, exps))
        lists.append(terms)
    return lists


@pytest.mark.parametrize("ell, prec, modulus", [
    (13, 2000, None),   # prec not a multiple of ell
    (13, 338, 13),
    (13, 200, None),
    (13, 5, None),      # prec below ell: one coefficient in x
    (13, 1, 13),
    (5, 61, None),
    (7, 50, 7),
    (9, 100, None),     # ell need not be prime
    (9, 82, 9),
])
def test_x_space_sums_match_the_q_space_per_term_path(ell, prec, modulus):
    ring = ZZ if modulus is None else Zmod(modulus)
    if prec > 1000:
        # the rules keep the q-space reference's products cheap at this
        # length; the first three again with coefficients above 2^70
        big = 3 ** 45
        lists = _rule_lists() + [[(c * big, qpow, exps)
                                  for c, qpow, exps in rule]
                                 for rule in _rule_lists()[:3]]
    else:
        lists = _random_lists(ell, ring, 100 * ell + prec)
    got = _monomial_sums(_p_basis(ell, prec, ring), ell, prec, *lists)
    for terms, g, w in zip(lists, got,
                           per_term_sums(q_basis(ell, prec, ring), *lists),
                           strict=True):
        low = min(qpow for _, qpow, _ in terms)
        assert (g.low, g.prec) == (w.low, w.prec) == (low, low + prec)
        assert g.coeffs == w.coeffs


def test_rule_sums_convolve_on_x_length_only(monkeypatch):
    # 1/13 of the q-length: the base-q^169 rules are series in q^13, and
    # every block, power and group product is built in x = q^13
    lengths = []
    real = _kernel.convolve

    def recording(a, b, out_len, modulus=None):
        lengths.append(out_len)
        return real(a, b, out_len, modulus)

    monkeypatch.setattr(_kernel, "convolve", recording)
    monkeypatch.setattr(products, "convolve", recording)
    products._jacobi_unit_coeffs.cache_clear()
    sums = list(_monomial_sums(_p_basis(13, 2000, ZZ), 13, 2000,
                               *_rule_lists()))
    assert lengths and max(lengths) <= -(-2000 // 13) == 154
    for s in sums:
        assert (s.low, s.prec) == (0, 2000)
        assert not any(s.coeffs)


def test_monomial_sums_leave_no_reference_cycle():
    # a cycle through the power cache would keep every cached power alive
    # until the cyclic collector runs
    basis = _p_basis(7, 40, Zmod(7))
    gc.collect()
    gc.disable()
    try:
        sums = _monomial_sums(basis, 7, 40,
                              [(1, 0, {2: 2, 1: -1}), (3, 1, {})],
                              [(2, 0, {3: -2, 2: 3})])
        for _ in sums:
            pass
        del sums
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mod5_product_reduction_identity():
    # P(2)^2/P(1)^3 + 2 q^5 P(1)^2/P(2)^3 = 1/E(25)^2 holds mod 5
    prec = 120
    ring = Zmod(5)
    [lhs] = _monomial_sums(_p_basis(5, prec, ring), 5, prec,
                           [(1, 0, {2: 2, 1: -3}), (2, 5, {1: 2, 2: -3})])
    assert lhs == (euler_E(25, prec, ring) ** 2).invert()
