import gc
import math
import random
import sys
from functools import partial, reduce
from operator import add

import pytest

from qcong import _kernel, products, verify
from qcong.products import (
    euler_cube,
    euler_E,
    gaussian_binomials,
    jacobi_theta,
    pochhammer_finite,
    triple_product,
)
from qcong.series import LaurentSeries, Zmod, ZZ
from qcong.verify import (
    _RULES13,
    _folded,
    _monomial_sums,
    _p_basis,
    load_table,
)


# a prime whose lanes hold n (BIG - 1)^2 < 2^64 for every x-length n up to
# 4096: the Z/m stand-in for ZZ in the evaluator's tests, checked against
# ZZ references reduced mod BIG
BIG = 2 ** 26 - 5


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


def cap_P(a, ell, prec, ring=ZZ):
    """P(a) = [q^{ell a}; q^{ell^2}] built in q itself."""
    return jacobi_theta(ell * a, ell * ell, prec, ring)


def inverse_euler(m, prec, ring=ZZ):
    """1/E(m) = sum p(j) q^{mj} on [0, prec), the closed form."""
    cs = [0] * prec
    cs[::m] = partition_counts(-(-prec // m))
    return LaurentSeries(ring, 0, cs)


def theta_inverse(a, m, prec, ring):
    """1/[q^a; q^m] = E(m) / triple_product(a, m), the closed form."""
    return euler_E(m, prec, ring).divide(triple_product(a, m, prec, ring))


def q_basis(ell, prec, ring):
    """_p_basis built in q itself, on [0, prec): {a: P(a)} for
    0 < a < ell/2, "E": E(ell^2) and "e": E(ell), each with the builder
    of its inverse under (key, -1), by the closed forms."""
    basis = {a: cap_P(a, ell, prec, ring) for a in range(1, (ell + 1) // 2)}
    basis |= {(a, -1): partial(theta_inverse, ell * a, ell * ell, prec, ring)
              for a in basis}
    return basis | {"E": euler_E(ell * ell, prec, ring),
                    ("E", -1): partial(inverse_euler, ell * ell, prec, ring),
                    "e": euler_E(ell, prec, ring),
                    ("e", -1): partial(inverse_euler, ell, prec, ring)}


def per_term_sums(basis, *term_lists):
    """Each term built on its own (a product per extra factor, then scale
    and shift) and the terms added one by one, all in q; the reference the
    Horner evaluator must match in window and coefficients.  A negative
    exponent takes the inverse from the builder basis[key, -1]."""
    ref = next(iter(basis.values()))
    for terms in term_lists:
        built = []
        for coeff, qpow, exps in terms:
            out = None
            for key, e in exps.items():
                if e:
                    f = basis[key] ** e if e > 0 else basis[key, -1]() ** -e
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
    inv = LaurentSeries.one(ZZ, 30).divide(euler_E(1, 30))
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
        jacobi_theta(25, 25, 10)


@pytest.mark.parametrize("m", [9, 25])
def test_triple_product_is_theta_times_euler(m):
    for a in (1, m - 1, m + 2, -3, 2 * m + 1):
        got = triple_product(a, m, 300)
        want = jacobi_theta(a, m, 300) * euler_E(m, 300)
        assert (got.low, got.prec) == (want.low, want.prec), a
        assert got.coeffs == want.coeffs, a
        assert sum(1 for c in got.coeffs if c) <= 2 * math.isqrt(600 // m) + 4
    for a in (0, m, -2 * m):
        with pytest.raises(ValueError):
            triple_product(a, m, 300)


@pytest.mark.parametrize("m", [1, 2, 9])
def test_euler_cube_is_the_cube_of_euler(m):
    for ring in (ZZ, Zmod(7)):
        assert euler_cube(m, 200, ring).coeffs == (
            euler_E(m, 200, ring) ** 3).coeffs


@pytest.mark.parametrize("N", range(13))
def test_gaussian_binomials_clear_the_pochhammer_quotient(N):
    # [N; j] (q;q)_j (q;q)_{N-j} = (q;q)_N, exactly, as polynomials
    top = N * N + 1

    def qq(k):
        return pochhammer_finite(1, k, top)

    rows = gaussian_binomials(N)
    assert len(rows) == N + 1
    for j, row in enumerate(rows):
        gb = LaurentSeries(ZZ, 0, row + [0] * (top - len(row)))
        assert gb * qq(j) * qq(N - j) == qq(N), (N, j)


@pytest.mark.parametrize("N", range(13))
def test_gaussian_binomials_symmetry_degree_and_row_sums(N):
    rows = gaussian_binomials(N)
    for j, row in enumerate(rows):
        assert row == rows[N - j], (N, j)
        assert len(row) - 1 == j * (N - j) and row[0] == row[-1] == 1
        assert sum(row) == math.comb(N, j)   # the value at q = 1


def test_gaussian_binomials_edges():
    assert gaussian_binomials(0) == [[1]]
    assert gaussian_binomials(2) == [[1], [1, 1], [1]]
    with pytest.raises(ValueError):
        gaussian_binomials(-1)


@pytest.mark.parametrize("ell", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("modular", [False, True])
def test_basis_inverses_multiply_back_to_one(ell, modular):
    # one builder per series key, each on the basis window [0, n) in
    # x = q^ell, giving 1 there times its series; 1/E(ell^2) and 1/E(ell)
    # are also the closed forms sum p(j) x^{ell j} and sum p(j) x^j
    ring = Zmod(ell) if modular else ZZ
    for prec in (1, ell, 200, 651):
        basis = _p_basis(ell, prec, ring)
        n = -(-prec // ell)
        keys = [k for k in basis if not isinstance(k, tuple)]
        assert {k for k in basis if isinstance(k, tuple)} == {
            (k, -1) for k in keys}
        for k in keys:
            inv = basis[k, -1]()
            assert (inv.low, inv.prec) == (0, n)
            assert inv * basis[k] == LaurentSeries.one(ring, n), (ell, prec, k)
        assert basis["E", -1]() == inverse_euler(ell, n, ring)
        assert basis["e", -1]() == inverse_euler(1, n, ring)


def q_unit(ell, unit, prec):
    """The monomial unit = {key: e} over _j_basis(ell), built in q on
    [0, prec) from dense series: J(a) = [q^{ell a}; q^{ell^2}] E(ell^2)."""
    series = {a: triple_product(ell * a, ell * ell, prec)
              for a in range(1, (ell + 1) // 2)}
    series |= {"E": euler_E(ell * ell, prec), "e": euler_E(ell, prec)}
    return reduce(lambda f, k: f * series[k], unit.elements(),
                  LaurentSeries.one(ZZ, prec))


@pytest.mark.parametrize("ident", [*verify._PRODUCT_RULES[2:],
                                   *verify._ETA_D5],
                         ids=lambda ident: ident[0])
def test_cleared_sides_are_the_series_sides_times_the_unit(ident):
    # each term-list side of r1-r21 and of the eta:d5 family, summed on
    # the sparse basis after clearing, against its per-term sum in q (each
    # inverse a closed form) times the unit M, in window and coefficients
    name, ell, _, lhs, rhs = ident
    prec = 300
    sides, unit = verify._clear((lhs, rhs))
    assert min(unit.values()) > 0
    M = q_unit(ell, unit, prec)
    assert M.coeffs[0] == 1
    for side, cleared in zip((lhs, rhs), sides):
        if not isinstance(side, tuple):
            continue
        [want] = per_term_sums(q_basis(ell, prec, ZZ), side)
        [got] = _monomial_sums(verify._j_basis(ell, prec), ell, prec, cleared)
        want = want * M
        assert (got.low, got.prec) == (want.low, want.prec)
        assert got.coeffs == want.coeffs


def test_cap_P_symmetry():
    assert cap_P(2, 5, 50) == cap_P(3, 5, 50)
    assert cap_P(6, 13, 50) == cap_P(7, 13, 50)


# sums of P-monomials --------------------------------------------------------

def test_monomial_sums_constant_term_window():
    ring = Zmod(BIG)
    basis = _p_basis(5, 30, ring)
    [const, single] = _monomial_sums(basis, 5, 30, [(3, 2, {})],
                                     [(3, 2, {1: 1})])
    assert (const.low, const.prec) == (2, 32)
    assert const == LaurentSeries.monomial(ring, 3, 2, 32)
    assert (single.low, single.prec) == (2, 32)
    assert single == cap_P(1, 5, 30, ring).scale(3).shift(2)


def test_monomial_sums_negative_exponent_is_inverse():
    # 1/E(7) is the closed form sum p(j) q^{7j}; 1/P(2)^3 multiplies back
    ring = Zmod(BIG)
    basis = _p_basis(7, 40, ring)
    [inv, cube] = _monomial_sums(basis, 7, 40, [(1, 0, {"e": -1})],
                                 [(1, 0, {2: -3})])
    assert (inv.low, inv.prec) == (cube.low, cube.prec) == (0, 40)
    assert inv == inverse_euler(7, 40, ring)
    assert cube * cap_P(2, 7, 40, ring) ** 3 == LaurentSeries.one(ring, 40)


def test_monomial_sums_merged_exponents_match_product():
    rng = random.Random(5)
    ring = Zmod(BIG)
    basis = {**q_basis(7, 50, ring), "E": euler_E(5, 50, ring),
             ("E", -1): partial(inverse_euler, 5, 50, ring)}
    keys = [k for k in basis if not isinstance(k, tuple)]

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


# every key of _p_basis(5), several residue classes mod 5, negative powers
# and terms with no factor
MIXED_TERMS = [(2, 1, {2: 2, 1: -3}), (4, 0, {}), (1, 5, {1: 1, 2: -1}),
               (-1, 3, {1: 1}), (-1, 8, {2: 1}), (-2, -2, {1: -1}),
               (-1, 13, {"E": 1}), (-1, 3, {1: 2, 2: -1}), (-7, -10, {}),
               (6, -9, {"e": 2, 1: 1, 2: 1})]


def test_monomial_sums_mod_ring_matches_integer_reduction(monkeypatch):
    # over Z/m the lane sum is the ZZ per-term sum reduced.  m = 2 and 13
    # need no reduction in lanes; near 2^31 a term's lane bound is about
    # 2^62, so every product needs a reduction first and class 3's sums
    # one on the way
    reducers = []
    reduced = verify._LaneSums._reduced

    def spy(self, v):
        reducers.append(sys._getframe(1).f_code.co_name)
        return reduced(self, v)
    monkeypatch.setattr(verify._LaneSums, "_reduced", spy)
    for m, prec, reduce_in in ((2, 80, set()), (13, 80, set()),
                               (2 ** 31 - 1, 20, {"times", "total"})):
        [over_z] = per_term_sums(q_basis(5, prec, ZZ), MIXED_TERMS)
        reducers.clear()
        [over_m] = _monomial_sums(_p_basis(5, prec, Zmod(m)), 5, prec,
                                  MIXED_TERMS)
        assert set(reducers) == reduce_in
        assert (over_m.low, over_m.prec) == (over_z.low, over_z.prec) == (
            -10, prec - 10)
        assert over_m.coeffs == over_z.reduce_mod(m).coeffs, m


def test_lane_sums_admit_a_modulus_up_to_the_lane_bound():
    # at n = 1 (prec 5 at step 5) a lane product of two canonical series is
    # at most n (m - 1)^2: below 2^64 for m = 2^32, which runs in lanes and
    # gives the reduced ZZ per-term sum; exactly 2^64 for m = 2^32 + 1,
    # which no backend takes
    [over_z] = per_term_sums(q_basis(5, 5, ZZ), MIXED_TERMS)
    [over_m] = _monomial_sums(_p_basis(5, 5, Zmod(2 ** 32)), 5, 5,
                              MIXED_TERMS)
    assert (over_m.low, over_m.prec) == (over_z.low, over_z.prec) == (-10, -5)
    assert over_m.coeffs == over_z.reduce_mod(2 ** 32).coeffs
    # and no backend takes a series basis over ZZ
    for ring in (Zmod(2 ** 32 + 1), ZZ):
        with pytest.raises(ValueError, match="lane sums"):
            next(_monomial_sums(_p_basis(5, 5, ring), 5, 5, MIXED_TERMS))


def test_lane_sums_refuse_a_power_off_the_basis_window():
    # lanes stand for x^low ... x^(low + n - 1) of series on [0, n), so a
    # power on another window is refused, never read on the wrong one
    ring = Zmod(13)
    F = LaurentSeries(ring, 2, [1] * 10)
    basis = {"F": F, ("F", -1): partial(LaurentSeries.one(ring, 10).divide, F)}
    with pytest.raises(ValueError, match="lane sums need"):
        next(_monomial_sums(basis, 2, 20, [(1, 0, {"F": -1}), (1, 1, {})]))


def test_monomial_sums_fold_reflects_P():
    assert _folded(13, (7, 12, 1, 6)) == {6: 2, 1: 2}
    ring = Zmod(BIG)
    [s] = _monomial_sums(_p_basis(13, 60, ring), 13, 60,
                         [(1, 0, _folded(13, (7, 12, 3)))])
    assert s == (cap_P(7, 13, 60, ring) * cap_P(12, 13, 60, ring)
                 * cap_P(3, 13, 60, ring))


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
    # modulus None: the ZZ per-term sums, coefficients past 2^70 included,
    # reduced mod BIG, against the lane sums mod BIG
    ring = ZZ if modulus is None else Zmod(modulus)
    prec = 48

    def basis_over(ring):
        return {**q_basis(11, prec, ring), "E": euler_E(2, prec, ring),
                ("E", -1): partial(inverse_euler, 2, prec, ring),
                "X": jacobi_theta(1, 4, prec, ring),
                ("X", -1): partial(theta_inverse, 1, 4, prec, ring)}

    basis = basis_over(ring)
    keys = [k for k in basis if not isinstance(k, tuple)]
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
    lane = basis if modulus else basis_over(Zmod(BIG))
    for got, want in zip(_monomial_sums(lane, 1, prec, *lists),
                         per_term_sums(basis, *lists), strict=True):
        if modulus is None:
            want = want.reduce_mod(BIG)
        assert (got.low, got.prec) == (want.low, want.prec)
        assert got.coeffs == want.coeffs


def test_monomial_sums_reject_an_empty_term_list():
    ring = Zmod(BIG)
    sums = _monomial_sums(_p_basis(5, 20, ring), 5, 20, [(1, 0, {1: 1})], [])
    assert next(sums) == cap_P(1, 5, 20, ring)
    with pytest.raises(ValueError, match="at least one term"):
        next(sums)


def sparse_basis(rng, keys, n):
    """Random sparse series on [0, n) for keys, each with a term at x^0,
    some with coefficients far past 64 bits."""
    basis = {}
    for k in keys:
        top = rng.choice((1, 5, 2 ** 70))
        exps = sorted({0, *rng.sample(range(1, 2 * n + 5), rng.randrange(6))})
        basis[k] = [(e, rng.choice((1, -1)) * rng.randrange(1, top + 1))
                    for e in exps]
    return basis


@pytest.mark.parametrize("step, prec", [(1, 40), (3, 40), (7, 50), (13, 5)])
def test_sparse_sums_match_the_series_path(step, prec):
    # the sparse backend against the per-term sums of the same basis as
    # dense series in q = x^(1/step) on [0, prec): windows and
    # coefficients, with several classes, repeated exponent vectors and
    # terms with no factor
    rng = random.Random(step * 100 + prec)
    n = -(-prec // step)
    basis = sparse_basis(rng, ["A", "B", 1, 2], n)
    dense = {}
    for k, terms in basis.items():
        cs = [0] * prec
        for e, c in terms:
            if step * e < prec:
                cs[step * e] = c
        dense[k] = LaurentSeries(ZZ, 0, cs)
    lists = []
    for _ in range(12):
        terms = []
        for _ in range(rng.randrange(1, 9)):
            exps = (dict(rng.choice(terms)[2]) if terms and rng.random() < 0.3
                    else {k: rng.randrange(0, 4)
                          for k in rng.sample(list(basis), rng.randrange(5))})
            terms.append((rng.randrange(-30, 31), rng.randrange(-9, 30), exps))
        lists.append(terms)
    got = list(_monomial_sums(basis, step, prec, *lists))
    want = list(per_term_sums(dense, *lists))
    for g, w in zip(got, want, strict=True):
        assert (g.low, g.prec) == (w.low, w.prec)
        assert g.coeffs == w.coeffs


def test_sparse_sums_refuse_a_negative_exponent():
    basis = {"F": [(0, 1), (1, -1)]}
    sums = _monomial_sums(basis, 1, 10, [(1, 0, {"F": 2})],
                          [(1, 0, {"F": -1})])
    with pytest.raises(ValueError, match="no inverse"):
        next(sums)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 12])
def test_sparse_slot_holds_its_bound_exactly(monkeypatch, width, sign):
    # a sum whose coefficient reaches the bound sum |c| prod l1^e decodes
    # exactly at the chosen width; one unit more takes the next width,
    # never a wrapped value.  The factor is the one-term series c x^0,
    # raised to a power, and a term with no factor tops the sum up
    widths = []
    decode = _kernel.unpack_signed

    def spy(value, count, nbytes):
        widths.append(nbytes)
        return decode(value, count, nbytes)
    monkeypatch.setattr(_kernel, "unpack_signed", spy)
    for extra, want_width in ((0, width), (1, width + 1)):
        bound = (1 << (8 * width - 1)) - 1 + extra
        k = bound // 3 ** 5
        # -k (-3 sign)^5 + sign (bound - 3^5 k) = sign bound
        terms = [(-k, 0, {"F": 5}), (sign * (bound - k * 3 ** 5), 0, {})]
        widths.clear()
        [got] = _monomial_sums({"F": [(0, -3 * sign)]}, 1, 3, terms)
        assert widths == [want_width]
        assert got.coeffs == (sign * bound, 0, 0)


def count_products(monkeypatch):
    """{"mod" or "sparse": calls}, counting every product of a partial sum
    with a power that _monomial_sums makes, in lanes or as shift-adds on a
    sparse basis."""
    counts = {"mod": 0, "sparse": 0}
    for cls, kind in ((verify._LaneSums, "mod"),
                      (verify._SparseSums, "sparse")):
        real = cls.times

        def times(self, key, e, part, real=real, kind=kind):
            counts[kind] += 1
            return real(self, key, e, part)
        monkeypatch.setattr(cls, "times", times)
    return counts


@pytest.mark.parametrize("name", ["A13", "B13"])
def test_monomial_sums_share_products_on_the_13_tables(monkeypatch, name):
    # the per-term path makes 861 (A13) and 828 (B13) products here.  The
    # rows start at q^-8, A13 has no residue class 0 and B13 none 10, and
    # B13's class 0 starts one x-power above its other classes.  Counted:
    # the powers' products on series and the plan's products in lanes
    rows = load_table(name)
    basis = _p_basis(13, 338, Zmod(13))
    calls = []
    mul = LaurentSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    lanes = count_products(monkeypatch)
    [got] = _monomial_sums(basis, 13, 338, rows)
    calls += [1] * lanes["mod"]
    assert len(calls) <= 400
    monkeypatch.undo()
    [want] = per_term_sums(q_basis(13, 338, Zmod(13)), rows)
    assert (got.low, got.prec) == (want.low, want.prec) == (-8, 330)
    assert got.coeffs == want.coeffs


@pytest.mark.parametrize("run, want", [
    (partial(verify._theorem2_rhs, "U13", 400), {"mod": 379}),
    (partial(verify._theorem2_rhs, "V13", 400), {"mod": 364}),
    (partial(verify.check_product_rules, 2000), {"sparse": 145}),
    (partial(verify.check_eta_dissections, 1000), {"sparse": 164}),
    (partial(verify.check_lemma_family, False, ells=(3, 5), prec=150),
     {"mod": 31}),
], ids=["U13", "V13", "product_rules", "eta_dissections", "lemma_main"])
def test_horner_plans_make_the_pinned_products(monkeypatch, run, want):
    # the planner's greedy choices (the key with the fewest distinct
    # exponents among a node's multi-factor terms, ties to the lower repr)
    # make exactly these products; a planner change that adds one fails.
    # The cleared identities of product_rules and eta_dissections run on
    # the sparse basis only, the Z/ell sums in lanes only
    counts = count_products(monkeypatch)
    run()
    assert counts == {"mod": 0, "sparse": 0} | want


def _rule_lists():
    return list(_RULES13)


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
    # modulus None: the ZZ per-term sums reduced mod BIG, against the lane
    # sums mod BIG
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
    got = _monomial_sums(_p_basis(ell, prec, ring if modulus else Zmod(BIG)),
                         ell, prec, *lists)
    for terms, g, w in zip(lists, got,
                           per_term_sums(q_basis(ell, prec, ring), *lists),
                           strict=True):
        if modulus is None:
            w = w.reduce_mod(BIG)
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
    sums = list(_monomial_sums(_p_basis(13, 2000, Zmod(BIG)), 13, 2000,
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
    assert (lhs.low, lhs.prec) == (0, prec)
    assert lhs * euler_E(25, prec, ring) ** 2 == LaurentSeries.one(ring, prec)
