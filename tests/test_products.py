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


def q_basis(ell, prec, ring):
    """_p_basis built in q itself, on [0, prec): {a: P(a)} for
    0 < a < ell/2, "E": E(ell^2) and "e": E(ell)."""
    basis = {a: cap_P(a, ell, prec, ring) for a in range(1, (ell + 1) // 2)}
    basis["E"] = euler_E(ell * ell, prec, ring)
    basis["e"] = euler_E(ell, prec, ring)
    return basis


def newton_inverses(basis):
    """basis with the Newton inverse of each series as its (key, -1)
    builder, for evaluator tests on bases that _p_basis does not build."""
    return basis | {(k, -1): s.invert for k, s in basis.items()}


def no_newton(*args):
    raise AssertionError("newton_invert called")


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
def test_basis_inverses_are_sparse_quotients_equal_to_newton(monkeypatch,
                                                             ell, modular):
    # the builders divide by sparse series and call no Newton inversion;
    # the oracle inverts the dense series once the builders have run
    ring = Zmod(ell) if modular else ZZ
    for prec in (1, ell, 200, 651):
        basis = _p_basis(ell, prec, ring)
        keys = [k for k in basis if not isinstance(k, tuple)]
        # one builder per series key
        assert {k for k in basis if isinstance(k, tuple)} == {
            (k, -1) for k in keys}
        with monkeypatch.context() as m:
            m.setattr(_kernel, "newton_invert", no_newton)
            built = {k: basis[k, -1]() for k in keys}
        for k in keys:
            want = basis[k].invert()
            assert (built[k].low, built[k].prec) == (want.low, want.prec)
            assert built[k].coeffs == want.coeffs, (ell, prec, k)


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
    # the sparse basis after clearing, against its sum on the dense
    # _p_basis (the LaurentSeries path, which inverts by sparse division)
    # times the unit M, in window and coefficients
    name, ell, _, lhs, rhs = ident
    prec = 300
    sides, unit = verify._clear((lhs, rhs))
    assert min(unit.values()) > 0
    M = q_unit(ell, unit, prec)
    assert M.coeffs[0] == 1
    for side, cleared in zip((lhs, rhs), sides):
        if not isinstance(side, tuple):
            continue
        [want] = _monomial_sums(_p_basis(ell, prec, ZZ), ell, prec, side)
        [got] = _monomial_sums(verify._j_basis(ell, prec), ell, prec, cleared)
        want = want * M
        assert (got.low, got.prec) == (want.low, want.prec)
        assert got.coeffs == want.coeffs


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
    [inv] = _monomial_sums(newton_inverses({"E": euler_E(1, 30)}), 1, 30,
                           [(1, 0, {"E": -1})])
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
        ab, a, b = _monomial_sums(newton_inverses(basis), 1, 50,
                                  [(ca * cb, qa + qb, merged)],
                                  [(ca, qa, ea)], [(cb, qb, eb)])
        assert ab == a * b, (ea, eb)


def test_monomial_sums_mod_ring_matches_integer_reduction(monkeypatch):
    # over Z/m the sum is the ZZ sum reduced.  m = 2 and 13 run in lanes;
    # near 2^31 a term's lane bound is about 2^62, so every product needs
    # a reduction first and class 3's sums one on the way; 2^61 - 1 does
    # not fit one product of canonical series in a lane and runs on series
    terms = [(2, 1, {2: 2, 1: -3}), (4, 0, {}), (1, 5, {1: 1, 2: -1}),
             (-1, 3, {1: 1}), (-1, 8, {2: 1}), (-2, -2, {1: -1}),
             (-1, 13, {"E": 1}), (-1, 3, {1: 2, 2: -1}), (-7, -10, {}),
             (6, -9, {"e": 2, 1: 1, 2: 1})]
    readers, reducers = [], []
    for cls in (verify._LaneSums, verify._SeriesSums):
        real = cls.read

        def read(self, part, real=real):
            readers.append(type(self).__name__)
            return real(self, part)
        monkeypatch.setattr(cls, "read", read)
    reduced = verify._LaneSums._reduced

    def spy(self, v):
        reducers.append(sys._getframe(1).f_code.co_name)
        return reduced(self, v)
    monkeypatch.setattr(verify._LaneSums, "_reduced", spy)
    for m, prec, backend, reduce_in in (
            (2, 80, "_LaneSums", set()), (13, 80, "_LaneSums", set()),
            (2 ** 31 - 1, 20, "_LaneSums", {"times", "total"}),
            (2 ** 61 - 1, 80, "_SeriesSums", set())):
        [over_z] = _monomial_sums(_p_basis(5, prec, ZZ), 5, prec, terms)
        readers.clear()
        reducers.clear()
        [over_m] = _monomial_sums(_p_basis(5, prec, Zmod(m)), 5, prec, terms)
        assert set(readers) == {backend}
        assert set(reducers) == reduce_in
        assert (over_m.low, over_m.prec) == (over_z.low, over_z.prec) == (
            -10, prec - 10)
        assert over_m.coeffs == over_z.reduce_mod(m).coeffs, m


def test_lane_sums_refuse_a_power_off_the_basis_window():
    # lanes stand for x^low ... x^(low + n - 1) of series on [0, n), so a
    # power on another window is refused, never read on the wrong one; the
    # series path keeps its window, as over ZZ
    terms = [(1, 0, {"F": -1}), (1, 1, {})]

    def sums(ring):
        F = LaurentSeries(ring, 2, [1] * 10)
        return _monomial_sums(newton_inverses({"F": F}), 2, 20, terms)

    with pytest.raises(ValueError, match="lane sums need"):
        next(sums(Zmod(13)))
    [want] = sums(ZZ)
    [got] = sums(Zmod(2 ** 61 - 1))
    assert (got.low, got.prec) == (want.low, want.prec) == (-4, 16)
    assert got.coeffs == want.reduce_mod(2 ** 61 - 1).coeffs


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
    for got, want in zip(_monomial_sums(newton_inverses(basis), 1, prec,
                                        *lists),
                         per_term_sums(basis, *lists), strict=True):
        assert (got.low, got.prec) == (want.low, want.prec)
        assert got.coeffs == want.coeffs


def test_monomial_sums_cut_where_a_class_window_ends():
    # F starts at x^2, so 1/F = x^-2 (1 - x) ends at x^8, that is q^16 at
    # step 2, below min qpow + prec = q^20
    F = LaurentSeries(ZZ, 2, [1] * 10)
    [got] = _monomial_sums(newton_inverses({"F": F}), 2, 20,
                           [(1, 0, {"F": -1}), (1, 1, {})])
    assert got == LaurentSeries(ZZ, -4, [1, 0, -1, 0, 0, 1] + [0] * 14)
    assert (got.low, got.prec) == (-4, 16)


def test_monomial_sums_reject_an_empty_term_list():
    sums = _monomial_sums(_p_basis(5, 20, ZZ), 5, 20, [(1, 0, {1: 1})], [])
    assert next(sums) == cap_P(1, 5, 20)
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
    # the sparse backend against the same basis as dense series on
    # [0, n), n = ceil(prec / step): windows and coefficients, with
    # several classes, repeated exponent vectors and terms with no factor
    rng = random.Random(step * 100 + prec)
    n = -(-prec // step)
    basis = sparse_basis(rng, ["A", "B", 1, 2], n)
    dense = {}
    for k, terms in basis.items():
        cs = [0] * n
        for e, c in terms:
            if e < n:
                cs[e] = c
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
    want = list(_monomial_sums(dense, step, prec, *lists))
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
    """{"zz", "mod" or "sparse": calls}, counting every product of a
    partial sum with a power that _monomial_sums makes, on series, in
    lanes or as shift-adds on a sparse basis."""
    counts = {"zz": 0, "mod": 0, "sparse": 0}
    for cls in (verify._LaneSums, verify._SeriesSums, verify._SparseSums):
        real = cls.times

        def times(self, key, e, part, real=real):
            zz = isinstance(part, LaurentSeries) and part.ring == ZZ
            counts["sparse" if isinstance(self, verify._SparseSums)
                   else "zz" if zz else "mod"] += 1
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
    assert counts == {"zz": 0, "mod": 0, "sparse": 0} | want


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
