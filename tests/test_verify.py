import re
import sys
from functools import partial, reduce
from operator import add

import pytest

from qcong import _kernel, lambert, partitions, products, verify
from qcong.lambert import t_series
from qcong.products import euler_E, jacobi_theta
from qcong.report import Report, merge_reports, series_compare_report
from qcong.series import ZZ, LaurentSeries, WindowError, Zmod
from qcong.verify import (
    REGISTRY,
    SUITE,
    TableError,
    check_bailey_uv,
    check_beta_second_derivatives,
    check_chan_identity,
    check_cross_lemma,
    check_ecubed_dissect,
    check_eta_dissections,
    check_finite_jtp,
    check_lemma_family,
    check_pole_split,
    check_product_rules,
    check_t_functional_eq,
    check_theorem1,
    check_theorem2,
    check_uv_dual,
    check_uv_oracle,
    ensure_suite_covers_registry,
    load_table,
    parse_table,
    report_conjectures,
    run_check,
)


# ---------------------------------------------------------------------------
# term tables


def test_tables_load_and_validate():
    for name, count, empty in (("A13", 181, 0), ("B13", 174, 10)):
        terms = load_table(name)
        assert len(terms) == count
        # a component is the residue of qpow mod 13, and every component
        # but the empty one carries at least one product
        assert ({qpow % 13 for _, qpow, _ in terms}
                == set(range(13)) - {empty})
        assert all(1 <= c < 13 and sorted(exps) == [1, 2, 3, 4, 5, 6]
                   for c, _, exps in terms)


def test_table_data_dir_override(tmp_path, monkeypatch):
    (tmp_path / "a13.terms").write_text("# tiny\n1 5 -2 1 0 0 0 0 2\n")
    monkeypatch.setenv("QCONG_DATA_DIR", str(tmp_path))
    # component 1 adds q^1 to the row's q^-2
    assert load_table("A13") == ((5, -1, {1: 1, 2: 0, 3: 0, 4: 0, 5: 0,
                                          6: 2}),)
    monkeypatch.setenv("QCONG_DATA_DIR", str(tmp_path / "nowhere"))
    with pytest.raises(OSError):
        load_table("A13")


# each bad row with the table it is read as
_BAD_ROWS = {
    "1 2 3": "A13",                    # too few fields
    "1 2 3 4 5 6 7 8 9 10": "A13",     # too many
    "13 1 0 1 1 1 1 1 1": "A13",       # component out of range
    "1 0 0 1 1 1 1 1 1": "A13",        # zero coefficient
    "1 13 0 1 1 1 1 1 1": "A13",       # coefficient not reduced
    "x 1 0 1 1 1 1 1 1": "A13",        # not an integer
    "0 1 0 1 0 0 0 0 0": "A13",        # A13 has no component 0
    "10 1 0 1 0 0 0 0 0": "B13",       # B13 has no component 10
}


@pytest.mark.parametrize("line", list(_BAD_ROWS))
def test_parse_table_rejects(line):
    # the error names the offending line, here the second
    with pytest.raises(TableError, match=" line 2: "):
        parse_table("1 1 0 1 0 0 0 0 0\n" + line + "\n", _BAD_ROWS[line])


# ---------------------------------------------------------------------------
# display mapping of the bilateral T sums
#
# encoder below works on plain dicts: each summand is one geometric fill,
# a negative pole exponent d flips 1/(1-q^d) into -sum_{k>=1} q^{-dk}


def direct_T(a, b, c, lo, hi):
    coeffs = {}
    for n in range(-50, 51):
        e0 = c * n * (n + 1) // 2 + b * n
        d = a + c * n
        sgn = -1 if n % 2 else 1
        if d > 0:
            k = 0
            while e0 + d * k < hi:
                if e0 + d * k >= lo:
                    coeffs[e0 + d * k] = coeffs.get(e0 + d * k, 0) + sgn
                k += 1
        else:
            k = 1
            while e0 - d * k < hi:
                if e0 - d * k >= lo:
                    coeffs[e0 - d * k] = coeffs.get(e0 - d * k, 0) - sgn
                k += 1
    return coeffs


_ALL_DISPLAY_TRIPLES = sorted({abc for rows in verify._LAMBERT.values()
                               for _, _, abc in rows})


@pytest.mark.parametrize("a,b,c", _ALL_DISPLAY_TRIPLES)
def test_t_series_matches_direct_encoding(a, b, c):
    lo, hi = -30, 80
    want = direct_T(a, b, c, lo, hi)
    got = t_series(a, b, c, hi).with_low(lo)
    for e in range(lo, hi):
        assert got.coeff(e) == want.get(e, 0), (a, b, c, e)


# ---------------------------------------------------------------------------
# check functions at reduced scale


def test_uv_oracle_small():
    assert check_uv_oracle(n_max=12).status == "pass"


def test_uv_dual_small():
    assert check_uv_dual(prec=200).status == "pass"


def test_theorem1_small():
    r = check_theorem1(n_max=200)
    assert r.status == "pass"
    assert r.window == (0, 201)


def test_theorem1_rejects_tiny_bound():
    with pytest.raises(ValueError):
        check_theorem1(n_max=5)


@pytest.mark.parametrize("case", ["U3", "V3", "U5", "V5", "U7", "V7"])
def test_theorem2_small_moduli(case):
    assert check_theorem2(case, prec=250).status == "pass"


@pytest.mark.parametrize("case", ["U13", "V13"])
def test_theorem2_mod13(case):
    assert check_theorem2(case, prec=400).status == "pass"


def test_theorem2_rejects_bad_args():
    with pytest.raises(ValueError):
        check_theorem2("U4", prec=250)
    with pytest.raises(ValueError):
        check_theorem2("U13", prec=100)  # cannot see all residue classes


def test_lemma_single_instances():
    for second in (False, True):
        rep = check_lemma_family(second=second, ells=(5,), prec=80)
        assert rep.status == "pass"


def test_lemma_rejects_excluded_m():
    # 2m = 2b+1 mod ell makes the representation degenerate: listed, not
    # compared
    rep = check_lemma_family(ells=(5,), prec=80, m_values=(3,))
    assert rep.params["excluded"] == [[5, 0, 3]]
    assert rep.params["subchecks"] == 4
    with pytest.raises(ValueError):
        check_lemma_family(ells=(4,), prec=80)


def _lemma_rhs_reference(ell, b, m, prec, ring, second):
    """The S_ell(b) right side built term by term from jacobi_theta, with
    each k-term jac(A) jac(B) / jac(C) and both prefactors inverted on
    their own."""
    L2 = ell * ell
    N = prec + 8 * L2 + 400
    a0 = ell * (ell - 1) // 2 + ell * m - ell * b

    def jac(a):
        return jacobi_theta(a, L2, N, ring)

    EL2 = euler_E(L2, N, ring)
    inv2, inv4 = pow(2, -1, ell), pow(4, -1, ell)
    terms = []
    tc = (2 * (b + 1) if second else 2 * b) * (-1) ** ((b + 1) % 2 if second
                                                       else b % 2)
    if tc % ell:
        t0 = t_series(a0, ell * m, L2, N, ring=ring).with_low(-L2 - 80)
        pref = (EL2 * jac(ell * m)).invert()
        terms.append((t0 * euler_E(1, N, ring) ** 3 * pref).scale(tc)
                     .shift(ell * m - b * (b + 1) // 2))
    s0 = (-1) ** (((ell + 1) // 2 + b) % 2) * (-1 if second else 1)
    qp2 = (L2 - 1) // 8 - b * (b + 1) // 2 + ell * m
    ks = []
    for k in range(ell):
        if ((2 * k - 2 * b - 1) % ell == 0 or k == m
                or (a0 + ell * k) % L2 == 0):
            continue
        if second:
            w = ((b - k + inv2) * (b - k + inv2 + 1)) % ell
        else:
            w = ((k - b) * (k - b) - inv4) % ell
        if w:
            C = ell * (ell - 1) // 2 - ell * b + ell * k
            t = jac(a0 + ell * k) * jac(ell * k - ell * m) * jac(C).invert()
            ks.append(t.scale(s0 * (-1) ** (k % 2) * w)
                      .shift(qp2 + k * (k - ell) // 2))
    if ks:
        pref2 = (EL2 ** 2) * (jac(ell * m) * jac(a0)).invert()
        terms.append(reduce(add, ks) * pref2)
    if not terms:
        return LaurentSeries.zeros(ring, -L2, prec)
    return reduce(add, terms)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_lemma_rhs_matches_per_term_theta_reference(ell):
    # ell = 3, b = 0, m = 1 (first form) folds A and B onto the same P(1);
    # a numerator map built as the dict literal {aA: 1, aB: 1} keeps one
    # of the two and fails there first.  The reference keeps its wide
    # fixed padding, so the derived window must sit inside it, reach prec,
    # and leave out only coefficients the reference has as zero.
    ring = Zmod(ell)
    specs = [(b, m, second) for second in (False, True) for b in range(ell)
             for m in range(1, ell) if verify._valid_m(ell, b, m)]
    assert len(specs) == 2 * (ell - 1) ** 2
    for (b, m, second), got in zip(
            specs, verify._lemma_rhs(ell, specs, 80, ring), strict=True):
        want = _lemma_rhs_reference(ell, b, m, 80, ring, second)
        where = (b, m, second)
        assert got.prec >= 80, where
        assert want.low <= got.low and got.prec <= want.prec, where
        assert not any(want.coeffs[:got.low - want.low]), where
        assert got.coeffs == want.coeffs[got.low - want.low:
                                         got.prec - want.low], where


@pytest.mark.parametrize("second", [False, True])
def test_lemma_family_inverts_once_per_block(monkeypatch, second):
    # one _monomial_sums call per ell: each P(a)^-1 for 0 < a < ell/2 and
    # E(ell^2)^-1 once, whatever the number of (b, m); every inverse is a
    # division by a sparse series, and nothing else divides here
    calls = []
    real = LaurentSeries.divide

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(LaurentSeries, "divide", counted)
    rep = check_lemma_family(second=second, ells=(13,), prec=100)
    assert rep.status == "pass"
    assert len(calls) <= (13 - 1) // 2 + 1


def _record_basis_lengths(monkeypatch):
    lengths = []
    real = verify._p_basis

    def recording(ell, prec, ring):
        lengths.append(prec)
        return real(ell, prec, ring)

    monkeypatch.setattr(verify, "_p_basis", recording)
    return lengths


@pytest.mark.parametrize("second,length", [(False, 165), (True, 153)])
def test_lemma_window_from_q_shifts(monkeypatch, second, length):
    # N = prec minus the lowest start among the T and k terms of one ell;
    # the fixed padding prec + 8 ell^2 + 400 gave 1852 here
    lengths = _record_basis_lengths(monkeypatch)
    rep = check_lemma_family(second=second, ells=(13,), prec=100)
    assert rep.status == "pass"
    assert lengths == [length]


def test_theorem2_window_from_q_shifts(monkeypatch):
    # the lowest start is the q^-8 T(13,13,169) term, whose own support
    # starts at q^0; the fixed padding gave 650 here
    lengths = _record_basis_lengths(monkeypatch)
    rhs = verify._theorem2_rhs("U13", 400)
    assert lengths == [408]
    assert (rhs.low, rhs.prec) == (-8, 400)


@pytest.mark.parametrize("check_id, head", [
    ("lemma_main", "V"), ("lemma_second", "V"), ("cross_lemma", "VVs"),
    ("eta_dissections", "VVVVVVV"), ("beta_second_derivative", "V"),
    ("chan_identity", "")])
def test_small_prec_reports_or_names_the_least_prec(check_id, head):
    # these once raised WindowError at small prec: a T window asked to end
    # at or below its first term (lemma and cross lemma up to prec 25, 26
    # and 13, chan at 1), a coefficient read past the window (eta below 8)
    # and an empty window (beta at 1).  Now every prec gives a report, or
    # a ValueError that names the least prec L, and prec L gives a report.
    # Per prec from 1: V for that ValueError, then s(kipped) or p(ass)
    top = {"eta_dissections": 12, "beta_second_derivative": 4,
           "chan_identity": 8}.get(check_id, 40)
    got, named = [], set()
    for prec in range(1, top + 1):
        try:
            got.append(run_check(check_id, {"prec": prec}).status[0])
        except WindowError:
            got.append("W")
        except ValueError as exc:
            named.add(int(re.search(r"at least (\d+)", str(exc))[1]))
            got.append("V")
    assert "".join(got) == head + "p" * (top - len(head))
    least = head.count("V") + 1
    assert named == ({least} if least > 1 else set())


def test_product_rules_convolve_on_x_length_only(monkeypatch):
    # every prefactor is a basis key built in x = q^ell, so no product is
    # longer than the ceil(2000 / 5) = 400 of the mod-5 blocks; the
    # (E(25)^2)^-1 built in q once reached 2000.  The cleared rules are
    # sparse products, so they make no convolve call at all, and every
    # shift-add pass runs on an x-window
    lengths, passes = [], []
    real, sparse = _kernel.convolve, _kernel.sparse_mul

    def recording(a, b, out_len, modulus=None):
        lengths.append(out_len)
        return real(a, b, out_len, modulus)

    def counted(value, terms, nbytes, count):
        passes.append(count)
        return sparse(value, terms, nbytes, count)

    monkeypatch.setattr(_kernel, "convolve", recording)
    monkeypatch.setattr(products, "convolve", recording)
    monkeypatch.setattr(_kernel, "sparse_mul", counted)
    products._jacobi_unit_coeffs.cache_clear()
    assert check_product_rules(prec=2000).status == "pass"
    assert lengths == []
    assert passes and max(passes) <= 400


def test_lemma_family_counts_exclusions():
    r = check_lemma_family(second=False, ells=(3,), prec=80)
    assert r.status == "pass"
    # b=0 loses m=2, b=2 loses m=1, b=1 keeps both
    assert r.params["excluded"] == [[3, 0, 2], [3, 2, 1]]
    assert r.params["subchecks"] == 4


def _ones(low, prec):
    return LaurentSeries(ZZ, low, [1] * (prec - low))


@pytest.mark.parametrize("lhs,rhs,prec,status,window,notes", [
    ((0, 99), (-3, 120), 100, "skipped", None,
     "overlap [0,99) ends below prec 100"),
    ((0, 100), (-3, 120), 100, "pass", (0, 100), ""),
    # both supports start well above q^0; only the top of the window counts
    ((40, 110), (35, 130), 100, "pass", (40, 110), ""),
    # reaching prec is not enough: the overlap must cover ceil(101/2) = 51
    ((50, 101), (0, 101), 101, "pass", (50, 101), ""),
    ((51, 101), (0, 101), 101, "skipped", None,
     "overlap [51,101) shorter than required 51"),
])
def test_compare_window_rules(lhs, rhs, prec, status, window, notes):
    rep = series_compare_report("cmp", _ones(*lhs), _ones(*rhs), prec)
    assert (rep.status, rep.window, rep.notes) == (status, window, notes)


def test_merge_of_no_subchecks_is_skipped():
    rep = merge_reports("empty", 10, [])
    assert (rep.status, rep.notes) == ("skipped", "no subchecks ran")
    assert rep.params["subchecks"] == 0
    ok = Report("one", "pass", 10)
    assert merge_reports("one", 10, [ok]).status == "pass"


def test_family_with_no_subchecks_is_skipped():
    rep = check_lemma_family(ells=(), prec=80)
    assert (rep.status, rep.notes) == ("skipped", "no subchecks ran")
    # each modulus's inner family is empty, and the outer report says which
    rep = check_pole_split(ells=(3, 5), prec=60, n_range=0)
    assert rep.status == "skipped"
    assert rep.notes == "pole_split[3]; pole_split[5]"


def test_lemma_family_second_small():
    assert check_lemma_family(second=True, ells=(3, 5),
                              prec=80).status == "pass"


def test_ecubed_small():
    for ell in (3, 5, 7, 9):
        assert check_ecubed_dissect(ell, prec=120).status == "pass"


def test_eta_dissections_small():
    r = check_eta_dissections(prec=250)
    assert r.status == "pass"
    # anchor: q^7 of E(1)^10 is -260, which vanishes mod 13
    assert r.params["e10_q7_coeff"] == 0


def test_product_rules_small():
    r = check_product_rules(prec=300)
    assert r.status == "pass"
    assert r.params["subchecks"] == 25


def test_bailey_small():
    assert check_bailey_uv(n_max=6, prec=80).status == "pass"
    with pytest.raises(ValueError):
        check_bailey_uv(n_max=12, prec=70)


def test_finite_jtp_skips_degenerate_points():
    r = check_finite_jtp(n_max=4, prec=80)
    assert r.status == "pass"
    # t=2 dies at n>=3, t=3 at n>=4, t=1 never (zero = zero is still exact)
    assert r.params["skipped_params"] == [[2, 3], [2, 4], [3, 4]]
    assert r.params["subchecks"] == 2 * (5 + 3 + 4)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_finite_jtp_mirror_t_is_the_same_identity(t):
    # x = q^(-1-t) restates x = q^t: the paired sums are equal, the
    # symmetric sums equal after j -> -j, and the left side's two factors
    # (q^(1+t);q)_n and (q^-t;q)_n swap, so the check keeps t > 0 only
    u, prec = -1 - t, 80
    for n in range(11):
        sym, paired = verify._jtp_sums(t, n)
        sym_u, paired_u = verify._jtp_sums(u, n)
        assert sorted(paired) == sorted(paired_u)
        assert sorted(sym) == sorted((s, e, -j) for s, e, j in sym_u)
        lhs, lhs_u = ((products.pochhammer_finite(1 + x, n, prec)
                       * products.pochhammer_finite(-x, n, prec))
                      for x in (t, u))
        assert lhs == lhs_u


def test_beta_second_derivative_small():
    assert check_beta_second_derivatives(n_max=4, prec=60).status == "pass"


@pytest.mark.parametrize("n", range(1, 7))
def test_x_coeffs_are_the_finite_triple_product_terms(n):
    # (xq, 1/x; q)_n = sum_k (-1)^k q^{k(k+1)/2} (q;q)_{2n}
    #                  / ((q;q)_{n-|k|} (q;q)_{n+|k|}) x^k,  -n <= k <= n
    prec = 40

    def qq(k):
        return products.pochhammer_finite(1, k, prec)

    c = verify._x_coeffs([(1 + i, 1) for i in range(n)]
                         + [(i, -1) for i in range(n)], prec)
    assert sorted(c) == list(range(-n, n + 1))
    for k, ck in c.items():
        want = (qq(2 * n) * (qq(n - abs(k)) * qq(n + abs(k))).invert())
        want = want.scale((-1) ** k).shift(k * (k + 1) // 2)
        assert ck.low == k * (k + 1) // 2   # its own support, no padding
        assert ck.prec >= prec
        assert ck == want, k


def _mutate_bailey(monkeypatch):
    real = verify._alpha

    def alpha(pair, k):
        out = real(pair, k)
        return [(2 * c, e) for c, e in out] if (pair, k) == ("v", 2) else out
    monkeypatch.setattr(verify, "_alpha", alpha)


def _mutate_jtp(monkeypatch):
    real = verify._jtp_sums

    def jtp_sums(t, n):
        sym, paired = real(t, n)
        if n == 3:
            sign, shift, j = paired[1]
            paired = paired[:1] + [(-sign, shift, j)] + paired[2:]
        return sym, paired
    monkeypatch.setattr(verify, "_jtp_sums", jtp_sums)


def _mutate_beta(monkeypatch):
    real = verify._x_coeffs

    def x_coeffs(factors, prec):
        (s, d), *rest = factors
        return real([(s + 1, d)] + rest, prec)
    monkeypatch.setattr(verify, "_x_coeffs", x_coeffs)


@pytest.mark.parametrize("mutate, check, first", [
    (_mutate_bailey, partial(check_bailey_uv, n_max=4, prec=20), 1),
    (_mutate_jtp, partial(check_finite_jtp, n_max=3, prec=20), -1),
    (_mutate_beta, partial(check_beta_second_derivatives, n_max=3,
                           prec=20), 2),
], ids=["bailey_uv", "finite_jtp", "beta_second_derivative"])
def test_finite_product_checks_fail_on_one_wrong_term(monkeypatch, mutate,
                                                      check, first):
    # negative control: one term of the check's own construction changed
    # must give fail inside the window, never pass or skipped
    assert check().status == "pass"
    mutate(monkeypatch)
    rep = check()
    assert rep.status == "fail"
    assert rep.first_failure[0] == first


# the quotient route the three finite-product checks took before their
# identities were cleared of (q;q)_{2n}: every block 1/((q;q)_j (q;q)_k)
# divided out on the check's window, each side compared as a quotient


def _qq(k, length):
    return products.pochhammer_finite(1, k, length)


def _quotient_blocks(n, ks, length):
    one = LaurentSeries.one(ZZ, length)
    return [one.divide(_qq(n - k, length) * _qq(n + k, length)) for k in ks]


def _quotient_bailey(cmp, n_max, prec):
    subs = {"u": [], "v": []}
    for n in range(1, n_max + 1):
        beta = (_qq(n - 1, prec) ** 2).divide(_qq(2 * n, prec))
        blocks = _quotient_blocks(n, range(1, n + 1), prec)
        for pair, lhs in (("u", beta), ("v", beta.shift(n))):
            rhs = reduce(add, (block.scale(c).shift(e)
                               for k, block in enumerate(blocks, 1)
                               for c, e in verify._alpha(pair, k)))
            subs[pair].append(cmp(f"bailey:{pair},n={n}", lhs, rhs, prec))
    return subs["u"] + subs["v"]


def _quotient_jtp(cmp, n_max, prec):
    cases = [(t, n, *verify._jtp_sums(t, n)) for t in (1, 2, 3)
             for n in range(n_max + 1) if t == 1 or n <= t]
    starts = [0]
    for t, n, sym, paired in cases:
        starts.append(sum(min(e, 0) for e in range(-t, n - t)))
        starts += [shift for _, shift, _ in sym + paired]
    wprec = verify._length(prec, starts)
    blocks = {n: _quotient_blocks(n, range(n + 1), wprec)
              for n in range(n_max + 1)}
    subs = []
    for t, n, sym, paired in cases:
        lhs = (products.pochhammer_finite(1 + t, n, wprec)
               * products.pochhammer_finite(-t, n, wprec)).divide(
                   _qq(2 * n, wprec))
        for form, terms in (("sym", sym), ("paired", paired)):
            rhs = reduce(add, (blocks[n][abs(j)].shift(shift).scale(sign)
                               for sign, shift, j in terms))
            subs.append(cmp(f"jtp:{form},t={t},n={n}", lhs, rhs, prec))
    return subs


def _quotient_beta(cmp, n_max, prec):
    subs = []
    for n in range(1, n_max + 1):
        c = verify._x_coeffs([(1 + i, 1) for i in range(n)]
                             + [(i, -1) for i in range(n)],
                             prec + max(n - 2, 0))
        closed = (_qq(n - 1, prec) ** 2).divide(_qq(2 * n, prec)).scale(-2)
        for label, at_qinv in (("1", 0), ("1/q", 1)):
            lhs = reduce(add, (ck.scale(k * (k - 1)).shift(at_qinv * (2 - k))
                               for k, ck in c.items() if k * (k - 1)))
            rhs = closed.shift(n + 2) if at_qinv else closed
            subs.append(cmp(f"beta2:x0={label},n={n}",
                            lhs.divide(_qq(2 * n, prec)), rhs, prec))
    return subs


def _graded(rep):
    ff = rep.first_failure
    return rep.check_id, rep.status, rep.window, ff and ff[0]


_FINITE_PRODUCT_CASES = (
    [(check_bailey_uv, _quotient_bailey, 12, 150)]
    + [(check_bailey_uv, _quotient_bailey, n_max, prec)
       for n_max in (1, 4) for prec in range(n_max * (n_max + 1) // 2 + 1, 31)]
    + [(check_finite_jtp, _quotient_jtp, 10, 200)]
    + [(check_finite_jtp, _quotient_jtp, n_max, prec)
       for n_max in (0, 3) for prec in range(1, 41)]
    + [(check_beta_second_derivatives, _quotient_beta, 8, 120)]
    + [(check_beta_second_derivatives, _quotient_beta, n_max, prec)
       for n_max in (1, 3) for prec in range(2, 31)])


@pytest.mark.parametrize("mutate", [None, "_mutate_bailey", "_mutate_jtp",
                                    "_mutate_beta"])
def test_cleared_numerators_grade_every_subcheck_as_the_quotients(
        monkeypatch, mutate):
    # (q;q)_{2n} is a unit with constant term 1, so the cleared numerators
    # must give each subcheck the quotients' status, window and first
    # failure exponent, at the defaults, at small precs down to the least
    # accepted one, and with one term of a check's construction changed
    if mutate:
        globals()[mutate](monkeypatch)
    real = verify._cmp
    graded = []

    def recording(*args):
        rep = real(*args)
        graded.append(_graded(rep))
        return rep

    monkeypatch.setattr(verify, "_cmp", recording)
    statuses = set()
    for check, quotient, n_max, prec in _FINITE_PRODUCT_CASES:
        graded.clear()
        try:
            want = [_graded(r) for r in quotient(real, n_max, prec)]
        except ValueError:
            with pytest.raises(ValueError):
                check(n_max=n_max, prec=prec)
            continue
        check(n_max=n_max, prec=prec)
        # the checks build the subchecks in their own order
        assert sorted(graded) == sorted(want), (check.__name__, n_max, prec)
        statuses.update(status for _, status, _, _ in want)
    # the windows reach prec at every prec, so nothing is skipped; a
    # changed term fails
    assert statuses == ({"pass", "fail"} if mutate else {"pass"})


@pytest.mark.parametrize("check_id", SUITE)
def test_no_registered_check_inverts_densely(monkeypatch, small_checks,
                                             check_id):
    # every quotient is a division by a sparse series or a cleared
    # numerator; newton_invert stays a test oracle only
    def refuse(*args):
        raise AssertionError("newton_invert called")

    monkeypatch.setattr(_kernel, "newton_invert", refuse)
    assert run_check(check_id).status in ("pass", "fail")


def _mutate_lambert_weight(monkeypatch):
    # w(3) of the U numerator, raised by 2 so the sum stays divisible by -2
    real = lambert._WEIGHTS["u"]
    monkeypatch.setitem(lambert._WEIGHTS, "u",
                        lambda n: real(n) + (2 if n == 3 else 0))


def _mutate_chan_t_sign(monkeypatch):
    # the T(B1, A - B2, M) term of the point A, B1, B2 = 1, 2, 3 at M = 9
    real = verify.t_series

    def t_series(a, b, c, prec, ring=ZZ):
        t = real(a, b, c, prec, ring=ring)
        return -t if (a, b, c) == (2, -2, 9) else t
    monkeypatch.setattr(verify, "t_series", t_series)


def _mutate_lemma_weight(monkeypatch):
    # the k = 4 weight of S_5(0), one of the terms cross_lemma assembles
    real = verify._lemma_weight

    def weight(ell, b, k, second):
        w = real(ell, b, k, second)
        return (w + 1) % ell if (ell, b, k, second) == (5, 0, 4, False) else w
    monkeypatch.setattr(verify, "_lemma_weight", weight)


@pytest.mark.parametrize("mutate, check", [
    (_mutate_lambert_weight, partial(check_uv_dual, prec=60)),
    (_mutate_chan_t_sign, partial(check_chan_identity, prec=60)),
    (_mutate_lemma_weight, partial(check_cross_lemma, ells=(5,), prec=60)),
], ids=["uv_dual", "chan_identity", "cross_lemma"])
def test_quotient_checks_fail_on_one_wrong_term(monkeypatch, mutate, check):
    # negative control for the checks built on quotients by sparse
    # products: uv_dual and cross_lemma divide by E(1)^3, chan_identity
    # compares its quotients cleared of their theta denominators.  One
    # term of the check's own construction changed must give fail inside
    # the window, never pass or skipped
    assert check().status == "pass"
    mutate(monkeypatch)
    rep = check()
    assert rep.status == "fail"
    assert rep.first_failure[0] < rep.prec


def _first_plus_one(table, case):
    """Raise the coefficient of the first term of table[case] by 1."""
    def mutate(monkeypatch):
        (c, *rest), *others = table[case]
        monkeypatch.setitem(table, case, ((c + 1, *rest), *others))
    return mutate


def _weight_plus_one(second):
    """Raise the k = 4 weight of S_5(0), or of its reflected twin, by 1."""
    def mutate(monkeypatch):
        real = verify._lemma_weight

        def weight(ell, b, k, twin):
            w = real(ell, b, k, twin)
            return (w + 1) % ell if (ell, b, k, twin) == (5, 0, 4, second) \
                else w
        monkeypatch.setattr(verify, "_lemma_weight", weight)
    return mutate


@pytest.mark.parametrize("mutate, check", [
    (_first_plus_one(verify._LAMBERT, "U3"), partial(check_theorem2, "U3", 18)),
    (_first_plus_one(verify._LAMBERT, "V3"), partial(check_theorem2, "V3", 18)),
    (_first_plus_one(verify._PRODUCTS, "U5"),
     partial(check_theorem2, "U5", 50)),
    (_first_plus_one(verify._PRODUCTS, "V5"),
     partial(check_theorem2, "V5", 50)),
    (_first_plus_one(verify._PRODUCTS, "U7"),
     partial(check_theorem2, "U7", 98)),
    (_first_plus_one(verify._LAMBERT, "V7"), partial(check_theorem2, "V7", 98)),
    (_first_plus_one(verify._LAMBERT, "V13"),
     partial(check_theorem2, "V13", 338)),
    (_weight_plus_one(False), partial(check_lemma_family, False, (5,), 40)),
    (_weight_plus_one(True), partial(check_lemma_family, True, (5,), 40)),
], ids=["theorem2_u3", "theorem2_v3", "theorem2_u5", "theorem2_v5",
        "theorem2_u7", "theorem2_v7", "theorem2_v13", "lemma_main",
        "lemma_second"])
def test_lane_checks_fail_on_one_wrong_term(monkeypatch, mutate, check):
    # negative control for the gating checks whose P-monomial sums run in
    # Z/ell lanes: one term of the check's own construction changed must
    # give fail inside the window, never pass or skipped
    assert check().status == "pass"
    mutate(monkeypatch)
    rep = check()
    assert rep.status == "fail"
    assert rep.first_failure[0] < rep.prec


@pytest.mark.parametrize("weights", [(15, 10), (16, 9)], ids=["16to15", "10to9"])
@pytest.mark.parametrize("check", [partial(check_uv_oracle, n_max=25),
                                   partial(check_theorem1, n_max=40)],
                         ids=["uv_oracle", "theorem1"])
def test_uv_checks_fail_on_one_wrong_tail_weight(monkeypatch, check, weights):
    # negative control for the checks that read the defining sums alone:
    # one two-part weight of uv_series_def's closed tail changed must give
    # fail inside the window, never pass or skipped
    def cold():
        monkeypatch.setattr(partitions, "_def_cache", {"prec": 0, "pair": None})

    cold()
    assert check().status == "pass"
    cold()
    monkeypatch.setattr(partitions, "_TWO_PARTS", weights)
    rep = check()
    assert rep.status == "fail"
    assert rep.first_failure[0] <= rep.prec


# every lifted identity, and the tables it comes from
_LIFTED = [*verify._PRODUCT_RULES, *verify._MOD7_CLASSES,
           *verify._ETA_DISSECTIONS, *verify._ETA_D5,
           *(ident for ell in range(3, 14, 2) for ident in verify._ecubed(ell))]


def _plus_one(ident):
    """ident with the first coefficient of its right side raised by 1, or
    of its left side when the right side is 0."""
    name, ell, modulus, lhs, rhs = ident
    (c, qpow, exps), *rest = lhs if rhs is None else rhs
    side = ((c + 1, qpow, exps), *rest)
    return (name, ell, modulus, side, None) if rhs is None else (
        name, ell, modulus, lhs, side)


def _lifted_report(ident):
    [rep] = verify._identity_reports([ident], 60)
    return rep


@pytest.mark.parametrize("ident", _LIFTED, ids=lambda ident: ident[0])
def test_lifted_identity_fails_on_one_wrong_coefficient(ident):
    # negative control: the identity holds at prec 60, and with one
    # coefficient off by 1 it gives fail there, never pass or skipped
    assert _lifted_report(ident).status == "pass"
    assert _lifted_report(_plus_one(ident)).status == "fail"


def test_lifted_identities_cover_every_table_entry(monkeypatch):
    # the identities the three checks evaluate are exactly _LIFTED
    seen = []
    real = verify._identity_reports

    def recording(idents, prec):
        seen.extend(name for name, *_ in idents)
        return real(idents, prec)

    monkeypatch.setattr(verify, "_identity_reports", recording)
    for check_id in ("product_rules", "eta_dissections", "ecubed_dissect"):
        assert run_check(check_id, {"prec": 60}).status == "pass"
    assert sorted(seen) == sorted(ident[0] for ident in _LIFTED)
    assert len(set(seen)) == len(seen)
    # a side compared with an identical one could only pass
    assert all(lhs != rhs for _, _, _, lhs, rhs in _LIFTED)


def test_four_theta_grid_gives_exactly_rules_r9_to_r21():
    # the 15 grid points 6 >= a > b > c > d >= 1 of the four-theta
    # elimination identity give 13 distinct term lists, which are r9-r21;
    # after the fold P(7) = P(6), P(8) = P(5), three points give r21
    grid = [(a, b, c, d) for a in range(1, 7) for b in range(1, a)
            for c in range(1, b) for d in range(1, c)]
    assert len(grid) == 15
    lists = [verify._mt(*p) for p in grid]
    distinct = [t for i, t in enumerate(lists) if t not in lists[:i]]
    rules = verify._RULES13[8:]
    assert len(rules) == len(distinct) == 13
    assert all(r in distinct for r in rules)
    assert all(d in rules for d in distinct)
    assert [p for p in grid if verify._mt(*p) == rules[-1]] == [
        (5, 3, 2, 1), (6, 4, 3, 2), (6, 5, 4, 1)]


def _multiset(side):
    """A side of a lifted identity with its term order and the key order of
    its exponent maps forgotten."""
    if side is None or isinstance(side, int):
        return side
    return tuple(sorted(repr((c, q, sorted(e.items(), key=repr)))
                        for c, q, e in side))


def test_lifted_identities_are_each_stated_once():
    # two entries with the same (ell, modulus) and the same sides evaluate
    # one identity twice, and give the negative control above two mutants
    # for one mutation
    keys = [(ell, modulus, _multiset(lhs), _multiset(rhs))
            for _, ell, modulus, lhs, rhs in _LIFTED]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("check_id", ["product_rules", "eta_dissections",
                                      "ecubed_dissect", "chan_identity"])
def test_cleared_checks_divide_nothing(monkeypatch, small_checks, check_id):
    # the exact theta identities are compared cleared of their
    # denominators: no sparse division and no dense P(a) basis
    def refuse(*args):
        raise AssertionError("divided or built a dense basis")

    monkeypatch.setattr(_kernel, "sparse_divide", refuse)
    monkeypatch.setattr(verify, "_p_basis", refuse)
    assert run_check(check_id).status == "pass"


def test_rule_r4_fails_where_its_third_term_starts():
    # r4's third term is q^39 P(4) P(1)^3; with its coefficient raised by
    # 1 the sides differ by that term, whose first coefficient is q^39's.
    # Clearing multiplies by a unit with constant term 1, so the cleared
    # sides first differ there too
    first, second, (c, qpow, exps) = verify._RULES13[3]
    assert qpow == 39
    mutant = (first, second, (c + 1, qpow, exps))
    [rep] = verify._identity_reports(
        [("rules:r4", 13, None, mutant, None)], 300)
    assert rep.status == "fail"
    assert rep.first_failure[0] == 39


def test_t_functional_eq_small():
    assert check_t_functional_eq(prec=60).status == "pass"


def test_chan_identity_small():
    r = check_chan_identity(prec=60)
    assert r.status == "pass"
    assert r.params == {"prec": 60, "subchecks": 20}


def test_chan_identity_windows_reach_prec(monkeypatch):
    # a fixed Lambert floor of q^-260 once ended the M = 9 and M = 25
    # comparisons below prec while the check still passed
    windows = []
    real = verify.series_compare_report

    def recording(check_id, lhs, rhs, prec, *args):
        windows.append((max(lhs.low, rhs.low), min(lhs.prec, rhs.prec)))
        return real(check_id, lhs, rhs, prec, *args)

    monkeypatch.setattr(verify, "series_compare_report", recording)
    assert check_chan_identity(prec=60).status == "pass"
    assert len(windows) == 20
    assert all(hi >= 60 for _, hi in windows), windows


@pytest.mark.parametrize("check_id", ["finite_jtp", "beta_second_derivative"])
def test_padded_windows_end_at_prec(monkeypatch, check_id):
    # lengths sized from the q-shifts leave no padding: the shortest
    # window ends at prec exactly, so every window reaches prec and a
    # length one coefficient short would end below it
    windows = []
    real = verify.series_compare_report

    def recording(check_id, lhs, rhs, prec, *args):
        windows.append(min(lhs.prec, rhs.prec))
        return real(check_id, lhs, rhs, prec, *args)

    monkeypatch.setattr(verify, "series_compare_report", recording)
    rep = run_check(check_id)
    assert rep.status == "pass"
    assert len(windows) == rep.params["subchecks"]
    assert min(windows) == rep.prec, windows


def test_pole_split_small():
    assert check_pole_split(ells=(3, 5), prec=60,
                            n_range=12).status == "pass"


def test_cross_lemma_small():
    assert check_cross_lemma(ells=(5,), prec=60).status == "pass"


def test_conjectures_report_is_informational():
    r = report_conjectures(n_max=90, prec=120)
    assert r.params["informational"] is True
    # the printed mod-13 quotient form misses; a q^5 rescale repairs it
    assert r.status == "fail"
    assert r.first_failure[0] == 0
    assert r.params["mod13_rescale"] == 4


# ---------------------------------------------------------------------------
# registry


def test_suite_covers_registry():
    ensure_suite_covers_registry()
    assert set(SUITE) == set(REGISTRY)
    assert len(SUITE) == len(set(SUITE))


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        run_check("no_such_check")


def test_run_check_applies_only_known_overrides():
    r = run_check("uv_oracle", {"n_max": 8, "prec": 10_000})
    assert r.status == "pass"
    assert r.params["n_max"] == 8
    assert r.wall_time is not None


@pytest.mark.parametrize("check_id, prec", [("lemma_main", 150),
                                            ("pole_split", 60)])
def test_run_check_keeps_overrides_the_check_takes(check_id, prec):
    # ells has no registered default here, but the check takes it
    assert "ells" not in REGISTRY[check_id].defaults
    rep = run_check(check_id, {"prec": prec, "ells": [3, 5]})
    assert rep.status == "pass"
    assert rep.params["ells"] == [3, 5]
    assert rep.params["subchecks"] == 2 if check_id == "pole_split" else 16


def test_small_checks_cover_the_registry(small_checks):
    assert set(small_checks) == set(REGISTRY)


@pytest.mark.parametrize("check_id", SUITE)
def test_each_check_declares_the_uv_precision_it_reads(monkeypatch,
                                                       small_checks, check_id):
    # a sequential run builds the recurrence once, at the largest declared
    # precision: a check that read past its declaration, or read without
    # one, would build it again, and one that declared more than it reads
    # would build more than any check needs
    asked = []
    real = partitions.uv_series_def

    def recording(prec):
        asked.append(prec)
        return real(prec)

    for name, mod in list(sys.modules.items()):
        if name == "qcong" or name.startswith("qcong."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, recording)
    run_check(check_id)
    if REGISTRY[check_id].uv_prec is None:
        assert asked == []
    else:
        assert asked and max(asked) == verify.uv_precision([check_id])


def test_uv_precision_applies_overrides_as_run_check_does():
    assert verify.uv_precision(["pole_split", "lemma_main"]) == 0
    assert verify.uv_precision(SUITE) == 2001
    assert verify.uv_precision(["uv_dual", "theorem2_u3"],
                               {"prec": 90, "n_max": None}) == 90
    # neither uv_oracle nor theorem1 takes prec
    assert verify.uv_precision(["uv_oracle", "theorem1"],
                               {"prec": 5000, "n_max": 30}) == 31


def test_informational_flag_only_on_conjectures():
    infos = [k for k, cd in REGISTRY.items() if cd.informational]
    assert infos == ["conjectures"]


def test_reports_deterministic():
    a = check_ecubed_dissect(3, prec=60).to_json(deterministic=True)
    b = check_ecubed_dissect(3, prec=60).to_json(deterministic=True)
    assert a == b
    assert "wall_time" not in a
