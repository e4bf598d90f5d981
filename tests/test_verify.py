import re
from functools import reduce
from operator import add

import pytest

from qcong import _kernel, products, verify
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
    got = t_series(a, b, c, hi, low=lo)
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
        t0 = t_series(a0, ell * m, L2, N, low=-L2 - 80, ring=ring)
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
    # E(ell^2)^-1 once, whatever the number of (b, m)
    calls = []
    real = LaurentSeries.invert

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(LaurentSeries, "invert", counted)
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
    # (E(25)^2)^-1 built in q once reached 2000
    lengths = []
    real = _kernel.convolve

    def recording(a, b, out_len, modulus=None):
        lengths.append(out_len)
        return real(a, b, out_len, modulus)

    monkeypatch.setattr(_kernel, "convolve", recording)
    monkeypatch.setattr(products, "convolve", recording)
    products._jacobi_unit_coeffs.cache_clear()
    assert check_product_rules(prec=2000).status == "pass"
    assert lengths and max(lengths) <= 400


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
    assert r.params["skipped_params"] == []  # grid never hits a zero theta


def test_bailey_small():
    assert check_bailey_uv(n_max=6, prec=80).status == "pass"
    with pytest.raises(ValueError):
        check_bailey_uv(n_max=12, prec=70)


def test_finite_jtp_skips_degenerate_points():
    r = check_finite_jtp(n_max=4, prec=80, t_values=(-2, 1, 2))
    assert r.status == "pass"
    # t=-2 dies at n>=2, t=2 at n>=3, t=1 never (zero = zero is still exact)
    assert [-2, 2] in r.params["skipped_params"]
    assert [2, 3] in r.params["skipped_params"]
    assert all(t != 1 for t, n in r.params["skipped_params"])


def test_beta_second_derivative_small():
    assert check_beta_second_derivatives(n_max=4, prec=60).status == "pass"


def test_t_functional_eq_small():
    assert check_t_functional_eq(prec=60).status == "pass"


def test_chan_identity_small():
    r = check_chan_identity(prec=60)
    assert r.status == "pass"
    assert r.params["skipped_params"] == []
    assert r.params["subchecks"] == 20


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


def test_informational_flag_only_on_conjectures():
    infos = [k for k, cd in REGISTRY.items() if cd.informational]
    assert infos == ["conjectures"]


def test_reports_deterministic():
    a = check_ecubed_dissect(3, prec=60).to_json(deterministic=True)
    b = check_ecubed_dissect(3, prec=60).to_json(deterministic=True)
    assert a == b
    assert "wall_time" not in a
