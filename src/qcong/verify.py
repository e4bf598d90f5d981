"""Identity checks behind the u/v congruence results.

Each check builds its two sides through independent routes and grades the
comparison into a Report.  The A13/B13 term tables are data files, parsed
and checked into the evaluator's terms (below) on every load; the
end-to-end theorem2 checks are the final word on their transcription.

Every dissection is a sum of (coeff, qpow, {a: e}) terms, each standing for
coeff * q^qpow * prod P(a)^e with P(a) = [q^{ell a}; q^{ell^2}], built by the
one evaluator _monomial_sums.  Every P(a) is a power series in x = q^ell,
[x^a; x^ell], so _p_basis builds the blocks in x, on ceil(N/ell)
coefficients for a q-window of N.  The evaluator splits the terms of a sum
by the residue of qpow mod ell, sums each residue class in x (so every
power, inverse and group product is 1/ell as long as in q), and
interleaves the class sums into one q-series.  Within a class it factors
shared powers out of the terms (a sparse Horner scheme), so each distinct
power multiplies a partial sum once instead of every term, and it adds the
parts as plain series.  E(ell^2) and E(ell) are series in x too, keys "E"
and "e" of the same basis, so a prefactor such as E(ell^2)^k / E(ell)
becomes exponents merged into every term (_times), and Horner factors it
out once per class; only the Lambert (T) terms, the powers of E(1) and
the comparisons stay in q.  The S_ell(b) representations (the lemma
layer, _lemma_rhs) go through the same evaluator, one call per ell: each
theta [q^{ell y}; q^{ell^2}] there is sign * q^shift * P(a), by the theta
normalization followed by the fold P(a) = P(ell - a) (_pjac).

Windows come from the real q-shifts, not from fixed padding.  Each term
starts at a support bound: a P-monomial at its qpow, a Lambert sum at its
prefactor shift plus the low that t_series or s_series returns when asked
for low=0 (their floor drops to the least term exponent).  The term lists
do not depend on the working length, so they are built first, and the
length shared by one check's products is prec minus the lowest start; every
side then reaches prec.  A comparison whose window ends below prec reports
skipped, never pass (series_compare_report).
"""

import os
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from importlib import resources
from operator import add
from time import perf_counter

from .lambert import s_series, t_series
from .partitions import u_count, uv_series_def, uv_series_lambert, v_count
from .products import (_theta_normalize, euler_E, jacobi_theta,
                       pochhammer_finite)
from .report import Report, merge_reports, series_compare_report
from .series import ZZ, EpsPoly, LaurentSeries, Zmod


class TableError(ValueError):
    """A .terms data file failed to parse or validate."""


# ---------------------------------------------------------------------------
# dissection term tables


def parse_table(text, name):
    """A13 or B13 .terms text as evaluator terms (coeff, qpow + component,
    {1: e1, ..., 6: e6}) in file order; component i carries the outer
    factor q^i.  Each row is checked as it is read."""
    empty = {"A13": 0, "B13": 10}.get(name)
    terms = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 9:
            raise TableError(f"{name} line {ln}: expected 9 fields, "
                             f"got {len(parts)}")
        try:
            comp, coeff, qpow, *exps = (int(p) for p in parts)
        except ValueError:
            raise TableError(f"{name} line {ln}: non-integer field") from None
        if not 0 <= comp < 13:
            raise TableError(f"{name} line {ln}: component {comp} out of range")
        if not 1 <= coeff < 13:
            raise TableError(f"{name} line {ln}: coefficient {coeff} "
                             f"out of range")
        if comp == empty:
            raise TableError(f"{name} line {ln}: component {empty} "
                             f"must be empty")
        terms.append((coeff, qpow + comp, dict(enumerate(exps, 1))))
    return tuple(terms)


def load_table(name):
    """The terms of A13 or B13 (parse_table), read from QCONG_DATA_DIR if
    set, else from the package data, and parsed anew on every call."""
    fname = name.lower() + ".terms"
    override = os.environ.get("QCONG_DATA_DIR")
    if override:
        with open(os.path.join(override, fname), encoding="utf-8") as fh:
            return parse_table(fh.read(), name)
    text = (resources.files(__package__) / "data" / fname).read_text("utf-8")
    return parse_table(text, name)


# ---------------------------------------------------------------------------
# window plumbing


def _power(basis, powers, key, e):
    """basis[key] ** e, e != 0, memoized in powers.  Each power is one
    product from the power next to it towards 0, so building every power
    up to |e| costs |e| - 1 products; negative powers grow from the one
    inverse kept under (key, -1)."""
    if e == 1:
        return basis[key]
    if (key, e) not in powers:
        if e == -1:
            powers[key, e] = basis[key].invert()
        else:
            unit = 1 if e > 0 else -1
            powers[key, e] = (_power(basis, powers, key, e - unit)
                              * _power(basis, powers, key, unit))
    return powers[key, e]


def _monomial_sums(basis, step, prec, *term_lists):
    """Yield, per term list, the sum of coeff * q^qpow * prod B_key^e over
    its (coeff, qpow, {key: e}) terms, where B_key(q) = basis[key](q^step);
    an empty list raises ValueError when its sum is reached.

    The basis series are series in x = q^step on one window [0, n) with
    n = ceil(prec / step), so each stands for a q-series on [0, prec), and
    every sum is on the q-window [min qpow, min qpow + prec).  With step 1
    the basis is in q itself.  A term with no factors is the monomial
    coeff * q^qpow.

    The terms are split by the residue r = qpow mod step: a class is a sum
    of c * x^t * prod basis[key]^e with t = (qpow - r) / step, so every
    power, inverse and group product of a class is a product of series of
    length n, not prec.  The class sums are interleaved into the q-series,
    class r on the exponents r mod step.  The sum ends at
    q^(min qpow + prec), which every class reaches on such a basis: its
    terms start at or above min qpow, and step * n >= prec.  A class whose
    window ends sooner (the inverse of a series that starts above x^0 ends
    below x^n) ends the sum there.  Each power of a base is built once per
    call and shared by every class and every term list.

    A class sum is a sparse multivariate Horner scheme (_horner).  Terms
    with at most one factor are a linear combination of cached powers,
    c * x^t * key^e, with no product.  The other terms are grouped by
    their exponent of one key, the key with the fewest distinct exponents
    among them (ties broken by the repr of the key); each group is summed
    recursively and, for a nonzero exponent e, multiplied once by key^e.
    The parts are added as series, so a class sum has the window
    [min low, min prec) of its parts.
    """
    ref = next(iter(basis.values()))
    one = LaurentSeries.one(ref.ring, len(ref.coeffs))
    powers = {}
    for terms in term_lists:
        if not terms:
            raise ValueError("a sum of monomials needs at least one term")
        classes = {}
        for c, qpow, exps in terms:
            t, r = divmod(qpow, step)
            classes.setdefault(r, []).append((c, t, exps))
        parts = [(r, _horner(basis, powers, one, cls, frozenset()))
                 for r, cls in classes.items()]
        low = min(step * s.low + r for r, s in parts)
        top = min(min(qpow for _, qpow, _ in terms) + prec,
                  *(step * s.prec + r for r, s in parts))
        cs = [0] * (top - low)
        for r, s in parts:
            start = step * s.low + r - low
            cs[start::step] = s.coeffs[:len(range(start, top - low, step))]
        yield LaurentSeries(one.ring, low, cs)


def _horner(basis, powers, one, terms, done):
    """The sum of terms with the factors of the keys in done left out.
    Groups hold the class's term tuples themselves, never copies."""
    multi, keys, parts = [], set(), []
    for term in terms:
        c, s, exps = term
        left = [(k, e) for k, e in exps.items() if e and k not in done]
        if len(left) > 1:
            multi.append(term)
            keys.update(k for k, _ in left)
        else:
            f = _power(basis, powers, *left[0]) if left else one
            parts.append(f.scale(c).shift(s))
    if multi:
        key = min(keys, key=lambda k: (
            len({exps.get(k, 0) for _, _, exps in multi}), repr(k)))
        groups = {}
        for term in multi:
            groups.setdefault(term[2].get(key, 0), []).append(term)
        done = done | {key}
        for e in sorted(groups):
            part = _horner(basis, powers, one, groups[e], done)
            parts.append(_power(basis, powers, key, e) * part if e else part)
    return reduce(add, parts)


def _p_basis(ell, prec, ring):
    """The basis of _monomial_sums at step ell, built in x = q^ell on
    [0, ceil(prec / ell)), which stands for [0, prec) in q: P(a) =
    [q^{ell a}; q^{ell^2}] = [x^a; x^ell] for 0 < a < ell/2 (the blocks
    that _folded maps onto), "E": E(ell^2) and "e": E(ell)."""
    n = -(-prec // ell)
    blocks = {a: jacobi_theta(a, ell, n, ring)
              for a in range(1, (ell + 1) // 2)}
    return blocks | {"E": euler_E(ell, n, ring), "e": euler_E(1, n, ring)}


def _times(pre, terms):
    """terms times the prefactor pre = {key: e}, a key no term has."""
    return [(c, qpow, {**exps, **pre}) for c, qpow, exps in terms]


def _length(prec, starts):
    """prec minus the lowest term start, which must lie below prec."""
    low = min(starts, default=0)
    if prec <= low:
        raise ValueError(f"prec {prec} needs to be at least {low + 1}")
    return prec - low


def _folded(ell, factors):
    """Exponent map of prod P(a) over factors with every P(a) folded into
    P(min(a, ell - a)); P(a) and P(ell - a) are one and the same product,
    so the fold is exact."""
    return Counter(min(a, ell - a) for a in factors)


def _pjac(ell, x):
    """[q^x; q^{ell^2}] for x a multiple of ell, as (sign, shift, a) with
    the theta equal to sign * q^shift * P(a), 0 < a < ell/2: the theta
    normalization, then the fold of _folded."""
    sign, shift, r = _theta_normalize(x, ell * ell)
    a = r // ell
    return sign, shift, min(a, ell - a)


def _cmp(check_id, lhs, rhs, prec, params=None):
    lo = min(lhs.low, rhs.low)
    return series_compare_report(check_id, lhs.with_low(lo),
                                 rhs.with_low(lo), prec, params)


def _zero_cmp(check_id, combo, prec, params=None):
    zero = LaurentSeries.zeros(combo.ring, combo.low, combo.prec)
    return series_compare_report(check_id, combo, zero, prec, params)


# ---------------------------------------------------------------------------
# Bailey pair machinery


def _alpha(pair, k, prec, ring=ZZ):
    """alpha_k for the u and v pairs; k >= 1."""
    base = k * (k - 1) // 2
    hi, lo = k * (k + 1) // 2, k * (k - 1) // 2
    sign = 1 if (k + 1) % 2 == 0 else -1
    if pair == "u":
        terms = {base: sign * hi, base + k: sign * lo}
    else:
        terms = {base + k: sign * hi, base: sign * lo}
    return LaurentSeries.from_terms(ring, terms, 0, prec)


def check_bailey_uv(n_max=12, prec=150):
    """beta_n = sum_k alpha_k / ((q;q)_{n-k} (q;q)_{n+k}) for both pairs."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if prec <= n_max * (n_max + 1) // 2:
        raise ValueError(f"prec {prec} too small for n_max {n_max}")
    pinv = [pochhammer_finite(1, k, prec).invert()
            for k in range(2 * n_max + 1)]
    poch = [pochhammer_finite(1, k, prec) for k in range(n_max)]
    subs = []
    for pair in ("u", "v"):
        for n in range(1, n_max + 1):
            beta = (poch[n - 1] ** 2) * pinv[2 * n]
            if pair == "v":
                beta = beta.shift(n)
            rhs = reduce(add, (_alpha(pair, k, prec) * pinv[n - k]
                               * pinv[n + k] for k in range(1, n + 1)))
            subs.append(_cmp(f"bailey:{pair},n={n}", beta, rhs, prec))
    rep = merge_reports("bailey_uv", prec, subs,
                        {"n_max": n_max, "prec": prec})
    if rep.status == "pass":
        rep.notes = "n=0 entries of both pairs are 0 by definition"
    return rep


def _jtp_sums(t, n):
    """The symmetric and the paired right side of the finite triple product
    at x = q^t, as (sign, shift, j) terms, each standing for
    sign * q^shift / ((q;q)_{n-|j|} (q;q)_{n+|j|})."""
    sym = [(-1 if j % 2 else 1, t * j + j * (j + 1) // 2, j)
           for j in range(-n, n + 1)]
    paired = [(1, 0, 0)]
    for j in range(1, n + 1):
        sign = -1 if j % 2 else 1
        paired += [(sign, j * (j - 1) // 2 - t * j, j),
                   (sign, j * (j - 1) // 2 + t * j + j, j)]
    return sym, paired


def check_finite_jtp(n_max=10, prec=200, t_values=(-3, -2, -1, 1, 2, 3)):
    """Finite triple product at x = q^t, both the symmetric bilateral sum
    and the paired form with head 1/(q;q)_n^2 and per-term bracket
    (x^-j + x^j q^j).

    Combinations where a numerator factor degenerates to 1-q^0 are listed
    and not compared, except t = 1, which stays in as an exact zero = zero
    polynomial identity.

    Every right-side term starts at its q-shift, and the left side at the
    sum of its numerator's negative exponents (t != 0 leaves them all in
    one factor), so the shared length is prec minus the lowest start.
    """
    cases, skipped = [], []
    for t in t_values:
        if t == 0:
            skipped.append((t, "all n"))
            continue
        for n in range(n_max + 1):
            if (t < 0 and n >= -t) or (t > 1 and n >= t + 1):
                skipped.append((t, n))
            else:
                cases.append((t, n, *_jtp_sums(t, n)))
    starts = [0]
    for t, n, sym, paired in cases:
        starts.append(sum(min(e, 0) for e in range(-t, n - t))
                      + sum(min(e, 0) for e in range(1 + t, 1 + t + n)))
        starts += [shift for _, shift, _ in sym + paired]
    wprec = _length(prec, starts)
    pinv = [pochhammer_finite(1, k, wprec).invert()
            for k in range(2 * n_max + 1)]
    subs = []
    for t, n, sym, paired in cases:
        lhs = (pochhammer_finite(1 + t, n, wprec)
               * pochhammer_finite(-t, n, wprec) * pinv[2 * n])
        blocks = [pinv[n - j] * pinv[n + j] for j in range(n + 1)]
        for form, terms in (("sym", sym), ("paired", paired)):
            rhs = reduce(add, (blocks[abs(j)].shift(shift).scale(sign)
                               for sign, shift, j in terms))
            subs.append(_cmp(f"jtp:{form},t={t},n={n}", lhs, rhs, prec))
    params = {"n_max": n_max, "prec": prec,
              "skipped_params": [list(x) for x in skipped]}
    rep = merge_reports("finite_jtp", prec, subs, params)
    if skipped and rep.status == "pass":
        rep.notes = "not compared (vanishing factor): " + ", ".join(
            str(x) for x in skipped)
    return rep


def check_beta_second_derivatives(n_max=8, prec=120):
    """d^2/dx^2 of (xq, 1/x; q)_n / (q;q)_{2n} at x0 = 1 and x0 = 1/q,
    via order-2 epsilon arithmetic, against the closed forms
    -2 (q;q)_{n-1}^2/(q;q)_{2n} and its q^{n+2} multiple.

    The q-powers of the factors 1 - x q^{1+i} and 1 - q^i / x are shifts,
    not products, so each factor keeps every part's true start, q^0 or
    above; only x0 = 1/q itself starts at q^-1.  No product then starts
    below q^0 or loses its top, and the length is prec itself.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if prec < 2:
        raise ValueError(f"prec {prec} needs to be at least 2")
    one = LaurentSeries.one(ZZ, prec)

    def one_minus(x, k):
        """1 - q^k x for an EpsPoly x whose parts start at q^-k or above."""
        return EpsPoly(one - x.e0.shift(k), -x.e1.shift(k), -x.e2.shift(k))

    pinv2 = [pochhammer_finite(1, 2 * n, prec).invert()
             for n in range(n_max + 1)]
    poch = [pochhammer_finite(1, n, prec) for n in range(n_max)]
    points = (("1", one, 0), ("1/q", one.shift(-1), 1))
    subs = []
    for n in range(1, n_max + 1):
        base = (poch[n - 1] ** 2) * pinv2[n]
        for label, x0, at_qinv in points:
            x = EpsPoly.variable(x0)
            xinv = x.invert()
            acc = EpsPoly.constant(one)
            for i in range(n):
                acc = acc * one_minus(x, 1 + i)
                acc = acc * one_minus(xinv, i)
            lhs = (acc * pinv2[n]).second_derivative()
            closed = base.scale(-2)
            if at_qinv:
                closed = closed.shift(n + 2)
            subs.append(_cmp(f"beta2:x0={label},n={n}", lhs, closed, prec))
    return merge_reports("beta_second_derivative", prec, subs,
                         {"n_max": n_max, "prec": prec})


# ---------------------------------------------------------------------------
# the single-series representations of S_ell(b)


def _valid_m(ell, b, m):
    return 1 <= m <= ell - 1 and (2 * m - 2 * b - 1) % ell != 0


def _lemma_rhs(ell, specs, prec, ring):
    """Yield, per (b, m, second) in specs, the right side of the S_ell(b)
    representation, or of its reflected twin when second is true.

    Every theta [q^{ell y}; q^{ell^2}] here is sign * q^shift * P(a)
    (_pjac), so each k-term over [q^{ell m}][q^{a0}] is one P-monomial and
    the k-sum is a P-monomial sum times E(ell^2)^2; the T term is
    T * E(1)^3 times the one-term sum 1 / (P(m) E(ell^2)).  All sums of
    one ell come from one _monomial_sums call, so each power of a P(a) or
    E(ell^2) is built once per ell.  A T window is at least [., 1), which
    ends past prec.  Half-integer weights are realized mod ell through the
    inverses of 2 and 4, which exist for every odd ell, prime or not.
    """
    L2 = ell * ell
    inv2 = pow(2, -1, ell)
    inv4 = pow(4, -1, ell)
    plans, term_lists, starts = [], [], []
    for b, m, second in specs:
        a0 = ell * (ell - 1) // 2 + ell * m - ell * b
        am = min(m, ell - m)  # [q^{ell m}; q^{ell^2}] is P(m) itself
        s_0, h0, a_0 = _pjac(ell, a0)
        tc = (2 * (b + 1) if second else 2 * b) * (-1) ** (
            (b + 1) % 2 if second else b % 2)
        t0 = None
        if tc % ell:
            tq = ell * m - b * (b + 1) // 2
            t0 = t_series(a0, ell * m, L2, max(prec - tq, 1), ring=ring)
            term_lists.append([(tc, tq, {am: -1, "E": -1})])
            starts.append(tq + t0.low)
        s0 = (-1) ** (((ell + 1) // 2 + b) % 2) * (-1 if second else 1) * s_0
        qp2 = (L2 - 1) // 8 - b * (b + 1) // 2 + ell * m - h0
        ks = []
        for k in range(ell):
            if (2 * k - 2 * b - 1) % ell == 0:
                continue  # excluded index: the C theta in the denominator poles
            if k == m or (a0 + ell * k) % L2 == 0:
                continue  # a numerator theta vanishes, so the term is zero
            if second:
                w = ((b - k + inv2) * (b - k + inv2 + 1)) % ell
            else:
                w = ((k - b) * (k - b) - inv4) % ell
            if w == 0:
                continue
            A = a0 + ell * k
            B = ell * k - ell * m
            C = ell * (ell - 1) // 2 - ell * b + ell * k
            (sA, hA, aA), (sB, hB, aB), (sC, hC, aC) = (
                _pjac(ell, A), _pjac(ell, B), _pjac(ell, C))
            # additive, since two of the factors can fold onto one P(a)
            exps = Counter((aA, aB))
            exps.subtract((aC, am, a_0))
            ks.append((s0 * (-1) ** (k % 2) * w * sA * sB * sC,
                       qp2 + k * (k - ell) // 2 + hA + hB - hC, exps))
        if ks:
            term_lists.append(_times({"E": 2}, ks))
            starts.extend(qpow for _, qpow, _ in ks)
        plans.append((t0, bool(ks)))
    N = _length(prec, starts)
    e3 = euler_E(1, N, ring) ** 3
    sums = _monomial_sums(_p_basis(ell, N, ring), ell, N, *term_lists)
    for t0, has_k in plans:
        terms = [t0 * e3 * next(sums)] if t0 is not None else []
        if has_k:
            terms.append(next(sums))
        yield (reduce(add, terms) if terms
               else LaurentSeries.zeros(ring, -L2, prec))


def check_lemma_family(second=False, ells=(3, 5, 7, 9, 13), prec=300,
                       m_values=(1, 2)):
    """Both representations over every odd ell in ells, every b, and every
    m in m_values that the side condition allows."""
    if any(ell < 3 or ell % 2 == 0 for ell in ells):
        raise ValueError("ell must be odd and >= 3")
    name = "lemma_second" if second else "lemma_main"
    subs, excluded = [], []
    for ell in ells:
        ring = Zmod(ell)
        specs = []
        for b in range(ell):
            for m in m_values:
                if _valid_m(ell, b, m):
                    specs.append((b, m, second))
                else:
                    excluded.append((ell, b, m))
        for (b, m, _), rhs in zip(specs, _lemma_rhs(ell, specs, prec, ring)):
            idx = ell - b - 1 if second else b
            lhs = s_series(ell, idx, prec, ring=ring)
            subs.append(_cmp(f"{name}[l={ell},b={b},m={m}]", lhs, rhs, prec,
                             {"ell": ell, "b": b, "m": m}))
    params = {"ells": list(ells), "prec": prec, "m_values": list(m_values),
              "excluded": [list(x) for x in excluded]}
    return merge_reports(name, prec, subs, params)


def check_ecubed_dissect(ell=3, prec=300):
    """E(1)^3 mod ell against its theta k-sum; for ell = 5 and 7 the sum
    is also matched to the two-term and three-term collapsed forms."""
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be odd and >= 3")
    ring = Zmod(ell)
    L2 = ell * ell
    lhs = euler_E(1, prec, ring) ** 3
    s0 = -1 if ((1 + ell) // 2) % 2 else 1
    # q-powers (L2 - 1)/8 + k(k - ell)/2 are never negative
    ksum = [(s0 * (-1) ** (k % 2) * k, (L2 - 1) // 8 + k * (k - ell) // 2,
             _folded(ell, (k,))) for k in range(1, ell)]
    short = {5: ((2, 1, {1: 1}), (1, 0, {2: 1})),
             7: ((5, 3, {1: 1}), (4, 1, {2: 1}), (1, 0, {3: 1}))}
    sums = _monomial_sums(_p_basis(ell, prec, ring), ell, prec, *(
        _times({"E": 1}, terms)
        for terms in [ksum] + ([short[ell]] if ell in short else [])))
    rhs = next(sums)
    subs = [_cmp(f"ecubed:l={ell}", lhs, rhs, prec)]
    if ell in short:
        subs.append(_cmp(f"ecubed:short,l={ell}", rhs, next(sums), prec))
    return merge_reports("ecubed_dissect", prec, subs,
                         {"ell": ell, "prec": prec})


def check_ecubed_family(ells=(3, 5, 7, 9, 11, 13), prec=500):
    subs = [check_ecubed_dissect(ell, prec) for ell in ells]
    return merge_reports("ecubed_dissect", prec, subs, {"ells": list(ells)})


# ---------------------------------------------------------------------------
# eta-product dissections


# E(1)^4 mod 7 is E(49)^2 times the nine-term sum, and E(1)^10 mod 13 is
# E(169)^2 times the fifteen-term one; their classes q^1 mod 7 and q^5
# mod 13 are the two quotient conjectures of report_conjectures
_E4_MOD7 = ((1, 0, {2: 1, 3: 1, 1: -1}), (4, 1, {2: 2, 1: -1}),
            (6, 1, {3: 2, 2: -1}), (5, 8, {1: 2, 3: -1}), (2, 2, {3: 1}),
            (1, 3, {2: 1}), (2, 4, {3: 1, 1: 1, 2: -1}), (3, 5, {1: 1}),
            (4, 6, {1: 1, 2: 1, 3: -1}))
# rows written as (coeff, qpow, the four a of prod P(a))
_E10_MOD13 = tuple((c, e, _folded(13, ms)) for c, e, ms in (
    (1, 0, (2, 4, 5, 6)), (3, 1, (3, 3, 4, 6)), (9, 2, (1, 5, 6, 6)),
    (9, 3, (2, 3, 5, 6)), (12, 4, (2, 3, 5, 5)), (11, 5, (2, 3, 4, 6)),
    (6, 5, (1, 4, 5, 6)), (5, 18, (1, 2, 3, 5)), (1, 32, (1, 1, 2, 3)),
    (9, 20, (1, 2, 3, 4)), (4, 8, (1, 4, 4, 5)), (10, 9, (2, 2, 4, 6)),
    (1, 10, (1, 3, 4, 6)), (10, 11, (1, 3, 4, 5)), (3, 12, (1, 2, 5, 6))))


def check_eta_dissections(prec=2000):
    """The exact 5- and 7-dissections of E(1) with the powers of them the
    congruence pipeline uses, and E(1)^10 mod 13 in both the fifteen-term
    and the merged fourteen-term shape, with its q^7 coefficient."""
    if prec < 8:
        raise ValueError(f"prec {prec} needs to be at least 8")
    subs = []
    E1 = euler_E(1, prec, ZZ)

    # base q^25: E(1) = E(25) (X - q - q^2/X) with X = P(2)/P(1), squared
    # and cubed; powers of X have smaller ZZ coefficients than powers of
    # 1/P(1), so X, built in x = q^5 like the P(a), and E(25) are the basis
    P5 = _p_basis(5, prec, ZZ)
    X = P5[2] * P5[1].invert()
    d5 = (("eta:d5", ((1, 0, {"X": 1}), (-1, 1, {}), (-1, 2, {"X": -1}))),
          ("eta:d5_square", ((1, 0, {"X": 2}), (-2, 1, {"X": 1}),
                             (-1, 2, {}), (2, 3, {"X": -1}),
                             (1, 4, {"X": -2}))),
          ("eta:d5_cube", ((1, 0, {"X": 3}), (-3, 1, {"X": 2}), (5, 3, {}),
                           (-3, 5, {"X": -2}), (-1, 6, {"X": -3}))))
    sums = _monomial_sums({"X": X, "E": P5["E"]}, 5, prec, *(
        _times({"E": k}, terms) for k, (_, terms) in enumerate(d5, 1)))
    for k, ((name, _), d5k) in enumerate(zip(d5, sums), 1):
        subs.append(_cmp(name, E1 ** k, d5k, prec))

    # base q^49: E(1) = E(49) (P(2)/P(1) - q P(3)/P(2) - q^2 + q^5 P(1)/P(3))
    [d7] = _monomial_sums(_p_basis(7, prec, ZZ), 7, prec, _times({"E": 1}, [
        (1, 0, {2: 1, 1: -1}), (-1, 1, {3: 1, 2: -1}), (-1, 2, {}),
        (1, 5, {1: 1, 3: -1})]))
    subs.append(_cmp("eta:d7", E1, d7, prec))

    # fourth power mod 7, nine-term and eight-term shapes plus the quotient
    # trade that links them: it turns the q^8 row into two q^1 rows, and
    # the eight-term shape is the nine-term one with its class q^1 merged
    r7 = Zmod(7)
    e14 = euler_E(1, prec, r7) ** 4
    bridge_l = [t for t in _E4_MOD7 if t[1] == 8]
    bridge_r = ((5, 1, {2: 2, 1: -1}), (2, 1, {3: 2, 2: -1}))
    eight = [t for t in _E4_MOD7 if t[1] % 7 != 1] + [
        (2, 1, {2: 2, 1: -1}), (1, 1, {3: 2, 2: -1})]
    sums = _monomial_sums(_p_basis(7, prec, r7), 7, prec,
                          _times({"E": 2}, _E4_MOD7), bridge_l, bridge_r,
                          _times({"E": 2}, eight))
    subs.append(_cmp("eta:e4_mod7_9term", e14, next(sums), prec))
    subs.append(_cmp("eta:mod7_bridge", next(sums), next(sums), prec))
    subs.append(_cmp("eta:e4_mod7_8term", e14, next(sums), prec))

    # tenth power mod 13; the fourteen-term shape merges the fifteen-term
    # class q^5 (mod 13) into two q^5 rows
    r13 = Zmod(13)
    e110 = euler_E(1, prec, r13) ** 10
    fourteen = [t for t in _E10_MOD13 if t[1] % 13 != 5] + [
        (3, 5, _folded(13, (2, 3, 4, 6))), (1, 5, _folded(13, (1, 4, 5, 6)))]
    sums = _monomial_sums(_p_basis(13, prec, r13), 13, prec, *(
        _times({"E": 2}, terms) for terms in (_E10_MOD13, fourteen)))
    for name, s in zip(("eta:e10_mod13_15term", "eta:e10_mod13_14term"),
                       sums):
        subs.append(_cmp(name, e110, s, prec))
    params = {"prec": prec, "e10_q7_coeff": int(e110.coeff(7))}
    return merge_reports("eta_dissections", prec, subs, params)


# ---------------------------------------------------------------------------
# theta-product reduction rules

# exact base-q^169 relations: term1 - term2 + term3 = 0, each term a q-power
# times a product of four P(a)
_RULES13 = (
    (0, (3, 3, 3, 1), 0, (4, 2, 2, 2), 13, (5, 1, 1, 1)),
    (0, (4, 4, 4, 2), 0, (5, 3, 3, 3), 26, (6, 1, 1, 1)),
    (0, (5, 5, 5, 1), 0, (6, 3, 3, 3), 13, (5, 2, 2, 2)),
    (0, (5, 5, 5, 3), 0, (6, 4, 4, 4), 39, (4, 1, 1, 1)),
    (0, (6, 6, 6, 1), 0, (4, 4, 4, 3), 13, (3, 3, 3, 2)),
    (0, (6, 6, 6, 2), 0, (5, 4, 4, 4), 26, (3, 2, 2, 2)),
    (0, (6, 6, 6, 3), 0, (5, 5, 5, 4), 39, (2, 2, 2, 1)),
    (0, (6, 6, 6, 4), 0, (6, 5, 5, 5), 52, (2, 1, 1, 1)),
    (0, (4, 4, 3, 1), 0, (5, 3, 2, 2), 13, (6, 2, 1, 1)),
    (0, (4, 4, 5, 1), 0, (6, 2, 3, 3), 13, (6, 1, 2, 2)),
    (0, (5, 5, 3, 1), 0, (6, 2, 2, 4), 13, (6, 1, 1, 3)),
    (0, (5, 5, 4, 2), 0, (6, 4, 3, 3), 26, (5, 2, 1, 1)),
    (0, (5, 5, 6, 1), 0, (5, 2, 4, 4), 13, (4, 1, 3, 3)),
    (0, (5, 5, 6, 2), 0, (6, 3, 4, 4), 26, (4, 1, 2, 2)),
    (0, (6, 6, 3, 1), 0, (5, 2, 2, 6), 13, (4, 1, 1, 5)),
    (0, (6, 6, 4, 1), 0, (5, 5, 2, 3), 13, (4, 4, 1, 2)),
    (0, (6, 6, 4, 2), 0, (6, 3, 3, 5), 26, (4, 1, 1, 3)),
    (0, (6, 6, 5, 1), 0, (5, 4, 3, 3), 13, (4, 3, 2, 2)),
    (0, (6, 6, 5, 2), 0, (5, 5, 4, 3), 26, (3, 3, 2, 1)),
    (0, (6, 6, 5, 3), 0, (6, 5, 4, 4), 39, (3, 2, 1, 1)),
    (0, (6, 4, 5, 1), 0, (6, 3, 4, 2), 13, (5, 2, 3, 1)),
)


def check_product_rules(prec=5000):
    """Exact theta-product relations: the base-q^49 three-term relation,
    the mod-5 quotient reduction, the 21 base-q^169 rules, the four-theta
    elimination identity over its parameter grid, and the two mod-7
    component combinations that those relations force to vanish."""
    subs, skipped = [], []

    [as7] = _monomial_sums(_p_basis(7, prec, ZZ), 7, prec, [
        (1, 0, {3: 3, 1: 1}), (-1, 0, {2: 3, 3: 1}), (1, 7, {1: 3, 2: 1})])
    subs.append(_zero_cmp("rules:as7", as7, prec))

    r5 = Zmod(5)
    lhs5, rhs5 = _monomial_sums(_p_basis(5, prec, r5), 5, prec, [
        (1, 0, {2: 2, 1: -3}), (2, 5, {1: 2, 2: -3})], [(1, 0, {"E": -2})])
    subs.append(_cmp("rules:mod5_quotient", lhs5, rhs5, prec))

    # every base-q^169 combination below must vanish
    zero13 = []
    for idx, (q1, m1, q2, m2, q3, m3) in enumerate(_RULES13, 1):
        zero13.append((f"rules:r{idx}", [
            (1, q1, _folded(13, m1)), (-1, q2, _folded(13, m2)),
            (1, q3, _folded(13, m3))]))
    grid = [(a, b, c, d)
            for a in range(1, 7) for b in range(1, a)
            for c in range(1, b) for d in range(1, c)]
    for a, b, c, d in grid:
        args = (a + d, a - d, b + c, b - c, a + c, a - c, b + d, b - d,
                a + b, a - b, c + d, c - d)
        if any(v % 13 == 0 for v in args):
            skipped.append((a, b, c, d))
            continue
        zero13.append((f"rules:mt({a},{b},{c},{d})", [
            (1, 0, _folded(13, args[0:4])), (-1, 0, _folded(13, args[4:8])),
            (1, 13 * (b - c), _folded(13, args[8:12]))]))

    # the (5,3,2,1) grid point is term-for-term the last listed rule;
    # P(7) = P(6) by the theta reflection, so the middle terms agree too
    q1, m1, q2, m2, q3, m3 = _RULES13[-1]
    pairs = (("t1", (q1, m1), (0, (5 + 1, 5 - 1, 3 + 2, 3 - 2))),
             ("t2", (q2, m2), (0, (5 + 2, 5 - 2, 3 + 1, 3 - 1))),
             ("t3", (q3, m3), (13 * (3 - 2), (5 + 3, 5 - 3, 2 + 1, 2 - 1))))
    sums = _monomial_sums(_p_basis(13, prec, ZZ), 13, prec,
                          *(t for _, t in zero13),
                          *([(1, qp, _folded(13, ms))]
                            for _, *sides in pairs for qp, ms in sides))
    for name, _ in zero13:
        subs.append(_zero_cmp(name, next(sums), prec))
    for tag, *_ in pairs:
        subs.append(_cmp(f"rules:mt_vs_r21,{tag}", next(sums), next(sums),
                         prec))

    r7 = Zmod(7)
    prec7 = min(prec, 600)
    sums = _monomial_sums(_p_basis(7, prec7, r7), 7, prec7, (
        (4, 7, {2: 2, 1: -1, 3: -1}), (3, 7, {3: 1, 2: -1}),
        (3, 14, {1: 2, 3: -2})), (
        (2, 0, {2: 3, 1: -2, 3: -1}), (5, 0, {3: 3, 2: -3}),
        (5, 7, {1: 2, 2: -2}), (5, 7, {1: 1, 2: 1, 3: -2})))
    subs.append(_zero_cmp("rules:mod7_class0", next(sums), prec7))
    subs.append(_zero_cmp("rules:mod7_class5", next(sums), prec7))

    params = {"prec": prec, "mod7_prec": prec7,
              "skipped_params": [list(x) for x in skipped]}
    return merge_reports("product_rules", prec, subs, params)


# ---------------------------------------------------------------------------
# theorem 2: the dissected forms of U and V mod 3, 5, 7, 13

_LAMBERT = {
    "U3": ((2, 2, (3, 3, 9)),),
    "V3": ((2, 3, (6, 3, 9)), (1, 2, (3, 3, 9))),
    "U5": ((4, 2, (5, 5, 25)), (4, 4, (10, 5, 25))),
    "V5": ((4, 5, (15, 5, 25)), (1, 2, (5, 5, 25))),
    "U7": ((5, 1, (7, 7, 49)), (2, 4, (14, 7, 49)), (4, 6, (21, 7, 49))),
    "V7": ((6, 7, (28, 7, 49)), (2, 1, (7, 7, 49)), (1, 4, (14, 7, 49)),
           (5, 6, (21, 7, 49))),
    "U13": ((12, 3, (39, 13, 169)), (10, -8, (13, 13, 169)),
            (11, 7, (52, 13, 169)), (1, 10, (65, 13, 169)),
            (8, -2, (26, 13, 169)), (4, 12, (78, 13, 169))),
    "V13": ((12, 13, (91, 13, 169)), (11, 3, (39, 13, 169)),
            (3, -8, (13, 13, 169)), (12, 7, (52, 13, 169)),
            (9, -2, (26, 13, 169)), (5, 12, (78, 13, 169))),
}

# negative prefactors such as 10 q^{-8} T(13,13,169) scale the whole T term;
# only with that reading do the class-5 and class-11 pieces land on the
# right residues mod 13


# P-parts of the dissected forms for ell = 3, 5, 7: (coeff, qpow, {a: e})
# terms of coeff * q^qpow * prod P(a)^e, each sum times E(ell^2)^k / E(ell)
_PRODUCTS = {
    "U3": ((1, 1, {1: -1}),),
    "V3": (),
    "U5": ((1, 1, {2: 1, 1: -1}), (1, 2, {})),
    "V5": ((4, 3, {1: 1, 2: -1}),),
    "U7": (
        (3, 1, {2: 2, 3: 1, 1: -3}),
        (4, 8, {2: 3, 1: -1, 3: -2}),
        (3, 8, {1: 1, 3: 2, 2: -3}),
        (4, 2, {3: 2, 1: -2}),
        (1, 2, {2: 3, 1: -3}),
        (1, 9, {1: 1, 3: 1, 2: -2}),
        (2, 9, {2: 1, 3: -1}),
        (3, 3, {2: 1, 3: 1, 1: -2}),
        (4, 3, {2: 4, 1: -3, 3: -1}),
        (1, 3, {3: 3, 2: -2, 1: -1}),
        (4, 10, {1: 1, 2: -1}),
        (5, 10, {2: 2, 3: -2}),
        (2, 6, {3: 2, 2: -2}),
        (1, 6, {2: 1, 1: -1}),
        (4, 13, {1: 2, 2: -1, 3: -1}),
        (6, 13, {1: 1, 2: 2, 3: -3}),
    ),
    "V7": (
        (5, 1, {2: 2, 3: 1, 1: -3}),
        (3, 8, {}),
        (6, 8, {2: 3, 1: -1, 3: -2}),
        (1, 15, {1: 3, 3: -1, 2: -2}),
        (1, 2, {2: 3, 1: -3}),
        (3, 9, {3: 1, 1: 1, 2: -2}),
        (1, 9, {2: 1, 3: -1}),
        (4, 3, {2: 4, 1: -3, 3: -1}),
        (5, 10, {1: 1, 2: -1}),
        (4, 10, {2: 2, 3: -2}),
        (4, 5, {3: 1, 1: -1}),
        (5, 12, {1: 2, 2: -2}),
        (1, 12, {1: 1, 2: 1, 3: -2}),
        (2, 6, {2: 1, 1: -1}),
        (6, 13, {1: 2, 2: -1, 3: -1}),
        (4, 13, {1: 1, 2: 2, 3: -3}),
    ),
}

_VANISHING = {"U3": (0,), "V3": (1,), "U5": (0, 3), "V5": (1, 4),
              "U7": (0, 5), "V7": (), "U13": (0,), "V13": (10,)}

CASES = tuple(_LAMBERT)


def _theorem2_rhs(case, prec):
    """Each T term over E(ell^2) P(1) plus the P-sum times
    E(ell^2)^k / E(ell); a T window is at least [., 1), past prec."""
    kind, ell = case[0], int(case[1:])
    ring = Zmod(ell)
    lamberts = [(coeff, qpow, t_series(a, b, c, max(prec - qpow, 1),
                                       ring=ring))
                for coeff, qpow, (a, b, c) in _LAMBERT[case]]
    pterms = (load_table("A13" if kind == "U" else "B13") if ell == 13
              else _PRODUCTS[case])
    N = _length(prec, [qpow + t.low for _, qpow, t in lamberts]
                + [qpow for _, qpow, _ in pterms])
    epow = 4 if ell in (7, 13) else 2
    inv_den, *psum = _monomial_sums(
        _p_basis(ell, N, ring), ell, N, [(1, 0, {"E": -1, 1: -1})],
        *([_times({"E": epow, "e": -1}, pterms)] if pterms else []))
    terms = [(t * inv_den).shift(qpow).scale(coeff)
             for coeff, qpow, t in lamberts]
    return reduce(add, terms + psum)


def check_theorem2(case="U3", prec=800):
    """Definitional U or V mod ell against the dissected closed form; the
    residue classes the congruences live on are also checked to vanish
    inside the right-hand side itself."""
    case = case.upper()
    if case not in _LAMBERT:
        raise ValueError(f"unknown case {case!r}; pick one of {CASES}")
    kind, ell = case[0], int(case[1:])
    if prec < 2 * ell * ell:
        raise ValueError(f"prec {prec} cannot exercise every residue class "
                         f"mod {ell}; need at least {2 * ell * ell}")
    pair = uv_series_def(prec)
    lhs = (pair.u if kind == "U" else pair.v).reduce_mod(ell)
    rhs = _theorem2_rhs(case, prec)
    cid = f"theorem2_{case.lower()}"
    subs = [_cmp(f"{cid}:series", lhs, rhs, prec)]
    comps = rhs.dissect(ell)
    for r in _VANISHING[case]:
        comp = comps[r]
        t = comp.valuation()
        if t is None:
            subs.append(Report(f"{cid}:class{r}", "pass", prec,
                               window=(comp.low, comp.prec)))
        else:
            subs.append(Report(f"{cid}:class{r}", "fail", prec,
                               first_failure=(ell * t + r, comp.coeff(t), 0),
                               notes=f"residue class {r} should vanish"))
    return merge_reports(cid, prec, subs, {"case": case, "prec": prec})


_TEN = (("u", 3, 0), ("u", 5, 0), ("u", 5, 3), ("u", 7, 0), ("u", 7, 5),
        ("u", 13, 0), ("v", 3, 1), ("v", 5, 1), ("v", 5, 4), ("v", 13, 10))


def _first_nonzero_mod(s, res, step, n_max, modulus):
    """(n, c, 0) for the first n = res, res + step, ... up to n_max whose
    coefficient c of s is nonzero mod modulus (c reduced), or None."""
    for n in range(res, n_max + 1, step):
        c = s.coeff(n) % modulus
        if c:
            return n, c, 0
    return None


def check_theorem1(n_max=2000):
    """All ten vanishing progressions of u and v, coefficient by
    coefficient up to n_max."""
    if n_max < 13:
        raise ValueError("n_max must be >= 13")
    pair = uv_series_def(n_max + 1)
    names = []
    for seq, mod, res in _TEN:
        s = pair.u if seq == "u" else pair.v
        name = f"{seq}({mod}n+{res})" if res else f"{seq}({mod}n)"
        names.append(name)
        bad = _first_nonzero_mod(s, res, mod, n_max, mod)
        if bad is not None:
            return Report("theorem1", "fail", n_max,
                          params={"n_max": n_max, "congruence": name},
                          first_failure=bad,
                          notes=f"{name} fails at n={bad[0]}")
    return Report("theorem1", "pass", n_max,
                  params={"n_max": n_max, "congruences": names},
                  window=(0, n_max + 1))


# ---------------------------------------------------------------------------
# supporting identities on T


def check_t_functional_eq(prec=200):
    """T(a,b,c) = q^{c-a-b} T(c-a,c-b,c) over a 30-point grid, exact."""
    subs = []
    for ell in (3, 5, 7):
        c = ell * ell
        for a in (1, 2, ell, ell + 1, 2 * ell):
            for b in (ell, 2 * ell):
                sh = c - a - b
                lhs = t_series(a, b, c, prec, ring=ZZ)
                rhs = t_series(c - a, c - b, c, prec - sh, ring=ZZ).shift(sh)
                subs.append(_cmp(f"tfe:a={a},b={b},c={c}", lhs, rhs, prec))
    return merge_reports("t_functional_eq", prec, subs, {"prec": prec})


def check_chan_identity(prec=200):
    """[A] E^2 / ([B1][B2]) splits into two T terms; 20 parameter points
    over the bases 9, 25, 49, 169, exact."""
    subs, skipped = [], []
    for M in (9, 25, 49, 169):

        def shift(x):
            return _theta_normalize(x, M)[1]

        points, starts = [], []
        for A, B1, B2 in ((1, 2, 3), (2, 3, 5), (M - 1, 1, 3),
                          (M + 2, 1, 5), (4, M - 1, 2)):
            if any(v % M == 0 for v in
                   (A, B1, B2, A - B1, A - B2, B1 - B2)):
                skipped.append((A, B1, B2, M))
                continue
            # each T term is [A - Bi] / [Bj - Bi] T(Bi, A - Bj, M)
            tterms = []
            for Bi, Bj in ((B1, B2), (B2, B1)):
                sh = shift(A - Bi) - shift(Bj - Bi)
                t = t_series(Bi, A - Bj, M, max(prec - sh, 1), ring=ZZ)
                tterms.append((A - Bi, Bj - Bi, t))
                starts.append(sh + t.low)
            starts.append(shift(A) - shift(B1) - shift(B2))
            points.append((A, B1, B2, tterms))
        N = _length(prec, starts)
        EM2 = euler_E(M, N, ZZ) ** 2

        def jac(x):
            return jacobi_theta(x, M, N, ZZ)

        for A, B1, B2, tterms in points:
            lhs = jac(A) * EM2 * (jac(B1) * jac(B2)).invert()
            rhs = reduce(add, (jac(x) * jac(y).invert() * t
                               for x, y, t in tterms))
            subs.append(_cmp(f"chan:A={A},B1={B1},B2={B2},M={M}",
                             lhs, rhs, prec))
    params = {"prec": prec, "skipped_params": [list(x) for x in skipped]}
    return merge_reports("chan_identity", prec, subs, params)


def pole_split_check(ell, prec=120, n_range=20):
    """Check 1/(1-q^n)^2 = sum_{k=0}^{ell-2} (k+1) q^{nk} / (1-q^{ell n}) mod ell.

    This is the step that turns a double pole into single poles with
    polynomial weights, so it gets its own direct test over n = 1..n_range.
    """
    ring = Zmod(ell)
    subs = []
    for n in range(1, n_range + 1):
        lhs = [0] * prec
        e, j = 0, 1
        while e < prec:
            lhs[e] += j
            e += n
            j += 1
        rhs = [0] * prec
        for k in range(ell - 1):
            e = n * k
            while e < prec:
                rhs[e] += k + 1
                e += ell * n
        subs.append(series_compare_report(
            f"pole_split[{ell}]:n={n}",
            LaurentSeries(ring, 0, lhs), LaurentSeries(ring, 0, rhs), prec))
    return merge_reports(f"pole_split[{ell}]", prec, subs, {"ell": ell})


def check_pole_split(ells=(3, 5, 7, 13), prec=120, n_range=20):
    """Double pole against the mod-ell single-pole split, per modulus."""
    subs = [pole_split_check(ell, prec, n_range) for ell in ells]
    return merge_reports("pole_split", prec, subs, {"ells": list(ells)})


# ---------------------------------------------------------------------------
# cross checks on the whole pipeline


def check_uv_oracle(n_max=25):
    """Enumerated u(n), v(n) against the series coefficients."""
    pair = uv_series_def(n_max + 1)
    for n in range(n_max + 1):
        for name, cnt, s in (("u", u_count(n), pair.u),
                             ("v", v_count(n), pair.v)):
            if cnt != s.coeff(n):
                return Report("uv_oracle", "fail", n_max,
                              params={"n_max": n_max, "seq": name},
                              first_failure=(n, cnt, s.coeff(n)),
                              notes=f"{name}({n}) disagrees")
    return Report("uv_oracle", "pass", n_max, params={"n_max": n_max},
                  window=(0, n_max + 1))


def check_uv_dual(prec=1000):
    """Recurrence-built U, V against the double-pole quotient route."""
    d = uv_series_def(prec)
    l = uv_series_lambert(prec)
    subs = [_cmp("uv_dual:u", d.u, l.u, prec),
            _cmp("uv_dual:v", d.v, l.v, prec)]
    return merge_reports("uv_dual", prec, subs, {"prec": prec})


def check_cross_lemma(ells=(5, 7, 13), prec=200):
    """Assemble U and V mod ell out of the S_ell(b) representations and
    compare against the theorem2 right-hand sides: the derivation chain
    and the stated forms must agree."""
    subs = []
    for ell in ells:
        ring = Zmod(ell)
        inv2 = pow(2, -1, ell)
        half = (ell - 1) // 2
        specs = []
        for idx in range(ell):
            b, second = (idx, False) if idx <= half else (ell - 1 - idx, True)
            specs.append((b, 1 if _valid_m(ell, b, 1) else 2, second))
        # theorem2 sides first: V5's lowest start, q^2, is the check's
        # highest, so a prec too small gets the least accepted prec named
        rhs = {kind: _theorem2_rhs(f"{kind}{ell}", prec) for kind in "VU"}
        S = list(_lemma_rhs(ell, specs, prec, ring))
        uterms = [S[0], S[half].scale(inv2)]
        for b in range(1, (ell - 3) // 2 + 1):
            uterms.append(S[b].scale(b + 1))
            uterms.append(S[ell - 1 - b].scale(-b))
        vterms = [S[half].scale(-inv2), S[ell - 1].scale(-1)]
        for b in range((ell - 5) // 2 + 1):
            vterms.append(S[b + 1].scale(b + 1))
            vterms.append(S[ell - 2 - b].scale(-(b + 2)))
        NE = _length(prec, [s.low for s in S])  # every S reaches prec
        inv_e3 = (euler_E(1, NE, ring) ** 3).invert()
        for kind, terms in (("U", uterms), ("V", vterms)):
            assembled = (reduce(add, terms) * inv_e3).scale(-inv2)
            subs.append(_cmp(f"cross:{kind}{ell}", assembled, rhs[kind],
                             prec))
    return merge_reports("cross_lemma", prec, subs,
                         {"ells": list(ells), "prec": prec})


def report_conjectures(n_max=1800, prec=2000):
    """Numerical exploration of the open statements: the mod-9/27
    progressions and the two suggested quotient congruences.  Purely
    informational; the suite never gates on this report."""
    subs = []
    pair = uv_series_def(n_max + 1)
    scans = (("u(9n) mod 9", pair.u, 9, 0, 9),
             ("v(9n+1) mod 9", pair.v, 9, 1, 9),
             ("v(27n+1) mod 27", pair.v, 27, 1, 27))
    for name, s, modulus, res, step in scans:
        bad = _first_nonzero_mod(s, res, step, n_max, modulus)
        if bad is None:
            subs.append(Report(f"conj:{name}", "pass", n_max,
                               window=(0, n_max + 1),
                               notes="no counterexample below bound"))
        else:
            subs.append(Report(f"conj:{name}", "fail", n_max,
                               first_failure=bad))

    r7 = Zmod(7)
    lhs7, rhs7 = _monomial_sums(
        _p_basis(7, prec, r7), 7, prec,
        [t for t in _E4_MOD7 if t[1] % 7 == 1], [(3, 1, {"e": 4, "E": -2})])
    subs.append(_cmp("conj:mod7_quotient", lhs7, rhs7, prec))

    r13 = Zmod(13)
    lhs13, rhs13 = _monomial_sums(
        _p_basis(13, prec, r13), 13, prec,
        [t for t in _E10_MOD13 if t[1] % 13 == 5],
        [(1, 0, {"e": 10, "E": -2})])
    printed = _cmp("conj:mod13_quotient", lhs13, rhs13, prec)
    subs.append(printed)
    rescale = None
    if printed.status != "pass":
        for cc in range(1, 13):
            probe = _cmp("probe", lhs13, rhs13.shift(5).scale(cc), prec)
            if probe.status == "pass":
                rescale = cc
                break
        subs.append(Report("conj:mod13_quotient_rescaled",
                           "pass" if rescale else "fail", prec,
                           params={"match": rescale},
                           notes=(f"agrees after multiplying by "
                                  f"{rescale} q^5" if rescale else
                                  "no q^5 rescaling fits either")))
    params = {"n_max": n_max, "prec": prec, "mod13_rescale": rescale}
    rep = merge_reports("conjectures", prec, subs, params)
    rep.params["informational"] = True
    return rep


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    fn: object
    defaults: dict
    informational: bool = False


REGISTRY = {
    "uv_oracle": CheckDef(check_uv_oracle, {"n_max": 25}),
    "uv_dual": CheckDef(check_uv_dual, {"prec": 1000}),
    "theorem1": CheckDef(check_theorem1, {"n_max": 2000}),
    "theorem2_u3": CheckDef(partial(check_theorem2, "U3"), {"prec": 800}),
    "theorem2_v3": CheckDef(partial(check_theorem2, "V3"), {"prec": 800}),
    "theorem2_u5": CheckDef(partial(check_theorem2, "U5"), {"prec": 800}),
    "theorem2_v5": CheckDef(partial(check_theorem2, "V5"), {"prec": 800}),
    "theorem2_u7": CheckDef(partial(check_theorem2, "U7"), {"prec": 800}),
    "theorem2_v7": CheckDef(partial(check_theorem2, "V7"), {"prec": 800}),
    "theorem2_u13": CheckDef(partial(check_theorem2, "U13"), {"prec": 1500}),
    "theorem2_v13": CheckDef(partial(check_theorem2, "V13"), {"prec": 1500}),
    "lemma_main": CheckDef(partial(check_lemma_family, False),
                           {"prec": 300}),
    "lemma_second": CheckDef(partial(check_lemma_family, True),
                             {"prec": 300}),
    "ecubed_dissect": CheckDef(check_ecubed_family, {"prec": 500}),
    "eta_dissections": CheckDef(check_eta_dissections, {"prec": 2000}),
    "product_rules": CheckDef(check_product_rules, {"prec": 5000}),
    "bailey_uv": CheckDef(check_bailey_uv, {"n_max": 12, "prec": 150}),
    "finite_jtp": CheckDef(check_finite_jtp, {"n_max": 10, "prec": 200}),
    "beta_second_derivative": CheckDef(check_beta_second_derivatives,
                                       {"n_max": 8, "prec": 120}),
    "t_functional_eq": CheckDef(check_t_functional_eq, {"prec": 200}),
    "chan_identity": CheckDef(check_chan_identity, {"prec": 200}),
    "pole_split": CheckDef(check_pole_split, {"prec": 120}),
    "cross_lemma": CheckDef(check_cross_lemma, {"prec": 200}),
    "conjectures": CheckDef(report_conjectures,
                            {"n_max": 1800, "prec": 2000},
                            informational=True),
}

SUITE = (
    "uv_oracle", "uv_dual", "theorem1",
    "theorem2_u3", "theorem2_v3", "theorem2_u5", "theorem2_v5",
    "theorem2_u7", "theorem2_v7", "theorem2_u13", "theorem2_v13",
    "lemma_main", "lemma_second", "ecubed_dissect", "eta_dissections",
    "product_rules", "bailey_uv", "finite_jtp", "beta_second_derivative",
    "t_functional_eq", "chan_identity", "pole_split", "cross_lemma",
    "conjectures",
)


def ensure_suite_covers_registry():
    missing = set(REGISTRY) - set(SUITE)
    extra = set(SUITE) - set(REGISTRY)
    if missing:
        raise RuntimeError(f"checks registered but not in the suite: "
                           f"{sorted(missing)}")
    if extra:
        raise RuntimeError(f"suite names unknown checks: {sorted(extra)}")


def run_check(check_id, overrides=None):
    """Run one registered check; overrides touch only the parameters the
    check actually takes."""
    if check_id not in REGISTRY:
        raise KeyError(f"unknown check {check_id!r}")
    cd = REGISTRY[check_id]
    params = dict(cd.defaults)
    for k, v in (overrides or {}).items():
        if v is not None and k in params:
            params[k] = v
    t0 = perf_counter()
    rep = cd.fn(**params)
    rep.wall_time = perf_counter() - t0
    return rep
