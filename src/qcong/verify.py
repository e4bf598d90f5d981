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
interleaves the class sums into one q-series.  Within a class one planner
(_horner_sum) factors shared powers out of the terms, a sparse Horner
scheme, so each distinct power multiplies a partial sum once instead of
every term.  The mod-ell sums (theorem2, the lemma layer, cross_lemma,
conjectures) run the plan on packed 64-bit lanes, one int multiply per
product, reduced mod m only where a tracked bound would reach 2^64
(_LaneSums).  E(ell^2) and E(ell) are series in x too, keys "E" and "e"
of the same basis, so a prefactor such as E(ell^2)^k / E(ell) becomes
exponents merged into every term (_times), and Horner factors it out
once per class; only the Lambert (T) terms, the powers of E(1) and the
comparisons stay in q.  Every inverse of a basis series is a division by
a sparse series, built the first time a term needs it.  The S_ell(b)
representations (the lemma layer, _lemma_rhs) go through the same
evaluator, one call per ell: each theta [q^{ell y}; q^{ell^2}] there is
sign * q^shift * P(a), by the theta normalization followed by the fold
P(a) = P(ell - a) (_pjac).

The identities of ecubed_dissect, eta_dissections and product_rules are
data, module-level (name, ell, modulus, lhs, rhs) tuples over ZZ (modulus
None) or Z/modulus.  A side is a term list over _p_basis(ell), an int k
for E(1)^k in q, or, on the right, None for 0; the checks select from
these tables, and _identity_reports evaluates them cleared: with P(a) =
J(a) / E(ell^2), J(a) the sparse triple-product sum, both sides times the
least monomial M that leaves no exponent negative are sums of products
of sparse series, summed over ZZ as packed shift-adds (_SparseSums, and
_sparse_side for E(1)^k M), with no theta, inverse or division.
chan_identity is compared cleared of its theta denominators the same way.

Windows come from the real q-shifts, not from fixed padding.  Each term
starts at a support bound: a P-monomial at its qpow, a Lambert sum at its
prefactor shift plus the low that t_series or s_series returns (min(0,
least term exponent)).  The term lists do not depend on the working
length, so they are built first, and the length shared by one check's
products is prec minus the lowest start; every side then reaches prec.
A comparison whose window ends below prec reports skipped, never pass
(series_compare_report).
"""

import os
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from importlib import resources
from itertools import chain
from inspect import signature
from math import prod
from operator import add, itemgetter, sub
from time import perf_counter

from . import _kernel
from .lambert import s_series, t_series
from .partitions import count_table, uv_series_def, uv_series_lambert
from .products import (_theta_normalize, euler_cube, euler_E,
                       gaussian_binomials, jacobi_theta, pochhammer_finite,
                       triple_product)
from .report import Report, merge_reports, series_compare_report
from .series import ZZ, LaurentSeries, Zmod


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
    inverse kept under (key, -1), which the basis builds: basis[key, -1]
    is a zero-argument builder, called the first time a term needs the
    inverse, so an unused inverse costs nothing."""
    if e == 1:
        return basis[key]
    if (key, e) not in powers:
        if e == -1:
            powers[key, e] = basis[key, -1]()
        else:
            unit = 1 if e > 0 else -1
            powers[key, e] = (_power(basis, powers, key, e - unit)
                              * _power(basis, powers, key, unit))
    return powers[key, e]


def _monomial_sums(basis, step, prec, *term_lists):
    """Yield, per term list, the sum of coeff * q^qpow * prod B_key^e over
    its (coeff, qpow, {key: e}) terms, where B_key(q) = basis[key](q^step);
    an empty list raises ValueError when its sum is reached.  A key that a
    term raises to a negative power needs the inverse builder
    basis[key, -1] (_power).

    The basis series are series in x = q^step on one window [0, n) with
    n = ceil(prec / step), so each stands for a q-series on [0, prec), and
    every sum is on the q-window [min qpow, min qpow + prec).  With step 1
    the basis is in q itself.  A term with no factors is the monomial
    coeff * q^qpow.

    The terms are split by the residue r = qpow mod step: a class is a sum
    of c * x^t * prod basis[key]^e with t = (qpow - r) / step, so every
    power, inverse and group product of a class is a product of series of
    length n, not prec.  Every class reads back n coefficients of x from
    its lowest t, and the class sums are interleaved into the q-series,
    class r on the exponents r mod step.  So the sum ends at
    q^(min qpow + prec), which every class reaches: its terms start at or
    above min qpow, and step * n >= prec.  Each power of a base is built
    once per call and shared by every class and every term list.

    One plan (_horner_sum) sums every class, on one of two backends.  A
    basis of sparse series, each a list of (exponent, coeff) terms, is
    over ZZ on n = ceil(prec / step), and its sums run as packed
    shift-adds with no inverse (_SparseSums).  A basis of series over
    Z/m on [0, n), with n (m - 1)^2 < 2^64 so that a product of two
    canonical series fits a 64-bit lane, runs on packed lanes
    (_LaneSums): each power is packed into an int once per call and must
    lie on [0, n), a product is one int multiply, and each partial sum
    carries a bound on its lanes, so lanes are reduced mod m only where a
    bound would reach 2^64, and each class is read back once.  Any other
    basis raises ValueError.
    """
    if isinstance(next(iter(basis.values())), list):
        ring, n = ZZ, -(-prec // step)
        ev = _SparseSums(basis, n, term_lists)
    else:
        ref = next(s for s in basis.values() if isinstance(s, LaurentSeries))
        ring, n, m = ref.ring, len(ref.coeffs), ref.ring.modulus
        if m is None or (n * (m - 1) ** 2) >> 64:
            raise ValueError(f"a series basis needs Z/m with n (m - 1)^2 "
                             f"< 2^64 for lane sums, not {ring} at n = {n}")
        ev = _LaneSums(basis, m, n)
    for terms in term_lists:
        if not terms:
            raise ValueError("a sum of monomials needs at least one term")
        classes = {}
        for c, qpow, exps in terms:
            t, r = divmod(qpow, step)
            classes.setdefault(r, []).append((c, t, exps))
        parts = []
        for r, cls in classes.items():
            keys = sorted({k for _, _, exps in cls for k, e in exps.items()
                           if e}, key=repr)
            rows = [(c, t, tuple(exps.get(k, 0) for k in keys))
                    for c, t, exps in cls]
            total = _horner_sum(ev, keys, rows, range(len(keys)), 0)
            parts.append((r, *ev.read(total)))
        low = min(step * s + r for r, s, _ in parts)
        out = [0] * prec
        for r, s, cs in parts:
            start = step * s + r - low
            out[start::step] = cs[:len(range(start, prec, step))]
        yield LaurentSeries._canonical(ring, low, tuple(out))


def _horner_sum(ev, keys, rows, cols, done):
    """The sum of rows (c, t, exps), exps the exponents over keys (in repr
    order), with the columns not in cols factored out.  The rows of a node
    agree on every factored column, so done, the number of nonzero
    exponents factored out, is theirs alike.

    Rows with at most one factor left are a linear combination of cached
    powers, c * x^t * key^e, with no product.  The others are grouped by
    their exponent of one key: the column with the fewest distinct values
    among them, ties going to the lower repr.  Each group is summed
    recursively and, for a nonzero exponent e, multiplied once by key^e.
    """
    multi, parts = [], []
    for row in rows:
        c, t, es = row
        nz = len(es) - es.count(0)
        if nz - done > 1:
            multi.append(row)
        elif nz == done:
            parts.append(ev.term(c, t, None, 0))
        else:
            for j in cols:
                if es[j]:
                    parts.append(ev.term(c, t, keys[j], es[j]))
                    break
    if len(multi) == 1:
        # one term: every column ties at one value, so the plan is a
        # chain of products with the lowest repr outermost
        c, t, es = multi[0]
        *outer, last = [j for j in cols if es[j]]
        part = ev.term(c, t, keys[last], es[last])
        for j in reversed(outer):
            part = ev.times(keys[j], es[j], part)
        parts.append(part)
    elif multi:
        columns = list(zip(*[row[2] for row in multi]))
        _, j = min((len(set(columns[j])), j) for j in cols if any(columns[j]))
        groups = {}
        for e, row in zip(columns[j], multi):
            groups.setdefault(e, []).append(row)
        rest = [k for k in cols if k != j]
        for e in sorted(groups):
            part = _horner_sum(ev, keys, groups[e], rest, done + (e != 0))
            parts.append(ev.times(keys[j], e, part) if e else part)
    return ev.total(parts)


class _LaneSums:
    """The parts of _horner_sum over Z/m as (low, v, bound): v packs the
    coefficients of x^low ... x^(low + n - 1), one per 64-bit lane, each
    lane nonnegative, at most bound and congruent to its coefficient.  A
    term c x^t key^e has bound c (m - 1), and c x^t bound c; a sum,
    shifted and masked to n lanes, the sum of its parts' bounds; a
    product, n (m - 1) times its part's, as a lane sums at most n
    products.  A part is reduced to bound m - 1 first where a bound would
    reach 2^64, so no lane carries."""

    def __init__(self, basis, m, n):
        self.power, self.m, self.n = partial(_power, basis, {}), m, n
        self.grow, self.mask, self.packed = n * (m - 1), (1 << 64 * n) - 1, {}

    def _packed(self, key, e):
        p = self.packed.get((key, e))
        if p is None:
            s = self.power(key, e)
            if (s.low, s.prec) != (0, self.n):
                raise ValueError(f"{key}^{e} is on [{s.low}, {s.prec}), "
                                 f"lane sums need [0, {self.n})")
            p = self.packed[key, e] = _kernel._lane_int(array("Q", s.coeffs))
        return p

    def _reduced(self, v):
        return _kernel._lane_int(array("Q", _kernel._read_lanes(
            v, self.n, "Q", self.m)))

    def term(self, c, t, key, e):
        c %= self.m
        if key is None:
            return t, c, c
        return t, c * self._packed(key, e), c * (self.m - 1)

    def times(self, key, e, part):
        t, v, bound = part
        if (self.grow * bound) >> 64:
            v, bound = self._reduced(v), self.m - 1
        return t, (v * self._packed(key, e)) & self.mask, self.grow * bound

    def total(self, parts):
        low = min(t for t, _, _ in parts)
        v = bound = 0
        for t, w, b in parts:
            if (bound + b) >> 64:
                v, w, bound, b = (self._reduced(v), self._reduced(w),
                                  self.m - 1, self.m - 1)
            v += w << 64 * (t - low)
            bound += b
        return low, v & self.mask, bound

    def read(self, part):
        low, v, _ = part
        return low, _kernel._read_lanes(v, self.n, "Q", self.m)


def _slot_bytes(bound):
    """The fewest bytes of a signed slot that holds -bound .. bound."""
    return (bound.bit_length() + 8) // 8


class _SparseSums:
    """The parts of _horner_sum over ZZ on a basis of sparse series, each
    its (exponent, coeff) terms, as (low, v): v packs x^low ...
    x^(low + n - 1) in n signed slots.  A product by key^e is e shift-add
    passes (_kernel.sparse_mul), exact modulo 2^(8 nbytes n) as sums are,
    so parts stay packed up to the read-back, and only the class sums
    read back must fit: the slot holds sum |c| prod l1(key)^e over each
    list's terms, l1 the sum of |coeff|.  Nothing is inverted, so a
    negative exponent raises ValueError."""

    def __init__(self, basis, n, term_lists):
        self.basis, self.n, self.powers = basis, n, {}
        l1 = {k: sum(abs(c) for _, c in terms) for k, terms in basis.items()}
        bound = 0
        for terms in term_lists:
            if any(e < 0 for _, _, exps in terms for e in exps.values()):
                raise ValueError("a sparse basis has no inverse")
            bound = max(bound, sum(abs(c) * prod(l1[k] ** e for k, e in
                                                 exps.items())
                                   for c, _, exps in terms))
        self.nbytes = _slot_bytes(bound)

    def term(self, c, t, key, e):
        if key is not None and (key, e) not in self.powers:
            prev = self.term(1, 0, key, e - 1) if e > 1 else (0, 1)
            self.powers[key, e] = self.times(key, 1, prev)[1]
        return t, c if key is None else c * self.powers[key, e]

    def times(self, key, e, part):
        t, v = part
        for _ in range(e):
            v = _kernel.sparse_mul(v, self.basis[key], self.nbytes, self.n)
        return t, v

    def total(self, parts):
        low = min(t for t, _ in parts)
        return low, sum(v << 8 * self.nbytes * (t - low) for t, v in parts)

    def read(self, part):
        return part[0], _kernel.unpack_signed(part[1], self.n, self.nbytes)


def _p_basis(ell, prec, ring):
    """The basis of _monomial_sums at step ell, built in x = q^ell on
    [0, ceil(prec / ell)), which stands for [0, prec) in q: P(a) =
    [q^{ell a}; q^{ell^2}] = [x^a; x^ell] for 0 < a < ell/2 (the blocks
    that _folded maps onto), "E": E(ell^2) and "e": E(ell).

    Every inverse is a division by a sparse series, built only when a term
    asks for it (_power): in x, P(a) = J(a) / E(ell^2) with J(a) =
    triple_product(a, ell), so 1/P(a) is E(ell^2) divided by J(a), and
    1/E(ell^2) and 1/E(ell) divide 1 by their pentagonal series."""
    n = -(-prec // ell)
    blocks = range(1, (ell + 1) // 2)
    E, e = euler_E(ell, n, ring), euler_E(1, n, ring)
    one = LaurentSeries.one(ring, n)
    basis = {a: jacobi_theta(a, ell, n, ring) for a in blocks}
    basis |= {(a, -1): partial(_theta_inverse, E, a, ell, n, ring)
              for a in blocks}
    return basis | {"E": E, "e": e, ("E", -1): partial(one.divide, E),
                    ("e", -1): partial(one.divide, e)}


def _theta_inverse(E, a, ell, n, ring):
    """1/P(a) on [0, n) in x = q^ell: E(ell^2) = (x^ell; x^ell)_inf, the
    series E, divided by the triple-product sum [x^a; x^ell] E."""
    return E.divide(triple_product(a, ell, n, ring))


def _terms(s):
    """The nonzero (exponent, coeff) terms of a series that starts at 0."""
    return [(e, c) for e, c in enumerate(s.coeffs) if c]


def _j_basis(ell, prec):
    """_p_basis as sparse (exponent, coeff) terms, in x = q^ell on the
    same window, with J(a) = triple_product(a, ell) = P(a) E(ell^2) in
    place of P(a), "E": E(ell^2) and "e": E(ell)."""
    n = -(-prec // ell)
    basis = {a: _terms(triple_product(a, ell, n))
             for a in range(1, (ell + 1) // 2)}
    return basis | {"E": _terms(euler_E(ell, n)), "e": _terms(euler_E(1, n))}


def _sparse_side(parts):
    """The ZZ series sum c q^low (dense * prod factors) over parts (c, low,
    length, dense, factors), each cut to [low, low + length), on
    [min low, min (low + length)): dense packed once and each sparse
    factor multiplied in by shift-adds, in a slot that holds
    sum |c| max|dense| prod l1(factor), l1 the sum of |coeff|."""
    nbytes = _slot_bytes(sum(
        abs(c) * _kernel.max_abs(dense)
        * prod(sum(abs(x) for _, x in f) for f in factors)
        for c, _, _, dense, factors in parts))
    low = min(lo for _, lo, _, _, _ in parts)
    top = min(lo + n for _, lo, n, _, _ in parts)
    v = 0
    for c, lo, n, dense, factors in parts:
        w = _kernel.pack(dense[:n], nbytes)
        for f in factors:
            w = _kernel.sparse_mul(w, f, nbytes, n)
        v += c * w << 8 * nbytes * (lo - low)
    return LaurentSeries._canonical(ZZ, low, tuple(
        _kernel.unpack_signed(v, top - low, nbytes)))


def _times(pre, terms):
    """terms times the prefactor pre = {key: e}, a key no term has."""
    return tuple((c, qpow, {**exps, **pre}) for c, qpow, exps in terms)


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


def _clear(pair):
    """An identity's sides over _j_basis, and M: each P(a)^e is J(a)^e
    E(ell^2)^-e, and each term list is multiplied by M, the Counter of
    least exponents that leaves none negative; an int k (E(1)^k) or None
    (0) is kept as it is."""
    sides = [[(c, q, Counter({**x, "E": x.get("E", 0) - sum(
        e for k, e in x.items() if k not in ("E", "e"))})) for c, q, x in s]
        if isinstance(s, tuple) else s for s in pair]
    unit = Counter()
    for _, _, exps in chain(*(s for s in sides if isinstance(s, list))):
        unit |= -exps
    return [[(c, q, exps + unit) for c, q, exps in s]
            if isinstance(s, list) else s for s in sides], unit


def _identity_reports(idents, prec):
    """Per (name, ell, modulus, lhs, rhs) identity, in input order, the
    report comparing its sides at prec, cleared (_clear): with P(a) =
    J(a) / E(ell^2), both sides times the monomial M are sums of products
    of sparse series, term lists summed in x = q^ell (_SparseSums) and
    E(1)^k M in q (_sparse_side), E(1)^k built once per group from
    Jacobi's E(1)^3 and E(1).  M has constant term 1, so each identity
    keeps its window, status and first-failure exponent; only a failure's
    two coefficients are the cleared sides'.  A Z/m side is summed over
    ZZ and reduced when read.  The identities of one (ell, modulus) share
    one basis and one _monomial_sums call, dropped before the next's."""
    groups = {}
    for i, (name, ell, modulus, lhs, rhs) in enumerate(idents):
        groups.setdefault((ell, modulus), []).append((i, name, lhs, rhs))
    reports = [None] * len(idents)
    for (ell, modulus), group in groups.items():
        basis = _j_basis(ell, prec)
        cleared = [(i, name, *_clear(pair)) for i, name, *pair in group]
        sums = _monomial_sums(basis, ell, prec, *(
            s for _, _, sides, _ in cleared for s in sides
            if isinstance(s, list)))
        qbasis = {k: [(ell * e, c) for e, c in terms]
                  for k, terms in basis.items()}
        epow = {}
        for i, name, sides, unit in cleared:
            out = []
            for s in sides:
                if isinstance(s, int):
                    if s not in epow:   # E(1)^k
                        epow[s] = _sparse_side([(1, 0, prec, (1,), [
                            _terms(euler_cube(1, prec))] * (s // 3) + [
                            _terms(euler_E(1, prec))] * (s % 3))]).coeffs
                    s = _sparse_side([(1, 0, prec, epow[s],
                                       [qbasis[k] for k in unit.elements()])])
                elif s is not None:
                    s = next(sums)
                out.append(s if s is None or modulus is None
                           else s.reduce_mod(modulus))
            lhs, rhs = out
            if rhs is None:
                rhs = LaurentSeries.zeros(lhs.ring, lhs.low, lhs.prec)
            reports[i] = _cmp(name, lhs, rhs, prec)
        del sums, epow
    return reports


# ---------------------------------------------------------------------------
# Bailey pair machinery


def _alpha(pair, k):
    """alpha_k for the u and v pairs, k >= 1, as its two (coeff, exponent)
    terms."""
    base = k * (k - 1) // 2
    hi, lo = k * (k + 1) // 2, k * (k - 1) // 2
    sign = 1 if (k + 1) % 2 == 0 else -1
    if pair == "u":
        return [(sign * hi, base), (sign * lo, base + k)]
    return [(sign * hi, base + k), (sign * lo, base)]


def _binomial_sum(rows, terms, length):
    """sum of c q^e rows[j] over the (c, e, j) terms, e >= 0, rows[j] the
    exact coefficient list of [2n; j]_q, on [0, length)."""
    cs = [0] * length
    for c, e, j in terms:
        row = rows[j][:length - e]
        cs[e:e + len(row)] = map(add, cs[e:e + len(row)], map(c.__mul__, row))
    return LaurentSeries(ZZ, 0, cs)


def check_bailey_uv(n_max=12):
    """beta_n = sum_k alpha_k / ((q;q)_{n-k} (q;q)_{n+k}) for both pairs and
    n = 1..n_max, compared as whole polynomials: times (q;q)_{2n}, beta_n
    is (q;q)_{n-1}^2 (times q^n for v) and each block the Gaussian binomial
    [2n; n-k]_q.  Every side has degree at most n_max^2, so each is
    compared on all of [0, n_max^2 + n_max + 1), the report's prec.

    This also proves the second x-derivative of the finite triple product
    at x = 1 and x = 1/q.  With c_j = (-1)^j q^{j(j+1)/2} [2n; n+j]_q the
    x^j coefficient of (xq, 1/x; q)_n (proved by check_finite_jtp), pairing
    j with -j gives, as exact polynomials,
      sum_j j(j-1) c_j          = -2 sum_k alpha^u_k [2n; n-k]_q,
      sum_j j(j-1) c_j q^{2-j}  = -2 q^2 sum_k alpha^v_k [2n; n-k]_q,
    and this check equates the right sides with -2 and -2 q^2 times the
    cleared beta_n, the closed forms of those derivatives."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    length = n_max * (n_max + 1) + 1
    poch = [pochhammer_finite(1, k, length) for k in range(n_max)]
    subs = {"u": [], "v": []}
    for n in range(1, n_max + 1):
        beta = poch[n - 1] ** 2
        rows = gaussian_binomials(2 * n)
        for pair, lhs in (("u", beta), ("v", beta.shift(n))):
            rhs = _binomial_sum(rows, [(c, e, n - k) for k in range(1, n + 1)
                                       for c, e in _alpha(pair, k)], length)
            subs[pair].append(_cmp(f"bailey:{pair},n={n}", lhs, rhs, length))
    rep = merge_reports("bailey_uv", length, subs["u"] + subs["v"],
                        {"n_max": n_max})
    if rep.status == "pass":
        rep.notes = "n=0 entries of both pairs are 0 by definition"
    return rep


def _x_coeffs(c, factors):
    """c times prod (1 - q^s x^d) over factors (s, d), s >= 0, d = +-1, for
    c a polynomial in x, {k: c_k}, each c_k the coefficient list of a
    polynomial in q, all of one length past which the product is cut.  A
    factor maps c_k to c_k - q^s c_{k-d}, one shifted subtraction."""
    for s, d in factors:
        out = dict(c)
        for k, ck in c.items():
            t = out[k + d][:] if k + d in out else [0] * len(ck)
            t[s:] = map(sub, t[s:], ck)
            out[k + d] = t
        c = out
    return c


def check_finite_jtp(n_max=10):
    """The finite triple product as an identity in x: for n = 0..n_max and
    each of the 2n + 1 values of j, the x^j coefficient of (xq, 1/x; q)_n
    equals (-1)^j q^{j(j+1)/2} [2n; n+j]_q, compared as whole polynomials.
    Every side has degree at most n_max^2, so each is compared on all of
    [0, n_max^2 + n_max + 1), the report's prec.  The product for n is the
    one for n - 1 times its two new factors (1 - q^n x)(1 - q^{n-1}/x)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    length = n_max * (n_max + 1) + 1
    c, subs = {0: [1] + [0] * (length - 1)}, []
    for n in range(n_max + 1):
        if n:
            c = _x_coeffs(c, [(n, 1), (n - 1, -1)])
        rows = gaussian_binomials(2 * n)
        for j in range(-n, n + 1):
            sign = -1 if j % 2 else 1
            rhs = _binomial_sum(rows, [(sign, j * (j + 1) // 2, n + j)],
                                length)
            subs.append(_cmp(f"jtp:n={n},j={j}",
                             LaurentSeries(ZZ, 0, c[j]), rhs, length))
    return merge_reports("finite_jtp", length, subs, {"n_max": n_max})


# ---------------------------------------------------------------------------
# the single-series representations of S_ell(b)


def _valid_m(ell, b, m):
    return 1 <= m <= ell - 1 and (2 * m - 2 * b - 1) % ell != 0


def _lemma_weight(ell, b, k, second):
    """The weight, mod ell, of the k-term of the S_ell(b) representation,
    or of its reflected twin when second is true.  Half-integer weights
    are realized through the inverses of 2 and 4, which exist for every
    odd ell, prime or not."""
    if second:
        h = b - k + pow(2, -1, ell)
        return h * (h + 1) % ell
    return ((k - b) * (k - b) - pow(4, -1, ell)) % ell


def _lemma_rhs(ell, specs, prec, ring):
    """Yield, per (b, m, second) in specs, the right side of the S_ell(b)
    representation, or of its reflected twin when second is true.

    Every theta [q^{ell y}; q^{ell^2}] here is sign * q^shift * P(a)
    (_pjac), so each k-term over [q^{ell m}][q^{a0}] is one P-monomial and
    the k-sum is a P-monomial sum times E(ell^2)^2; the T term is
    T * E(1)^3 times the one-term sum 1 / (P(m) E(ell^2)).  All sums of
    one ell come from one _monomial_sums call, so each power of a P(a) or
    E(ell^2) is built once per ell.  A T window is at least [., 1), which
    ends past prec.  The k-term weights come from _lemma_weight.
    """
    L2 = ell * ell
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
            w = _lemma_weight(ell, b, k, second)
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
    e3 = euler_cube(1, N, ring)
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


# the two-term and three-term collapsed forms of the k-sums for ell = 5, 7
_ECUBED_SHORT = {5: ((2, 1, {1: 1}), (1, 0, {2: 1})),
                 7: ((5, 3, {1: 1}), (4, 1, {2: 1}), (1, 0, {3: 1}))}


def _ecubed(ell):
    """E(1)^3 = E(ell^2) times the theta k-sum mod ell, and for ell = 5
    and 7 the k-sum against its collapsed form, as identities."""
    s0 = -1 if ((1 + ell) // 2) % 2 else 1
    # q-powers (ell^2 - 1)/8 + k(k - ell)/2 are never negative
    ksum = _times({"E": 1}, [
        (s0 * (-1) ** (k % 2) * k, (ell * ell - 1) // 8 + k * (k - ell) // 2,
         _folded(ell, (k,))) for k in range(1, ell)])
    idents = [(f"ecubed:l={ell}", ell, ell, 3, ksum)]
    if ell in _ECUBED_SHORT:
        idents.append((f"ecubed:short,l={ell}", ell, ell, ksum,
                       _times({"E": 1}, _ECUBED_SHORT[ell])))
    return idents


def check_ecubed_dissect(ell=3, prec=300):
    """E(1)^3 mod ell against its theta k-sum; for ell = 5 and 7 the sum
    is also matched to the two-term and three-term collapsed forms."""
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be odd and >= 3")
    return merge_reports("ecubed_dissect", prec,
                         _identity_reports(_ecubed(ell), prec),
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


# base q^25: E(1) = E(25) (X - q - q^2/X) with X = P(2)/P(1), squared and
# cubed; rows written as (coeff, qpow, the power of X)
_ETA_D5 = tuple((name, 5, None, k, _times({"E": k}, tuple(
    (c, qpow, {2: x, 1: -x}) for c, qpow, x in rows)))
                for k, (name, rows) in enumerate((
    ("eta:d5", ((1, 0, 1), (-1, 1, 0), (-1, 2, -1))),
    ("eta:d5_square", ((1, 0, 2), (-2, 1, 1), (-1, 2, 0), (2, 3, -1),
                       (1, 4, -2))),
    ("eta:d5_cube", ((1, 0, 3), (-3, 1, 2), (5, 3, 0), (-3, 5, -2),
                     (-1, 6, -3)))), 1))

_ETA_DISSECTIONS = (
    # base q^49: E(1) = E(49) (P(2)/P(1) - q P(3)/P(2) - q^2 + q^5 P(1)/P(3))
    ("eta:d7", 7, None, 1, _times({"E": 1}, (
        (1, 0, {2: 1, 1: -1}), (-1, 1, {3: 1, 2: -1}), (-1, 2, {}),
        (1, 5, {1: 1, 3: -1})))),
    # fourth power mod 7, nine-term and eight-term shapes plus the quotient
    # trade that links them: it turns the q^8 row into two q^1 rows, and
    # the eight-term shape is the nine-term one with its class q^1 merged
    ("eta:e4_mod7_9term", 7, 7, 4, _times({"E": 2}, _E4_MOD7)),
    ("eta:mod7_bridge", 7, 7, tuple(t for t in _E4_MOD7 if t[1] == 8),
     ((5, 1, {2: 2, 1: -1}), (2, 1, {3: 2, 2: -1}))),
    ("eta:e4_mod7_8term", 7, 7, 4, _times({"E": 2}, (
        *(t for t in _E4_MOD7 if t[1] % 7 != 1),
        (2, 1, {2: 2, 1: -1}), (1, 1, {3: 2, 2: -1})))),
    # tenth power mod 13; the fourteen-term shape merges the fifteen-term
    # class q^5 (mod 13) into two q^5 rows
    ("eta:e10_mod13_15term", 13, 13, 10, _times({"E": 2}, _E10_MOD13)),
    ("eta:e10_mod13_14term", 13, 13, 10, _times({"E": 2}, (
        *(t for t in _E10_MOD13 if t[1] % 13 != 5),
        (3, 5, _folded(13, (2, 3, 4, 6))), (1, 5, _folded(13, (1, 4, 5, 6)))))),
)


def check_eta_dissections(prec=2000):
    """The exact 5- and 7-dissections of E(1) with the powers of them the
    congruence pipeline uses, and E(1)^10 mod 13 in both the fifteen-term
    and the merged fourteen-term shape, with its q^7 coefficient."""
    if prec < 8:
        raise ValueError(f"prec {prec} needs to be at least 8")
    subs = _identity_reports(_ETA_D5 + _ETA_DISSECTIONS, prec)
    params = {"prec": prec,
              "e10_q7_coeff": (euler_E(1, 8, Zmod(13)) ** 10).coeff(7)}
    return merge_reports("eta_dissections", prec, subs, params)


# ---------------------------------------------------------------------------
# theta-product reduction rules

def _mt(a, b, c, d):
    """The three terms of the four-theta elimination identity at (a, b, c,
    d); on the grid 6 >= a > b > c > d >= 1 every theta argument lies in
    1..11, so no theta vanishes."""
    return ((1, 0, _folded(13, (a + d, a - d, b + c, b - c))),
            (-1, 0, _folded(13, (a + c, a - c, b + d, b - d))),
            (1, 13 * (b - c), _folded(13, (a + b, a - b, c + d, c - d))))


# exact base-q^169 relations r1-r21: q^q1 prod P(m1) - q^q2 prod P(m2)
# + q^q3 prod P(m3) = 0. r1-r8 are written as (q1, m1, q2, m2, q3, m3);
# r9-r21 are _mt at the 13 grid points with distinct term lists, and the
# other two, (6,4,3,2) and (6,5,4,1), fold onto r21's terms
_RULES13 = (
    *(((1, q1, _folded(13, m1)), (-1, q2, _folded(13, m2)),
       (1, q3, _folded(13, m3)))
      for q1, m1, q2, m2, q3, m3 in (
          (0, (3, 3, 3, 1), 0, (4, 2, 2, 2), 13, (5, 1, 1, 1)),
          (0, (4, 4, 4, 2), 0, (5, 3, 3, 3), 26, (6, 1, 1, 1)),
          (0, (5, 5, 5, 1), 0, (6, 3, 3, 3), 13, (5, 2, 2, 2)),
          (0, (5, 5, 5, 3), 0, (6, 4, 4, 4), 39, (4, 1, 1, 1)),
          (0, (6, 6, 6, 1), 0, (4, 4, 4, 3), 13, (3, 3, 3, 2)),
          (0, (6, 6, 6, 2), 0, (5, 4, 4, 4), 26, (3, 2, 2, 2)),
          (0, (6, 6, 6, 3), 0, (5, 5, 5, 4), 39, (2, 2, 2, 1)),
          (0, (6, 6, 6, 4), 0, (6, 5, 5, 5), 52, (2, 1, 1, 1)))),
    *(_mt(*p) for p in (
        (6, 5, 4, 3), (6, 5, 4, 2), (4, 3, 2, 1), (6, 5, 3, 2), (6, 3, 2, 1),
        (6, 5, 3, 1), (5, 4, 3, 2), (5, 4, 3, 1), (5, 4, 2, 1), (6, 4, 3, 1),
        (6, 4, 2, 1), (6, 5, 2, 1), (5, 3, 2, 1))),
)

_PRODUCT_RULES = (
    ("rules:as7", 7, None, ((1, 0, {3: 3, 1: 1}), (-1, 0, {2: 3, 3: 1}),
                            (1, 7, {1: 3, 2: 1})), None),
    ("rules:mod5_quotient", 5, 5, ((1, 0, {2: 2, 1: -3}),
                                   (2, 5, {1: 2, 2: -3})),
     ((1, 0, {"E": -2}),)),
    *((f"rules:r{i}", 13, None, terms, None)
      for i, terms in enumerate(_RULES13, 1)),
)

# the two mod-7 component combinations that the relations force to vanish,
# compared to at most _MOD7_PREC
_MOD7_PREC = 600
_MOD7_CLASSES = (
    ("rules:mod7_class0", 7, 7, (
        (4, 7, {2: 2, 1: -1, 3: -1}), (3, 7, {3: 1, 2: -1}),
        (3, 14, {1: 2, 3: -2})), None),
    ("rules:mod7_class5", 7, 7, (
        (2, 0, {2: 3, 1: -2, 3: -1}), (5, 0, {3: 3, 2: -3}),
        (5, 7, {1: 2, 2: -2}), (5, 7, {1: 1, 2: 1, 3: -2})), None),
)


def check_product_rules(prec=5000):
    """Exact theta-product relations: the base-q^49 three-term relation,
    the mod-5 quotient reduction, the 21 base-q^169 rules (r9-r21 being
    the four-theta elimination identity over its 15-point grid, which
    gives 13 distinct term lists), and the two mod-7 component
    combinations that those relations force to vanish."""
    prec7 = min(prec, _MOD7_PREC)
    subs = (_identity_reports(_PRODUCT_RULES, prec)
            + _identity_reports(_MOD7_CLASSES, prec7))
    params = {"prec": prec, "mod7_prec": prec7}
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
    """The T terms over E(ell^2) P(1) plus the P-sum times
    E(ell^2)^k / E(ell); a T window is at least [., 1), past prec.  The T
    terms are added before the one product with 1 / (E(ell^2) P(1)), which
    gives the window and coefficients of one product per term."""
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
    lsum = reduce(add, (t.shift(qpow).scale(coeff)
                        for coeff, qpow, t in lamberts))
    return reduce(add, [lsum * inv_den] + psum)


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


# the ten (seq, mod, res) progressions of theorem 1, u before v: the
# classes that theorem 2's right sides leave empty
_TEN = tuple((kind.lower(), int(case[1:]), r) for kind in "UV"
             for case, rs in _VANISHING.items() if case[0] == kind
             for r in rs)


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
    """[A] E^2 / ([B1][B2]) splits into two T terms [x]/[y] T; 20 parameter
    points over the bases 9, 25, 49, 169, exact.  No point has a theta
    argument divisible by M; one that did would raise in the theta or T
    builder.

    With J(x) = [x] E(M), the sparse triple-product sum (triple_product),
    the sides are J(A) E(M)^3 / (J(B1) J(B2)) and sum J(x) T / J(y) over
    the two T terms, with E(M)^3 Jacobi's sparse sum.  Each J(x) is
    sign q^shift U(x), U(x) the sum folded onto 0 < r < M/2 (constant
    term 1), and the two denominators are J(+-y), y = B2 - B1, which share
    U(y).  So both sides are compared times U(B1) U(B2) U(y), which leaves
    products of sparse series and one T (_sparse_side) and no division;
    as in check_bailey_uv, the windows, statuses and first-failure
    exponents are the quotients', and only a failure's two coefficients
    are the cleared sides'."""
    subs = []
    for M in (9, 25, 49, 169):

        def shift(x):
            return _theta_normalize(x, M)[1]

        points, starts = [], []
        for A, B1, B2 in ((1, 2, 3), (2, 3, 5), (M - 1, 1, 3),
                          (M + 2, 1, 5), (4, M - 1, 2)):
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
        EM3, units = _terms(euler_cube(M, N)), {}

        def J(x):
            sign, sh, r = _theta_normalize(x, M)
            r = min(r, M - r)
            if r not in units:
                units[r] = _terms(triple_product(r, M, N))
            return sign, sh, units[r]

        for A, B1, B2, tterms in points:
            (sA, hA, uA), (s1, h1, u1), (s2, h2, u2), (_, _, uy) = map(
                J, (A, B1, B2, B2 - B1))
            lhs = _sparse_side([(sA * s1 * s2, hA - h1 - h2, N, (1,),
                                 [uA, EM3, uy])])
            rhs = _sparse_side([
                (sx * sd, hx - hd + t.low, min(N, len(t.coeffs)), t.coeffs,
                 [ux, u1, u2])
                for (sx, hx, ux), (sd, hd, _), t in (
                    (J(x), J(d), t) for x, d, t in tterms)])
            subs.append(_cmp(f"chan:A={A},B1={B1},B2={B2},M={M}",
                             lhs, rhs, prec))
    return merge_reports("chan_identity", prec, subs, {"prec": prec})


def _pole_weights(ell):
    """The weights k + 1, k = 0..ell-2, of the single-pole split mod ell."""
    return [k + 1 for k in range(ell - 1)]


def check_pole_split(ells=(3, 5, 7, 13)):
    """1/(1-x)^2 = sum_{k=0}^{ell-2} (k+1) x^k / (1-x^ell) mod ell, the step
    that turns each double pole 1/(1-q^n)^2 into single poles with
    polynomial weights, for every n at once (x = q^n).  Cleared of its
    denominators it reads (1-x)^2 sum_k (k+1) x^k = 1 - x^ell mod ell, one
    comparison of degree ell per modulus; the report's prec is the
    longest, max ell + 1."""
    subs = []
    for ell in ells:
        w = [0, 0] + _pole_weights(ell) + [0, 0]
        lhs = [w[i + 2] - 2 * w[i + 1] + w[i] for i in range(ell + 1)]
        rhs = [1] + [0] * (ell - 1) + [-1]
        ring = Zmod(ell)
        subs.append(series_compare_report(
            f"pole_split[{ell}]", LaurentSeries(ring, 0, lhs),
            LaurentSeries(ring, 0, rhs), ell + 1))
    return merge_reports("pole_split", max((ell + 1 for ell in ells),
                                           default=0),
                         subs, {"ells": list(ells)})


# ---------------------------------------------------------------------------
# cross checks on the whole pipeline


def check_uv_oracle(n_max=25):
    """Enumerated u(n), v(n) against the series coefficients."""
    pair = uv_series_def(n_max + 1)
    counts = {kind: count_table(kind, n_max) for kind in "uv"}
    for n in range(n_max + 1):
        for name, s in zip("uv", pair):
            cnt = counts[name][n]
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
        e3 = euler_cube(1, NE, ring)
        for kind, terms in (("U", uterms), ("V", vterms)):
            assembled = reduce(add, terms).divide(e3).scale(-inv2)
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
    """fn with its default parameters.  uv_prec maps the parameters a run
    uses to the precision of the largest uv_series_def call the check
    makes; it is None for a check that makes none."""
    fn: object
    defaults: dict
    informational: bool = False
    uv_prec: object = None


def _n_max_plus_one(params):
    return params["n_max"] + 1


_prec = itemgetter("prec")


def _theorem2(case, prec):
    return CheckDef(partial(check_theorem2, case), {"prec": prec},
                    uv_prec=_prec)


REGISTRY = {
    "uv_oracle": CheckDef(check_uv_oracle, {"n_max": 25},
                          uv_prec=_n_max_plus_one),
    "uv_dual": CheckDef(check_uv_dual, {"prec": 1000}, uv_prec=_prec),
    "theorem1": CheckDef(check_theorem1, {"n_max": 2000},
                         uv_prec=_n_max_plus_one),
    "theorem2_u3": _theorem2("U3", 800),
    "theorem2_v3": _theorem2("V3", 800),
    "theorem2_u5": _theorem2("U5", 800),
    "theorem2_v5": _theorem2("V5", 800),
    "theorem2_u7": _theorem2("U7", 800),
    "theorem2_v7": _theorem2("V7", 800),
    "theorem2_u13": _theorem2("U13", 1500),
    "theorem2_v13": _theorem2("V13", 1500),
    "lemma_main": CheckDef(partial(check_lemma_family, False),
                           {"prec": 300}),
    "lemma_second": CheckDef(partial(check_lemma_family, True),
                             {"prec": 300}),
    "ecubed_dissect": CheckDef(check_ecubed_family, {"prec": 500}),
    "eta_dissections": CheckDef(check_eta_dissections, {"prec": 2000}),
    "product_rules": CheckDef(check_product_rules, {"prec": 5000}),
    "bailey_uv": CheckDef(check_bailey_uv, {"n_max": 12}),
    "finite_jtp": CheckDef(check_finite_jtp, {"n_max": 10}),
    "t_functional_eq": CheckDef(check_t_functional_eq, {"prec": 200}),
    "chan_identity": CheckDef(check_chan_identity, {"prec": 200}),
    "pole_split": CheckDef(check_pole_split, {}),
    "cross_lemma": CheckDef(check_cross_lemma, {"prec": 200}),
    "conjectures": CheckDef(report_conjectures,
                            {"n_max": 1800, "prec": 2000},
                            informational=True, uv_prec=_n_max_plus_one),
}

SUITE = tuple(REGISTRY)


def ensure_suite_covers_registry():
    missing = set(REGISTRY) - set(SUITE)
    extra = set(SUITE) - set(REGISTRY)
    if missing:
        raise RuntimeError(f"checks registered but not in the suite: "
                           f"{sorted(missing)}")
    if extra:
        raise RuntimeError(f"suite names unknown checks: {sorted(extra)}")


def _params(check_id, overrides):
    """The parameters run_check passes: the registered defaults, with the
    overrides that are set and name a parameter the registered callable
    takes (a default in its signature counts, as do partials)."""
    if check_id not in REGISTRY:
        raise KeyError(f"unknown check {check_id!r}")
    params = dict(REGISTRY[check_id].defaults)
    takes = signature(REGISTRY[check_id].fn).parameters
    for k, v in (overrides or {}).items():
        if v is not None and k in takes:
            params[k] = v
    return params


def uv_precision(ids, overrides=None):
    """The largest uv_series_def precision that the checks ids declare
    (CheckDef.uv_prec) under these overrides, or 0 if none reads u/v."""
    return max((REGISTRY[cid].uv_prec(_params(cid, overrides)) for cid in ids
                if REGISTRY[cid].uv_prec is not None), default=0)


def run_check(check_id, overrides=None):
    """Run one registered check; overrides touch only the parameters the
    check actually takes."""
    params = _params(check_id, overrides)
    t0 = perf_counter()
    rep = REGISTRY[check_id].fn(**params)
    rep.wall_time = perf_counter() - t0
    return rep
