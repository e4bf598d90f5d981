"""Counting functions for the partition quadruples and their series.

u(n) counts quadruples (pi1, pi2, pi3, sigma) where, for some m >= 1,
pi1..pi3 are partitions with all parts >= m, sigma is a partition with
parts in [m, 2m], and the weights plus m sum to n.  v(n) is the same
with 2m in place of the marker m.  Their generating functions are

    U(q) = sum_{n>=1} q^n  / ((q^n;q)_inf^3 (q^n;q)_{n+1}),
    V(q) = sum_{n>=1} q^2n / ((q^n;q)_inf^3 (q^n;q)_{n+1}).

Two independent series routes are provided: the defining sum above and
the double-pole Lambert representation.  Tests and the verify checks
compare them; nothing in here assumes they agree.
"""

from contextlib import contextmanager
from itertools import accumulate
from math import isqrt
from typing import NamedTuple

from ._kernel import PackedSeries, convolve
from .lambert import double_pole_sum
from .products import euler_cube
from .series import LaurentSeries, ZZ

def _restricted_counts(min_part, max_part, width):
    """Partitions of 0..width-1 with parts in [min_part, max_part]."""
    dp = [0] * width
    dp[0] = 1
    for part in range(min_part, min(max_part, width - 1) + 1):
        for w in range(part, width):
            dp[w] += dp[w - part]
    return dp


def _quad_counts(m, width):
    """Weight counts of (pi1, pi2, pi3, sigma) for a fixed marker m."""
    a = _restricted_counts(m, width - 1, width)
    triple = convolve(convolve(a, a, width), a, width)
    return convolve(triple, _restricted_counts(m, 2 * m, width), width)


_counts_store = {"u": [0], "v": [0]}


def _counts_upto(kind, n_max):
    vals = _counts_store[kind]
    if len(vals) > n_max:
        return vals
    vals = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        off = m if kind == "u" else 2 * m
        if off > n_max:
            break
        for w, c in enumerate(_quad_counts(m, n_max - off + 1)):
            vals[off + w] += c
    _counts_store[kind] = vals
    return vals


def count_table(kind, n_max):
    """[u(n) for n = 0..n_max] for kind "u", the same for "v", counted
    directly in one build to n_max.  u_count and v_count build to their
    own n, so a caller wanting many values asks here once."""
    return _counts_upto(kind, n_max)[:n_max + 1]


def u_count(n):
    if n < 0:
        return 0
    return _counts_upto("u", n)[n]


def v_count(n):
    if n < 0:
        return 0
    return _counts_upto("v", n)[n]


class UVPair(NamedTuple):
    u: LaurentSeries
    v: LaurentSeries


# the last build of uv_series_def; a call at or below its prec reads a
# truncation.  A miss builds at the larger of its prec and _def_plan, which
# planned_uv sets for one run of checks and which is 0 otherwise
_def_cache = {"prec": 0, "pair": None}
_def_plan = 0


@contextmanager
def planned_uv(prec):
    """Within the block, the first uv_series_def call that misses the cache
    builds to at least prec, so later calls up to prec read truncations
    of that one build.  The plan ends with the block."""
    global _def_plan
    _def_plan = prec
    try:
        yield
    finally:
        _def_plan = 0


def _growth_bits(n, length):
    """bitlen(G), G >= the factor by which step n of uv_series_def can
    enlarge the largest coefficient on a window of length terms: 16 for
    (1-q^n)^4 and floor((length-1)/k) + 1 for each 1/(1-q^k)."""
    return (16 * ((length - 1) // (2 * n + 1) + 1)
            * ((length - 1) // (2 * n + 2) + 1)).bit_length()


def _split_bits(n):
    """K with p4(n) < 2^K, p4(n) the number of 4-tuples of partitions of n
    (the q^n coefficient of 1/(q;q)_inf^4).

    With x = e^-t, log 1/(x;x)_inf = sum_k x^k / (k (1 - x^k)) <= pi^2/(6t),
    since 1 - x^k >= k t x^k.  So p4(n) <= x^-n / (x;x)_inf^4 <=
    exp(nt + 2 pi^2/(3t)), which at t = pi sqrt(2/(3n)) is
    exp(pi sqrt(8n/3)) = 2^sqrt(c n) with c = 8 pi^2 / (3 ln(2)^2) < 54.8.
    In integers: sqrt(c n) < sqrt(55 n) < isqrt(55 n) + 1."""
    return isqrt(55 * n) + 1


def _end_division(su, sv):
    """SU and SV (lists of one length) each divided by
    (q;q)_inf^3 (1-q)(1-q^2), in one pass over the packed numerator
    SU + 2^K SV, K = _split_bits(length - 1).  Two prefix sums divide by 1-q
    and 1-q^2, and Jacobi's (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k+1)
    q^(k(k+1)/2) (euler_cube) is divided by its recurrence over about
    sqrt(2 length) terms (LaurentSeries.divide).  The quotient is
    QU + 2^K QV exactly, since every step is linear.

    Split.  QU is read as the low K bits and QV as the rest (an arithmetic
    shift, exact at any sign), which is right whenever every lane of QU
    lies in [0, 2^K).  For the sums of uv_series_def the lane at q^m is
    sum_{n<=steps} [q^m] q^n core_n, so 0 <= QU[m] <= u(m).  Adding the
    marker m to sigma (twice, for v) maps each quadruple of u(n) or v(n)
    one-to-one to a 4-tuple of partitions of n (m comes back as the
    smallest part of the new sigma), so u(m) <= p4(m) <= p4(length - 1)
    < 2^K (_split_bits).  The bound is proved, never read off the output."""
    k = _split_bits(len(su) - 1)
    c = list(accumulate(a + (b << k) for a, b in zip(su, sv)))   # / (1 - q)
    c[0::2] = accumulate(c[0::2])        # / (1 - q^2), on each parity
    c[1::2] = accumulate(c[1::2])
    return _split(LaurentSeries(ZZ, 0, c).divide(euler_cube(1, len(c))), k)


def _split(quot, k):
    """QU and QV, the low k bits and the arithmetic shift by k of each
    coefficient of the series quot = QU + 2^k QV: exact when every QU lies
    in [0, 2^k)."""
    low = (1 << k) - 1
    return [x & low for x in quot.coeffs], [x >> k for x in quot.coeffs]


# colourings of two parts from four colours: of distinct sizes 4 * 4, of
# one size 4 * 5 / 2
_TWO_PARTS = (16, 10)


def _tails(prec, a):
    """U and V's terms n >= a, sum_{n>=a} q^n core_n and q^2n core_n, on
    [0, prec), for 4a >= prec.

    core_n counts 4-coloured partitions into parts >= n whose fourth colour
    has parts <= 2n.  U reads core_n below q^(prec-n), so below q^3n, where
    at most two parts fit, and V below q^(prec-2n), so below q^2n, where at
    most one does.  So for j < 3n, c_n(j) = [q^j] core_n is 1 at j = 0,
    3 + [j <= 2n] for n <= j (one part), plus 16 (ceil(j/2) - n)
    + 10 [j even] for 2n <= j (two parts of sizes n..j-n, both <= 2n, in
    any colours), and 0 otherwise.  Summed over n, in O(1) per m:

        U[m] = [m >= a] + 3 #[a, m/2] + #[max(a, m/3), m/2]
               + 16 (F(m-a) - F(m-t-1) - sum_{n=a}^{t} n)
               + 10 #{n in [a, t] : m - n even},   t = floor(m/3),
        V[m] = [m even, m >= 2a] + 4 #[a, m/3],

    #[x, y] the number of integers in that range and F(x) =
    sum_{0<=j<=x} ceil(j/2) = floor((x+1)/2) floor((x+2)/2)."""
    def F(x):
        return (x + 1) // 2 * ((x + 2) // 2)

    pairs, same = _TWO_PARTS
    u, v = [0] * prec, [0] * prec
    for m in range(a, prec):
        half, third = m // 2, m // 3
        total = (1 + 3 * max(half - a + 1, 0)
                 + max(half - max(a, -(-m // 3)) + 1, 0))
        if third >= a:
            total += (pairs * (F(m - a) - F(m - third - 1)
                               - (a + third) * (third - a + 1) // 2)
                      + same * ((m - a) // 2 - (m - third - 1) // 2))
            v[m] = 4 * (third - a + 1)
        u[m] = total
    for m in range(2 * a, prec, 2):
        v[m] += 1
    return u, v


def _merge(total, seg, off, bits):
    """total += q^off * seg, total first widened to at least bits and seg
    re-strided to the total's slots."""
    if bits > total.slot_bits:
        total.restride(total.length, bits)
    seg.restride(seg.length, total.slot_bits)
    total.add_shifted(seg, off)


def uv_series_def(prec):
    """U(q) and V(q) on [0, prec), straight from the defining sums.

    Cache.  A call at or below the prec of the last build (_def_cache)
    returns a truncation of it.  A miss builds at the planned precision,
    the larger of prec and the one planned_uv set, and returns that build
    truncated to prec.  Below, prec is the precision built.

    With core_n = 1/((q^n;q)_inf^3 (q^n;q)_{n+1}), one upward pass keeps
    R_n = core_n / core_1 up to date from R_1 = 1 through

        R_{n+1} = R_n (1-q^n)^4 / ((1-q^{2n+1})(1-q^{2n+2})),

    four packed passes for the numerator and, for each denominator
    factor, a doubling product of about log2(window / (2n+1)) passes.
    Step n adds q^n R_n to SU and q^2n R_n to SV; at the end SU core_1 and
    SV core_1, divided out in one pass (_end_division), are U and V's
    terms up to the last step.

    Window and stop.  R_n is read only below q^(prec-n), so its packed
    window is cut to prec - n whenever that is under 4/5 of its length.
    The loop runs the n with 4n < prec.  For n >= prec/4, U reads core_n
    only below q^(prec-n) <= q^3n, where at most two of its parts fit, and
    V below q^(prec-2n) <= q^2n, where at most one does, so there each
    coefficient c_n(j) of core_n is a closed count of one or two coloured
    parts.  Those terms, summed over n in closed form (_tails), are added
    after the end division; prec 1 to 4 run no step.

    Slot width.  R_n has signed coefficients, so the width is a checked
    invariant: before step n every coefficient of R_n fits b signed bits,
    and the slot has at least b + _growth_bits(n, window) bits.  One step
    multiplies the largest coefficient by at most G < 2^bitlen(G), so
    R_{n+1} lies in the slot's signed range, and the packed passes, exact
    modulo 2^(bits * window), hold it exactly.  PackedSeries.fits then
    tests it against the next step's b: if it fails, the slot widens by
    one byte when that leaves the next step's growth bits above R (always
    so for at most 8 growth bits), else by the growth bits; if it fits
    one byte narrower, it narrows.

    Segments.  The sums are kept in segments at R's width, the one opened
    at step a holding sum_{k=a}^{b} q^(k-a) R_k (for V, q^(2k-2a)).  With R_k
    in b_k bits, its coefficients lie in [-B, B), B = sum 2^(b_k - 1).  A
    segment closes when R's width changes or when B would pass half its
    slot's range, and is re-strided and added into totals whose width
    grows with their own bound.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    if _def_cache["prec"] >= prec:
        u, v = _def_cache["pair"]
        return UVPair(u.truncate(prec), v.truncate(prec))
    want, prec = prec, max(prec, _def_plan)
    steps = (prec - 1) // 4              # the n with 4n < prec
    u, v = _tails(prec, steps + 1)
    if steps:
        grow = _growth_bits(1, prec - 1)
        r = PackedSeries(prec - 1, 2 + grow, 1)
        top = 1 << (r.slot_bits - grow - 1)   # R_n lies in [-top, top)
        utot, vtot = PackedSeries(prec, 1), PackedSeries(prec, 1)
        useg = None
        bound = 0
        for n in range(1, steps + 1):
            if useg is None:
                useg = PackedSeries(prec - n, r.slot_bits)
                vseg = PackedSeries(prec - 2 * n, r.slot_bits)
                seg_bound, off = 0, n
            seg_bound += top
            useg.add_shifted(r, n - off)
            vseg.add_shifted(r, 2 * (n - off))
            if n < steps:
                for _ in range(4):
                    r.mul_one_minus(n)
                r.div_one_minus(2 * n + 1)
                r.div_one_minus(2 * n + 2)
                if 5 * (prec - n - 1) < 4 * r.length:
                    r.restride(prec - n - 1, r.slot_bits)
                grow = _growth_bits(n + 1, r.length)
                narrow = r.slot_bits - 8 - grow   # R's 1 needs 2 bits
                if not r.fits(r.slot_bits - grow):
                    wider = (8 if grow <= 8 or r.fits(r.slot_bits + 8 - grow)
                             else grow)
                    r.restride(r.length, r.slot_bits + wider)
                elif narrow > 1 and r.fits(narrow):
                    r.restride(r.length, narrow + grow)
                top = 1 << (r.slot_bits - grow - 1)
            if (n == steps or useg.nbytes != r.nbytes
                    or seg_bound + top > 1 << (r.slot_bits - 1)):
                bound += seg_bound
                _merge(utot, useg, off, bound.bit_length() + 1)
                _merge(vtot, vseg, 2 * off, bound.bit_length() + 1)
                useg = None
        su, sv = _end_division(utot.to_coeffs(), vtot.to_coeffs())
        u = [x + y for x, y in zip(su, u)]
        v = [x + y for x, y in zip(sv, v)]
    pair = UVPair(LaurentSeries(ZZ, 0, u), LaurentSeries(ZZ, 0, v))
    _def_cache.update(prec=prec, pair=pair)
    return pair if want == prec else UVPair(*(s.truncate(want) for s in pair))


def uv_series_lambert(prec):
    """U(q) and V(q) as the double-pole sums over -2 E(1)^3.

    E(1)^3 is Jacobi's sparse sum (euler_cube), so a quotient is the
    division recurrence over its sqrt(2 prec) terms (LaurentSeries.divide),
    with no dense cube and no inverse.  It runs once, on NU + 2^K NV, the
    numerators NU and NV over -2 packed with K = _split_bits(prec - 1), and
    the quotient U + 2^K V is split as in _end_division: u(m), v(m) <=
    p4(m) < 2^K there, so the split is exact."""
    k = _split_bits(prec - 1)
    nu, nv = (double_pole_sum(w, prec).divide_exact(-2).coeffs for w in "uv")
    packed = LaurentSeries(ZZ, 0, [a + (b << k) for a, b in zip(nu, nv)])
    return UVPair(*(LaurentSeries(ZZ, 0, cs) for cs in _split(
        packed.divide(euler_cube(1, prec)), k)))


def sequence_lines(name, values, origin):
    """Export format: '# <name> <n_max> <origin>', then one value per line."""
    head = f"# {name} {len(values) - 1} {origin}"
    return "\n".join([head] + [str(v) for v in values]) + "\n"
