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


def _end_division(*sums):
    """Each of sums (lists of one length) divided by (q;q)_inf^3 (1-q)(1-q^2):
    two prefix sums divide by 1-q and 1-q^2, and Jacobi's
    (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2) (euler_cube) is
    divided by its recurrence over about sqrt(2 length) terms
    (LaurentSeries.divide)."""
    cube = euler_cube(1, len(sums[0]))
    out = []
    for c in sums:
        c = list(accumulate(c))              # / (1 - q)
        c[0::2] = accumulate(c[0::2])        # / (1 - q^2), on each parity
        c[1::2] = accumulate(c[1::2])
        out.append(list(LaurentSeries(ZZ, 0, c).divide(cube).coeffs))
    return out


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
    Step n adds q^n R_n to SU and q^2n R_n to SV; at the end U = SU core_1
    and V = SV core_1 (_end_division).

    Window and stop.  R_n is read only below q^(prec-n), so its packed
    window is cut to prec - n whenever that is under 4/5 of its length.
    Once 2n >= prec, q^2n core_n adds nothing below q^prec, and core_n =
    1 + O(q^n) with n >= prec - n, so U gains just q^n for n in
    [ceil(prec/2), prec).  The loop stops there; prec 1 and 2 run no step.

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
    steps = (prec - 1) // 2              # the n with 2n < prec
    u = v = [0] * prec
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
        u, v = _end_division(utot.to_coeffs(), vtot.to_coeffs())
    u = u[:steps + 1] + [c + 1 for c in u[steps + 1:]]   # the q^n past the loop
    pair = UVPair(LaurentSeries(ZZ, 0, u), LaurentSeries(ZZ, 0, v))
    _def_cache.update(prec=prec, pair=pair)
    return pair if want == prec else UVPair(*(s.truncate(want) for s in pair))


def uv_series_lambert(prec):
    """U(q) and V(q) as the double-pole sums over -2 E(1)^3.

    E(1)^3 is Jacobi's sparse sum (euler_cube), so each quotient is the
    division recurrence over its sqrt(2 prec) terms (LaurentSeries.divide),
    with no dense cube and no inverse."""
    cube = euler_cube(1, prec)
    return UVPair(*(double_pole_sum(w, prec).divide_exact(-2).divide(cube)
                    for w in "uv"))


def sequence_lines(name, values, origin):
    """Export format: '# <name> <n_max> <origin>', then one value per line."""
    head = f"# {name} {len(values) - 1} {origin}"
    return "\n".join([head] + [str(v) for v in values]) + "\n"
