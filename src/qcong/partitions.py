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

import math
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


# fixed point: the integer v stands for v / 2^64
_ONE = 1 << 64


def _cauchy_bounds(prec, X):
    """Fixed-point values t, index n = 1..prec, each at or above
    2^64 T_n(x) x^-(prec-1) at x = X/2^64 (derived in uv_series_def):
    t[prec] is x^-(prec-1), and each step down rounds its quotient up."""
    lo = _ONE
    up = [0] * prec + [_ONE] * (prec + 2)   # up[k] >= 2^64 (1 - x^k), or 2^64
    for k in range(1, prec):
        lo = lo * X >> 64                   # 2^64 x^k in [lo, lo + k]
        up[k] = _ONE - lo
    inv = -(-_ONE * _ONE // X)              # >= 2^64 / x
    t = _ONE
    for bit in bin(prec - 1)[2:]:
        t = -(-t * t >> 64)
        if bit == "1":
            t = -(-t * inv >> 64)
    out = [0] * prec + [t]
    for n in range(prec - 1, 0, -1):
        d = up[n] - n
        d *= d
        out[n] = -((-out[n + 1] * up[2 * n + 1] * up[2 * n + 2] << 128)
                   // (d * d))
    return out


def _uv_bound(n, prec, limit):
    """min(B(n), limit), B(n) bounding the coefficients below q^prec of
    prod_{m>=n} (1-q^m)^-4 (derived in uv_series_def)."""
    bound = 1
    j = 1
    while j * n < prec and bound < limit:
        bound += math.comb(prec - j * n + j, j) * 4 ** j
        j += 1
    return min(bound, limit)


def _uv_slot_bits(prec):
    """Slot bits, index n, that hold every series uv_series_def decodes at
    step n."""
    root = math.isqrt(prec)
    cauchy = [_cauchy_bounds(prec, _ONE - min(_ONE * c // (10 * root), _ONE // 2))
              for c in (10, 17)]
    limits = map(min, *cauchy)
    next(limits)
    return [0] + [_uv_bound(n, prec, (limit >> 64) + 1).bit_length() + 1
                  for n, limit in zip(range(1, prec), limits)]


def _core_start(length):
    """core_1 = 1/((q;q)_inf^3 (1-q)(1-q^2)) on [0, length), in plain ints."""
    c = LaurentSeries.one(ZZ, length).divide(euler_cube(1, length)).coeffs
    c = list(accumulate(c))              # / (1 - q)
    c[0::2] = accumulate(c[0::2])        # / (1 - q^2), on each parity
    c[1::2] = accumulate(c[1::2])
    return c


def _merge(total, seg, off):
    """total += q^off * seg, widening seg to the total's slots first."""
    if seg is not total:
        seg.restride(seg.length, total.slot_bits)
        total.add_shifted(seg, off)


def uv_series_def(prec):
    """U(q) and V(q) on [0, prec), straight from the defining sums.

    Cache.  A call at or below the prec of the last build (_def_cache)
    returns a truncation of it.  A miss builds at the planned precision,
    the larger of prec and the one planned_uv set, and returns that build
    truncated to prec.  Below, prec is the precision built.

    One upward pass keeps core_n = 1/((q^n;q)_inf^3 (q^n;q)_{n+1}) up to
    date through

        core_{n+1} = core_n (1-q^n)^4 / ((1-q^{2n+1})(1-q^{2n+2})),

    four packed passes for the numerator and, for each far denominator
    factor, a doubling product of about log2(window / (2n+1)) passes,
    instead of a fresh inversion.  Step n adds q^n core_n to U and q^2n
    core_n to V.

    Start.  core_1 = 1/((q;q)_inf^3 (1-q)(1-q^2)) comes from Jacobi's
    (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2) (euler_cube): its
    inverse obeys c_m = -sum_{k>=1} (-1)^k (2k+1) c_{m-k(k+1)/2}, about
    sqrt(2 prec) terms each (LaurentSeries.divide), and two prefix sums
    divide by 1-q and 1-q^2.
    Its coefficients are nonnegative, so each packs with to_bytes, which
    raises if one outgrows its slot.

    Window and stop.  core_n is read only below q^(prec-n), so its packed
    window is cut to prec - n whenever that is under 4/5 of its length.  Once 2n >= prec, q^2n core_n adds nothing
    below q^prec, and core_n = 1 + O(q^n) with n >= prec - n, so U gains
    just q^n for n in [ceil(prec/2), prec).  The loop stops there;
    prec 1 and 2 run no step at all.

    Slot width.  The packed passes are exact modulo 2^(bits * length) at
    any width (PackedSeries), so only the windows that are read need room:
    restride reads core_n when it narrows and a closed segment (below)
    when it widens, and to_coeffs decodes the totals.  _uv_slot_bits gives
    need[n], which holds every coefficient below q^prec of core_n and of
    the tails U_n = sum_{k>=n} q^k core_k and V_n = sum_{k>=n} q^2k
    core_k.  They lie in [0, M], and need[n] is bitlen(M) + 1 bits, with
    M the smaller of a Cauchy bound and B(n):

    - Nonnegativity, which the Cauchy bound needs.  Below q^prec, core_n
      agrees with T_n = prod_{m=n}^{prec-1} (1-q^m)^-e_m, e_m in {3, 4},
      the product without its factors of exponent >= prec.  So T_n,
      sum_{k>=n} q^k T_k and sum_{k>=n} q^2k T_k have nonnegative
      coefficients and agree with core_n, U_n and V_n below q^prec.
    - Cauchy.  A series F with nonnegative coefficients has
      c_w <= F(x) x^-w <= F(x) x^-(prec-1) for w < prec and any x in
      (0, 1).  _cauchy_bounds evaluates the products T_n(x) =
      T_{n+1}(x) (1-x^{2n+1})(1-x^{2n+2}) / (1-x^n)^4, factors of
      exponent >= prec read as 1, from T_prec = 1 down, and the bound is
      T_n(x) x^-(prec-1).  It covers U_n and V_n as well, since
      V_n(x) <= U_n(x) = sum_{k>=n} x^k T_k(x) <= T_n(x) - 1: by
      induction down from U_prec = 0 = T_prec - 1, U_n(x) <= x^n T_n(x)
      + T_{n+1}(x) - 1 <= T_n(x) - 1, as each numerator factor is at least
      1 - x^n and so T_{n+1}(x) <= (1 - x^n) T_n(x).  It runs in
      integers, 64 fraction bits, at x = X/2^64, and every rounding makes
      the bound larger.  Truncating x^k k times gives lo_k with 2^64 x^k
      in [lo_k, lo_k + k] (each truncation loses under 1, and multiplying
      by x < 1 does not enlarge the loss), so each numerator factor
      2^64 - lo_k rounds up and the denominator base 2^64 - lo_n - n
      rounds down; it stays positive, as lo_n <= X and 2^64 - X >=
      min(floor(2^64/isqrt(prec)), 2^63) > prec for prec < 2^42.  The
      quotient, x^-(prec-1) (squarings of ceil(2^128/X)) and the final
      shift by 64 bits all round up.  The two points x = 1 - c/isqrt(prec),
      c = 1 and 1.7, capped at x >= 1/2, sit near the optimum for small
      n, where slots are widest and the coefficients grow like p_3.
    - B(n) = 1 + sum_{j>=1, jn<prec} C(prec-jn+j, j) 4^j bounds the
      coefficients below q^prec of P_n = prod_{m>=n} (1-q^m)^-4.  The
      j-th term counts the 4-coloured partitions of w < prec into j
      parts, all >= n: their shapes are at most the C(w-jn+j-1, j-1) <=
      C(prec-jn+j, j) weak compositions of w - jn into j parts, each with
      at most 4^j colourings.  Why B(n) bounds all three series: core_n
      <= P_n coefficientwise, since P_n is core_n times geometric
      factors; and U_n, V_n <= P_n, since adding one (for V two) parts k
      in the first colour to a partition counted by P_k gives one counted
      by P_n whose least part is k, so pairs (k, partition) map
      injectively.  B(n) is the tighter bound for large n, where no
      Cauchy bound falls below x^-(prec-1).  Its sum stops once it
      reaches the Cauchy bound, which then is the smaller.

    Segments.  As the need falls, the sums are kept in segments: the one
    opened at step a holds sum_{k=a}^{b} q^(k-a) core_k (for V,
    q^(2k-2a)) at the width of step a.  Every term is nonnegative below
    q^prec, so the segment lies between 0 and U_a (V_a) shifted down by
    a (2a), and need[a] holds it.  When the need of step n falls to at
    most 3/4 of the current bytes, core narrows, the two segments close
    and are at once widened and added into the totals at need[1] bits,
    which hold U_1 and V_1 in the same way, and fresh segments open.  The
    first segments are the totals themselves, so no list of segments is
    kept.  need never rises with n, so the width of step a also holds
    core_n for every n the segment spans: each Cauchy step multiplies by
    (up_{2n+1}/d)(up_{2n+2}/d)(2^64/d)^2 >= 1, d = 2^64 - lo_n - n, as
    lo_k falls with k, and B(n) falls with n term by term.  The schedule
    is computed once per call.
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
        need = _uv_slot_bits(prec)
        nbytes = (need[1] + 7) // 8
        core = PackedSeries(prec - 1, need[1], int.from_bytes(b"".join(
            c.to_bytes(nbytes, "little", signed=True)
            for c in _core_start(prec - 1)), "little"))
        utot = useg = PackedSeries(prec, need[1])
        vtot = vseg = PackedSeries(prec, need[1])
        off = 0   # useg holds sum q^(k-off) core_k, vseg sum q^(2k-2off) core_k
        for n in range(1, steps + 1):
            window = prec - n
            if 4 * ((need[n] + 7) // 8) <= 3 * core.nbytes:
                core.restride(window, need[n])
                _merge(utot, useg, off)
                _merge(vtot, vseg, 2 * off)
                useg = PackedSeries(window, need[n])
                vseg = PackedSeries(prec - 2 * n, need[n])
                off = n
            elif 5 * window < 4 * core.length:
                core.restride(window, core.slot_bits)
            useg.add_shifted(core, n - off)
            vseg.add_shifted(core, 2 * (n - off))
            if n < steps:
                for _ in range(4):
                    core.mul_one_minus(n)
                core.div_one_minus(2 * n + 1)
                core.div_one_minus(2 * n + 2)
        _merge(utot, useg, off)
        _merge(vtot, vseg, 2 * off)
        u, v = utot.to_coeffs(), vtot.to_coeffs()
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
