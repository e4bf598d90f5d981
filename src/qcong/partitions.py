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
from typing import NamedTuple

from ._kernel import PackedSeries, convolve, partition_bound_bits
from .lambert import double_pole_sum
from .products import euler_E
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


_def_cache = {"prec": 0, "pair": None}


def _uv_bound(n, prec):
    """B(n): bounds the coefficients below q^prec of prod_{m>=n} (1-q^m)^-4
    (derived in uv_series_def)."""
    cap = 2 * partition_bound_bits(prec) + 3 * (prec + 2).bit_length()
    limit = 1 << cap
    bound = 1
    j = 1
    while j * n < prec and bound < limit:
        bound += math.comb(prec - j * n + j, j) * 4 ** j
        j += 1
    return min(bound, limit - 1)


def _uv_slot_bits(n, prec):
    """Slot bits that hold every series uv_series_def carries at step n."""
    return _uv_bound(n, prec).bit_length() + prec.bit_length() + 1


def uv_series_def(prec):
    """U(q) and V(q) on [0, prec), straight from the defining sums.

    One downward pass keeps core_n = 1/((q^n;q)_inf^3 (q^n;q)_{n+1})
    up to date through

        core_n = core_{n+1} (1-q^{2n+1})(1-q^{2n+2}) / (1-q^n)^4,

    which starts from core_prec = 1 + O(q^prec) and costs a handful of
    packed linear passes per n instead of a fresh inversion.

    Slot width.  At step n every series the loop holds fits a slot of
    bitlen(B(n)) + bitlen(prec) + 1 bits (_uv_slot_bits), where B(n)
    bounds the coefficients below q^prec of prod_{m>=n} (1-q^m)^-4:

    - Every exact intermediate of core is prod_{m>=n} (1-q^m)^-e_m with
      all e_m <= 4; the two mul_one_minus calls only cancel factors of
      core_{n+1}.  So its coefficients lie in [0, B(n)].
    - A doubling transient inside div_one_minus is P - q^M P for such a
      P, so it lies within +-B(n).
    - A U or V partial sum adds fewer than prec such series.
    - B(n) = min(1 + sum_{j>=1, jn<prec} C(prec-jn+j, j) 4^j, 2^cap - 1)
      with cap = 2 pbb(prec) + 3 bitlen(prec+2), pbb being
      partition_bound_bits.  The j-th term bounds the 4-coloured
      partitions of w < prec into j parts, all >= n: their shapes are at
      most the C(w-jn+j-1, j-1) <= C(prec-jn+j, j) weak compositions of
      w - jn into j parts, each with at most 4^j colourings.  The
      cap follows from p_4(w) <= C(w+3, 3) exp(2 pi sqrt(2w/3)), which
      p(a) <= exp(pi sqrt(2a/3)) and sum sqrt(a_i) <= 2 sqrt(w) give.
      The sum stops once it reaches 2^cap.

    B only falls as n grows, so the loop starts narrow and, whenever a
    step needs more, widens core, U and V to twice the width (at least
    the need, at most the n = 1 width).  A widening decodes at the old
    width, which still holds the values of step n+1.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    if _def_cache["prec"] >= prec:
        u, v = _def_cache["pair"]
        return UVPair(u.truncate(prec), v.truncate(prec))
    full = _uv_slot_bits(1, prec)
    bits = _uv_slot_bits(max(prec - 1, 1), prec)
    core = PackedSeries(prec, bits, 1)
    upk = PackedSeries(prec, bits)
    vpk = PackedSeries(prec, bits)
    for n in range(prec - 1, 0, -1):
        need = _uv_slot_bits(n, prec)
        if need > core.slot_bits:
            bits = min(max(need, 2 * core.slot_bits), full)
            for ps in (core, upk, vpk):
                ps.widen(bits)
        core.mul_one_minus(2 * n + 1)
        core.mul_one_minus(2 * n + 2)
        for _ in range(4):
            core.div_one_minus(n)
        upk.add_shifted(core, n)
        if 2 * n < prec:
            vpk.add_shifted(core, 2 * n)
    pair = UVPair(LaurentSeries(ZZ, 0, upk.to_coeffs()),
                  LaurentSeries(ZZ, 0, vpk.to_coeffs()))
    _def_cache.update(prec=prec, pair=pair)
    return pair


def uv_series_lambert(prec):
    """U(q) and V(q) via the double-pole sums over 2 E(1)^3."""
    inv_cube = (euler_E(1, prec) ** 3).invert()
    u = double_pole_sum("u", prec).divide_exact(-2) * inv_cube
    v = double_pole_sum("v", prec).divide_exact(-2) * inv_cube
    return UVPair(u, v)


def sequence_lines(name, values, origin):
    """Export format: '# <name> <n_max> <origin>', then one value per line."""
    head = f"# {name} {len(values) - 1} {origin}"
    return "\n".join([head] + [str(v) for v in values]) + "\n"
