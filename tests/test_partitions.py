import math
from fractions import Fraction
from functools import lru_cache

import pytest

from qcong import partitions
from qcong._kernel import PackedSeries
from qcong.partitions import (
    sequence_lines,
    u_count,
    uv_series_def,
    uv_series_lambert,
    v_count,
)
from qcong.products import p_count


# exhaustive enumeration oracle: build the actual part lists and count
# 4-tuples directly, no convolution or generating function in sight

@lru_cache(maxsize=None)
def _plists(total, lo, hi):
    if total == 0:
        return ((),)
    out = []
    for first in range(lo, min(total, hi) + 1):
        for rest in _plists(total - first, first, hi):
            out.append((first,) + rest)
    return tuple(out)


def _quads_by_listing(n, marker_weight):
    count = 0
    for m in range(1, n + 1):
        rem = n - marker_weight * m
        if rem < 0:
            continue
        for w1 in range(rem + 1):
            n1 = len(_plists(w1, m, max(w1, m)))
            if not n1:
                continue
            for w2 in range(rem - w1 + 1):
                n2 = len(_plists(w2, m, max(w2, m)))
                if not n2:
                    continue
                for w3 in range(rem - w1 - w2 + 1):
                    n3 = len(_plists(w3, m, max(w3, m)))
                    if not n3:
                        continue
                    w4 = rem - w1 - w2 - w3
                    count += n1 * n2 * n3 * len(_plists(w4, m, 2 * m))
    return count


def u_by_listing(n):
    return _quads_by_listing(n, 1)


def v_by_listing(n):
    return _quads_by_listing(n, 2)


def dp_partition_counts(prec):
    dp = [0] * prec
    dp[0] = 1
    for part in range(1, prec):
        for w in range(part, prec):
            dp[w] += dp[w - part]
    return dp


def test_counters_match_exhaustive_listing():
    for n in range(13):
        assert u_count(n) == u_by_listing(n), n
        assert v_count(n) == v_by_listing(n), n


def test_small_values():
    assert u_count(0) == 0
    assert v_count(0) == 0
    assert v_count(1) == 0
    assert v_count(2) == 1
    assert u_count(2) == 5
    assert u_count(-3) == 0


def test_series_def_matches_counters():
    pair = uv_series_def(26)
    for n in range(26):
        assert pair.u.coeff(n) == u_count(n)
        assert pair.v.coeff(n) == v_count(n)


def test_series_def_serves_truncations_from_cache():
    big = uv_series_def(40)
    small = uv_series_def(18)
    assert small.u.prec == 18
    assert small.u == big.u.truncate(18)


# the recurrence's slot widths ---------------------------------------------

@pytest.fixture
def cold_def_cache(monkeypatch):
    """Make every uv_series_def call run the recurrence."""
    def clear():
        monkeypatch.setattr(partitions, "_def_cache", {"prec": 0, "pair": None})
    clear()
    return clear


def fixed_width_uv(prec):
    """The recurrence at one slot width for all steps.  12 isqrt(prec) + 64
    bits is about twice what the coefficients reach (193 bits at prec 1001);
    too narrow a width would break the comparison, not hide a fault."""
    bits = 12 * math.isqrt(prec) + 64
    core = PackedSeries(prec, bits, 1)
    upk = PackedSeries(prec, bits)
    vpk = PackedSeries(prec, bits)
    for n in range(prec - 1, 0, -1):
        core.mul_one_minus(2 * n + 1)
        core.mul_one_minus(2 * n + 2)
        for _ in range(4):
            core.div_one_minus(n)
        upk.add_shifted(core, n)
        if 2 * n < prec:
            vpk.add_shifted(core, 2 * n)
    return upk.to_coeffs(), vpk.to_coeffs()


def test_series_def_matches_counters_at_every_small_prec(cold_def_cache):
    # prec 1 runs no step and prec 2 one; the widenings happen in this range
    for prec in range(1, 41):
        cold_def_cache()
        pair = uv_series_def(prec)
        assert pair.u.prec == prec
        assert [pair.u.coeff(n) for n in range(prec)] == [u_count(n) for n in range(prec)]
        assert [pair.v.coeff(n) for n in range(prec)] == [v_count(n) for n in range(prec)]


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("prec", [0, -3])
def test_series_def_rejects_nonpositive_prec(cold_def_cache, warm, prec):
    if warm:
        uv_series_def(10)
    with pytest.raises(ValueError, match="prec must be positive"):
        uv_series_def(prec)


@pytest.mark.parametrize("prec", [300, 1001])
def test_series_def_matches_fixed_width_recurrence(cold_def_cache, prec):
    pair = uv_series_def(prec)
    u, v = fixed_width_uv(prec)
    assert [pair.u.coeff(n) for n in range(prec)] == u
    assert [pair.v.coeff(n) for n in range(prec)] == v


def _shift(cs, k, sign):
    return [c + sign * (cs[i - k] if i >= k else 0) for i, c in enumerate(cs)]


def _list_div_one_minus(cs, k):
    out = list(cs)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    return out


def exact_step_maxima(prec):
    """Largest coefficient below q^prec of core_n, U_n and V_n, index n, by
    the recurrence on plain lists; every one must be nonnegative."""
    core = [1] + [0] * (prec - 1)
    u = [0] * prec
    v = [0] * prec
    out = [0] * prec
    for n in range(prec - 1, 0, -1):
        core = _shift(_shift(core, 2 * n + 1, -1), 2 * n + 2, -1)
        for _ in range(4):
            core = _list_div_one_minus(core, n)
        u = [c + (core[i - n] if i >= n else 0) for i, c in enumerate(u)]
        v = [c + (core[i - 2 * n] if i >= 2 * n else 0) for i, c in enumerate(v)]
        assert min(core + u + v) >= 0, n
        out[n] = max(core + u + v)
    return out


@pytest.mark.parametrize("prec", [40, 120, 300])
def test_uv_slot_bits_hold_every_decoded_value(prec):
    bits = partitions._uv_slot_bits(prec)
    for n, top in enumerate(exact_step_maxima(prec)[1:], 1):
        assert top < 1 << (bits[n] - 1), (n, top.bit_length(), bits[n])


@pytest.mark.parametrize("prec, X", [
    (prec, X) for prec in (2, 3, 17, 40) for X in (1 << 63, (1 << 64) - (1 << 58))
] + [(17, (1 << 64) - 12345)])   # x = 1 - 12345/2^64: rationals grow, keep it short
def test_cauchy_bounds_round_up(prec, X):
    # the same products in exact rationals; every fixed-point bound must lie
    # at or above them
    one = 1 << 64
    x = Fraction(X, one)
    one_minus = lambda k: 1 - x ** k if k < prec else 1
    got = partitions._cauchy_bounds(prec, X)
    assert got[prec] >= one / x ** (prec - 1)
    t, u = Fraction(1), Fraction(0)
    for n in range(prec - 1, 0, -1):
        t *= one_minus(2 * n + 1) * one_minus(2 * n + 2) / (1 - x ** n) ** 4
        u += x ** n * t
        assert u <= t - 1, n   # why T_n(x) bounds U_n(x) and V_n(x) too
        assert got[n] >= one * t / x ** (prec - 1), n
    # and each rounding on its own, so no single one went the wrong way:
    # the truncated powers lo_k give factors one - lo_k at or above
    # one (1 - x^k) and denominator bases one - lo_k - k at or below it,
    # and each step's quotient of those same integers is rounded up by
    # less than one unit
    up, lo = [0] * prec + [one] * (prec + 2), one
    for k in range(1, prec):
        lo = lo * X >> 64
        up[k] = one - lo
        assert up[k] - k <= one * (1 - x ** k) <= up[k], k
    for n in range(prec - 1, 0, -1):
        exact = Fraction(got[n + 1] * up[2 * n + 1] * up[2 * n + 2] << 128,
                         (up[n] - n) ** 4)
        assert exact <= got[n] < exact + 1, n


def test_uv_slot_schedule_at_2001():
    # the widest real coefficient at n = 1 has 275 bits (exact_step_maxima)
    bits = partitions._uv_slot_bits(2001)
    nbytes = [(b + 7) // 8 for b in bits[1:]]
    assert nbytes == sorted(nbytes, reverse=True)
    assert max(nbytes) == 37
    assert len(set(nbytes) - {1}) == 35   # widenings, from one byte
    assert bits[1] - (275 + 1) == 17


def replay_with_list_shadow(monkeypatch, prec):
    """Run uv_series_def(prec), replaying each PackedSeries op on plain lists;
    every op must decode to the same coefficients at the width it left
    behind.  Returns the pair and the ops in order."""
    shadow = {}
    ops = []
    orig = {name: getattr(PackedSeries, name) for name in
            ("__init__", "mul_one_minus", "div_one_minus", "add_shifted", "widen")}

    def check(ps, op):
        ops.append(op)
        assert ps.to_coeffs() == shadow[id(ps)], (op, ps.slot_bits)

    def init(self, length, slot_bits, value=0):
        orig["__init__"](self, length, slot_bits, value)
        assert value in (0, 1)
        shadow[id(self)] = [value] + [0] * (length - 1) if length else []

    def mul_one_minus(self, k):
        orig["mul_one_minus"](self, k)
        if 0 < k < self.length:
            shadow[id(self)] = _shift(shadow[id(self)], k, -1)
        check(self, "mul_one_minus")

    def div_one_minus(self, k):
        orig["div_one_minus"](self, k)
        shadow[id(self)] = _list_div_one_minus(shadow[id(self)], k)
        check(self, "div_one_minus")

    def add_shifted(self, other, k):
        orig["add_shifted"](self, other, k)
        mine, theirs = shadow[id(self)], shadow[id(other)]
        shadow[id(self)] = [c + (theirs[i - k] if i >= k else 0)
                            for i, c in enumerate(mine)]
        check(self, "add_shifted")

    def widen(self, slot_bits):
        kept = shadow[id(self)]
        orig["widen"](self, slot_bits)   # re-runs __init__, which resets
        shadow[id(self)] = kept
        check(self, "widen")

    for name, fn in (("__init__", init), ("mul_one_minus", mul_one_minus),
                     ("div_one_minus", div_one_minus),
                     ("add_shifted", add_shifted), ("widen", widen)):
        monkeypatch.setattr(PackedSeries, name, fn)
    return uv_series_def(prec), ops


def test_series_def_agrees_with_list_shadow_after_every_op(cold_def_cache, monkeypatch):
    pair, ops = replay_with_list_shadow(monkeypatch, 150)
    assert [ops.count(op) for op in ("mul_one_minus", "div_one_minus",
                                     "add_shifted")] == [2 * 149, 4 * 149, 149 + 74]
    # core, U and V widen once for every byte the schedule adds
    nbytes = {(b + 7) // 8 for b in partitions._uv_slot_bits(150)[1:]} | {1}
    assert ops.count("widen") == 3 * (len(nbytes) - 1) >= 3
    assert pair.u.coeff(149) == u_count(149)


@pytest.mark.parametrize("short", [0, 8])
def test_list_shadow_fails_one_byte_below_the_exact_need(cold_def_cache, monkeypatch, short):
    # the exact need passes, so the shadow test is sharp; a byte less fails
    exact = [top.bit_length() + 1 - short for top in exact_step_maxima(150)]
    monkeypatch.setattr(partitions, "_uv_slot_bits", lambda prec: exact)
    if short:
        with pytest.raises(AssertionError):
            replay_with_list_shadow(monkeypatch, 150)
    else:
        pair, _ = replay_with_list_shadow(monkeypatch, 150)
        assert pair.u.coeff(149) == u_count(149)


def test_def_and_lambert_routes_agree():
    d = uv_series_def(300)
    l = uv_series_lambert(300)
    assert d.u == l.u
    assert d.v == l.v


def test_p_count_values():
    assert p_count(5) == 7
    assert p_count(100) == 190569292
    dp = dp_partition_counts(60)
    assert [p_count(n) for n in range(60)] == dp


def test_u_dominates_p():
    # the quadruple (pi, empty, empty, empty) with m = smallest part of pi
    # embeds every ordinary partition
    for n in range(1, 41):
        assert u_count(n) >= p_count(n)


def test_ramanujan_congruences_hold_for_p():
    for n in range(200):
        assert p_count(5 * n + 4) % 5 == 0
        assert p_count(7 * n + 5) % 7 == 0
        assert p_count(11 * n + 6) % 11 == 0


def test_sequence_lines_format():
    text = sequence_lines("u", [0, 1, 5], "def")
    assert text == "# u 2 def\n0\n1\n5\n"
