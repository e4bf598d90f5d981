from functools import lru_cache

import pytest

from qcong import partitions
from qcong._kernel import PackedSeries, partition_bound_bits
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
    """The recurrence at one slot width for all steps, 4*pbb(prec) + 24."""
    bits = 4 * partition_bound_bits(prec) + 24
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


def test_uv_bound_dominates_exact_coefficients():
    # prod_{m>=n} (1-q^m)^-4 on [0, prec) by a plain list DP, for every n
    prec = 120
    coeffs = [1] + [0] * (prec - 1)
    for n in range(prec - 1, 0, -1):
        for _ in range(4):
            for w in range(n, prec):
                coeffs[w] += coeffs[w - n]
        assert max(coeffs) <= partitions._uv_bound(n, prec), n
    assert partitions._uv_bound(1, prec) == (1 << 105) - 1   # capped at n = 1


def test_uv_slot_bits_grow_as_n_falls():
    bits = [partitions._uv_slot_bits(n, 2001) for n in range(2000, 0, -1)]
    assert bits == sorted(bits)
    assert bits[-1] == 381
    assert bits[-1] < 4 * partition_bound_bits(2001) + 24


def _shift(cs, k, sign):
    return [c + sign * (cs[i - k] if i >= k else 0) for i, c in enumerate(cs)]


def _list_div_one_minus(cs, k):
    out = list(cs)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    return out


def test_series_def_agrees_with_list_shadow_after_every_op(cold_def_cache, monkeypatch):
    """Each PackedSeries op of the recurrence, replayed on plain lists, must
    decode to the same coefficients at the width the op left behind."""
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
    pair = uv_series_def(150)
    assert [ops.count(op) for op in ("mul_one_minus", "div_one_minus",
                                     "add_shifted")] == [2 * 149, 4 * 149, 149 + 74]
    assert ops.count("widen") >= 3
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
