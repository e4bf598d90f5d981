import math
from fractions import Fraction
from functools import lru_cache

import pytest

from qcong import cli, partitions, verify
from qcong._kernel import PackedSeries
from qcong.partitions import (
    count_table,
    sequence_lines,
    u_count,
    uv_series_def,
    uv_series_lambert,
    v_count,
)
from qcong.products import euler_E, p_count, pochhammer_finite
from qcong.series import ZZ, LaurentSeries


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


@pytest.fixture
def counted_quads(monkeypatch):
    """A cold count table, and the markers m of every _quad_counts call."""
    monkeypatch.setattr(partitions, "_counts_store", {"u": [0], "v": [0]})
    calls = []
    real = partitions._quad_counts

    def counted(m, width):
        calls.append(m)
        return real(m, width)

    monkeypatch.setattr(partitions, "_quad_counts", counted)
    return calls


def test_count_table_matches_the_counters(counted_quads):
    table = count_table("u", 30)
    assert len(counted_quads) == 30
    assert table == [u_count(n) for n in range(31)]
    assert count_table("v", 12) == [v_by_listing(n) for n in range(13)]
    assert count_table("u", 5) == table[:6]


@pytest.mark.parametrize("caller", ["uv_oracle", "enumerate"])
def test_counts_are_built_once_per_caller(counted_quads, capsys, caller):
    # one table to n_max per kind: n_max markers for u, n_max/2 for v,
    # where rebuilding for every n made about 3 n_max^2 / 4 calls
    n_max = 60
    if caller == "uv_oracle":
        assert verify.check_uv_oracle(n_max).status == "pass"
    else:
        pair = uv_series_def(n_max + 1)
        for kind, series in zip("uv", pair):
            assert cli.main(["enumerate", "--seq", kind,
                             "--n-max", str(n_max)]) == 0
            assert capsys.readouterr().out == ",".join(
                str(series.coeff(n)) for n in range(n_max + 1)) + "\n"
    assert sorted(counted_quads) == sorted(
        [*range(1, n_max + 1), *range(1, n_max // 2 + 1)])


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


def test_a_planned_miss_builds_once_at_the_plan(counted_builds):
    direct = uv_series_def(20)
    assert counted_builds == [19]
    partitions._def_cache.update(prec=0, pair=None)
    with partitions.planned_uv(50):
        small = uv_series_def(20)
        big = uv_series_def(50)
        mid = uv_series_def(35)
    assert mid == partitions.UVPair(*(s.truncate(35) for s in big))
    assert counted_builds == [19, 49]
    assert small == direct
    assert big.u.prec == 50


def test_the_plan_ends_with_its_block(counted_builds):
    with pytest.raises(RuntimeError):
        with partitions.planned_uv(50):
            raise RuntimeError
    assert partitions._def_plan == 0
    assert uv_series_def(30).u.prec == 30
    assert counted_builds == [29]


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
    # prec 1 and 2 run no step; the narrowings happen in this range
    for prec in range(1, 41):
        cold_def_cache()
        pair = uv_series_def(prec)
        assert pair.u.prec == prec
        assert [pair.u.coeff(n) for n in range(prec)] == count_table("u", prec - 1)
        assert [pair.v.coeff(n) for n in range(prec)] == count_table("v", prec - 1)


@pytest.mark.parametrize("length", [1, 2, 300])
def test_core_start_matches_the_inverted_product(length):
    # Jacobi's sparse recurrence and two prefix sums against a dense
    # inversion of E(1)^3 (1-q)(1-q^2)
    want = (euler_E(1, length) ** 3 * pochhammer_finite(1, 2, length)).invert()
    assert partitions._core_start(length) == [want.coeff(n) for n in range(length)]


@pytest.mark.parametrize("prec, u", [(1, [0]), (2, [0, 1])])
def test_series_def_runs_no_step_below_prec_3(cold_def_cache, monkeypatch, prec, u):
    # 2n < prec has no solution n >= 1, so U is just q^n for n in [1, prec)
    # and no slot schedule is needed
    monkeypatch.setattr(partitions, "_uv_slot_bits", None)
    pair = uv_series_def(prec)
    assert pair.u == LaurentSeries(ZZ, 0, u)
    assert pair.v == LaurentSeries.zeros(ZZ, 0, prec)


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


def list_core_start(length):
    """core_1 = 1/((q;q)_inf^3 (1-q)(1-q^2)) on [0, length), one geometric
    factor at a time."""
    core = [1] + [0] * (length - 1)
    for m in range(1, length):
        for _ in range(3 + (m <= 2)):
            core = _list_div_one_minus(core, m)
    return core


def exact_step_maxima(prec):
    """Largest coefficient read at the width of step n, index n: core_n
    below q^(prec-n) and the sums from step n on, sum_{k=n}^{steps} q^k
    core_k and q^2k core_k below q^prec (steps the last n with 2n < prec),
    by the recurrence on plain lists; every one must be nonnegative."""
    steps = (prec - 1) // 2
    core = list_core_start(prec)
    cores = []
    for n in range(1, steps + 1):
        cores.append(core[:prec - n])
        for _ in range(4):
            core = _shift(core, n, -1)
        core = _list_div_one_minus(_list_div_one_minus(core, 2 * n + 1), 2 * n + 2)
    u = [0] * prec
    v = [0] * prec
    out = [0] * prec
    for n in range(steps, 0, -1):
        core = cores[n - 1]
        u = [c + (core[i - n] if i >= n else 0) for i, c in enumerate(u)]
        v = [c + (core[i - 2 * n] if i >= 2 * n else 0) for i, c in enumerate(v)]
        assert min(core + u + v) >= 0, n
        out[n] = max(core + u + v)
    return out


@pytest.mark.parametrize("prec", [40, 120, 300])
def test_uv_slot_bits_hold_every_decoded_value(prec):
    bits = partitions._uv_slot_bits(prec)
    # the width of a segment's first step must hold its later steps too
    assert bits[1:] == sorted(bits[1:], reverse=True)
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
    assert len(set(nbytes) - {1}) == 35   # byte drops, down to one byte
    assert bits[1] - (275 + 1) == 17


def replay_with_list_shadow(prec):
    """Run uv_series_def(prec), replaying each PackedSeries op on plain lists.
    After every op the packed value must equal the shadow's modulo
    2^(bits * length), which the packed passes keep at any width; every read
    (restride, to_coeffs) must decode to the shadow, which needs the width.
    Returns the pair and the ops in order."""
    shadow = {}
    ops = []
    orig = {name: getattr(PackedSeries, name) for name in
            ("__init__", "mul_one_minus", "div_one_minus", "add_shifted",
             "restride", "to_coeffs")}

    def check(ps, op):
        ops.append(op)
        want = sum(c << (ps.slot_bits * i) for i, c in enumerate(shadow[id(ps)]))
        assert ps.value == want & ps.mask, (op, ps.slot_bits)

    def read(ps, op):
        ops.append(op)
        got = orig["to_coeffs"](ps)
        assert got == shadow[id(ps)], (op, ps.slot_bits)
        return got

    def init(self, length, slot_bits, value=0):
        orig["__init__"](self, length, slot_bits, value)
        # the one series packed from values is core_1; the rest open at 0
        shadow[id(self)] = list_core_start(length) if value else [0] * length
        if value:
            check(self, "start")

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
        shadow[id(self)] = [c + (theirs[i - k] if 0 <= i - k < len(theirs) else 0)
                            for i, c in enumerate(mine)]
        check(self, "add_shifted")

    def restride(self, length, slot_bits):
        kept = shadow[id(self)][:length]
        orig["restride"](self, length, slot_bits)   # re-runs __init__, which resets
        shadow[id(self)] = kept
        read(self, "restride")

    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("__init__", init), ("mul_one_minus", mul_one_minus),
                         ("div_one_minus", div_one_minus),
                         ("add_shifted", add_shifted), ("restride", restride),
                         ("to_coeffs", lambda self: read(self, "to_coeffs"))):
            mp.setattr(PackedSeries, name, fn)
        return uv_series_def(prec), ops


def test_series_def_agrees_with_list_shadow_after_every_op(cold_def_cache):
    pair, ops = replay_with_list_shadow(150)
    # steps n = 1..74 (2n < 150); the last one does not update core.  The
    # need falls to at most 3/4 of the bytes four times (10 -> 7 -> 5 -> 3
    # -> 2 bytes), each closing a U and a V segment, which are widened and
    # added into the totals; the window is cut once more at one width
    counts = {op: ops.count(op) for op in set(ops)}
    assert counts == {"start": 1, "mul_one_minus": 4 * 73, "div_one_minus": 2 * 73,
                      "add_shifted": 2 * 74 + 2 * 4, "restride": 4 + 2 * 4 + 1,
                      "to_coeffs": 2}
    assert pair.u == LaurentSeries(ZZ, 0, count_table("u", 149))
    assert pair.v == LaurentSeries(ZZ, 0, count_table("v", 149))


@pytest.mark.parametrize("short", [0, 8])
def test_list_shadow_fails_one_byte_below_the_exact_need(cold_def_cache, monkeypatch, short):
    # the exact need passes, so the shadow test is sharp; a byte less fails
    exact = [top.bit_length() + 1 - short for top in exact_step_maxima(150)]
    monkeypatch.setattr(partitions, "_uv_slot_bits", lambda prec: exact)
    if short:
        with pytest.raises(OverflowError):   # core_1 outgrows its slots as it is packed
            replay_with_list_shadow(150)
        # with the start and the totals at their exact need, a later read fails
        exact[1] += short
        cold_def_cache()
        with pytest.raises(AssertionError):
            replay_with_list_shadow(150)
    else:
        pair, _ = replay_with_list_shadow(150)
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
