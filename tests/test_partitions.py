import math
import random
from functools import lru_cache

import pytest

from qcong import cli, partitions, verify
from qcong._kernel import PackedSeries
from qcong.lambert import double_pole_sum
from qcong.partitions import (
    count_table,
    sequence_lines,
    u_count,
    uv_series_def,
    uv_series_lambert,
    v_count,
)
from qcong.products import euler_E, euler_cube, p_count
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
    assert counted_builds == [20]
    partitions._def_cache.update(prec=0, pair=None)
    with partitions.planned_uv(50):
        small = uv_series_def(20)
        big = uv_series_def(50)
        mid = uv_series_def(35)
    assert mid == partitions.UVPair(*(s.truncate(35) for s in big))
    assert counted_builds == [20, 50]
    assert small == direct
    assert big.u.prec == 50


def test_the_plan_ends_with_its_block(counted_builds):
    with pytest.raises(RuntimeError):
        with partitions.planned_uv(50):
            raise RuntimeError
    assert partitions._def_plan == 0
    assert uv_series_def(30).u.prec == 30
    assert counted_builds == [30]


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
    # prec 1 to 4 run no step; the narrowings, and the first n past the
    # loop with two parts of core_n in the window, happen in this range
    for prec in range(1, 61):
        cold_def_cache()
        pair = uv_series_def(prec)
        assert pair.u.prec == prec
        assert [pair.u.coeff(n) for n in range(prec)] == count_table("u", prec - 1)
        assert [pair.v.coeff(n) for n in range(prec)] == count_table("v", prec - 1)


@pytest.mark.parametrize("length", [1, 2, 300])
def test_core_start_matches_the_inverted_product(length):
    # the end division of 1 is core_1: Jacobi's sparse recurrence and two
    # prefix sums against the closed form of 1 / (E(1)^3 (1-q)(1-q^2)),
    # the cube of sum p(n) q^n times sum (floor(n/2) + 1) q^n, the
    # partitions into parts 1 and 2; a signed series divides to its
    # product with that inverse
    want = (LaurentSeries(ZZ, 0, [p_count(n) for n in range(length)]) ** 3
            * LaurentSeries(ZZ, 0, [n // 2 + 1 for n in range(length)]))
    rng = random.Random(length)
    x = [rng.randint(-1 << 20, 1 << 20) for _ in range(length)]
    one, got = partitions._end_division([1] + [0] * (length - 1), x)
    assert one == [want.coeff(n) for n in range(length)]
    assert got == list((LaurentSeries(ZZ, 0, x) * want).coeffs)


@pytest.mark.parametrize("prec, u, v", [(1, [0], [0]), (2, [0, 1], [0, 0]),
                                        (3, [0, 1, 5], [0, 0, 1]),
                                        (4, [0, 1, 5, 15], [0, 0, 1, 4])])
def test_series_def_runs_no_step_below_prec_5(cold_def_cache, monkeypatch, prec, u, v):
    # 4n < prec has no solution n >= 1, so U and V are their closed tails
    # alone, and neither a slot width nor the end division is needed
    monkeypatch.setattr(partitions, "_growth_bits", None)
    monkeypatch.setattr(partitions, "_end_division", None)
    pair = uv_series_def(prec)
    assert pair.u == LaurentSeries(ZZ, 0, u)
    assert pair.v == LaurentSeries(ZZ, 0, v)
    assert u == count_table("u", prec - 1) and v == count_table("v", prec - 1)


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


@pytest.mark.parametrize("length", [2, 9, 60, 301])
def test_growth_bits_bound_one_step(length):
    # one step maps c to h c on the window, h = (1-q^n)^4 / ((1-q^{2n+1})
    # (1-q^{2n+2})), so no coefficient grows by more than sum |h_i|, i < length
    for n in range(1, length + 2):
        h = [1] + [0] * (length - 1)
        for _ in range(4):
            h = _shift(h, n, -1)
        h = _list_div_one_minus(_list_div_one_minus(h, 2 * n + 1), 2 * n + 2)
        assert sum(map(abs, h)) < 1 << partitions._growth_bits(n, length), n


def replay_with_list_shadow(prec):
    """Run uv_series_def(prec), replaying each PackedSeries op on plain lists.
    After every op the packed value must equal the shadow's modulo
    2^(bits * length), which the packed passes keep at any width; every read
    (fits, restride, to_coeffs) must agree with the shadow, which needs the
    width.  Returns the pair, the ops in order and the (old, new) slot
    bytes of every width change of R, the one series packed from a value."""
    shadow = {}
    ops = []
    widths = []
    orig = {name: getattr(PackedSeries, name) for name in
            ("__init__", "mul_one_minus", "div_one_minus", "add_shifted",
             "restride", "to_coeffs", "fits")}

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
        # R starts from R_1 = 1; the rest open at 0
        shadow[id(self)] = [value] + [0] * (length - 1)
        if value:
            shadow["R"] = id(self)
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
        old = self.nbytes
        orig["restride"](self, length, slot_bits)   # re-runs __init__, which resets
        shadow[id(self)] = kept
        if id(self) == shadow["R"] and self.nbytes != old:
            widths.append((old, self.nbytes))
        read(self, "restride")

    def fits(self, bits):
        got = orig["fits"](self, bits)
        ops.append("fits")
        half = 1 << (bits - 1)
        assert got == all(-half <= c < half for c in shadow[id(self)]), bits
        return got

    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("__init__", init), ("mul_one_minus", mul_one_minus),
                         ("div_one_minus", div_one_minus),
                         ("add_shifted", add_shifted), ("restride", restride),
                         ("to_coeffs", lambda self: read(self, "to_coeffs")),
                         ("fits", fits)):
            mp.setattr(PackedSeries, name, fn)
        return uv_series_def(prec), ops, widths


def test_series_def_agrees_with_list_shadow_after_every_op(cold_def_cache):
    pair, ops, widths = replay_with_list_shadow(150)
    # steps n = 1..37 (4n < 150); the last one does not update R, and each
    # of the other 36 checks R once, or twice when it stays at its width
    # and is tested one byte narrower
    counts = {op: ops.count(op) for op in set(ops)}
    segments = (counts["add_shifted"] - 2 * 37) // 2
    assert counts == {"start": 1, "mul_one_minus": 4 * 36, "div_one_minus": 2 * 36,
                      "add_shifted": 2 * 37 + 2 * segments,
                      "fits": counts["fits"], "restride": counts["restride"],
                      "to_coeffs": 2}
    assert 36 < counts["fits"] <= 2 * 36
    # R both widens and narrows, and each change closes a U and a V segment
    assert any(new > old for old, new in widths)
    assert any(new < old for old, new in widths)
    assert segments > len(widths)
    assert pair.u == LaurentSeries(ZZ, 0, count_table("u", 149))
    assert pair.v == LaurentSeries(ZZ, 0, count_table("v", 149))


@lru_cache(maxsize=None)
def exact_growth_bits(n, length):
    """bitlen of sum |h_i|, i < length, h the multiplier of step n: the
    exact factor one step can enlarge the largest coefficient by."""
    h = [1] + [0] * (length - 1)
    for _ in range(4):
        h = _shift(h, n, -1)
    h = _list_div_one_minus(_list_div_one_minus(h, 2 * n + 1), 2 * n + 2)
    return sum(map(abs, h)).bit_length()


@pytest.mark.parametrize("short", [0, 8])
def test_list_shadow_fails_one_byte_below_the_exact_need(cold_def_cache, monkeypatch, short):
    # the exact growth headroom passes, so the shadow test is sharp; a byte
    # less lets R outgrow its slot and a read disagree with the shadow
    monkeypatch.setattr(partitions, "_growth_bits",
                        lambda n, length: max(exact_growth_bits(n, length) - short, 0))
    if short:
        with pytest.raises(AssertionError):
            replay_with_list_shadow(150)
    else:
        pair, _, _ = replay_with_list_shadow(150)
        assert pair.u == LaurentSeries(ZZ, 0, count_table("u", 149))
        assert pair.v == LaurentSeries(ZZ, 0, count_table("v", 149))


def test_list_shadow_fails_without_growth_headroom(cold_def_cache, monkeypatch):
    # the control: with no room for one step's growth, R outgrows its slot
    # and a read disagrees with the shadow
    monkeypatch.setattr(partitions, "_growth_bits", lambda n, length: 0)
    with pytest.raises(AssertionError):
        replay_with_list_shadow(150)


# the closed tail past the loop and the packed end division ----------------

def core_by_product(n, length):
    """core_n = 1/((q^n;q)_inf^3 (q^n;q)_{n+1}) on [0, length), one factor
    1/(1-q^k) at a time."""
    core = [1] + [0] * (length - 1)
    for k in range(n, length):
        for _ in range(3 + (k <= 2 * n)):
            core = _list_div_one_minus(core, k)
    return core


def at_most_two_parts(n, j):
    """[q^j] core_n for j < 3n by the count of one and two coloured parts."""
    c = (j == 0) + (3 + (j <= 2 * n) if j >= n else 0)
    if j >= 2 * n:
        c += 16 * ((j + 1) // 2 - n) + 10 * (j % 2 == 0)
    return c


def test_core_below_q_3n_has_at_most_two_parts():
    for n in range(1, 13):
        assert core_by_product(n, 3 * n) == [at_most_two_parts(n, j)
                                             for j in range(3 * n)], n


def test_tails_sum_the_cores_past_the_loop():
    # for every prec < 61 and every a with 4a >= prec, the closed tails
    # against sum_{n>=a} q^n core_n and q^2n core_n, each core expanded
    top = 61
    cores = {n: core_by_product(n, top - n) for n in range(1, top)}
    for prec in range(1, top):
        u, v = [0] * prec, [0] * prec
        for a in range(prec, -(-prec // 4) - 1, -1):
            for j, c in enumerate(cores.get(a, [])[:prec - a]):
                u[a + j] += c
            for j, c in enumerate(cores.get(a, [])[:max(prec - 2 * a, 0)]):
                v[2 * a + j] += c
            assert partitions._tails(prec, a) == (u, v), (prec, a)


def test_split_bits_cover_four_tuples_of_partitions():
    # p4(n), the q^n coefficient of 1/E(1)^4, bounds u(n) and v(n) (add
    # the marker to sigma) and must fit below 2^K at every n < 4001
    top = 4001
    p4 = LaurentSeries.one(ZZ, top).divide(euler_cube(1, top)).divide(
        euler_E(1, top))
    for n in range(top):
        assert p4.coeff(n).bit_length() <= partitions._split_bits(n), n
    for kind in "uv":
        assert all(c <= p4.coeff(n)
                   for n, c in enumerate(count_table(kind, 100)))


def test_end_division_fails_one_bit_below_the_largest_lane(cold_def_cache, monkeypatch):
    # the control: with K at the largest U lane's bit length the split is
    # exact; one bit less and that lane spills into V's, so the build
    # disagrees with the independent Lambert route
    lanes = []
    real = partitions._end_division

    def spy(su, sv):
        out = real(su, sv)
        lanes.append(out[0])
        return out

    monkeypatch.setattr(partitions, "_end_division", spy)
    uv_series_def(2001)
    need = max(c.bit_length() for c in lanes[0])
    assert need < partitions._split_bits(2000)
    want = uv_series_lambert(2001)
    for k in (need, need - 1):
        cold_def_cache()
        monkeypatch.setattr(partitions, "_split_bits", lambda n: k)
        pair = uv_series_def(2001)
        assert (pair == want) == (k == need), k


def test_def_and_lambert_routes_agree():
    d = uv_series_def(300)
    l = uv_series_lambert(300)
    assert d.u == l.u
    assert d.v == l.v


@pytest.mark.parametrize("prec", [*range(1, 40), 300, 1001])
def test_lambert_split_matches_two_divisions(prec):
    # one division of NU + 2^K NV by E(1)^3, split by a mask and a shift,
    # against each numerator divided on its own
    cube = euler_cube(1, prec)
    want = [double_pole_sum(w, prec).divide_exact(-2).divide(cube)
            for w in "uv"]
    got = uv_series_lambert(prec)
    for g, w in zip(got, want):
        assert (g.low, g.prec, g.coeffs) == (w.low, w.prec, w.coeffs)


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
