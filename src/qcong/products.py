"""q-Pochhammer and theta-style products.

Everything here expands infinite products into truncated series over a
chosen ring.  Integer coefficient tables are cached per (a, step, prec)
and reduced on construction when a modular ring is requested, so the
expensive work is shared between rings.
"""

from functools import lru_cache

from ._kernel import binomial_product, convolve, partition_bound_bits
from .series import LaurentSeries, ZZ


@lru_cache(maxsize=None)
def _poch_inf_coeffs(a, step, prec):
    """ZZ coefficients of prod_{j>=0} (1 - q^{a+j*step}) on [0, prec)."""
    if a == step:
        # Euler product: the pentagonal number theorem keeps this sparse.
        cs = [0] * prec
        k = 0
        while step * (k * (3 * k - 1) // 2) < prec:
            sign = -1 if k % 2 else 1
            for e in {step * (k * (3 * k - 1) // 2), step * (k * (3 * k + 1) // 2)}:
                if e < prec:
                    cs[e] += sign
            k += 1
        return tuple(cs)
    # Coefficients of partial products count distinct-part partitions, so
    # the partition bound dominates every slot.
    bits = partition_bound_bits(prec) + 8
    return tuple(binomial_product(range(a, prec, step), prec, bits))


@lru_cache(maxsize=None)
def _jacobi_unit_coeffs(r, m, prec):
    """ZZ coefficients of (q^r;q^m)_inf (q^{m-r};q^m)_inf, 0 < r < m."""
    na = _poch_inf_coeffs(r, m, prec)
    nb = _poch_inf_coeffs(m - r, m, prec)
    return tuple(convolve(na, nb, prec))


def pochhammer_inf(a, m, prec, ring=ZZ):
    """(q^a; q^m)_inf on [0, prec).  Needs a >= 1 so the product is a unit."""
    if a < 1 or m < 1:
        raise ValueError(f"pochhammer_inf needs a, m >= 1, got a={a}, m={m}")
    if prec < 1:
        raise ValueError("prec must be positive")
    return LaurentSeries(ring, 0, _poch_inf_coeffs(a, m, prec))


def euler_E(m, prec, ring=ZZ):
    """E(m) = (q^m; q^m)_inf."""
    return pochhammer_inf(m, m, prec, ring)


def pochhammer_finite(a, n, prec, ring=ZZ):
    """(q^a; q)_n = prod_{j=0}^{n-1} (1 - q^{a+j}) as an exact polynomial.

    a may be zero or negative.  A factor with exponent 0 makes the whole
    product the zero polynomial, which is returned as an honest all-zero
    series rather than raised.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if prec < 1:
        raise ValueError("prec must be positive")
    exps = [a + j for j in range(n)]
    vmin = sum(e for e in exps if e < 0)
    if 0 in exps:
        return LaurentSeries.zeros(ring, vmin, prec)
    lo, cs = 0, [1]
    for e in exps:
        new_lo = lo + min(e, 0)
        out = [0] * (len(cs) + abs(e))
        base = lo - new_lo
        for i, c in enumerate(cs):
            out[i + base] += c
            out[i + base + e] -= c
        lo, cs = new_lo, out
    want = prec - lo
    cs = cs[:want] + [0] * (want - len(cs))
    return LaurentSeries(ring, lo, cs)


def _theta_normalize(a, m):
    """Reduce [q^a; q^m] to sign * q^shift * [q^r; q^m] with 0 < r < m."""
    k, r = divmod(a, m)
    if r == 0:
        raise ValueError(f"[q^{a}; q^{m}] vanishes (exponent divisible by {m})")
    sign = -1 if k % 2 else 1
    shift = -(k * r + m * k * (k - 1) // 2)
    return sign, shift, r


def jacobi_theta(a, m, prec, ring=ZZ):
    """[q^a; q^m] = (q^a;q^m)_inf (q^{m-a};q^m)_inf, normalized for any a.

    a outside (0, m) folds back via [q^{r+km}] = (-1)^k q^{-(kr+mk(k-1)/2)}
    [q^r], so callers can pass the exponents identities hand them.  a a
    multiple of m raises: the product vanishes identically and no series
    window can represent that honestly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    sign, shift, r = _theta_normalize(a, m)
    unit = LaurentSeries(ring, 0, _jacobi_unit_coeffs(min(r, m - r), m, prec))
    if sign < 0:
        unit = unit.scale(-1)
    return unit.shift(shift) if shift else unit


def cap_P(a, ell, prec, ring=ZZ):
    """P(a) = [q^{ell*a}; q^{ell^2}], the building block of the mod-ell tables."""
    return jacobi_theta(ell * a, ell * ell, prec, ring)
