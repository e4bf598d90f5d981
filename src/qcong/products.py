"""Euler products, theta blocks and finite q-Pochhammer products.

E(m) = (q^m; q^m)_inf comes from a pentagonal table, which the pentagonal
number theorem keeps sparse, and E(m)^3 from Jacobi's sparse
sum_k (-1)^k (2k+1) q^{m k(k+1)/2}.  A theta block comes from the Jacobi
triple product over E(m):

    (q^r;q^m)_inf (q^{m-r};q^m)_inf
        = sum_n (-1)^n q^{m n(n-1)/2 + r n} * sum_k p(k) q^{m k},

a sparse sum of +-1 terms (triple_product) times 1/E(m), whose
coefficients are the partition numbers.  Both integer tables are cached
per (m, prec) and (r, m, prec) and reduced on construction when a modular
ring is requested, so the work is shared between rings.

The checks divide by sparse products and never invert them densely: a
quotient by E(m)^3 or by a triple_product is LaurentSeries.divide, a
recurrence over the divisor's nonzero terms, or, for the exact theta
identities, is cleared of its denominators (verify._clear).  A finite identity whose
blocks are 1/((q;q)_{n-k} (q;q)_{n+k}) is multiplied through by the unit
(q;q)_{2n}, which turns every block into the Gaussian binomial [2n; n-k]_q
(gaussian_binomials), an exact polynomial built with one shifted
subtraction and one prefix-sum pass per row.
"""

from functools import lru_cache
from itertools import accumulate
from operator import sub

from ._kernel import convolve
from .series import LaurentSeries, ZZ

_pent = [1]


def p_count(n):
    """Ordinary partition count, by the pentagonal recurrence."""
    if n < 0:
        return 0
    while len(_pent) <= n:
        m = len(_pent)
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * _pent[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * _pent[m - k * (3 * k + 1) // 2]
            k += 1
        _pent.append(total)
    return _pent[n]


@lru_cache(maxsize=None)
def _poch_inf_coeffs(m, prec):
    """ZZ coefficients of E(m) = prod_{j>=1} (1 - q^{j*m}) on [0, prec)."""
    cs = [0] * prec
    k = 0
    while m * (k * (3 * k - 1) // 2) < prec:
        sign = -1 if k % 2 else 1
        for e in {m * (k * (3 * k - 1) // 2), m * (k * (3 * k + 1) // 2)}:
            if e < prec:
                cs[e] += sign
        k += 1
    return tuple(cs)


def _jtp_coeffs(r, m, prec):
    """ZZ coefficients of (q^r;q^m)_inf (q^{m-r};q^m)_inf E(m), 0 < r < m,
    by the triple product.

    Its terms n >= 0 and n = -k, k >= 1, have exponents m n(n-1)/2 + r n
    and m k(k-1)/2 + (m-r) k: one rule with r and m - r.
    """
    jtp = [0] * prec
    for a, n in ((r, 0), (m - r, 1)):
        while (e := m * n * (n - 1) // 2 + a * n) < prec:
            jtp[e] += -1 if n % 2 else 1
            n += 1
    return jtp


@lru_cache(maxsize=None)
def _jacobi_unit_coeffs(r, m, prec):
    """ZZ coefficients of (q^r;q^m)_inf (q^{m-r};q^m)_inf, 0 < r < m: the
    triple-product sum times 1/E(m)."""
    top = (prec - 1) // m
    p_count(top)  # fills _pent through p(top)
    inv_euler = [0] * prec
    inv_euler[::m] = _pent[:top + 1]
    return tuple(convolve(_jtp_coeffs(r, m, prec), inv_euler, prec))


def euler_E(m, prec, ring=ZZ):
    """E(m) = (q^m; q^m)_inf on [0, prec)."""
    if m < 1:
        raise ValueError(f"euler_E needs m >= 1, got m={m}")
    if prec < 1:
        raise ValueError("prec must be positive")
    return LaurentSeries(ring, 0, _poch_inf_coeffs(m, prec))


def euler_cube(m, prec, ring=ZZ):
    """E(m)^3 on [0, prec), by Jacobi:
    (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}, in q^m."""
    if m < 1:
        raise ValueError(f"euler_cube needs m >= 1, got m={m}")
    if prec < 1:
        raise ValueError("prec must be positive")
    cs = [0] * prec
    k = 0
    while (e := m * k * (k + 1) // 2) < prec:
        cs[e] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return LaurentSeries(ring, 0, cs)


def gaussian_binomials(N):
    """[[N; j]_q for j = 0..N], each the exact coefficient list of the
    polynomial, of degree j (N - j).

    [N; j] = [N; j-1] (1 - q^{N-j+1}) / (1 - q^j): the product is one
    shifted subtraction, and the division, exact because the quotient is a
    polynomial, is a prefix sum along each residue class mod j.
    """
    if N < 0:
        raise ValueError(f"gaussian_binomials needs N >= 0, got N={N}")
    rows = [[1]]
    for j in range(1, N + 1):
        row, m = rows[-1], N - j + 1
        cs = row + [0] * m
        cs[m:] = map(sub, cs[m:], row)         # times 1 - q^m
        for r in range(j):                     # over 1 - q^j
            cs[r::j] = accumulate(cs[r::j])
        rows.append(cs[:len(cs) - j])
    return rows


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


def _normalized(a, m, prec, ring, unit_coeffs):
    """sign * q^shift * unit_coeffs(r, m, prec) for [q^a; q^m] folded to
    [q^r; q^m] (_theta_normalize), r taken at most m/2 by symmetry."""
    if m < 1:
        raise ValueError("m must be >= 1")
    sign, shift, r = _theta_normalize(a, m)
    unit = LaurentSeries(ring, 0, unit_coeffs(min(r, m - r), m, prec))
    if sign < 0:
        unit = unit.scale(-1)
    return unit.shift(shift) if shift else unit


def jacobi_theta(a, m, prec, ring=ZZ):
    """[q^a; q^m] = (q^a;q^m)_inf (q^{m-a};q^m)_inf, normalized for any a.

    a outside (0, m) folds back via [q^{r+km}] = (-1)^k q^{-(kr+mk(k-1)/2)}
    [q^r], so callers can pass the exponents identities hand them.  a a
    multiple of m raises: the product vanishes identically and no series
    window can represent that honestly.
    """
    return _normalized(a, m, prec, ring, _jacobi_unit_coeffs)


def triple_product(a, m, prec, ring=ZZ):
    """[q^a; q^m] E(m), the sparse triple-product sum, folded and windowed
    as jacobi_theta(a, m, prec, ring) is, and raising as it does when m
    divides a.  A quotient of thetas of one base m is a quotient of these,
    since the E(m) factors cancel."""
    return _normalized(a, m, prec, ring, _jtp_coeffs)
