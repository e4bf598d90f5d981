"""Generalized Lambert sums with one or two poles per term.

All three builders share the same discipline: a term index bound chosen
so every term whose leading exponent lands below prec is included, and a
window that starts at min(0, least term exponent), a support bound: no
contribution is discarded, and a caller that reads below q^0 may extend
the result with with_low.
"""

import math

from .series import LaurentSeries, ZZ


def _normalize_pole(sign, e0, d, square=False):
    """Rewrite sign * q^e0 / (1-q^d)^k with d < 0 to have a positive pole.

    1/(1-q^-m) = -q^m/(1-q^m), so the square loses the sign flip.
    """
    if d > 0:
        return sign, e0, d
    if square:
        return sign, e0 - 2 * d, -d
    return -sign, e0 - d, -d


def _accumulate(entries, prec, ring, square=False):
    """Dense sum of val * q^e0 / (1-q^d)^(1 or 2) over [out_low, prec)."""
    out_low = min([0] + [e0 for _, e0, _ in entries])
    acc = [0] * (prec - out_low)
    for val, e0, d in entries:
        e, j = e0, 1
        while e < prec:
            acc[e - out_low] += val * j if square else val
            e += d
            j += 1
    return LaurentSeries(ring, out_low, acc)


def t_series(a, b, c, prec, ring=ZZ):
    """T(q^a, q^b, q^c) = sum over n of (-1)^n q^{c n(n+1)/2 + bn} / (1 - q^{cn+a}).

    Raises when a is divisible by c: the n = -a/c term divides by zero and
    the sum is not defined.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if a % c == 0:
        raise ValueError(f"pole: the n={-a // c} term of T({a},{b},{c}) divides by zero")
    n_max = 2 + (abs(b) + abs(a) + math.isqrt(2 * c * max(prec, 0)) + c) // c
    entries = []
    for n in range(-n_max, n_max + 1):
        sign = -1 if n % 2 else 1
        e0 = c * n * (n + 1) // 2 + b * n
        d = c * n + a
        sign, e0, d = _normalize_pole(sign, e0, d)
        entries.append((sign, e0, d))
    return _accumulate(entries, prec, ring)


def s_series(ell, b, prec, ring=ZZ):
    """S_ell(b) = sum over n != 0 of (-1)^n q^{n(n+1)/2 + bn} n(n+1) / (1 - q^{ell n})."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n_max = 2 * (abs(b) + ell) + 3 + math.isqrt(2 * max(prec, 0))
    entries = []
    for n in range(-n_max, n_max + 1):
        w = n * (n + 1)
        if w == 0:
            continue  # n = 0 is excluded, n = -1 has weight zero
        sign = -1 if n % 2 else 1
        e0 = n * (n + 1) // 2 + b * n
        sign, e0, d = _normalize_pole(sign, e0, ell * n)
        entries.append((sign * w, e0, d))
    return _accumulate(entries, prec, ring)


# w(n) of the two double-pole numerators, by weight name
_WEIGHTS = {"u": lambda n: n * (n + 1), "v": lambda n: n * (n - 1)}


def double_pole_sum(weight, prec, ring=ZZ):
    """sum over n != 0 of (-1)^n q^{n(n+1)/2} w(n) / (1 - q^n)^2.

    weight "u" takes w(n) = n(n+1), weight "v" takes w(n) = n(n-1); these
    are the two numerators behind the rank-style counting series.
    """
    if weight not in _WEIGHTS:
        raise ValueError("weight must be 'u' or 'v'")
    n_max = math.isqrt(2 * max(prec, 0)) + 4
    entries = []
    for n in range(-n_max, n_max + 1):
        w = _WEIGHTS[weight](n)
        if n == 0 or w == 0:
            continue
        sign = -1 if n % 2 else 1
        sign, e0, d = _normalize_pole(sign, n * (n + 1) // 2, n, square=True)
        entries.append((sign * w, e0, d))
    return _accumulate(entries, prec, ring, square=True)
