"""Exact truncated Laurent series over ZZ and ZZ/m.

A series stores a dense coefficient window [low, prec).  Coefficients below
low are zero by construction (low is a support bound, not the valuation);
coefficients at prec and beyond are unknown, never assumed zero.  Every
operation returns the window its inputs actually determine:

  add/sub   [min low, min prec): below its low a series is zero, so the
            lower start is sound; above the lower prec nothing is known
  mul       [f.low + g.low, min(f.low + g.prec, g.low + f.prec))
  divide    f / g: [f.low - v, f.low - v + min(f.prec - f.low, g.prec - v)),
            v the valuation of g: the quotient's coefficients there are
            the ones that f and g from q^v up determine
  equality  compared on the overlap only; an empty overlap is an error

Out-of-window coefficient access raises.  All values are immutable; share
them freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import _kernel


class SeriesError(ValueError):
    pass


class WindowError(SeriesError):
    """Empty or incompatible coefficient windows."""


class RingMismatchError(SeriesError):
    pass


class NonUnitError(SeriesError):
    pass


@dataclass(frozen=True)
class Ring:
    """ZZ when modulus is None, else ZZ/modulus with canonical reps 0..m-1."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    def unit_inverse(self, c):
        if self.modulus is None:
            if c in (1, -1):
                return c
            raise NonUnitError(f"{c} is not a unit over ZZ")
        try:
            return pow(c, -1, self.modulus)
        except ValueError:
            raise NonUnitError(f"{c} is not a unit mod {self.modulus}") from None

    def __repr__(self):
        return "ZZ" if self.modulus is None else f"ZZ/{self.modulus}"


ZZ = Ring()


def _reps(modulus, coeffs):
    """coeffs as a tuple, over ZZ/modulus of canonical reps, in one pass."""
    return tuple(coeffs if modulus is None else map(modulus.__rmod__, coeffs))


def Zmod(m):
    return Ring(m)


class LaurentSeries:
    __slots__ = ("ring", "low", "coeffs")

    def __init__(self, ring, low, coeffs):
        cs = _reps(ring.modulus, coeffs)
        if not cs:
            raise WindowError("series window must be non-empty")
        self.ring = ring
        self.low = low
        self.coeffs = cs

    @classmethod
    def _canonical(cls, ring, low, coeffs):
        """Trusted constructor: coeffs is a non-empty tuple already reduced
        to the ring's canonical reps, so __init__'s second pass is skipped."""
        out = object.__new__(cls)
        out.ring = ring
        out.low = low
        out.coeffs = coeffs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, ring, low, prec):
        if prec <= low:
            raise WindowError(f"window [{low},{prec}) is empty")
        return cls(ring, low, (0,) * (prec - low))

    @classmethod
    def one(cls, ring, prec):
        return cls.monomial(ring, 1, 0, prec)

    @classmethod
    def monomial(cls, ring, coeff, exponent, prec):
        if prec <= exponent:
            raise WindowError(f"prec {prec} does not cover exponent {exponent}")
        return cls(ring, exponent, (coeff,) + (0,) * (prec - exponent - 1))

    # -- inspection --------------------------------------------------------

    @property
    def prec(self):
        return self.low + len(self.coeffs)

    def coeff(self, n):
        if not self.low <= n < self.prec:
            raise WindowError(
                f"coefficient of q^{n} outside window [{self.low},{self.prec})")
        return self.coeffs[n - self.low]

    def valuation(self):
        """Exponent of the first nonzero coefficient, or None if the whole
        window is zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.low + i
        return None

    def overlap(self, other):
        lo = max(self.low, other.low)
        hi = min(self.prec, other.prec)
        return lo, hi

    def first_difference(self, other):
        """First (exponent, self coeff, other coeff) differing on the
        overlap, or None.  Raises on disjoint windows or ring mismatch."""
        self._want_ring(other)
        lo, hi = self.overlap(other)
        if hi <= lo:
            raise WindowError(
                f"windows [{self.low},{self.prec}) and "
                f"[{other.low},{other.prec}) do not overlap")
        mine = self.coeffs[lo - self.low:hi - self.low]
        theirs = other.coeffs[lo - other.low:hi - other.low]
        if mine != theirs:
            i = next(i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b)
            return lo + i, mine[i], theirs[i]
        return None

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                e = self.low + i
                terms.append(f"{c}*q^{e}" if e else f"{c}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{self.ring} series [{self.low},{self.prec}): {body}>"

    # -- arithmetic --------------------------------------------------------

    def _want_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def _padded(self, lo, hi):
        """Coefficients on [lo, hi) for lo <= low, zeros below low."""
        return ((0,) * (min(self.low, hi) - lo)
                + self.coeffs[:max(hi - self.low, 0)])

    def _window_op(self, other, op):
        self._want_ring(other)
        lo = min(self.low, other.low)
        hi = min(self.prec, other.prec)  # > lo: each prec exceeds its low
        return LaurentSeries._canonical(self.ring, lo, _reps(
            self.ring.modulus,
            map(op, self._padded(lo, hi), other._padded(lo, hi))))

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._window_op(other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._window_op(other, operator.sub)

    def __neg__(self):
        return LaurentSeries(self.ring, self.low, tuple(-c for c in self.coeffs))

    def scale(self, c):
        return LaurentSeries._canonical(self.ring, self.low, _reps(
            self.ring.modulus, map(c.__mul__, self.coeffs)))

    def shift(self, s):
        """Multiply by q^s: window moves to [low+s, prec+s)."""
        return LaurentSeries._canonical(self.ring, self.low + s, self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._want_ring(other)
        out_len = min(len(self.coeffs), len(other.coeffs))
        cs = _kernel.convolve(self.coeffs, other.coeffs, out_len,
                              self.ring.modulus)   # mod m: already reduced
        return LaurentSeries._canonical(self.ring, self.low + other.low, tuple(cs))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be nonnegative integers")
        if k == 0:
            return LaurentSeries.one(self.ring, len(self.coeffs))
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def divide(self, other):
        """self / other on the window of the module docstring, by the
        recurrence over other's nonzero terms (_kernel.sparse_divide):
        length times terms steps.  other's first nonzero coefficient must
        be a ring unit (NonUnitError) and the rings must agree
        (RingMismatchError).  For divisors that are sparse by
        construction; a dense one costs length squared."""
        v = other.valuation()
        if v is None:
            raise NonUnitError("cannot divide by a series with all-zero window")
        idx = v - other.low
        lead_inverse = other.ring.unit_inverse(other.coeffs[idx])
        self._want_ring(other)
        out_len = min(len(self.coeffs), len(other.coeffs) - idx)
        terms = [(e, c) for e, c in enumerate(other.coeffs[idx:idx + out_len])
                 if c]
        cs = _kernel.sparse_divide(self.coeffs[:out_len], terms, lead_inverse,
                                   self.ring.modulus)
        return LaurentSeries._canonical(self.ring, self.low - v, tuple(cs))

    def divide_exact(self, k):
        """Divide every coefficient by k over ZZ; any remainder is an error."""
        if self.ring.modulus is not None:
            raise RingMismatchError("divide_exact is a ZZ operation")
        out = []
        for i, c in enumerate(self.coeffs):
            d, r = divmod(c, k)
            if r:
                raise ValueError(
                    f"coefficient {c} of q^{self.low + i} not divisible by {k}")
            out.append(d)
        return LaurentSeries(self.ring, self.low, out)

    def reduce_mod(self, m):
        if self.ring.modulus is not None:
            raise RingMismatchError("reduce_mod expects a ZZ series")
        return LaurentSeries(Ring(m), self.low, self.coeffs)

    def dissect(self, ell):
        """Split into ell series f_j with f(q) = sum_j q^j f_j(q^ell).
        Exponent residues use mathematical mod, so q^-8 lands in class 5
        mod 13."""
        if ell < 1:
            raise ValueError("dissection modulus must be >= 1")
        out = []
        for j in range(ell):
            cprec = (self.prec - 1 - j) // ell + 1
            clow = -((j - self.low) // ell)
            clow = min(clow, cprec - 1)
            cs = []
            for t in range(clow, cprec):
                e = ell * t + j
                cs.append(self.coeffs[e - self.low] if e >= self.low else 0)
            out.append(LaurentSeries(self.ring, clow, cs))
        return out

    def truncate(self, new_prec):
        """Shrink the top of the window."""
        if not self.low < new_prec <= self.prec:
            raise WindowError(
                f"cannot truncate [{self.low},{self.prec}) to prec {new_prec}")
        return LaurentSeries._canonical(self.ring, self.low,
                                        self.coeffs[:new_prec - self.low])

    def with_low(self, new_low):
        """Extend the window downward with explicit zeros (sound: low is a
        support bound)."""
        if new_low > self.low:
            raise WindowError(f"with_low({new_low}) would raise low {self.low}")
        return LaurentSeries._canonical(self.ring, new_low,
                                        (0,) * (self.low - new_low) + self.coeffs)

