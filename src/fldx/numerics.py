"""Exact rational arithmetic, rational intervals and a parameterizable
floating-point rounding model.

All arithmetic in the analysis is carried out over exact rationals
(`fractions.Fraction`), so interval endpoints never need outward rounding
and rounding of floats can be modeled exactly for any radix/precision.

The hot loops of the decision step (`AffineForm.linear_part`,
`project_onto_symbols`) run on plain ints instead, in one format that
only this module converts to and from: a group of rationals is brought
over D, the lcm of their denominators, as the ints x*D. Those ints are
exact, sums of ints over D are ints over D, and the product of an int
over D1 and one over D2 is an int over D1*D2, so the loops stay exact
without ever rounding and without a float. Fractions appear only at the
boundary: `over_lcm` and `products_over_lcm` convert in, `interval_over`
and `narrowed` convert out. For dyadic inputs D is one power of two; for
others (a decimal literal on the real side, a quotient) it is whatever
the denominators need, through the same code. `RInterval.meet` orders
endpoints by cross-multiplying numerators and denominators.

Two module-private constructors skip the checks of the public ones, and
only code of this module calls them:
  * `_iv(lo, hi)` builds an RInterval from two Fractions already known to
    satisfy lo <= hi, as the results of the interval operations below do.
    Every value that comes from outside (ints, strings, endpoints of
    unknown order) goes through `RInterval(...)`, which coerces and checks.
  * `_fv(value, fmt)` builds the FloatValue a rounding function computed,
    which is representable by construction. `FloatValue(...)` called
    directly still checks `is_representable`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import DivisionByZero, OverflowAlarm

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, decimal strings ('0.1', '1e-9') to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


# ---------------------------------------------------------------------------
# Rational intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: RationalLike) -> "RInterval":
        x = rat(x)
        return _iv(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def rad(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def max_abs(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))

    def __add__(self, other: "RInterval") -> "RInterval":
        return _iv(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RInterval") -> "RInterval":
        return _iv(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RInterval":
        return _iv(-self.hi, -self.lo)

    def __mul__(self, other: "RInterval") -> "RInterval":
        ps = (self.lo * other.lo, self.lo * other.hi,
              self.hi * other.lo, self.hi * other.hi)
        return _iv(min(ps), max(ps))

    def scale(self, k: Fraction) -> "RInterval":
        a, b = k * self.lo, k * self.hi
        return _iv(a, b) if a <= b else _iv(b, a)

    def shift(self, k: Fraction) -> "RInterval":
        return _iv(self.lo + k, self.hi + k)

    def divide(self, other: "RInterval") -> "RInterval":
        if other.contains(ZERO):
            raise DivisionByZero("interval division by zero-containing interval")
        inv = _iv(1 / other.hi, 1 / other.lo)
        return self * inv

    def square(self) -> "RInterval":
        if self.lo >= 0:
            return _iv(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return _iv(self.hi * self.hi, self.lo * self.lo)
        m = max(self.lo * self.lo, self.hi * self.hi)
        return _iv(ZERO, m)

    def join(self, other: "RInterval") -> "RInterval":
        return _iv(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "RInterval") -> Optional["RInterval"]:
        """The intersection, or None when empty. When it equals self or
        other, that object itself is returned (intervals are frozen)."""
        a, b, c, d = self.lo, other.lo, self.hi, other.hi
        # the signs of self.lo - other.lo and self.hi - other.hi
        dlo = a.numerator * b.denominator - b.numerator * a.denominator
        dhi = c.numerator * d.denominator - d.numerator * c.denominator
        if dlo >= 0 and dhi <= 0:
            return self
        if dlo <= 0 and dhi >= 0:
            return other
        lo, hi = (a, d) if dlo > 0 else (b, c)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            return None
        return _iv(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _iv(lo: Fraction, hi: Fraction) -> RInterval:
    """Trusted RInterval constructor: lo and hi are Fractions, lo <= hi."""
    iv = object.__new__(RInterval)
    d = iv.__dict__
    d["lo"] = lo
    d["hi"] = hi
    return iv


def trunc_div(a: RInterval, b: RInterval) -> RInterval:
    """C truncating division on integer intervals; 0 not in b."""
    cs = [Fraction(math.trunc(x / y)) for x in (a.lo, a.hi)
          for y in (b.lo, b.hi)]
    return RInterval(min(cs), max(cs))


# ---------------------------------------------------------------------------
# Integers over a common denominator (see the module docstring)
# ---------------------------------------------------------------------------


def over_lcm(xs: Sequence[Fraction],
             d: int = 1) -> Tuple[List[int], int]:
    """(ns, D): D the lcm of d and the denominators of xs, ns[k] = xs[k]*D."""
    d = math.lcm(d, *[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def products_over_lcm(cs: Sequence[int], ivs: Sequence[RInterval]
                      ) -> Tuple[List[int], List[int], int]:
    """(los, his, D_r) for ints cs over some D: [los[k], his[k]] is
    cs[k] * ivs[k] as ints over D * D_r, D_r the lcm of the denominators
    of the endpoints of ivs."""
    d = math.lcm(*[iv.lo.denominator for iv in ivs],
                 *[iv.hi.denominator for iv in ivs])
    los: List[int] = []
    his: List[int] = []
    for c, iv in zip(cs, ivs):
        a = iv.lo.numerator * (d // iv.lo.denominator)
        b = iv.hi.numerator * (d // iv.hi.denominator)
        if c > 0:
            los.append(c * a)
            his.append(c * b)
        else:
            los.append(c * b)
            his.append(c * a)
    return los, his, d


def interval_over(lo: int, hi: int, d: int) -> RInterval:
    """[lo/d, hi/d] for ints lo <= hi over d > 0."""
    return _iv(Fraction(lo, d), Fraction(hi, d))


def narrowed(r: RInterval, lo: Optional[int], hi: Optional[int],
             d: int) -> RInterval:
    """r with each endpoint given as an int over d > 0 replaced by that
    value; the caller knows the result is ordered."""
    return _iv(r.lo if lo is None else Fraction(lo, d),
               r.hi if hi is None else Fraction(hi, d))


# ---------------------------------------------------------------------------
# Floating-point formats and rounding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatFormat:
    """A radix-beta, precision-p floating-point format with gradual underflow.

    Finite values are (-1)^s * M * beta^(e - p + 1) with integer significand
    M < beta^p (normal: M >= beta^(p-1), subnormal: e == e_min).
    """

    beta: int
    p: int
    e_min: int
    e_max: int

    def __post_init__(self):
        if self.beta < 2 or self.p < 2 or self.e_min > self.e_max:
            raise ValueError("invalid float format parameters")

    @cached_property
    def max_finite(self) -> Fraction:
        return (self.beta**self.p - 1) * self.quantum(self.e_max)

    @cached_property
    def unit_roundoff(self) -> Fraction:
        return Fraction(1, 2 * self.beta ** (self.p - 1))

    @cached_property
    def subnormal_step(self) -> Fraction:
        """Smallest positive value; the absolute-error floor eta."""
        return self.quantum(self.e_min)

    def quantum(self, e: int) -> Fraction:
        return Fraction(*self._quantum_ratio(e))

    def _quantum_ratio(self, e: int) -> tuple[int, int]:
        """quantum(e) as a (numerator, denominator) pair of ints."""
        k = e - self.p + 1
        if self.beta == 2:
            return (1 << k, 1) if k >= 0 else (1, 1 << -k)
        return (self.beta**k, 1) if k >= 0 else (1, self.beta**-k)


BINARY32 = FloatFormat(beta=2, p=24, e_min=-126, e_max=127)
BINARY64 = FloatFormat(beta=2, p=53, e_min=-1022, e_max=1023)
TOY = FloatFormat(beta=10, p=2, e_min=0, e_max=2)

FORMATS = {"binary32": BINARY32, "binary64": BINARY64, "toy": TOY}


@dataclass(frozen=True)
class FloatValue:
    """A rational known to be exactly representable in a format."""

    value: Fraction
    fmt: FloatFormat

    def __post_init__(self):
        if not is_representable(self.value, self.fmt):
            raise ValueError(f"{self.value} is not representable in {self.fmt}")


def _fv(value: Fraction, fmt: FloatFormat) -> FloatValue:
    """Trusted FloatValue constructor for a value a rounding function
    built, representable by construction."""
    fv = object.__new__(FloatValue)
    d = fv.__dict__
    d["value"] = value
    d["fmt"] = fmt
    return fv


def _ilog(x: Fraction, beta: int) -> int:
    """Largest e with beta^e <= x, for x > 0."""
    n, d = x.numerator, x.denominator
    if beta == 2:
        # n/d lies in [2^(e-1), 2^(e+1)) for this e
        e = n.bit_length() - d.bit_length()
        if (d << e if e >= 0 else d) > (n if e >= 0 else n << -e):
            e -= 1
        return e
    approx = (math.log2(n) - math.log2(d)) / math.log2(beta)
    e = math.floor(approx)
    b = Fraction(beta)
    while b**e > x:
        e -= 1
    while b ** (e + 1) <= x:
        e += 1
    return e


def _round_half_even(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties to even (d > 0)."""
    q, r = divmod(n, d)
    twice = 2 * r
    if twice < d:
        return q
    if twice > d:
        return q + 1
    return q if q % 2 == 0 else q + 1


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def _round(x: Fraction, fmt: FloatFormat,
           to_int: Callable[[int, int], int]) -> FloatValue:
    """Round x into fmt; to_int(n, d) rounds the scaled significand n/d of
    |x| to an integer."""
    n, d = x.numerator, x.denominator
    if n == 0:
        return _fv(ZERO, fmt)
    s = -1 if n < 0 else 1
    e = max(_ilog(abs(x), fmt.beta), fmt.e_min)
    qn, qd = fmt._quantum_ratio(e)
    m = to_int(s * n * qd, d * qn)
    if m >= fmt.beta**fmt.p:
        e += 1
        m = fmt.beta ** (fmt.p - 1)
        qn, qd = fmt._quantum_ratio(e)
    if e > fmt.e_max:
        raise OverflowAlarm(f"{short(x)} rounds beyond the largest finite"
                            f" value")
    return _fv(Fraction(s * m * qn, qd), fmt)


def short(x: Fraction) -> str:
    """x with six significant digits, as `%.6g` prints float(x). Past the
    range of a double, where float(x) raises OverflowError, the digits
    and the exponent come from the numerator and denominator instead."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        pass
    n, d = abs(x.numerator), x.denominator
    # |x| >= 2**1024 here; 30103/100000 is log10(2) to five digits
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while n >= d * 10 ** (e + 1):
        e += 1
    while n < d * 10 ** e:
        e -= 1
    m = _round_half_even(n, d * 10 ** (e - 5))
    if m == 10**6:
        m, e = 10**5, e + 1
    digits = str(m).rstrip("0")
    mant = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{'-' if x < 0 else ''}{mant}e+{e}"


def round_nearest(x: RationalLike, fmt: FloatFormat) -> FloatValue:
    """Round to nearest representable value, ties to even significand."""
    return _round(rat(x), fmt, _round_half_even)


def round_directed(x: RationalLike, fmt: FloatFormat, up: bool) -> FloatValue:
    """Round toward +inf (up) or -inf; used to snap interval endpoints."""
    x = rat(x)
    outward = up == (x.numerator > 0)
    return _round(x, fmt, _ceil_div if outward else operator.floordiv)


def is_representable(x: RationalLike, fmt: FloatFormat) -> bool:
    x = rat(x)
    if x == 0:
        return True
    a = abs(x)
    if a > fmt.max_finite:
        return False
    e = max(_ilog(a, fmt.beta), fmt.e_min)
    qn, qd = fmt._quantum_ratio(e)
    return (a.numerator * qd) % (a.denominator * qn) == 0


def representation_error_bound(iv: RInterval, fmt: FloatFormat) -> RInterval:
    """Sound symmetric bound on x - round(x) for any x in iv."""
    m = iv.max_abs()
    if m == 0:
        return RInterval.point(0)
    e = max(_ilog(m, fmt.beta), fmt.e_min)
    half_ulp = fmt.quantum(e) / 2
    return RInterval(-half_ulp, half_ulp)
