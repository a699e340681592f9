"""Exact rational arithmetic, rational intervals and a parameterizable
floating-point rounding model.

All arithmetic in the analysis is exact: interval endpoints never need
outward rounding, and rounding of floats is modeled exactly for any
radix and precision.

Intervals and affine forms (`zonotope.AffineForm`) share one exact
format: a group of rationals is held as ints over one common
denominator D > 0. An `RInterval` is [lo_n/den, hi_n/den] in canonical
form, den > 0 and gcd(lo_n, hi_n, den) == 1, so two intervals are equal
exactly when their three ints are, and their hash is that of the ints.
Sums of ints over D are ints over D, the product of an int over D1 and
one over D2 is an int over D1*D2, and two groups over D1 and D2 meet
over lcm(D1, D2); every operation works on the ints and reduces its
result by one gcd. Endpoints are compared by cross-multiplying. For
dyadic values D is one power of two; for others (a decimal literal on
the real side, a quotient) it is whatever the denominators need,
through the same code.

Rounding stays inside the format: `round_nearest(n, d, fmt)` and
`round_directed(n, d, fmt, up)` round n/d, d > 0, and give the result
as ints (n', d'), d' > 0, which a caller turns into an interval with
`interval_over` or `pair_over`.

`fractions.Fraction` appears only at the boundary: `RInterval(lo, hi)`
and `RInterval.point` take rationals in, and `lo`, `hi` and `max_abs`
give them out, for the annotations and the report.

A module-private constructor skips the checks of the public one, and
only code of this module calls it: `_iv(lo_n, hi_n, den)` builds an
RInterval from ints already in canonical form and ordered;
`interval_over` reduces ordered ints that may share a factor first,
`pair_over` ordered endpoints over two denominators, and `int_range`
ordered ints over 1, which need no reduction. Every value that
comes from outside (ints, strings, endpoints of unknown order) goes
through `RInterval(...)`, which coerces and checks.

The executor and the annotation checker share two rules here. The
region table (`REGIONS`) gives the true and false region of each
comparison on t = lhs - rhs, on ints and over the reals; `settled`
decides t against a region, and `compare` is the three-valued
comparison of the checker. `trunc_div`, C's truncating division, and
`RInterval.divide` raise the division-by-zero alarm at the location
their caller gives.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import DivisionByZero, OverflowAlarm

RationalLike = Union[Fraction, int, str]


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


class RInterval:
    """Closed interval [lo_n/den, hi_n/den], lo_n <= hi_n, in canonical
    form (see the module docstring). Immutable: no operation changes an
    interval, each builds a new one or returns an operand."""

    __slots__ = ("lo_n", "hi_n", "den")

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        self.__post_init__(lo, hi)

    def __post_init__(self, lo: RationalLike, hi: RationalLike) -> None:
        """Coerce the endpoints given and check their order. Two reduced
        fractions over the lcm of their denominators are canonical.
        (The name is the one the checking step had when RInterval was a
        dataclass; the benchmark's tracer counts calls to it.)"""
        lo, hi = rat(lo), rat(hi)
        p, q = lo.denominator, hi.denominator
        d = lcm(p, q)
        self.lo_n = lo.numerator * (d // p)
        self.hi_n = hi.numerator * (d // q)
        self.den = d
        if self.lo_n > self.hi_n:
            raise ValueError(f"invalid interval [{lo}, {hi}]")

    @staticmethod
    def point(x: RationalLike) -> "RInterval":
        x = rat(x)
        return _iv(x.numerator, x.numerator, x.denominator)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_n, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_n, self.den)

    def __eq__(self, other) -> bool:
        if type(other) is not RInterval:
            return NotImplemented
        return (self.lo_n == other.lo_n and self.hi_n == other.hi_n
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.lo_n, self.hi_n, self.den))

    def __repr__(self) -> str:
        return f"RInterval(lo={self.lo!r}, hi={self.hi!r})"

    def is_point(self) -> bool:
        return self.lo_n == self.hi_n

    def contains(self, x: Union[Fraction, int]) -> bool:
        return self.meets(x, x)

    def contains_over(self, n: int, d: int) -> bool:
        """Whether n/d, d > 0, lies in the interval."""
        return self.lo_n * d <= n * self.den <= self.hi_n * d

    def within(self, lo: Optional[Union[Fraction, int]],
               hi: Optional[Union[Fraction, int]]) -> bool:
        """Whether the interval lies inside [lo, hi]; None is unbounded."""
        d = self.den
        return ((lo is None or self.lo_n * lo.denominator >= lo.numerator * d)
                and (hi is None
                     or self.hi_n * hi.denominator <= hi.numerator * d))

    def meets(self, lo: Optional[Union[Fraction, int]],
              hi: Optional[Union[Fraction, int]]) -> bool:
        """Whether the interval meets [lo, hi]; None is unbounded."""
        d = self.den
        return ((lo is None or self.hi_n * lo.denominator >= lo.numerator * d)
                and (hi is None
                     or self.lo_n * hi.denominator <= hi.numerator * d))

    def max_abs(self) -> Fraction:
        return Fraction(max(-self.lo_n, self.hi_n), self.den)

    def __add__(self, other: "RInterval") -> "RInterval":
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return interval_over(self.lo_n * f1 + other.lo_n * f2,
                             self.hi_n * f1 + other.hi_n * f2, d1 * f1)

    def __sub__(self, other: "RInterval") -> "RInterval":
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return interval_over(self.lo_n * f1 - other.hi_n * f2,
                             self.hi_n * f1 - other.lo_n * f2, d1 * f1)

    def __neg__(self) -> "RInterval":
        return _iv(-self.hi_n, -self.lo_n, self.den)

    def __mul__(self, other: "RInterval") -> "RInterval":
        a, b, c, d = self.lo_n, self.hi_n, other.lo_n, other.hi_n
        ps = (a * c, a * d, b * c, b * d)
        return interval_over(min(ps), max(ps), self.den * other.den)

    def scale(self, k: Union[Fraction, int]) -> "RInterval":
        p, q = k.numerator, k.denominator
        if p >= 0:
            return interval_over(self.lo_n * p, self.hi_n * p,
                                 self.den * q)
        return interval_over(self.hi_n * p, self.lo_n * p, self.den * q)

    def shift(self, k: Union[Fraction, int]) -> "RInterval":
        p, q = k.numerator, k.denominator
        d = self.den
        g = gcd(d, q)
        f1, f2 = q // g, d // g
        p *= f2
        return interval_over(self.lo_n * f1 + p, self.hi_n * f1 + p, d * f1)

    def divide(self, other: "RInterval", loc=None) -> "RInterval":
        """self / other; a divisor that may be 0 raises the
        division-by-zero alarm at loc. Only an annotation term reaches
        that check, and it gives its location: `abs_op`,
        `AbstractFloat.rel` and `af_inverse` each test their divisor
        first."""
        if other.contains(0):
            raise DivisionByZero(f"{loc}: interval division by"
                                 f" zero-containing interval", loc)
        # 1/[c, d] = [1/d, 1/c] for c, d of one sign
        inv = RInterval(Fraction(other.den, other.hi_n),
                        Fraction(other.den, other.lo_n))
        return self * inv

    def square(self) -> "RInterval":
        a, b = self.lo_n, self.hi_n
        d = self.den * self.den
        if a >= 0:
            return interval_over(a * a, b * b, d)
        if b <= 0:
            return interval_over(b * b, a * a, d)
        return interval_over(0, max(a * a, b * b), d)

    def join(self, other: "RInterval") -> "RInterval":
        """The hull; self or other itself when it contains the other."""
        a, c, d1 = self.lo_n, self.hi_n, self.den
        b, d, d2 = other.lo_n, other.hi_n, other.den
        # the signs of self.lo - other.lo and self.hi - other.hi
        dlo = a * d2 - b * d1
        dhi = c * d2 - d * d1
        if dlo <= 0 and dhi >= 0:
            return self
        if dlo >= 0 and dhi <= 0:
            return other
        if dlo < 0:
            return pair_over(a, d1, d, d2)
        return pair_over(b, d2, c, d1)

    def meet(self, other: "RInterval") -> Optional["RInterval"]:
        """The intersection, or None when empty. When it equals self or
        other, that object itself is returned."""
        a, c, d1 = self.lo_n, self.hi_n, self.den
        b, d, d2 = other.lo_n, other.hi_n, other.den
        # the signs of self.lo - other.lo and self.hi - other.hi
        dlo = a * d2 - b * d1
        dhi = c * d2 - d * d1
        if dlo >= 0 and dhi <= 0:
            return self
        if dlo <= 0 and dhi >= 0:
            return other
        if dlo > 0:
            if a * d2 > d * d1:
                return None
            return pair_over(a, d1, d, d2)
        if b * d1 > c * d2:
            return None
        return pair_over(b, d2, c, d1)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _iv(lo_n: int, hi_n: int, den: int) -> RInterval:
    """Trusted RInterval constructor: ints in canonical form, ordered."""
    iv = object.__new__(RInterval)
    iv.lo_n = lo_n
    iv.hi_n = hi_n
    iv.den = den
    return iv


def interval_over(lo_n: int, hi_n: int, den: int) -> RInterval:
    """[lo_n/den, hi_n/den] for ordered ints over den > 0, reduced by
    their common factor to canonical form."""
    g = gcd(den, lo_n, hi_n)
    if g == 1:
        return _iv(lo_n, hi_n, den)
    return _iv(lo_n // g, hi_n // g, den // g)


def int_range(lo: int, hi: int) -> RInterval:
    """[lo, hi] for ordered ints, over 1: canonical, so no gcd is taken."""
    return _iv(lo, hi, 1)


def pair_over(lo_n: int, lo_d: int, hi_n: int, hi_d: int) -> RInterval:
    """[lo_n/lo_d, hi_n/hi_d] for ordered endpoints over their lcm."""
    g = gcd(lo_d, hi_d)
    return interval_over(lo_n * (hi_d // g), hi_n * (lo_d // g),
                         lo_d // g * hi_d)


def trunc_div(a: RInterval, b: RInterval, loc) -> RInterval:
    """C truncating division on integer intervals; a divisor that may be
    0 raises the division-by-zero alarm at loc."""
    if b.contains(0):
        raise DivisionByZero(f"{loc}: integer division by zero", loc)
    cs = [trunc_quotient(x * b.den, y * a.den) for x in (a.lo_n, a.hi_n)
          for y in (b.lo_n, b.hi_n)]
    return _iv(min(cs), max(cs), 1)


def trunc_quotient(n: int, d: int) -> int:
    """n/d rounded toward zero, as C truncates, for d != 0."""
    q = abs(n) // abs(d)
    return q if (n < 0) == (d < 0) else -q


# ---------------------------------------------------------------------------
# Comparison regions
# ---------------------------------------------------------------------------

ANY = (None, None)  # the whole line as a region


def _region_table(one: int):
    """True and false region of `t op 0` for t = lhs - rhs, per operator
    but `!=`, which is decided as `==` negated: (lo, hi) int bounds,
    None for unbounded. The regions are closed: over the reals (`one` =
    0) a strict and a non-strict test share them, on ints (`one` = 1) a
    strict bound moves by 1. The complement of `==`, not an interval, is
    taken as the whole line."""
    return {"<": ((None, -one), (0, None)),
            "<=": ((None, 0), (one, None)),
            ">": ((one, None), (None, 0)),
            ">=": ((0, None), (None, -one)),
            "==": ((0, 0), ANY)}


#: the region table, on ints (True) and over the reals (False)
REGIONS = {False: _region_table(0), True: _region_table(1)}

#: `+`, `-` and `*` of two intervals, or of two numbers
RING_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}

#: the operators read as the negation of another over the reals
_NEGATION = {"<": ">=", ">": "<=", "!=": "=="}


def settled(a: RInterval, b: RInterval, reg) -> Optional[bool]:
    """True when t = a - b lies inside region reg, False when it misses
    it, None when it straddles its boundary: read on the bounds of t over
    the product of the denominators, so no gcd is taken."""
    (lo, hi), d, e = reg, a.den, b.den
    t_lo, t_hi = a.lo_n * e - b.hi_n * d, a.hi_n * e - b.lo_n * d
    d *= e
    if lo is not None and t_hi < lo * d or hi is not None and t_lo > hi * d:
        return False
    return (lo is None or t_lo >= lo * d) and (hi is None or t_hi <= hi * d) \
        or None


def compare(op: str, a: RInterval, b: RInterval) -> Optional[bool]:
    """The three-valued truth of `a op b` over the reals: whether t = a - b
    is settled in the true region of `<=`, `>=` or `==`; `<`, `>` and
    `!=` are the negations of `>=`, `<=` and `==`."""
    base = _NEGATION.get(op)
    known = settled(a, b, REGIONS[False][base or op][0])
    return known if base is None or known is None else not known


def products_over_lcm(cs: Sequence[int], ivs: Sequence[RInterval]
                      ) -> Tuple[List[int], List[int], int]:
    """(los, his, E) for ints cs over some D: [los[k], his[k]] is
    cs[k] * ivs[k] as ints over D * E, E the lcm of the denominators
    of ivs."""
    e = lcm(*[iv.den for iv in ivs])
    los: List[int] = []
    his: List[int] = []
    for c, iv in zip(cs, ivs):
        k = e // iv.den
        if c > 0:
            los.append(c * k * iv.lo_n)
            his.append(c * k * iv.hi_n)
        else:
            los.append(c * k * iv.hi_n)
            his.append(c * k * iv.lo_n)
    return los, his, e


def narrowed(r: RInterval, lo: Optional[int], hi: Optional[int],
             d: int) -> RInterval:
    """r with each endpoint given as an int over d > 0 replaced by that
    value; the caller knows the result is ordered."""
    if lo is None:
        return pair_over(r.lo_n, r.den, hi, d)
    if hi is None:
        return pair_over(lo, d, r.hi_n, r.den)
    return interval_over(lo, hi, d)


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


def _ilog(n: int, d: int, beta: int) -> int:
    """Largest e with beta^e <= n/d, for n, d > 0."""
    if beta == 2:
        # n/d lies in [2^(e-1), 2^(e+1)) for this e
        e = n.bit_length() - d.bit_length()
        if (d << e if e >= 0 else d) > (n if e >= 0 else n << -e):
            e -= 1
        return e

    def at_most(k):  # beta^k <= n/d
        return d * beta ** max(k, 0) <= n * beta ** max(-k, 0)
    e = math.floor((math.log2(n) - math.log2(d)) / math.log2(beta))
    while not at_most(e):
        e -= 1
    while at_most(e + 1):
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


def _round(n: int, d: int, fmt: FloatFormat,
           to_int: Callable[[int, int], int]) -> Tuple[int, int]:
    """n/d (d > 0) rounded into fmt as ints (n', d'), d' > 0; to_int(a, b)
    rounds the scaled significand a/b of |n/d| to an integer."""
    if n == 0:
        return 0, 1
    a = abs(n)
    e = max(_ilog(a, d, fmt.beta), fmt.e_min)
    qn, qd = fmt._quantum_ratio(e)
    m = to_int(a * qd, d * qn)
    if m >= fmt.beta**fmt.p:
        e += 1
        m = fmt.beta ** (fmt.p - 1)
        qn, qd = fmt._quantum_ratio(e)
    if e > fmt.e_max:
        raise OverflowAlarm(f"{short(Fraction(n, d))} rounds beyond the"
                            f" largest finite value")
    return (-m * qn if n < 0 else m * qn), qd


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


def round_nearest(n: int, d: int, fmt: FloatFormat) -> Tuple[int, int]:
    """n/d (d > 0) rounded to the nearest value of fmt, ties to even
    significand, as (n', d') with d' > 0."""
    return _round(n, d, fmt, _round_half_even)


def round_directed(n: int, d: int, fmt: FloatFormat,
                   up: bool) -> Tuple[int, int]:
    """n/d (d > 0) rounded toward +inf (up) or -inf, as (n', d') with
    d' > 0; used to snap interval endpoints."""
    outward = up == (n > 0)
    return _round(n, d, fmt, _ceil_div if outward else operator.floordiv)


def is_representable(x: RationalLike, fmt: FloatFormat) -> bool:
    x = abs(rat(x))
    n, d = x.numerator, x.denominator
    if n == 0:
        return True
    if x > fmt.max_finite:
        return False
    e = max(_ilog(n, d, fmt.beta), fmt.e_min)
    qn, qd = fmt._quantum_ratio(e)
    return (n * qd) % (d * qn) == 0


def representation_error_bound(iv: RInterval, fmt: FloatFormat) -> RInterval:
    """Sound symmetric bound on x - round(x) for any x in iv."""
    m = max(-iv.lo_n, iv.hi_n)
    if m == 0:
        return _iv(0, 0, 1)
    e = max(_ilog(m, iv.den, fmt.beta), fmt.e_min)
    qn, qd = fmt._quantum_ratio(e)
    return interval_over(-qn, qn, 2 * qd)
