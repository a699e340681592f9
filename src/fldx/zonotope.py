"""Affine forms over constrained noise symbols.

An affine form is center + sum(coeff_i * eps_i) where each noise symbol
eps_i ranges over a sub-interval of [-1, 1] recorded in a symbol
environment. Sharing symbols between forms encodes linear correlations;
the joint range over several forms is a zonotope.

A form is held in the exact format of `numerics`: its center and
coefficients are ints over one denominator `den` > 0, in canonical form
(gcd of den, the center and every coefficient is 1), `n0` the center
times den and `ns` each symbol's coefficient times den. Every operation
(`+`, `-`, negation, `scale`, `shift`, `substitute`, `af_mul`'s linear
part, `condense`) works on those ints and reduces its result by one gcd;
`center` and `terms` give the rationals as Fractions, for printing and
tests. Reads of the symbols alone (`sym in form.ns`) build no Fraction.

The center and terms of an AffineForm never change after it is built:
every operation builds a new form. Symbol environments are never
mutated in place either: an entry is replaced by another RInterval
(`make_substitution` assigns a new range, a checkpoint restore puts back
the saved objects), and intervals are immutable. So a form's
concretization is a function of the range objects its symbols map to,
and `linear_part` keeps its last result keyed by those objects, compared
with `is`: the key holds references, so no other object can take the id
of one of them while the memo lives. An equal but distinct range misses
the memo and recomputes the same exact interval.

A miss multiplies the coefficient ints, over den, by the range
endpoints brought over E, the lcm of the ranges' denominators: every
product is an int over den * E, the sums are exact ints, and the two
result intervals are reduced once each.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import is_
from typing import Dict, Optional

from .numerics import (RInterval, interval_over, products_over_lcm, rat,
                       RationalLike)

UNIT = RInterval(Fraction(-1), Fraction(1))


class Origin(enum.Enum):
    INPUT = "input"
    ROUNDING = "rounding"
    NONLINEAR = "nonlinear"
    CONSTRAINT = "constraint-derived"


@dataclass(slots=True, unsafe_hash=True)
class NoiseSymbol:
    id: int
    origin: Origin


class SymbolPool:
    """Analysis-scoped allocator of unique noise-symbol ids."""

    def __init__(self) -> None:
        self._next = 0
        self.symbols: Dict[int, NoiseSymbol] = {}

    def fresh(self, origin: Origin) -> int:
        i = self._next
        self._next += 1
        self.symbols[i] = NoiseSymbol(i, origin)
        return i


#: Per-path symbol ranges; symbols absent from the map range over [-1, 1].
SymbolEnv = Dict[int, RInterval]


def sym_range(env: SymbolEnv, i: int) -> RInterval:
    return env.get(i, UNIT)


class AffineForm:
    """n0/den + sum of ns[i]/den * eps_i; zero coefficients are never
    stored.

    `n0`, `ns` and `den` are fixed when the form is built (see the
    module docstring); only the `linear_part` memo changes: `_key` the
    range objects the last `linear_part` read, one per term, `_lin` its
    result and `_conc` that result shifted by the center.
    """

    __slots__ = ("n0", "ns", "den", "_key", "_lin", "_conc")

    def __init__(self, center: RationalLike = 0,
                 terms: Optional[Dict[int, Fraction]] = None) -> None:
        center = rat(center)
        terms = {i: c for i, c in (terms or {}).items() if c != 0}
        # reduced fractions over the lcm of their denominators are
        # canonical
        d = lcm(center.denominator, *[c.denominator for c in terms.values()])
        self.n0 = center.numerator * (d // center.denominator)
        self.ns: Dict[int, int] = {
            i: c.numerator * (d // c.denominator) for i, c in terms.items()}
        self.den = d
        self._key = self._lin = self._conc = None

    @property
    def center(self) -> Fraction:
        return Fraction(self.n0, self.den)

    @property
    def terms(self) -> Dict[int, Fraction]:
        """The coefficient of each symbol, in term order."""
        d = self.den
        return {i: Fraction(c, d) for i, c in self.ns.items()}

    @staticmethod
    def of_point(iv: RInterval) -> "AffineForm":
        """The constant form of a point interval, over its ints."""
        return _form(iv.lo_n, {}, iv.den)

    @staticmethod
    def from_interval(iv: RInterval, pool: SymbolPool,
                      origin: Origin = Origin.INPUT) -> "AffineForm":
        if iv.is_point():
            return AffineForm.of_point(iv)
        return AffineForm.around(iv, pool.fresh(origin))

    @staticmethod
    def around(iv: RInterval, sym: int) -> "AffineForm":
        """The midpoint of iv plus its radius times eps_sym, for iv not a
        point."""
        return _reduced(iv.lo_n + iv.hi_n, {sym: iv.hi_n - iv.lo_n},
                        2 * iv.den)

    def is_constant(self) -> bool:
        return not self.ns

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm) and self.n0 == other.n0
                and self.den == other.den and self.ns == other.ns)

    def __hash__(self):
        return hash((self.n0, self.den, tuple(sorted(self.ns.items()))))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return _combine(self, other, 1)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return _combine(self, other, -1)

    def __neg__(self) -> "AffineForm":
        return _form(-self.n0, {i: -c for i, c in self.ns.items()},
                     self.den)

    def scale(self, k: RationalLike) -> "AffineForm":
        k = rat(k)
        return self._times(k.numerator, k.denominator)

    def _times(self, p: int, q: int) -> "AffineForm":
        """The form times p/q, q > 0."""
        if p == 0:
            return _form(0, {}, 1)
        return _reduced(self.n0 * p, {i: c * p for i, c in self.ns.items()},
                        self.den * q)

    def shift(self, k: RationalLike) -> "AffineForm":
        k = rat(k)
        p, q, d = k.numerator, k.denominator, self.den
        g = gcd(d, q)
        f = q // g
        return _reduced(self.n0 * f + p * (d // g),
                        {i: c * f for i, c in self.ns.items()}, d * f)

    def _evaluate(self, env: SymbolEnv) -> None:
        """Bring the memo up to date with the ranges env gives."""
        key = tuple([env.get(i, UNIT) for i in self.ns])
        old = self._key
        if old is not None and all(map(is_, key, old)):
            return
        los, his, e = products_over_lcm(self.ns.values(), key)
        lo, hi, d, c0 = sum(los), sum(his), self.den * e, self.n0 * e
        self._key = key
        self._lin = interval_over(lo, hi, d)
        self._conc = interval_over(lo + c0, hi + c0, d)

    def linear_part(self, env: SymbolEnv) -> RInterval:
        """Concretization of the noise terms alone (center excluded)."""
        self._evaluate(env)
        return self._lin

    def concretize(self, env: SymbolEnv) -> RInterval:
        self._evaluate(env)
        return self._conc

    def substitute(self, sym: int, repl: "AffineForm") -> "AffineForm":
        """Replace eps_sym by the given affine form: the other terms in
        their order, then those of repl times the coefficient of eps_sym,
        over den * repl.den."""
        ns = self.ns
        if sym not in ns:
            return self
        c, dr = ns[sym], repl.den
        out = {i: k * dr for i, k in ns.items() if i != sym}
        get = out.get
        for i, k in repl.ns.items():
            out[i] = get(i, 0) + c * k
        return _reduced(self.n0 * dr + c * repl.n0, _nonzero(out),
                        self.den * dr)

    def __str__(self) -> str:
        parts = [str(self.center)]
        for i, c in sorted(self.terms.items()):
            parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}*e{i}")
        return " ".join(parts)

    __repr__ = __str__


def _form(n0: int, ns: Dict[int, int], den: int) -> AffineForm:
    """Trusted AffineForm constructor: ints in canonical form, no zero
    coefficient."""
    f = object.__new__(AffineForm)
    f.n0 = n0
    f.ns = ns
    f.den = den
    f._key = f._lin = f._conc = None
    return f


def _reduced(n0: int, ns: Dict[int, int], den: int) -> AffineForm:
    """The form n0/den + sum ns[i]/den * eps_i (no zero coefficient,
    den > 0) reduced by the common factor of its ints."""
    if den != 1:
        g = gcd(den, n0, *ns.values())
        if g != 1:
            return _form(n0 // g, {i: c // g for i, c in ns.items()},
                         den // g)
    return _form(n0, ns, den)


def _nonzero(ns: Dict[int, int]) -> Dict[int, int]:
    """ns without its zero coefficients, in order."""
    if 0 in ns.values():
        return {i: c for i, c in ns.items() if c}
    return ns


def _combine(a: AffineForm, b: AffineForm, sign: int) -> AffineForm:
    """a + sign * b over the lcm of their denominators, in the term
    order of a, then the new terms of b."""
    da, db = a.den, b.den
    if da == db:
        fa = fb = 1
        ns = dict(a.ns)
    else:
        g = gcd(da, db)
        fa, fb = db // g, da // g
        ns = {i: c * fa for i, c in a.ns.items()}
    if sign < 0:
        fb = -fb
    get = ns.get
    for i, c in b.ns.items():
        ns[i] = get(i, 0) + c * fb
    return _reduced(a.n0 * fa + b.n0 * fb, _nonzero(ns), da * fa)


def af_mul(a: AffineForm, b: AffineForm, pool: SymbolPool,
           env: SymbolEnv) -> AffineForm:
    """Sound affine multiplication.

    Cross linear terms are kept exactly; the product of the two noise
    parts is bounded by interval arithmetic and re-centered on a fresh
    symbol. Structurally identical operands (squaring) use the square of
    the noise interval, which keeps x*x nonnegative around the center.
    """
    if a.is_constant():
        return b._times(a.n0, a.den)
    if b.is_constant():
        return a._times(b.n0, b.den)
    la = a.linear_part(env)
    # a.center * b + b.center * (a - a.center): the terms of b, then the
    # new terms of a
    linear = (b._times(a.n0, a.den)
              + _reduced(0, a.ns, a.den)._times(b.n0, b.den))
    if a == b:
        nl = la.square()
    else:
        nl = la * b.linear_part(env)
    return linear + AffineForm.from_interval(nl, pool, Origin.NONLINEAR)


def af_inverse(a: AffineForm, hint: RInterval, pool: SymbolPool,
               env: SymbolEnv) -> AffineForm:
    """Min-range linear approximation of t -> 1/t over hint, 0 not in hint.

    Sound: 1/t lies in the concretization for every t in hint.
    """
    from .errors import DivisionByZero

    if hint.contains(Fraction(0)):
        raise DivisionByZero("inverse over a zero-containing interval")
    if a.is_constant():
        return AffineForm(1 / a.center)
    neg = hint.hi < 0
    lo, hi = (-hint.hi, -hint.lo) if neg else (hint.lo, hint.hi)
    if lo == hi:
        res = AffineForm(1 / lo)
        return -res if neg else res
    # slope of the min-range approximation: derivative at the far end
    k = -1 / (hi * hi)
    # g(t) = 1/t - k*t is decreasing on [lo, hi]
    g_hi = 1 / lo - k * lo
    g_lo = 1 / hi - k * hi
    zeta = (g_hi + g_lo) / 2
    delta = (g_hi - g_lo) / 2
    base = a if not neg else -a
    res = base.scale(k).shift(zeta)
    if delta != 0:
        res = res + AffineForm(0, {pool.fresh(Origin.NONLINEAR): delta})
    return -res if neg else res


def af_div(a: AffineForm, b: AffineForm, hint_b: RInterval,
           pool: SymbolPool, env: SymbolEnv) -> AffineForm:
    return af_mul(a, af_inverse(b, hint_b, pool, env), pool, env)


def condense(a: AffineForm, max_syms: int, pool: SymbolPool,
             env: SymbolEnv) -> AffineForm:
    """Fold the smallest-coefficient terms into one fresh symbol.

    Width is preserved; correlations carried by the folded symbols are
    dropped. Concretization never shrinks.
    """
    if max_syms < 1:
        raise ValueError("max_syms must be >= 1")
    if len(a.ns) <= max_syms:
        return a
    # one denominator: the coefficient ints order as the coefficients
    by_size = sorted(a.ns.items(), key=lambda ic: (abs(ic[1]), ic[0]))
    n_fold = len(a.ns) - max_syms + 1
    folded, kept = by_size[:n_fold], by_size[n_fold:]
    acc = _reduced(0, dict(folded), a.den).linear_part(env)
    return _reduced(a.n0, dict(kept), a.den) + AffineForm.from_interval(
        acc, pool, Origin.NONLINEAR)
