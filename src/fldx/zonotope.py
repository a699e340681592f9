"""Affine forms over constrained noise symbols.

An affine form is center + sum(coeff_i * eps_i) where each noise symbol
eps_i ranges over a sub-interval of [-1, 1] recorded in a symbol
environment. Sharing symbols between forms encodes linear correlations;
the joint range over several forms is a zonotope.

The center and terms of an AffineForm never change after `__init__`:
every operation builds a new form. Symbol environments are never
mutated in place either: an entry is replaced by another RInterval
(`make_substitution` assigns a new range, a checkpoint restore puts back
the saved objects), and RInterval is frozen. So a form's concretization
is a function of the range objects its symbols map to, and `linear_part`
keeps its last result keyed by those objects, compared with `is`: the
key holds references, so no other object can take the id of one of them
while the memo lives. An equal but distinct range misses the memo and
recomputes the same exact interval.

A miss is computed in the exact integer format of `numerics`: the center
and coefficients of a form, over D_c the lcm of their denominators, are
kept as ints once per form (`over_lcm`); the range endpoints are brought
over their own lcm D_r on each miss. Every product of a coefficient and
an endpoint is then an int over D_c * D_r, the sums are exact ints, and
Fractions are made only for the two endpoints of each result.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import is_
from typing import Dict, List, Optional, Tuple

from .numerics import (RInterval, interval_over, over_lcm,
                       products_over_lcm, rat, RationalLike)

UNIT = RInterval(Fraction(-1), Fraction(1))


class Origin(enum.Enum):
    INPUT = "input"
    ROUNDING = "rounding"
    NONLINEAR = "nonlinear"
    CONSTRAINT = "constraint-derived"


@dataclass(frozen=True)
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
    """center + sum of coeff * eps; zero coefficients are never stored.

    Center and terms are fixed at `__init__` (see the module docstring);
    only the caches change: `_ints` holds `over_lcm()` once computed,
    `_key` the range objects the last `linear_part` read, one per term,
    `_lin` its result and `_conc` that result shifted by the center.
    """

    __slots__ = ("center", "terms", "_ints", "_key", "_lin", "_conc")

    def __init__(self, center: RationalLike = 0,
                 terms: Optional[Dict[int, Fraction]] = None) -> None:
        self.center: Fraction = rat(center)
        self.terms: Dict[int, Fraction] = {
            i: c for i, c in (terms or {}).items() if c != 0
        }
        self._ints: Optional[Tuple[int, List[int], int]] = None
        self._key: Optional[tuple] = None
        self._lin: Optional[RInterval] = None
        self._conc: Optional[RInterval] = None

    @staticmethod
    def constant(x: RationalLike) -> "AffineForm":
        return AffineForm(rat(x))

    @staticmethod
    def from_interval(iv: RInterval, pool: SymbolPool,
                      origin: Origin = Origin.INPUT) -> "AffineForm":
        if iv.is_point():
            return AffineForm(iv.lo)
        return AffineForm(iv.mid, {pool.fresh(origin): iv.rad})

    def is_constant(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm)
                and self.center == other.center and self.terms == other.terms)

    def __hash__(self):
        return hash((self.center, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        terms = dict(self.terms)
        for i, c in other.terms.items():
            terms[i] = terms.get(i, Fraction(0)) + c
        return AffineForm(self.center + other.center, terms)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        terms = dict(self.terms)
        for i, c in other.terms.items():
            terms[i] = terms.get(i, Fraction(0)) - c
        return AffineForm(self.center - other.center, terms)

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.center, {i: -c for i, c in self.terms.items()})

    def scale(self, k: RationalLike) -> "AffineForm":
        k = rat(k)
        if k == 0:
            return AffineForm(0)
        return AffineForm(self.center * k,
                          {i: c * k for i, c in self.terms.items()})

    def shift(self, k: RationalLike) -> "AffineForm":
        return AffineForm(self.center + rat(k), dict(self.terms))

    def over_lcm(self) -> Tuple[int, List[int], int]:
        """(center, coefficients, D): the center and the coefficients, in
        term order, as ints over D, the lcm of their denominators."""
        ints = self._ints
        if ints is None:
            ns, d = over_lcm([self.center, *self.terms.values()])
            ints = self._ints = (ns[0], ns[1:], d)
        return ints

    def _evaluate(self, env: SymbolEnv) -> None:
        """Bring the memo up to date with the ranges env gives."""
        key = tuple([env.get(i, UNIT) for i in self.terms])
        old = self._key
        if old is not None and all(map(is_, key, old)):
            return
        c0, cs, dc = self.over_lcm()
        los, his, dr = products_over_lcm(cs, key)
        lo, hi, d, c0 = sum(los), sum(his), dc * dr, c0 * dr
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

    def width(self, env: SymbolEnv) -> Fraction:
        return self.linear_part(env).width

    def substitute(self, sym: int, repl: "AffineForm") -> "AffineForm":
        """Replace eps_sym by the given affine form."""
        if sym not in self.terms:
            return self
        c = self.terms[sym]
        rest = {i: k for i, k in self.terms.items() if i != sym}
        return AffineForm(self.center, rest) + repl.scale(c)

    def __str__(self) -> str:
        parts = [str(self.center)]
        for i, c in sorted(self.terms.items()):
            parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}*e{i}")
        return " ".join(parts)

    __repr__ = __str__


def af_mul(a: AffineForm, b: AffineForm, pool: SymbolPool,
           env: SymbolEnv) -> AffineForm:
    """Sound affine multiplication.

    Cross linear terms are kept exactly; the product of the two noise
    parts is bounded by interval arithmetic and re-centered on a fresh
    symbol. Structurally identical operands (squaring) use the square of
    the noise interval, which keeps x*x nonnegative around the center.
    """
    if a.is_constant():
        return b.scale(a.center)
    if b.is_constant():
        return a.scale(b.center)
    la = a.linear_part(env)
    linear = AffineForm(a.center * b.center)
    linear = linear + AffineForm(0, {i: a.center * c for i, c in b.terms.items()})
    linear = linear + AffineForm(0, {i: b.center * c for i, c in a.terms.items()})
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
    if len(a.terms) <= max_syms:
        return a
    by_size = sorted(a.terms.items(), key=lambda ic: (abs(ic[1]), ic[0]))
    n_fold = len(a.terms) - max_syms + 1
    folded, kept = by_size[:n_fold], by_size[n_fold:]
    acc = RInterval.point(0)
    for i, c in folded:
        acc = acc + sym_range(env, i).scale(c)
    return AffineForm(a.center, dict(kept)) + AffineForm.from_interval(
        acc, pool, Origin.NONLINEAR)
