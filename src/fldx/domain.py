"""Four-field abstract floats and their arithmetic.

Every float variable of an analyzed program is shadowed by an
AbstractFloat holding:
  * float_iv  -- interval of the machine float value,
  * real      -- zonotope (affine form) of the ideal real value,
  * real_iv   -- interval refinement of the real value,
  * err       -- zonotope of the absolute error (float - real),
  * err_iv    -- interval refinement of the error,
and derives from err_iv and real_iv:
  * rel       -- interval of the relative error, or None when the real
                 value may cross zero (relative error unbounded).

The true triple always satisfies: real in concretize(real) /\\ real_iv,
(float - real) in concretize(err) /\\ err_iv, float in float_iv.

A value is *exact* when its float interval is a point f and its real
form is a constant r, with no noise terms: literals, and every operation
on two exact operands. Such a value has one shape: float_iv = [f, f],
real = r, real_iv = [r, r], err = f - r, err_iv = [f - r, f - r], built
by `_exact` from the ints of f and r. `abs_op` computes an operation on
two exact operands on the ints of their floats and reals: the real
result r, the float result f = round(fa op fb), rounded from the ints of
fa op fb, and the error f - r. It makes the checks of the general path
in the same order (each operand's real in its real_iv, the float and
then the real divisor of `/` nonzero, the operator known, the rounding
in range), and the value it returns equals the one the general path
computes, since constant forms add, multiply and divide as their centers
and `condense` keeps them as they are; no affine arithmetic,
concretization or fresh symbol is involved. Every rounding, here and in
the general path, hands its ints to `round_nearest` or `round_directed`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import gcd, lcm
from operator import is_
from typing import Dict, Iterable, Optional, Tuple

from .errors import DivisionByZero, InfeasiblePath
from .numerics import (RING_OPS, FloatFormat, RInterval, RationalLike,
                       interval_over, narrowed, pair_over, products_over_lcm,
                       rat, representation_error_bound, round_directed,
                       round_nearest)
from .zonotope import (UNIT, AffineForm, Origin, SymbolEnv, SymbolPool,
                       condense, af_div, af_mul, sym_range)

def _snap_in(iv: RInterval, fmt: FloatFormat) -> RInterval:
    """Tighten an enclosure of a representable value to representable
    endpoints. Falls back to the original interval when no representable
    value lies inside (the caller will detect infeasibility elsewhere).
    An endpoint past the largest finite value raises OverflowAlarm."""
    lo_n, lo_d = round_directed(iv.lo_n, iv.den, fmt, up=True)
    hi_n, hi_d = round_directed(iv.hi_n, iv.den, fmt, up=False)
    if lo_n * hi_d <= hi_n * lo_d:
        return pair_over(lo_n, lo_d, hi_n, hi_d)
    return iv


@dataclass(slots=True, unsafe_hash=True)
class AbstractFloat:
    float_iv: RInterval
    real: AffineForm
    real_iv: RInterval
    err: AffineForm
    err_iv: RInterval
    #: the refresh record (see `refresh`); it takes no part in `==`,
    #: hash or repr
    _refreshed: Optional[tuple] = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def rel(self) -> Optional[RInterval]:
        """Relative error err/real, or None when the real value may be 0."""
        if self.real_iv.contains(0):
            return None
        return self.err_iv.divide(self.real_iv)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_input(value_iv: RInterval, err_iv: Optional[RInterval],
                   fmt: FloatFormat, pool: SymbolPool,
                   env: SymbolEnv) -> "AbstractFloat":
        """Program input: real value in value_iv, error in err_iv.

        When err_iv is omitted it defaults to the representation error
        bound of the value interval in the chosen format.
        """
        if err_iv is None:
            err_iv = representation_error_bound(value_iv, fmt)
        real = AffineForm.from_interval(value_iv, pool, Origin.INPUT)
        err = AffineForm.from_interval(err_iv, pool, Origin.INPUT)
        float_iv = _snap_in(value_iv + err_iv, fmt)
        return AbstractFloat(float_iv, real, value_iv, err, err_iv)

    @staticmethod
    def from_literal(x: RationalLike, fmt: FloatFormat) -> "AbstractFloat":
        """Source literal: ideal value x, machine value round(x)."""
        x = rat(x)
        rn, rd = x.numerator, x.denominator
        return _exact(*round_nearest(rn, rd, fmt), rn, rd)

    # -- refined views ----------------------------------------------------

    def real_refined(self, env: SymbolEnv) -> RInterval:
        return self.real_iv if self._current(env) \
            else _refined(self.real, self.real_iv, env)

    def err_refined(self, env: SymbolEnv) -> RInterval:
        return self.err_iv if self._current(env) \
            else _refined(self.err, self.err_iv, env)

    def _ranges(self, env: SymbolEnv):
        """The range objects of the symbols of real, then of err, each
        read from env as the iterator reaches it."""
        return map(env.get, chain(self.real.ns, self.err.ns), repeat(UNIT))

    def _current(self, env: SymbolEnv) -> bool:
        """Whether the value was refreshed under the ranges env gives; its
        intervals are then its own refinements (see `refresh`)."""
        rec = self._refreshed
        return rec is not None and all(map(is_, self._ranges(env), rec))

    def refresh(self, env: SymbolEnv) -> "AbstractFloat":
        """Re-meet the interval refinements against form concretizations
        and restore mutual consistency (float = real + err).

        A refreshed value records the range objects it was refreshed
        under (`_refreshed`). Refreshing it again while every one of
        them is still the same object returns the value itself,
        which is exactly what a second refresh would compute. With C_r
        and C_e the unchanged concretizations, the first refresh gives
        R = C_r ∩ real_iv, E = C_e ∩ err_iv, F' = float_iv ∩ (R + E),
        R' = R ∩ (F' - E) and E' = E ∩ (F' - R). Every f in F' is r + e
        with r in R and e in E, where r = f - e lies in R' and e = f - r
        in E', so F' ⊆ R' + E'. Every r in R' is f - e with f in F' and
        e in E, where e = f - r lies in E', so R' ⊆ F' - E'; likewise
        E' ⊆ F' - R'. Since R' ⊆ C_r and E' ⊆ C_e, the second refresh
        meets every field with a superset of it and changes none.

        A value with no symbols, as `_exact` builds it, is born refreshed
        with an empty record: a refresh returns it without concretizing,
        as one would give its own fields, the points f, r and f - r.
        """
        if self._current(env):
            return self
        real_iv = _refined(self.real, self.real_iv, env)
        err_iv = _refined(self.err, self.err_iv, env)
        fiv = self.float_iv.meet(real_iv + err_iv)
        if fiv is None:
            raise InfeasiblePath
        real_iv2 = real_iv.meet(fiv - err_iv) or real_iv
        err_iv2 = err_iv.meet(fiv - real_iv) or err_iv
        out = AbstractFloat(fiv, self.real, real_iv2, self.err, err_iv2)
        out._refreshed = tuple(self._ranges(env))
        return out


def _refined(form: AffineForm, iv: RInterval, env: SymbolEnv) -> RInterval:
    """iv met with the concretization of form under env."""
    m = form.concretize(env).meet(iv)
    if m is None:
        raise InfeasiblePath
    return m


def _exact(fn: int, fd: int, rn: int, rd: int) -> AbstractFloat:
    """The exact value of float fn/fd and real rn/rd (fd, rd > 0): point
    float, constant real form and its point, constant error form f - r
    and its point."""
    fiv = interval_over(fn, fn, fd)
    riv = interval_over(rn, rn, rd)
    fd, rd = fiv.den, riv.den
    g = gcd(fd, rd)
    en = fiv.lo_n * (rd // g) - riv.lo_n * (fd // g)
    eiv = interval_over(en, en, fd // g * rd)
    out = AbstractFloat(fiv, AffineForm.of_point(riv), riv,
                        AffineForm.of_point(eiv), eiv)
    out._refreshed = ()
    return out


# ---------------------------------------------------------------------------
# Abstract arithmetic
# ---------------------------------------------------------------------------


def _err_pre(op: str, a: AbstractFloat, b: AbstractFloat,
             pool: SymbolPool, env: SymbolEnv,
             quotient: Optional[AffineForm]) -> AffineForm:
    """Error of the exact (pre-rounding) float operation."""
    if op == "+":
        return a.err + b.err
    if op == "-":
        return a.err - b.err
    if op == "*":
        return (af_mul(a.real, b.err, pool, env)
                + af_mul(b.real, a.err, pool, env)
                + af_mul(a.err, b.err, pool, env))
    if op == "/":
        denom = b.real + b.err
        hint = denom.concretize(env).meet(b.float_iv)
        if hint is None or hint.contains(0):
            raise DivisionByZero("abstract division by possibly-zero float")
        numer = a.err - af_mul(quotient, b.err, pool, env)
        return af_div(numer, denom, hint, pool, env)
    raise ValueError(f"unknown operator {op!r}")


def abs_op(op: str, a: AbstractFloat, b: AbstractFloat, fmt: FloatFormat,
           pool: SymbolPool, env: SymbolEnv,
           max_syms: int = 64) -> AbstractFloat:
    """One abstract floating-point operation with rounding-error injection."""
    if a.float_iv.is_point() and b.float_iv.is_point() \
            and not a.real.ns and not b.real.ns:
        return _exact_op(op, a, b, fmt)
    a_riv = a.real_refined(env)
    b_riv = b.real_refined(env)

    if op == "+":
        real = a.real + b.real
    elif op == "-":
        real = a.real - b.real
    elif op == "*":
        real = af_mul(a.real, b.real, pool, env)
    elif op == "/":
        if b.float_iv.contains(0):
            raise DivisionByZero("abstract division by zero-containing float")
        if b_riv.contains(0):
            raise DivisionByZero("abstract division: real divisor may be zero")
        real = af_div(a.real, b.real, b_riv, pool, env)
    else:
        raise ValueError(f"unknown operator {op!r}")

    real = condense(real, max_syms, pool, env)
    real_iv = real.concretize(env).meet(_iv_op(op, a_riv, b_riv))
    if real_iv is None:
        raise InfeasiblePath

    # float side: thin operands are executed exactly
    if a.float_iv.is_point() and b.float_iv.is_point():
        fa, fb = a.float_iv, b.float_iv
        fn, fd = round_nearest(*_ratio_op(op, fa.lo_n, fa.den, fb.lo_n,
                                          fb.den), fmt)
        float_iv = interval_over(fn, fn, fd)
        err = AffineForm.of_point(float_iv) - real
        err = condense(err, max_syms, pool, env)
        err_iv0 = err.concretize(env).meet(float_iv - real_iv)
        if err_iv0 is None:
            raise InfeasiblePath
        return AbstractFloat(float_iv, real, real_iv, err, err_iv0)

    z_iv = _iv_op(op, a.float_iv, b.float_iv)
    # rounding is monotone, so rounding the exact endpoints is sound
    float_iv = pair_over(*round_nearest(z_iv.lo_n, z_iv.den, fmt),
                         *round_nearest(z_iv.hi_n, z_iv.den, fmt))

    err = _err_pre(op, a, b, pool, env,
                   quotient=real if op == "/" else None)
    delta = fmt.unit_roundoff * z_iv.max_abs() + fmt.subnormal_step / 2
    if delta != 0 and not z_iv.is_point():
        err = err + AffineForm(0, {pool.fresh(Origin.ROUNDING): delta})
    elif z_iv.is_point():  # float_iv is the one rounding [f, f]
        err = err + AffineForm.of_point(float_iv - z_iv)
    err = condense(err, max_syms, pool, env)

    err_iv = err.concretize(env).meet(float_iv - real_iv)
    if err_iv is None:
        raise InfeasiblePath
    fiv = float_iv.meet(real_iv + err_iv)
    if fiv is None:
        raise InfeasiblePath
    fiv = _snap_in(fiv, fmt)
    return AbstractFloat(fiv, real, real_iv, err, err_iv)


def _exact_op(op: str, a: AbstractFloat, b: AbstractFloat,
              fmt: FloatFormat) -> AbstractFloat:
    """`abs_op` on two exact operands (see the module docstring)."""
    ra, rb = a.real, b.real
    if not a.real_iv.contains_over(ra.n0, ra.den) \
            or not b.real_iv.contains_over(rb.n0, rb.den):
        raise InfeasiblePath
    fa, fb = a.float_iv, b.float_iv
    if op == "/":
        if fb.lo_n == 0:
            raise DivisionByZero("abstract division by zero-containing float")
        if rb.n0 == 0:
            raise DivisionByZero("abstract division: real divisor may be zero")
    rn, rd = _ratio_op(op, ra.n0, ra.den, rb.n0, rb.den)
    fn, fd = round_nearest(*_ratio_op(op, fa.lo_n, fa.den, fb.lo_n, fb.den),
                           fmt)
    return _exact(fn, fd, rn, rd)


def _iv_op(op: str, a: RInterval, b: RInterval) -> RInterval:
    """a op b, for b not containing 0 when op is `/`."""
    return a.divide(b) if op == "/" else RING_OPS[op](a, b)


def _ratio_op(op: str, an: int, ad: int, bn: int, bd: int):
    """(n, d) with n/d = an/ad op bn/bd and d > 0, for ad, bd > 0 and a
    nonzero divisor; not reduced."""
    if op == "+":
        return an * bd + bn * ad, ad * bd
    if op == "-":
        return an * bd - bn * ad, ad * bd
    if op == "*":
        return an * bn, ad * bd
    if op == "/":
        return (an * bd, ad * bn) if bn > 0 else (-an * bd, -ad * bn)
    raise ValueError(f"unknown operator {op!r}")


def abs_neg(a: AbstractFloat) -> AbstractFloat:
    """Unary negation is exact in any binary-or-decimal format."""
    return AbstractFloat(-a.float_iv, -a.real, -a.real_iv, -a.err, -a.err_iv)


# ---------------------------------------------------------------------------
# Constraint propagation
# ---------------------------------------------------------------------------


def project_onto_symbols(form: AffineForm, lo: Optional[Fraction],
                         hi: Optional[Fraction],
                         env: SymbolEnv) -> Dict[int, RInterval]:
    """HC4-style projection of `form in [lo, hi]` onto each noise symbol.

    Returns the symbols whose range strictly shrinks. Raises
    InfeasiblePath when the constraint is unsatisfiable.

    Runs on ints over one denominator D (the format of `numerics`): the
    form's center and coefficients and the bounds over the lcm of their
    denominators, times the lcm of the range denominators. The
    contribution [clo, chi] of term c*eps and the totals are ints over D.
    The bound lo tightens the term when lo - (total_hi - chi) > clo, and
    that difference is then its new clo; likewise hi - (total_lo - clo)
    < chi gives its new chi. A new contribution is an int over D whatever
    range it stands for, so the loop never leaves the ints; a symbol
    range that moved is built from the new contribution over c.
    """
    updates: Dict[int, RInterval] = {}
    c0, dc = form.n0, form.den
    cs = list(form.ns.values())
    d = lcm(dc, *[x.denominator for x in (lo, hi) if x is not None])
    if d != dc:
        k = d // dc
        c0 *= k
        cs = [c * k for c in cs]
    ranges = [env.get(i, UNIT) for i in form.ns]
    clos, chis, dr = products_over_lcm(cs, ranges)
    # the totals are the form's exact concretization
    total_lo = c0 * dr + sum(clos)
    total_hi = c0 * dr + sum(chis)
    lo_n = None if lo is None else lo.numerator * (d // lo.denominator) * dr
    hi_n = None if hi is None else hi.numerator * (d // hi.denominator) * dr
    if lo_n is not None and total_hi < lo_n:
        raise InfeasiblePath
    if hi_n is not None and total_lo > hi_n:
        raise InfeasiblePath
    for i, c, r, clo, chi in zip(form.ns, cs, ranges, clos, chis):
        # need: lo <= other + c*eps <= hi for some achievable others
        nlo = None if lo_n is None else lo_n - (total_hi - chi)
        if nlo is not None and nlo <= clo:
            nlo = None
        nhi = None if hi_n is None else hi_n - (total_lo - clo)
        if nhi is not None and nhi >= chi:
            nhi = None
        if nlo is None and nhi is None:
            continue
        new_lo = clo if nlo is None else nlo
        new_hi = chi if nhi is None else nhi
        if new_lo > new_hi:
            raise InfeasiblePath
        # eps = contribution / c, and contribution / c over D is n / (c*dr)
        den = c * dr
        if c > 0:
            nr = narrowed(r, nlo, nhi, den)
        else:
            nr = narrowed(r, None if nhi is None else -nhi,
                          None if nlo is None else -nlo, -den)
        updates[i] = nr
        total_lo += new_lo - clo
        total_hi += new_hi - chi
    return updates


@dataclass
class Substitution:
    sym: int
    replacement: AffineForm
    derived_sym: Optional[int]


def make_substitution(sym: int, new_range: RInterval, pool: SymbolPool,
                      env: SymbolEnv) -> Optional[Substitution]:
    """Narrow a symbol's range, producing the derived-symbol rewrite.

    Returns None when the range does not change; raises InfeasiblePath on
    an empty meet. Updates env in place.
    """
    cur = sym_range(env, sym)
    nr = cur.meet(new_range)
    if nr is None:
        raise InfeasiblePath
    if nr == cur:
        return None
    if nr.is_point():
        repl = AffineForm.from_interval(nr, pool)
        derived = None
    else:
        derived = pool.fresh(Origin.CONSTRAINT)
        repl = AffineForm.around(nr, derived)
    env[sym] = nr
    return Substitution(sym, repl, derived)


def apply_substitution(form: AffineForm, sub: Substitution,
                       old: RInterval, env: SymbolEnv,
                       threshold: Fraction) -> AffineForm:
    """Adopt the rewrite on one form if it shrinks its width enough.

    old must be the form's linear part before the symbol's range was
    narrowed; the recorded range shrinks either way, the rewrite only
    changes which symbols hold the correlation.
    """
    if sub.sym not in form.ns:
        return form
    candidate = form.substitute(sub.sym, sub.replacement)
    p, q = old.hi_n - old.lo_n, old.den
    if p <= 0:
        return candidate
    # old - new >= threshold * old for the widths p/q and w/d, times q,
    # d and the denominator of threshold
    lin = candidate.linear_part(env)
    w, d = lin.hi_n - lin.lo_n, lin.den
    t, u = threshold.numerator, threshold.denominator
    if (p * d - w * q) * u >= t * p * d:
        return candidate
    return form


# ---------------------------------------------------------------------------
# Union / merge
# ---------------------------------------------------------------------------


def union(items: Iterable[Tuple[AbstractFloat, SymbolEnv]],
          pool: SymbolPool) -> AbstractFloat:
    """Join one or more abstract floats, each given with the env it is
    read under (at a section merge, the env of the path it ends). The
    result holds the hull of their float intervals and of their real and
    error intervals refined under their own envs, on one fresh pair of
    symbols (none for a point hull): linear relationships are dropped, so
    k values cost two symbols however large k is. A value whose
    refinement is empty under its env raises InfeasiblePath."""
    fiv, riv, eiv = (reduce(RInterval.join, ivs) for ivs in zip(*[
        (v.float_iv, v.real_refined(env), v.err_refined(env))
        for v, env in items]))
    real = AffineForm.from_interval(riv, pool, Origin.NONLINEAR)
    err = AffineForm.from_interval(eiv, pool, Origin.NONLINEAR)
    return AbstractFloat(fiv, real, riv, err, eiv)
