"""Abstract float domain: the exact dependent-multiplication identities,
and soundness of abstract operations against exact concrete rounding."""
import time
from fractions import Fraction

import pytest

from fldx import domain
from fldx.domain import (AbstractFloat, abs_neg, abs_op, apply_substitution,
                         make_substitution, project_onto_symbols, union)
from fldx.errors import DivisionByZero, InfeasiblePath
from fldx.numerics import BINARY64, RInterval, rat
from fldx.zonotope import AffineForm, Origin, SymbolPool, af_mul
from tests.conftest import rand_fraction, rounded

F = Fraction


# ---------------------------------------------------------------------------
# Exact x = 0.5 + 0.5*eps identities (interval vs zonotope)
# ---------------------------------------------------------------------------


def test_dependent_square_and_difference_exact():
    t0 = time.perf_counter()
    ix = RInterval(F(0), F(1))
    assert ix * ix == RInterval(F(0), F(1))
    assert ix - ix * ix == RInterval(F(-1), F(1))

    pool = SymbolPool()
    env = {}
    e1 = pool.fresh(Origin.INPUT)
    x = AffineForm(F(1, 2), {e1: F(1, 2)})
    x2 = af_mul(x, x, pool, env)
    assert x2.concretize(env) == RInterval(F(-1, 4), F(1))
    assert (x - x2).concretize(env) == RInterval(F(0), F(1, 4))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# abs_op soundness: compare with exact dual concrete executions
# ---------------------------------------------------------------------------


def _fresh_input(lo, hi, pool, env):
    return AbstractFloat.from_input(RInterval(rat(lo), rat(hi)), None,
                                    BINARY64, pool, env)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_abs_op_encloses_concrete_rounding(op, rng):
    pool = SymbolPool()
    env = {}
    a = _fresh_input("0.5", "2.5", pool, env)
    b = _fresh_input("1.0", "3.0", pool, env)
    r = abs_op(op, a, b, BINARY64, pool, env)
    err_iv = r.err.concretize(env).meet(r.err_iv) or r.err_iv
    real_iv = r.real.concretize(env).meet(r.real_iv) or r.real_iv
    for _ in range(300):
        xr = rand_fraction(rng, rat("0.5"), rat("2.5"))
        yr = rand_fraction(rng, rat("1.0"), rat("3.0"))
        xf = rounded(xr, BINARY64)
        yf = rounded(yr, BINARY64)
        if op == "+":
            zr, ze = xr + yr, xf + yf
        elif op == "-":
            zr, ze = xr - yr, xf - yf
        elif op == "*":
            zr, ze = xr * yr, xf * yf
        else:
            zr, ze = xr / yr, xf / yf
        zf = rounded(ze, BINARY64)
        assert r.float_iv.lo <= zf <= r.float_iv.hi
        assert real_iv.lo <= zr <= real_iv.hi
        assert err_iv.lo <= zf - zr <= err_iv.hi


def test_point_operands_give_exact_error():
    pool = SymbolPool()
    env = {}
    a = AbstractFloat.from_literal(rat("0.5"), BINARY64)
    b = AbstractFloat.from_literal(rat("0.1"), BINARY64)
    r = abs_op("+", a, b, BINARY64, pool, env)
    f01 = rounded(rat("0.1"), BINARY64)
    f = rounded(F(1, 2) + f01, BINARY64)
    assert r.float_iv == RInterval(f, f)
    assert r.err_iv == RInterval(f - rat("0.6"), f - rat("0.6"))


@pytest.mark.parametrize("op", ["*", "/"])
def test_a_point_float_result_is_rounded_once_per_endpoint(op, monkeypatch):
    """0 * x and 0 / x with x not a point make the float result the point
    0: its two endpoint roundings give float_iv, and the error shift
    reads float_iv - z_iv instead of rounding the point again."""
    pool = SymbolPool()
    env = {}
    x = _fresh_input("1.0", "2.0", pool, env)
    zero = AbstractFloat.from_literal(0, BINARY64)
    rounded_at = []
    round_nearest = domain.round_nearest

    def counted(n, d, fmt):
        rounded_at.append((n, d))
        return round_nearest(n, d, fmt)

    monkeypatch.setattr(domain, "round_nearest", counted)
    r = abs_op(op, zero, x, BINARY64, pool, env)
    assert rounded_at == [(0, 1), (0, 1)]
    assert r.float_iv == RInterval(F(0), F(0))
    assert r.err_iv.contains(0)


def test_division_by_zero_straddling_interval_raises():
    pool = SymbolPool()
    env = {}
    a = _fresh_input("1.0", "2.0", pool, env)
    b = _fresh_input("-1.0", "1.0", pool, env)
    with pytest.raises(DivisionByZero):
        abs_op("/", a, b, BINARY64, pool, env)


def test_neg_flips_everything():
    pool = SymbolPool()
    env = {}
    a = _fresh_input("1.0", "2.0", pool, env)
    n = abs_neg(a)
    assert n.float_iv == RInterval(-a.float_iv.hi, -a.float_iv.lo)
    assert n.real.concretize(env) == -a.real.concretize(env)
    assert n.err_iv == -a.err_iv


def test_relative_error_none_when_real_spans_zero():
    pool = SymbolPool()
    env = {}
    a = _fresh_input("-1.0", "1.0", pool, env)
    assert a.rel is None
    b = _fresh_input("1.0", "2.0", pool, env)
    assert b.rel is not None


# ---------------------------------------------------------------------------
# Constraint projection and substitution
# ---------------------------------------------------------------------------


def test_projection_narrows_single_symbol():
    pool = SymbolPool()
    env = {}
    e0 = pool.fresh(Origin.INPUT)
    form = AffineForm(F(0), {e0: F(1)})
    updates = project_onto_symbols(form, F(0), None, env)
    assert updates == {e0: RInterval(F(0), F(1))}


def test_projection_detects_infeasibility():
    pool = SymbolPool()
    env = {}
    e0 = pool.fresh(Origin.INPUT)
    form = AffineForm(F(0), {e0: F(1)})
    with pytest.raises(InfeasiblePath):
        project_onto_symbols(form, F(2), None, env)


def test_substitution_rewrites_through_derived_symbol():
    pool = SymbolPool()
    env = {}
    e0 = pool.fresh(Origin.INPUT)
    sub = make_substitution(e0, RInterval(F(0), F(1)), pool, env)
    assert env[e0] == RInterval(F(0), F(1))
    # eps0 := 1/2 + 1/2 * eps_d
    assert sub.replacement.center == F(1, 2)
    assert list(sub.replacement.terms.values()) == [F(1, 2)]


def constrain_forms(forms, sym, new_range, pool, env, threshold):
    """Narrow one symbol across a set of forms, as the interpreter's
    `_narrow_symbol` does across the variables of a path."""
    olds = [f.linear_part(env) for f in forms]
    sub = make_substitution(sym, new_range, pool, env)
    if sub is None:
        return forms, None
    return [apply_substitution(f, sub, old, env, threshold)
            for f, old in zip(forms, olds)], sub


def test_constrain_forms_adopts_only_when_width_improves():
    pool = SymbolPool()
    env = {}
    e0 = pool.fresh(Origin.INPUT)
    e1 = pool.fresh(Origin.INPUT)
    narrow = AffineForm(F(0), {e0: F(1)})          # width halves: adopt
    broad = AffineForm(F(0), {e0: F(1, 1000), e1: F(1)})  # ~0.05%: keep
    (narrow2, broad2), sub = constrain_forms(
        [narrow, broad], e0, RInterval(F(0), F(1)), pool, env, F(1, 20))
    assert sub is not None
    assert sub.derived_sym in narrow2.terms and e0 not in narrow2.terms
    assert e0 in broad2.terms  # improvement below the 5% threshold
    # the range restriction still applies through the environment
    assert broad2.concretize(env).hi < broad.concretize({}).hi + 1


def test_union_contains_both_operands():
    pool = SymbolPool()
    env = {}
    a = _fresh_input("0.0", "1.0", pool, env)
    b = _fresh_input("2.0", "3.0", pool, env)
    u = union([(a, env), (b, env)], pool)
    for v in (a, b):
        assert u.float_iv.lo <= v.float_iv.lo and v.float_iv.hi <= u.float_iv.hi
        assert u.real_iv.lo <= v.real_iv.lo and v.real_iv.hi <= u.real_iv.hi
        assert u.err_iv.lo <= v.err_iv.lo and v.err_iv.hi <= u.err_iv.hi
