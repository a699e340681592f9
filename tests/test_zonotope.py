"""Affine forms: containment oracles by grid sampling over the noise
symbols, plus the exact relational identities the domain relies on."""
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fldx.numerics import RInterval
from fldx.zonotope import (AffineForm, Origin, SymbolPool, af_div,
                           af_inverse, af_mul, condense, sym_range)

F = Fraction


def grid(env, syms, steps=5):
    """All corner/interior assignments of the symbols on a small grid."""
    axes = []
    for s in syms:
        r = sym_range(env, s)
        axes.append([r.lo + (r.hi - r.lo) * F(i, steps - 1)
                     for i in range(steps)])
    return (dict(zip(syms, pt)) for pt in itertools.product(*axes))


def value_at(form: AffineForm, assignment) -> Fraction:
    return form.center + sum(c * assignment.get(s, F(0))
                             for s, c in form.terms.items())


def make(pool, coeffs, center=F(0)):
    syms = [pool.fresh(Origin.INPUT) for _ in coeffs]
    return AffineForm(center, dict(zip(syms, map(F, coeffs)))), syms


def test_linear_ops_are_exact():
    pool = SymbolPool()
    a, sa = make(pool, [1, 2], center=F(3))
    b, sb = make(pool, [4], center=F(-1))
    s = a + b
    d = a - b
    env = {}
    for asg in grid(env, sa + sb, steps=3):
        assert value_at(s, asg) == value_at(a, asg) + value_at(b, asg)
        assert value_at(d, asg) == value_at(a, asg) - value_at(b, asg)


def test_subtracting_a_form_from_itself_is_zero():
    pool = SymbolPool()
    a, _ = make(pool, [1, F(1, 3), -2], center=F(7))
    d = a - a
    assert d.center == 0 and not d.terms
    assert d.concretize({}) == RInterval(F(0), F(0))


def test_mul_contains_grid_products():
    pool = SymbolPool()
    env = {}
    a, sa = make(pool, [1, F(1, 2)], center=F(1))
    b, sb = make(pool, [2], center=F(-1))
    p = af_mul(a, b, pool, env)
    for asg in grid(env, sa + sb, steps=5):
        va = value_at(a, asg)
        vb = value_at(b, asg)
        conc = p.concretize(env)
        assert conc.lo <= va * vb <= conc.hi


def test_square_via_mul_of_same_form_contains_grid():
    pool = SymbolPool()
    env = {}
    a, sa = make(pool, [F(1, 2)], center=F(1, 2))
    sq = af_mul(a, a, pool, env)
    conc = sq.concretize(env)
    for asg in grid(env, sa, steps=9):
        v = value_at(a, asg)
        assert conc.lo <= v * v <= conc.hi
    # the dependent product must beat the interval square's lower bound
    assert conc.lo > RInterval(F(0), F(1)).square().lo - 1


def af_square(a: AffineForm, pool: SymbolPool, env) -> AffineForm:
    return af_mul(a, a, pool, env)


def test_af_square_matches_self_mul_concretization():
    pool = SymbolPool()
    env = {}
    a, _ = make(pool, [F(1, 2)], center=F(1, 2))
    assert af_square(a, pool, env).concretize(env) == \
        af_mul(a, a, pool, env).concretize(env)
    # 1/4 + 1/2*e0 plus the square of the noise [0, 1/4]; a product of
    # two distinct symbols would reach down to -1/2
    assert af_square(a, pool, env).concretize(env) == RInterval(F(-1, 4), F(1))


def test_inverse_contains_grid_reciprocals():
    pool = SymbolPool()
    env = {}
    a, sa = make(pool, [1], center=F(3))  # range [2, 4]
    inv = af_inverse(a, RInterval(F(2), F(4)), pool, env)
    conc = inv.concretize(env)
    for asg in grid(env, sa, steps=9):
        v = value_at(a, asg)
        assert conc.lo <= 1 / v <= conc.hi


def test_div_contains_grid_quotients():
    pool = SymbolPool()
    env = {}
    a, sa = make(pool, [1], center=F(0))
    b, sb = make(pool, [1], center=F(3))
    q = af_div(a, b, RInterval(F(2), F(4)), pool, env)
    conc = q.concretize(env)
    for asg in grid(env, sa + sb, steps=7):
        assert conc.lo <= value_at(a, asg) / value_at(b, asg) <= conc.hi


def test_condense_preserves_concretization_and_caps_symbols():
    pool = SymbolPool()
    env = {}
    coeffs = [F(1, i + 1) for i in range(20)]
    a, _ = make(pool, coeffs, center=F(5))
    before = a.concretize(env)
    c = condense(a, 8, pool, env)
    assert len(c.terms) <= 8
    after = c.concretize(env)
    assert after.lo <= before.lo and before.hi <= after.hi  # sound
    assert after == before  # symmetric ranges: no width is lost either


def test_scale_and_narrowed_env_concretization():
    pool = SymbolPool()
    a, (s0,) = make(pool, [2], center=F(1))
    env = {s0: RInterval(F(0), F(1))}
    assert a.scale(3).concretize(env) == RInterval(F(3), F(9))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=F(-5), max_value=F(5)),
                min_size=1, max_size=4),
       st.fractions(min_value=F(-5), max_value=F(5)))
def test_concretize_width_is_sum_of_abs_coefficients(coeffs, center):
    pool = SymbolPool()
    a, _ = make(pool, coeffs, center=center)
    conc = a.concretize({})
    rad = sum(abs(c) for c in coeffs)
    assert conc == RInterval(center - rad, center + rad)
