"""The exact integer kernel, checked against the Fraction code it
replaced, kept here as the reference: the interval operations, the
affine-form operations, the concretization of an affine form, the
projection of a form constraint onto its symbols, the interval meet,
the n-ary `union` of abstract floats, the projection fixpoint of `Interp._constrain_joint` that skips
repeats, `abs_op` and `AbstractFloat.from_literal` on exact operands,
and rounding, which now takes and gives ints. Every interval and form
the kernel builds is checked for the canonical form that its equality
relies on, and an analysis is checked to build no Fraction per rounding.

Values are drawn dyadic and not (1/3, 1/10, 0.1 rounded to binary32),
with negative and mixed-sign coefficients, points, forms without terms,
open bounds and bounds that sit exactly where a symbol starts to tighten
or the constraint turns infeasible.
"""
import math
from fractions import Fraction as F
from functools import reduce
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fldx.config import AnalysisConfig
from fldx.domain import AbstractFloat, abs_op, project_onto_symbols
from fldx.errors import (AnalysisAlarm, DivisionByZero, InfeasiblePath,
                         OverflowAlarm)
from fldx.executor import interp as I
from fldx.frontend import parse_program
from fldx.numerics import (BINARY32, BINARY64, TOY, RInterval,
                           round_directed, round_nearest, short)
from fldx.pipeline import analyze
from fldx.zonotope import (UNIT, AffineForm, Origin, SymbolPool, af_div,
                           af_mul, condense, sym_range)
from tests.conftest import corpus_source, rounded

N_SYMS = 5

# ---------------------------------------------------------------------------
# Reference code: the Fraction loops of the kernel
# ---------------------------------------------------------------------------


def ref_linear(form, env):
    lo = hi = F(0)
    for i, c in form.terms.items():
        r = env.get(i, UNIT)
        a, b = c * r.lo, c * r.hi
        if a > b:
            a, b = b, a
        lo += a
        hi += b
    return RInterval(lo, hi)


def ref_meet(a: RInterval, b: RInterval) -> Optional[RInterval]:
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return RInterval(lo, hi) if lo <= hi else None


def ref_join(a: RInterval, b: RInterval) -> RInterval:
    return RInterval(min(a.lo, b.lo), max(a.hi, b.hi))


def ref_interval_ops(a: RInterval, b: RInterval, k: F):
    """The Fraction bodies of the interval operations, by name."""
    ps = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    ka, kb = k * a.lo, k * a.hi
    if a.lo >= 0:
        sq = (a.lo * a.lo, a.hi * a.hi)
    elif a.hi <= 0:
        sq = (a.hi * a.hi, a.lo * a.lo)
    else:
        sq = (F(0), max(a.lo * a.lo, a.hi * a.hi))
    return {"+": (a.lo + b.lo, a.hi + b.hi),
            "-": (a.lo - b.hi, a.hi - b.lo),
            "neg": (-a.hi, -a.lo),
            "*": (min(ps), max(ps)),
            "scale": (min(ka, kb), max(ka, kb)),
            "shift": (a.lo + k, a.hi + k),
            "square": sq,
            "join": (min(a.lo, b.lo), max(a.hi, b.hi))}


def ref_form_add(a: AffineForm, b: AffineForm, sign: int):
    """(center, terms) of a + sign*b: a's terms, then b's new ones."""
    terms = dict(a.terms)
    for i, c in b.terms.items():
        terms[i] = terms.get(i, F(0)) + sign * c
    return (a.center + sign * b.center,
            {i: c for i, c in terms.items() if c != 0})


def ref_form_scale(a: AffineForm, k: F):
    if k == 0:
        return F(0), {}
    return a.center * k, {i: c * k for i, c in a.terms.items()}


def ref_form_substitute(a: AffineForm, sym: int, repl: AffineForm):
    if sym not in a.terms:
        return a.center, dict(a.terms)
    c = a.terms[sym]
    rest = AffineForm(a.center, {i: k for i, k in a.terms.items()
                                 if i != sym})
    return ref_form_add(rest, AffineForm(*ref_form_scale(repl, c)), 1)


def assert_canonical_interval(iv: RInterval):
    assert iv.den > 0 and iv.lo_n <= iv.hi_n
    assert math.gcd(iv.den, iv.lo_n, iv.hi_n) == 1
    assert (iv.lo, iv.hi) == (F(iv.lo_n, iv.den), F(iv.hi_n, iv.den))
    assert type(iv.lo) is F and type(iv.hi) is F


def assert_canonical_form(form: AffineForm):
    assert form.den > 0 and 0 not in form.ns.values()
    assert math.gcd(form.den, form.n0, *form.ns.values()) == 1


def assert_form_is(form: AffineForm, expected):
    """form has the center and the terms, in order, of expected."""
    center, terms = expected
    assert_canonical_form(form)
    assert form.center == center
    assert list(form.terms.items()) == list(terms.items())
    assert form == AffineForm(center, terms)
    assert hash(form) == hash(AffineForm(center, terms))


def ref_project(form: AffineForm, lo: Optional[F], hi: Optional[F],
                env) -> Dict[int, RInterval]:
    updates: Dict[int, RInterval] = {}
    ranges = {i: sym_range(env, i) for i in form.terms}
    contribs = {i: ranges[i].scale(c) for i, c in form.terms.items()}
    total_lo = form.center + sum(c.lo for c in contribs.values())
    total_hi = form.center + sum(c.hi for c in contribs.values())
    if lo is not None and total_hi < lo:
        raise InfeasiblePath
    if hi is not None and total_lo > hi:
        raise InfeasiblePath
    for i, c in form.terms.items():
        other_lo = total_lo - contribs[i].lo
        other_hi = total_hi - contribs[i].hi
        alo: Optional[F] = None
        ahi: Optional[F] = None
        if lo is not None:
            bound = lo - other_hi
            if c > 0:
                alo = bound / c
            else:
                ahi = bound / c
        if hi is not None:
            bound = hi - other_lo
            if c > 0:
                ahi2 = bound / c
                ahi = ahi2 if ahi is None else min(ahi, ahi2)
            else:
                alo2 = bound / c
                alo = alo2 if alo is None else max(alo, alo2)
        r = ranges[i]
        nlo = r.lo if alo is None else max(r.lo, alo)
        nhi = r.hi if ahi is None else min(r.hi, ahi)
        if nlo > nhi:
            raise InfeasiblePath
        if nlo != r.lo or nhi != r.hi:
            nr = RInterval(nlo, nhi)
            updates[i] = nr
            ranges[i] = nr
            new_contrib = nr.scale(c)
            total_lo += new_contrib.lo - contribs[i].lo
            total_hi += new_contrib.hi - contribs[i].hi
            contribs[i] = new_contrib
    return updates


def ref_constrain_scratch(env, constraints):
    """The fixpoint of `Interp._constrain_joint` without its merging of
    equal constraints: every constraint projected in every round.
    Returns the scratch ranges and the number of projections."""
    scratch, calls = dict(env), 0
    for _ in range(8):
        changed = False
        for form, lo, hi in constraints:
            if lo is None and hi is None:
                continue
            calls += 1
            updates = ref_project(form, lo, hi, scratch)
            if updates:
                changed = True
                scratch.update(updates)
        if not changed:
            break
    return scratch, calls


def outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasiblePath:
        return InfeasiblePath


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

TENTH_32 = rounded(F(1, 10), BINARY32)
SPECIAL = [F(1, 3), F(-1, 3), F(1, 10), F(-1, 10), TENTH_32, -TENTH_32,
           F(1), F(-1), F(1, 2**60), F(-3, 7), F(2, 3)]

dyadic = st.builds(lambda m, e: F(m, 2**e), st.integers(-2**12, 2**12),
                   st.integers(0, 70))
rationals = st.one_of(st.sampled_from(SPECIAL), dyadic,
                      st.fractions(min_value=-4, max_value=4,
                                   max_denominator=30))
unit_points = st.one_of(
    st.sampled_from([F(-1), F(0), F(1), F(1, 3), F(-1, 10), TENTH_32,
                     F(-2, 3)]),
    st.builds(lambda m, e: F(m, 2**e), st.integers(-2**8, 2**8),
              st.integers(8, 8)),
    st.fractions(min_value=-1, max_value=1, max_denominator=12))


@st.composite
def forms(draw):
    syms = draw(st.lists(st.integers(0, N_SYMS - 1), max_size=N_SYMS,
                         unique=True))
    return AffineForm(draw(rationals), {i: draw(rationals) for i in syms})


@st.composite
def envs(draw):
    env = {}
    for i in draw(st.lists(st.integers(0, N_SYMS - 1), max_size=N_SYMS,
                           unique=True)):
        a, b = sorted((draw(unit_points), draw(unit_points)))
        env[i] = RInterval(a, b)
    return env


@st.composite
def bound_pairs(draw, form, env):
    """lo and hi each None, a drawn value, or a critical value of the
    form under env: an end of its concretization (in or out by a hair)
    or the value at which one symbol starts to tighten."""
    conc = ref_linear(form, env).shift(form.center)
    critical = [conc.lo, conc.hi, conc.lo - F(1, 2**80), conc.hi + F(1, 3)]
    for i, c in form.terms.items():
        contrib = sym_range(env, i).scale(c)
        critical.append(conc.hi - contrib.hi + contrib.lo)
        critical.append(conc.lo - contrib.lo + contrib.hi)
    value = st.one_of(st.none(), rationals, st.sampled_from(critical))
    lo, hi = draw(value), draw(value)
    if lo is not None and hi is not None and lo > hi \
            and draw(st.booleans()):
        lo, hi = hi, lo
    return lo, hi


intervals = st.one_of(
    st.builds(lambda a, b: RInterval(*sorted((a, b))), rationals, rationals),
    st.builds(RInterval.point, rationals))

# ---------------------------------------------------------------------------
# Interval and form operations
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(intervals, intervals, rationals, rationals)
def test_interval_operations_match_the_fraction_bodies(a, b, k, x):
    for iv in (a, b):
        assert_canonical_interval(iv)
    expected = ref_interval_ops(a, b, k)
    got = {"+": a + b, "-": a - b, "neg": -a, "*": a * b,
           "scale": a.scale(k), "shift": a.shift(k), "square": a.square(),
           "join": a.join(b)}
    for name, iv in got.items():
        assert_canonical_interval(iv)
        assert (iv.lo, iv.hi) == expected[name], name
        assert iv == RInterval(*expected[name])
        assert hash(iv) == hash(RInterval(*expected[name]))
    assert a.contains(x) == (a.lo <= x <= a.hi)
    for lo, hi in ((None, x), (x, None), (min(x, k), max(x, k)),
                   (None, None), (0, None), (None, 0), (-1, 1)):
        assert a.within(lo, hi) == ((lo is None or a.lo >= lo)
                                    and (hi is None or a.hi <= hi))
        assert a.meets(lo, hi) == ((lo is None or a.hi >= lo)
                                   and (hi is None or a.lo <= hi))
    assert a.is_point() == (a.lo == a.hi)
    assert a.max_abs() == max(abs(a.lo), abs(a.hi))
    assert (a == b) == ((a.lo, a.hi) == (b.lo, b.hi))
    j = a.join(b)
    if a.lo <= b.lo and a.hi >= b.hi:
        assert j is a
    elif b.lo <= a.lo and b.hi >= a.hi:
        assert j is b


@settings(max_examples=300, deadline=None)
@given(forms(), forms(), rationals, st.integers(0, N_SYMS - 1))
def test_form_operations_match_the_fraction_bodies(a, b, k, sym):
    for form in (a, b):
        assert_canonical_form(form)
    assert_form_is(a + b, ref_form_add(a, b, 1))
    assert_form_is(a - b, ref_form_add(a, b, -1))
    assert_form_is(a - a, (F(0), {}))
    assert_form_is(-a, (-a.center, {i: -c for i, c in a.terms.items()}))
    assert_form_is(a.scale(k), ref_form_scale(a, k))
    assert_form_is(a.shift(k), (a.center + k, dict(a.terms)))
    repl = AffineForm(b.center, {i + N_SYMS: c for i, c in b.terms.items()})
    assert_form_is(a.substitute(sym, repl), ref_form_substitute(a, sym, repl))
    if k != 0:
        assert_form_is(a.substitute(sym, AffineForm(k)),
                       ref_form_substitute(a, sym, AffineForm(k)))
    assert (a == b) == ((a.center, a.terms) == (b.center, b.terms))


@settings(max_examples=100, deadline=None)
@given(intervals)
def test_form_of_an_interval_is_its_midpoint_and_radius(iv):
    pool = SymbolPool()
    form = AffineForm.from_interval(iv, pool)
    assert_canonical_form(form)
    if iv.is_point():
        assert_form_is(form, (iv.lo, {}))
    else:
        assert_form_is(form, ((iv.lo + iv.hi) / 2, {0: (iv.hi - iv.lo) / 2}))
    assert form.concretize({}) == iv


# ---------------------------------------------------------------------------
# Concretization
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(forms(), envs(), envs())
def test_linear_part_concretize_and_width_match_the_fraction_loop(
        form, env, env2):
    for e in (env, env2, env):
        lin = ref_linear(form, e)
        assert form.linear_part(e) == lin
        assert form.concretize(e) == lin.shift(form.center)
        for iv in (form.linear_part(e), form.concretize(e)):
            assert_canonical_interval(iv)


def test_coefficients_are_kept_as_integers_over_their_lcm(monkeypatch):
    form = AffineForm(F(1, 3), {0: F(1, 10), 1: F(-5, 4), 2: TENTH_32})
    d = form.den
    assert d == 3 * 5 * 2**max(2, TENTH_32.denominator.bit_length() - 1)
    assert [F(n, d) for n in [form.n0, *form.ns.values()]] == [
        form.center, *form.terms.values()]
    assert (AffineForm(F(7)).n0, AffineForm(F(7)).ns,
            AffineForm(F(7)).den) == (7, {}, 1)
    # the ints are the form: nothing converts it again, and evaluating
    # or projecting it builds no Fraction of its terms
    form = AffineForm(F(1, 3), {0: F(1, 10), 1: F(-5, 4)})
    ns = form.ns
    monkeypatch.setattr(AffineForm, "terms", property(
        lambda f: pytest.fail("a Fraction of each term was built")))
    form.concretize({0: RInterval(F(-1, 3), F(1, 2))})
    project_onto_symbols(form, F(0), None, {})
    assert form.ns is ns
    assert not hasattr(form, "_ints") and "_ints" not in AffineForm.__slots__


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(forms(), envs(), st.data())
def test_projection_matches_the_fraction_loop(form, env, data):
    lo, hi = data.draw(bound_pairs(form, env))
    expected = outcome(ref_project, form, lo, hi, env)
    got = outcome(project_onto_symbols, form, lo, hi, env)
    if expected is InfeasiblePath:
        assert got is InfeasiblePath
        return
    assert got is not InfeasiblePath
    assert list(got.items()) == list(expected.items())
    for i, nr in got.items():
        assert_canonical_interval(nr)
        old = sym_range(env, i)
        # a range only narrows; an endpoint that did not move keeps its
        # value exactly
        assert nr.lo > old.lo or nr.lo == old.lo
        assert nr.hi < old.hi or nr.hi == old.hi


@pytest.mark.parametrize("c", [F(2), F(-2), F(1, 3), F(-1, 10)])
def test_projection_tightens_only_strictly(c):
    # c*e0 + e1 with both symbols in [-1, 1]. At lo = total_hi - 2|c| the
    # term of e0 sits exactly at its tightening point and keeps its range;
    # e1 tightens only when its term is the wider one. Likewise on the hi
    # side at hi = -lo.
    form = AffineForm(F(0), {0: c, 1: F(1)})
    total_hi = abs(c) + 1
    lo = total_hi - 2 * abs(c)
    wider = abs(c) < 1
    assert project_onto_symbols(form, -total_hi, total_hi, {}) == {}
    assert project_onto_symbols(form, lo, None, {}) == (
        {1: RInterval(1 - 2 * abs(c), F(1))} if wider else {})
    assert project_onto_symbols(form, None, -lo, {}) == (
        {1: RInterval(F(-1), 2 * abs(c) - 1)} if wider else {})
    assert 0 in project_onto_symbols(form, lo + F(1, 2**70), None, {})
    assert 0 in project_onto_symbols(form, None, -lo - F(1, 2**70), {})
    end = F(1) if c > 0 else F(-1)
    assert project_onto_symbols(form, total_hi, None, {}) == {
        0: RInterval(end, end), 1: RInterval(F(1), F(1))}
    with pytest.raises(InfeasiblePath):
        project_onto_symbols(form, total_hi + F(1, 2**70), None, {})
    with pytest.raises(InfeasiblePath):
        project_onto_symbols(form, None, -total_hi - F(1, 3), {})


def test_projection_of_a_form_without_terms():
    form = AffineForm(F(1, 3))
    assert project_onto_symbols(form, F(1, 3), F(1, 3), {}) == {}
    assert project_onto_symbols(form, None, None, {}) == {}
    with pytest.raises(InfeasiblePath):
        project_onto_symbols(form, None, F(1, 10), {})


# ---------------------------------------------------------------------------
# Meet
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(intervals, intervals)
def test_meet_matches_max_min_and_returns_a_containing_operand(a, b):
    expected = ref_meet(a, b)
    got = a.meet(b)
    assert got == expected
    if got is None:
        return
    assert_canonical_interval(got)
    if a.lo >= b.lo and a.hi <= b.hi:
        assert got is a
    elif b.lo >= a.lo and b.hi <= a.hi:
        assert got is b


# ---------------------------------------------------------------------------
# The projection fixpoint skips only repeats
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------


@st.composite
def joinable(draw):
    """An abstract float and the env it is read under. Its real and error
    intervals are the concretizations of their forms under that env, a
    hull of one with a drawn interval, or a drawn interval, which may
    miss it."""
    env = draw(envs())

    def refinement(form):
        conc = ref_linear(form, env).shift(form.center)
        iv = draw(intervals)
        return draw(st.sampled_from([conc, ref_join(conc, iv), iv]))

    real, err = draw(forms()), draw(forms())
    return AbstractFloat(draw(intervals), real, refinement(real), err,
                         refinement(err)), env


@settings(max_examples=100, deadline=None)
@given(st.lists(joinable(), min_size=1, max_size=4))
def test_union_joins_the_refined_intervals_onto_two_fresh_symbols(items):
    pool = SymbolPool()
    for _ in range(N_SYMS):
        pool.fresh(Origin.INPUT)
    refined = [(v.float_iv,
                ref_meet(ref_linear(v.real, env).shift(v.real.center),
                         v.real_iv),
                ref_meet(ref_linear(v.err, env).shift(v.err.center),
                         v.err_iv))
               for v, env in items]
    got = outcome(I.union, items, pool)
    if any(None in r for r in refined):
        assert got is InfeasiblePath
        assert len(pool.symbols) == N_SYMS
        return
    fiv, riv, eiv = (reduce(ref_join, col) for col in zip(*refined))
    assert (got.float_iv, got.real_iv, got.err_iv) == (fiv, riv, eiv)
    fresh = set(range(N_SYMS, len(pool.symbols)))
    assert len(fresh) == (not riv.is_point()) + (not eiv.is_point())
    for form, iv in ((got.real, riv), (got.err, eiv)):
        assert form.concretize({}) == iv
        assert set(form.ns) <= fresh
    assert not set(got.real.ns) & set(got.err.ns)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(forms(), st.data()), min_size=1, max_size=3),
       envs())
def test_constrain_joint_skips_only_projections_that_would_repeat(
        drawn, env):
    constraints = []
    for form, data in drawn:
        constraints.append((form, *data.draw(bound_pairs(form, env))))
    expected = outcome(ref_constrain_scratch, env, constraints)
    it = I.Interp(parse_program("int main() { return 0; }"),
                  AnalysisConfig())
    for _ in range(N_SYMS):
        it.pool.fresh(Origin.INPUT)
    it.env.update(env)
    calls = []
    real_project = I.project_onto_symbols

    def counted(*args):
        calls.append(args)
        return real_project(*args)

    I.project_onto_symbols = counted
    try:
        got = outcome(it._constrain_joint, constraints)
    finally:
        I.project_onto_symbols = real_project
    if expected is InfeasiblePath:
        assert got is InfeasiblePath
        return
    scratch, _ = expected
    assert got is None
    # equal constraints are projected as one
    _, ref_calls = ref_constrain_scratch(env, list(dict.fromkeys(constraints)))
    assert len(calls) == ref_calls
    for sym in range(N_SYMS):
        assert sym_range(it.env, sym) == sym_range(scratch, sym)


def test_constrain_joint_projects_again_after_a_symbol_moves():
    # x + y <= 0 changes nothing while x, y in [-1, 1]; then x >= 1/2
    # moves x, and the first constraint, projected again, bounds y
    it = I.Interp(parse_program("int main() { return 0; }"),
                  AnalysisConfig())
    x, y = it.pool.fresh(Origin.INPUT), it.pool.fresh(Origin.INPUT)
    constraints = [(AffineForm(F(0), {x: F(1), y: F(1)}), None, F(0)),
                   (AffineForm(F(0), {x: F(1)}), F(1, 2), None)]
    scratch, _ = ref_constrain_scratch({}, constraints)
    it._constrain_joint(constraints)
    assert it.env[x] == scratch[x] == RInterval(F(1, 2), F(1))
    assert it.env[y] == scratch[y] == RInterval(F(-1), F(-1, 2))


# ---------------------------------------------------------------------------
# abs_op on exact operands
# ---------------------------------------------------------------------------


def ref_rat_op(op, x, y):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    return x / y


def ref_abs_op(op, a, b, fmt, pool, env, max_syms=64):
    """The general body of `abs_op`, as far as operands whose float
    intervals are points reach it: the real side in affine arithmetic,
    then the float side executed exactly on the points."""
    a_riv = a.real_refined(env)
    b_riv = b.real_refined(env)

    if op == "+":
        real = a.real + b.real
        riv_op = a_riv + b_riv
    elif op == "-":
        real = a.real - b.real
        riv_op = a_riv - b_riv
    elif op == "*":
        real = af_mul(a.real, b.real, pool, env)
        riv_op = a_riv * b_riv
    elif op == "/":
        if b.float_iv.contains(F(0)):
            raise DivisionByZero("abstract division by zero-containing float")
        hint_r = b_riv
        if hint_r.contains(F(0)):
            raise DivisionByZero("abstract division: real divisor may be zero")
        real = af_div(a.real, b.real, hint_r, pool, env)
        riv_op = a_riv.divide(b_riv)
    else:
        raise ValueError(f"unknown operator {op!r}")

    real = condense(real, max_syms, pool, env)
    real_iv = real.concretize(env).meet(riv_op)
    if real_iv is None:
        raise InfeasiblePath

    assert a.float_iv.is_point() and b.float_iv.is_point()
    fa, fb = a.float_iv.lo, b.float_iv.lo
    if op == "/" and fb == 0:
        raise DivisionByZero("float division by zero")
    z = ref_rat_op(op, fa, fb)
    f = rounded(z, fmt)
    float_iv = RInterval.point(f)
    err = AffineForm(f) - real
    err = condense(err, max_syms, pool, env)
    err_iv0 = err.concretize(env).meet(float_iv - real_iv)
    if err_iv0 is None:
        raise InfeasiblePath
    return AbstractFloat(float_iv, real, real_iv, err, err_iv0)


def ref_literal(x, fmt):
    f = rounded(x, fmt)
    e = f - x
    return AbstractFloat(RInterval.point(f), AffineForm(x),
                         RInterval.point(x), AffineForm(e),
                         RInterval.point(e))


def result_of(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (InfeasiblePath, AnalysisAlarm, ValueError) as exn:
        return type(exn), str(exn)


FORMATS = [BINARY32, BINARY64]
decimal = st.builds(lambda m, k: F(m, 10**k), st.integers(-10**7, 10**7),
                    st.integers(0, 12))
reals = st.one_of(st.sampled_from(SPECIAL + [F(0)]), dyadic, decimal)


@st.composite
def thin_values(draw, fmt, exact=True):
    """A value whose float interval is a point: a literal, a float that
    differs from its real by a drawn error, a zero float or a zero real,
    or a value at the end of the format (so that sums and products
    overflow). Its real interval is the point, wider, or misses the real
    center. Unless exact, its real form has a noise term."""
    kind = draw(st.sampled_from(
        ["literal", "error", "zero_float", "zero_real", "largest"]))
    r = draw(reals)
    if kind == "largest":
        r = draw(st.sampled_from([1, -1, F(1, 2)])) * fmt.max_finite
    if kind == "zero_real":
        r = F(0)
    f = rounded(r, fmt)
    if kind == "error":
        f = rounded(r + draw(rationals), fmt)
    elif kind == "zero_float":
        f = F(0)
    elif kind == "zero_real":
        f = rounded(draw(rationals), fmt)
    c = F(0) if exact else draw(rationals.filter(lambda x: x != 0))
    real = AffineForm(r, {0: c})
    riv = real.concretize({})
    w = draw(st.sampled_from([F(0), F(0), F(1, 3), F(2)]))
    if draw(st.integers(0, 9)) == 0:  # the real center outside real_iv
        real_iv = riv.shift(riv.hi - riv.lo + 1)
    else:
        real_iv = RInterval(riv.lo - w, riv.hi + w)
    return AbstractFloat(RInterval.point(f), real, real_iv,
                         AffineForm(f - r), RInterval.point(f - r))


def fresh_pool():
    """A pool whose next symbol is past those the drawn forms use."""
    pool = SymbolPool()
    for _ in range(N_SYMS):
        pool.fresh(Origin.INPUT)
    return pool


@st.composite
def thin_cases(draw, exact):
    fmt = draw(st.sampled_from(FORMATS))
    op = draw(st.sampled_from(["+", "-", "*", "/", "/", "%"]))
    a = draw(thin_values(fmt, exact))
    b = draw(thin_values(fmt, exact))
    env = {} if exact else draw(envs())
    return op, a, b, fmt, env


def assert_same_as_the_general_path(op, a, b, fmt, env):
    pool, ref_pool = fresh_pool(), fresh_pool()
    got = result_of(abs_op, op, a, b, fmt, pool, env)
    want = result_of(ref_abs_op, op, a, b, fmt, ref_pool, env)
    assert got == want
    assert pool.symbols == ref_pool.symbols
    if isinstance(got, AbstractFloat):
        for iv in (got.float_iv, got.real_iv, got.err_iv):
            assert_canonical_interval(iv)
        for form in (got.real, got.err):
            assert_canonical_form(form)
    return got


@settings(max_examples=500, deadline=None)
@given(thin_cases(exact=True))
def test_abs_op_on_exact_operands_matches_the_general_path(case):
    got = assert_same_as_the_general_path(*case)
    if isinstance(got, AbstractFloat):
        assert got.float_iv.is_point() and got.real.is_constant()


@settings(max_examples=100, deadline=None)
@given(thin_cases(exact=False))
def test_abs_op_on_point_floats_with_noisy_reals_matches_the_general_path(
        case):
    assert_same_as_the_general_path(*case)


@settings(max_examples=300, deadline=None)
@given(st.one_of(reals, st.sampled_from([BINARY32.max_finite * 2,
                                         -BINARY64.max_finite * 2])),
       st.sampled_from(FORMATS))
def test_literal_matches_the_rounded_point_and_its_error(x, fmt):
    got = result_of(AbstractFloat.from_literal, x, fmt)
    assert got == result_of(ref_literal, x, fmt)
    if isinstance(got, AbstractFloat):
        for iv in (got.float_iv, got.real_iv, got.err_iv):
            assert_canonical_interval(iv)
        for form in (got.real, got.err):
            assert_canonical_form(form)


# ---------------------------------------------------------------------------
# Rounding on ints against the Fraction body it replaced
# ---------------------------------------------------------------------------


def ref_ilog(x: F, beta: int) -> int:
    """Largest e with beta^e <= x, for x > 0 (the replaced `_ilog`)."""
    n, d = x.numerator, x.denominator
    if beta == 2:
        e = n.bit_length() - d.bit_length()
        if (d << e if e >= 0 else d) > (n if e >= 0 else n << -e):
            e -= 1
        return e
    e = math.floor((math.log2(n) - math.log2(d)) / math.log2(beta))
    b = F(beta)
    while b**e > x:
        e -= 1
    while b ** (e + 1) <= x:
        e += 1
    return e


def ref_round(x: F, fmt, mode: str) -> F:
    """The replaced Fraction `_round`: x rounded into fmt to "nearest"
    (ties to even), "up" or "down"."""
    n, d = x.numerator, x.denominator
    if n == 0:
        return F(0)
    s = -1 if n < 0 else 1
    e = max(ref_ilog(abs(x), fmt.beta), fmt.e_min)
    qn, qd = fmt._quantum_ratio(e)
    a, b = s * n * qd, d * qn
    if mode == "nearest":
        m = round(F(a, b))  # half to even
    elif (mode == "up") == (n > 0):
        m = -(-a // b)
    else:
        m = a // b
    if m >= fmt.beta**fmt.p:
        e += 1
        m = fmt.beta ** (fmt.p - 1)
        qn, qd = fmt._quantum_ratio(e)
    if e > fmt.e_max:
        raise OverflowAlarm(f"{short(x)} rounds beyond the largest finite"
                            f" value")
    return F(s * m * qn, qd)


@st.composite
def rounding_inputs(draw, fmt):
    """Rationals where rounding has cases: ties between neighbours,
    subnormals, values around the largest finite one and beyond it,
    exact values, zero and non-dyadic values at every scale; either
    sign."""
    b, p = F(fmt.beta), fmt.p
    kind = draw(st.sampled_from(
        ["tie", "subnormal", "top", "exact", "scaled", "zero"]))
    if kind == "tie":
        x = (draw(st.integers(0, fmt.beta**p - 1)) + F(1, 2)) \
            * b ** (draw(st.integers(fmt.e_min, fmt.e_max)) - p + 1)
    elif kind == "subnormal":
        x = F(draw(st.integers(0, 3 * fmt.beta**(p - 1))),
              draw(st.integers(1, 7))) * fmt.subnormal_step
    elif kind == "top":
        x = fmt.max_finite + draw(st.sampled_from(
            [-1, F(-1, 2), F(-1, 3), 0, F(1, 3), F(1, 2), 1, 2, 10**3])) \
            * fmt.quantum(fmt.e_max)
    elif kind == "exact":
        x = draw(st.integers(1, fmt.beta**p - 1)) \
            * b ** (draw(st.integers(fmt.e_min, fmt.e_max)) - p + 1)
    elif kind == "scaled":
        x = draw(st.fractions(min_value=F(1, 10**6), max_value=10**6,
                              max_denominator=10**9)) \
            * b ** draw(st.integers(fmt.e_min - p, fmt.e_max))
    else:
        x = F(0)
    return -x if draw(st.booleans()) else x


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([BINARY32, BINARY64, TOY]).flatmap(
    lambda fmt: st.tuples(st.just(fmt), rounding_inputs(fmt))),
       st.sampled_from(["nearest", "up", "down"]))
def test_rounding_on_ints_matches_the_fraction_round(case, mode):
    fmt, x = case
    n, d = x.numerator, x.denominator
    try:
        want = ref_round(x, fmt, mode)
    except OverflowAlarm as exn:
        want = OverflowAlarm, str(exn)
    try:
        got = round_nearest(n, d, fmt) if mode == "nearest" \
            else round_directed(n, d, fmt, mode == "up")
    except OverflowAlarm as exn:
        assert want == (OverflowAlarm, str(exn))
        return
    gn, gd = got
    assert type(gn) is int and type(gd) is int and gd > 0
    assert F(gn, gd) == want


def test_analysis_builds_no_fraction_per_rounding(monkeypatch):
    # patriot.c rounds t + 0.1 once per tick: 1000 roundings
    config = AnalysisConfig(fmt=BINARY32)
    source = corpus_source("patriot.c")
    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    counts = []
    for ticks in ("1000", "100"):
        made.clear()
        analyze(source.replace("1000", ticks), config)
        counts.append(len(made))
    assert source.count("1000") == 1
    assert counts[0] <= 32
    assert abs(counts[0] - counts[1]) <= 4
