"""Incremental evaluation of a decision step, checked against reference
code without memos kept here: the concretization memo of affine forms,
the idempotent refresh of abstract floats, and the narrowing that visits
only the variables containing the narrowed symbol."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fldx.config import AnalysisConfig
from fldx.domain import AbstractFloat, apply_substitution, make_substitution
from fldx.errors import InfeasiblePath
from fldx.executor.interp import Interp
from fldx.frontend import parse_program
from fldx.numerics import RInterval
from fldx.zonotope import UNIT, AffineForm, Origin, SymbolPool

N_SYMS = 4

# ---------------------------------------------------------------------------
# Reference code: every result computed afresh from the form's terms
# ---------------------------------------------------------------------------


def ref_linear(form, env):
    lo = hi = F(0)
    for i, c in form.terms.items():
        r = env.get(i, UNIT)
        a, b = sorted((c * r.lo, c * r.hi))
        lo += a
        hi += b
    return RInterval(lo, hi)


def ref_concretize(form, env):
    lin = ref_linear(form, env)
    return RInterval(lin.lo + form.center, lin.hi + form.center)


def ref_refresh(v, env):
    """AbstractFloat.refresh as it was before the record."""
    real_iv = ref_concretize(v.real, env).meet(v.real_iv)
    err_iv = ref_concretize(v.err, env).meet(v.err_iv)
    if real_iv is None or err_iv is None:
        raise InfeasiblePath
    fiv = v.float_iv.meet(real_iv + err_iv)
    if fiv is None:
        raise InfeasiblePath
    real_iv2 = real_iv.meet(fiv - err_iv) or real_iv
    err_iv2 = err_iv.meet(fiv - real_iv) or err_iv
    return AbstractFloat(fiv, v.real, real_iv2, v.err, err_iv2)


def fields(v):
    return (v.float_iv, v.real, v.real_iv, v.err, v.err_iv)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=8)
unit_point = st.fractions(min_value=-1, max_value=1, max_denominator=16)


@st.composite
def forms(draw):
    syms = draw(st.lists(st.integers(0, N_SYMS - 1), max_size=N_SYMS,
                         unique=True))
    return AffineForm(draw(small), {i: draw(small) for i in syms})


@st.composite
def sub_ranges(draw):
    a, b = sorted((draw(unit_point), draw(unit_point)))
    return RInterval(a, b)


env_ops = st.one_of(
    st.tuples(st.just("narrow"), st.integers(0, N_SYMS - 1), sub_ranges()),
    st.tuples(st.just("copy"), st.integers(0, N_SYMS - 1)),
    st.tuples(st.just("scratch"), st.integers(0, N_SYMS - 1), sub_ranges()),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore")),
)


@st.composite
def values(draw):
    """An abstract float whose intervals enclose, cut into or stray from
    its forms' concretizations under the unit ranges."""
    real, err = draw(forms()), draw(forms())

    def around(form):
        c = ref_concretize(form, {})
        w = c.hi - c.lo
        lo = c.lo + draw(st.sampled_from([F(-1), F(0), F(1, 2)])) * w
        hi = c.hi - draw(st.sampled_from([F(-1), F(0), F(1, 2)])) * w
        return RInterval(*sorted((lo, hi)))

    real_iv, err_iv = around(real), around(err)
    s = real_iv + err_iv
    cut = draw(st.sampled_from([F(0), F(1, 4)])) * (s.hi - s.lo)
    return AbstractFloat(RInterval(s.lo + cut, s.hi), real, real_iv, err,
                         err_iv)


# ---------------------------------------------------------------------------
# Concretization memo
# ---------------------------------------------------------------------------


def assert_fresh(fs, env):
    for f in fs:
        assert f.concretize(env) == ref_concretize(f, env)
        assert f.linear_part(env) == ref_linear(f, env)


@settings(max_examples=200, deadline=None)
@given(st.lists(forms(), min_size=1, max_size=4),
       st.lists(env_ops, max_size=12))
def test_memoized_concretization_equals_a_fresh_one(fs, ops):
    env, saved = {}, {}
    assert_fresh(fs, env)
    for op in ops:
        if op[0] == "narrow":
            m = env.get(op[1], UNIT).meet(op[2])
            if m is not None:
                env[op[1]] = m
        elif op[0] == "copy":
            r = env.get(op[1], UNIT)
            env[op[1]] = RInterval(r.lo, r.hi)  # equal, distinct object
        elif op[0] == "scratch":
            scratch = dict(env)
            scratch[op[1]] = op[2]
            assert_fresh(fs, scratch)
        elif op[0] == "checkpoint":
            saved = dict(env)
        else:
            env.clear()
            env.update(saved)
        assert_fresh(fs, env)


def test_memo_returns_its_result_while_the_ranges_are_the_same_objects():
    pool = SymbolPool()
    a, b = pool.fresh(Origin.INPUT), pool.fresh(Origin.INPUT)
    form = AffineForm(F(1), {a: F(2), b: F(-1)})
    env = {a: RInterval(F(0), F(1))}
    first = form.concretize(env)
    assert form.concretize(dict(env)) is first
    env[a] = RInterval(F(0), F(1))
    again = form.concretize(env)
    assert again == first and again is not first
    env[a] = RInterval(F(0), F(1, 2))
    assert form.concretize(env) == RInterval(F(0), F(3))


# ---------------------------------------------------------------------------
# Idempotent refresh
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(values())
def test_refresh_twice_equals_refresh_once(v):
    env = {}
    try:
        expected = ref_refresh(v, env)
    except InfeasiblePath:
        with pytest.raises(InfeasiblePath):
            v.refresh(env)
        return
    once = v.refresh(env)
    assert fields(once) == fields(expected)
    twice = once.refresh(env)
    assert twice is once
    assert fields(ref_refresh(once, env)) == fields(once)
    # the record takes no part in equality, hashing or printing
    plain = AbstractFloat(*fields(once))
    assert once == plain and hash(once) == hash(plain)
    assert repr(once) == repr(plain)


@settings(max_examples=200, deadline=None)
@given(forms(), forms(), st.data())
def test_refresh_recomputes_after_a_symbol_narrows(real, err, data):
    pool = SymbolPool()
    for _ in range(N_SYMS):
        pool.fresh(Origin.INPUT)
    env = {}
    riv, eiv = real.concretize(env), err.concretize(env)
    once = AbstractFloat(riv + eiv, real, riv, err, eiv).refresh(env)
    syms = sorted(set(real.terms) | set(err.terms))
    if not syms:
        assert once.refresh(env) is once
        return
    sym = data.draw(st.sampled_from(syms))
    upper = data.draw(st.booleans())
    half = RInterval(F(0), F(1)) if upper else RInterval(F(-1), F(0))
    assert make_substitution(sym, half, pool, env) is not None
    after = once.refresh(env)
    assert fields(after) == fields(ref_refresh(once, env))
    # the narrowed symbol's term shrinks the concretization it is in
    assert fields(after) != fields(once)


# ---------------------------------------------------------------------------
# Narrowing visits only the variables that contain the symbol
# ---------------------------------------------------------------------------


def narrow_every_variable(it, sym, nr):
    """Interp._narrow_symbol before the filter: every float variable."""
    affected = []
    for name, v in it.mem.vars.items():
        if isinstance(v, AbstractFloat):
            affected.append((name, v, v.real.linear_part(it.env),
                             v.err.linear_part(it.env)))
    sub = make_substitution(sym, nr, it.pool, it.env)
    if sub is None:
        return
    thr = it.cfg.threshold
    for name, v, lin_real, lin_err in affected:
        real = apply_substitution(v.real, sub, lin_real, it.env, thr)
        err = apply_substitution(v.err, sub, lin_err, it.env, thr)
        if real is not v.real or err is not v.err:
            it.mem.vars[name] = AbstractFloat(
                v.float_iv, real, v.real_iv, err, v.err_iv)


def interp_with_two_variables():
    it = Interp(parse_program("int main() { return 0; }"), AnalysisConfig())
    s0, s1, s2 = (it.pool.fresh(Origin.INPUT) for _ in range(3))
    unit = RInterval(F(-1), F(1))
    shares = AbstractFloat(RInterval(F(-3), F(3)),
                           AffineForm(F(0), {s0: F(2), s1: F(1, 2)}),
                           RInterval(F(-5, 2), F(5, 2)),
                           AffineForm(F(0), {s0: F(1, 10)}),
                           RInterval(F(-1, 10), F(1, 10)))
    apart = AbstractFloat(unit, AffineForm(F(0), {s2: F(1)}), unit,
                          AffineForm(F(0)), RInterval(F(0), F(0)))
    it.mem.store("shares", shares)
    it.mem.store("apart", apart)
    it.mem.store("k", RInterval(F(0), F(3)))
    it.mem.store("arr", [apart, RInterval(F(1), F(1))])
    return it, s0


def test_narrow_symbol_leaves_memory_as_the_unfiltered_loop():
    it, s0 = interp_with_two_variables()
    ref, _ = interp_with_two_variables()
    apart = it.mem.vars["apart"]
    it._narrow_symbol(s0, RInterval(F(0), F(1)))
    narrow_every_variable(ref, s0, RInterval(F(0), F(1)))
    assert it.mem.vars == ref.mem.vars
    assert it.env == ref.env
    assert it.pool.symbols == ref.pool.symbols
    assert it.mem.vars["apart"] is apart
    # the rewrite went through: eps0 is now carried by a derived symbol
    assert s0 not in it.mem.vars["shares"].real.terms
