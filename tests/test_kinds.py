"""Annotation typing: the kinds of terms and the decisions the checker
reads off them, which divisions truncate and which comparisons are
decided on the float domains, and the laws of the kind join."""
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fldx.annot.kinds import (FKind, IntInterval, Q, ZKind,
                              int_interval_arith, kind_join)
from fldx.annot.typecheck import (TypedBuiltin, TypedCmp, TypedLet, TypedNot,
                                  TypedRel, type_pred)
from fldx.errors import TypeErrorAt
from fldx.frontend import parse_pred
from fldx.frontend import syntax as S

INT32 = IntInterval(-(2 ** 31), 2 ** 31 - 1)


def typed_cmp(text, var_types):
    t = type_pred(parse_pred(text), var_types)
    assert isinstance(t, TypedCmp)
    return t


def truncates(tt):
    """Whether the division tt truncates as on integers."""
    assert isinstance(tt.term, S.TBin) and tt.term.op == "/"
    return isinstance(tt.kind, ZKind)


# ---------------------------------------------------------------------------
# The three reference predicates: a huge constant leaves a division on
# integers and its comparison exact; a non-representable literal forces
# an exact comparison; an exact literal keeps the comparison on the float
# domains.
# ---------------------------------------------------------------------------


def test_big_shift_division_computes_in_bigint_carries_int32():
    vt = {"x": ("int", False), "y": ("int", False)}
    cmp_ = typed_cmp("x / (y + 79228162514264337593543950335) == 0", vt)
    div = cmp_.left
    assert truncates(div)
    # the divisor is positive, so the quotient lies within the dividend's
    # hull, int32
    assert div.kind == ZKind(INT32)
    shift = div.children[1]
    assert shift.kind.iv.hi > 2 ** 64  # the shifted divisor exceeds uint64
    assert not cmp_.on_floats


def test_inexact_literal_forces_rational_comparison():
    vt = {"f": ("float", False), "g": ("float", False)}
    cmp_ = typed_cmp("f - 0.1 <= g", vt)
    assert cmp_.left.kind == Q  # 0.1 has no finite binary expansion
    assert not cmp_.on_floats


def test_exact_literal_keeps_float_comparison():
    vt = {"f": ("double", False)}
    assert typed_cmp("f == 0.0", vt).on_floats
    # a float variable against an exact literal is still decided on the
    # float domains, never exactly
    vt32 = {"f": ("float", False)}
    assert typed_cmp("f == 0.5", vt32).on_floats


def test_int_only_arithmetic_stays_integer():
    vt = {"i": ("int", False), "j": ("int", False)}
    cmp_ = typed_cmp("i + j < 10", vt)
    add = cmp_.left
    # the sum of two int32 needs one more bit
    assert add.kind == ZKind(IntInterval(2 * INT32.lo, 2 * INT32.hi))
    assert not cmp_.on_floats


def test_small_int_joins_into_float_kind():
    # integers up to 2^24 are exact in binary32, so the join stays F
    vt = {"f": ("float", False)}
    assert typed_cmp("f <= 3", vt).on_floats


@pytest.mark.parametrize("pred,got", [
    ("\\let b = 3; accuracy_assert_derr(b, -1.0, 1.0)", "an int"),
    ("accuracy_assert_derr(i, -1.0, 1.0)", "an int"),
    ("\\let (lo, hi) = accuracy_get_derr(d); accuracy_assert_derr(lo, -1.0,"
     " 1.0)", "a rational"),
], ids=["int-binder", "int-variable", "rational-binder"])
def test_builtin_names_the_kind_of_a_non_float_variable(pred, got):
    vt = {"i": ("int", False), "d": ("double", False)}
    with pytest.raises(TypeErrorAt, match="accuracy_assert_derr expects a"
                       f" floating-point variable, got {got}$"):
        type_pred(parse_pred(pred), vt)


def test_unknown_variable_rejected():
    with pytest.raises(TypeErrorAt):
        type_pred(parse_pred("unknown_name < 1"), {})


# ---------------------------------------------------------------------------
# Lattice laws
# ---------------------------------------------------------------------------

bounded_ivs = st.builds(
    lambda a, b: IntInterval(min(a, b), max(a, b)),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70))

kinds = st.one_of(
    st.builds(ZKind, bounded_ivs),
    st.sampled_from([FKind("float"), FKind("double"), Q]))


@settings(max_examples=200, deadline=None)
@given(kinds, kinds)
def test_kind_join_commutes_and_is_idempotent(a, b):
    j = kind_join(a, b)
    assert kind_join(b, a) == j
    assert kind_join(a, a) == a
    if isinstance(a, ZKind) and isinstance(b, ZKind):
        assert isinstance(j, ZKind)
        assert j.iv.lo <= min(a.iv.lo, b.iv.lo)
        assert j.iv.hi >= max(a.iv.hi, b.iv.hi)


def test_int_float_join_exactness_boundary():
    lim32, lim64 = 2 ** 24, 2 ** 53
    assert kind_join(ZKind(IntInterval(0, lim32)), FKind("float")) == \
        FKind("float")
    assert kind_join(ZKind(IntInterval(0, lim32 + 1)), FKind("float")) == Q
    assert kind_join(ZKind(IntInterval(-lim64, lim64)), FKind("double")) == \
        FKind("double")
    assert kind_join(ZKind(IntInterval(0, lim64 + 1)), FKind("double")) == Q


@settings(max_examples=200, deadline=None)
@given(kinds, kinds, kinds)
def test_kind_join_associates_up_to_theta(a, b, c):
    """The two orders of a join give equal kinds, or one of them is Q."""
    left = kind_join(kind_join(a, b), c)
    right = kind_join(a, kind_join(b, c))
    assert left == right or Q in (left, right)


@settings(max_examples=200, deadline=None)
@given(bounded_ivs, bounded_ivs, st.sampled_from("+-*/"),
       st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=100))
def test_int_interval_arith_contains_samples(a, b, op, p1, p2):
    def pick(iv, p):
        return iv.lo + (iv.hi - iv.lo) * p // 100

    x, y = pick(a, p1), pick(b, p2)
    if op == "/" and (b.lo <= 0 <= b.hi):
        return
    r = int_interval_arith(op, a, b)
    if op == "/":
        z = -(-x // y) if (x < 0) != (y < 0) else x // y  # C truncation
    else:
        z = {"+": x + y, "-": x - y, "*": x * y}[op]
    if r.lo is not None:
        assert r.lo <= z
    if r.hi is not None:
        assert z <= r.hi


# ---------------------------------------------------------------------------
# The decisions of seeded predicates, pinned
# ---------------------------------------------------------------------------

#: the names a generated predicate may read, by C type, scalars and arrays
PIN_VARS = {"i": ("int", False), "j": ("int", False),
            "f": ("float", False), "g": ("float", False),
            "d": ("double", False), "e": ("double", False),
            "ia": ("int", True), "fa": ("float", True), "da": ("double", True)}

#: literals at the limits of the integers binary32 and binary64 hold
#: exactly, past uint64, inexact, and dyadic
PIN_LITERALS = ("0", "1", "3", "16777215", "16777216", "16777217",
                "9007199254740991", "9007199254740992", "9007199254740993",
                "79228162514264337593543950335", "16777217.0",
                "9007199254740993.0", "0.1", "0.5", "0.375", "2.0", "1e3",
                "1.5e-3")

PIN_BUILTINS = ("accuracy_assert_ferr", "accuracy_assert_derr",
                "accuracy_assert_frelerr", "accuracy_assert_drelerr")

#: SHA-256 of the decisions of `random_preds(5000)`, taken when the
#: checker read them off execution types
DECISIONS_SHA256 = \
    "b2289f6c1ead1b5f738e752adbf79a059516b4c417ddb016889cc264a08a1f16"


def random_term(rng, binders, depth):
    pick = rng.randrange(10 if depth else 4)
    if pick == 0:
        return rng.choice(PIN_LITERALS)
    if pick == 1 and binders:
        return rng.choice(binders)
    if pick in (1, 2):
        return rng.choice(["i", "j", "i", "j", "f", "g", "d", "e"])
    if pick == 3:
        a = rng.choice(["ia", "fa", "da"])
        index = random_term(rng, binders, 0) if rng.randrange(8) == 0 \
            else rng.choice(["i", "j", "0", "(i + 1)", "(i / 2)"])
        return f"{a}[{index}]"
    if pick == 4:
        return f"abs({random_term(rng, binders, depth - 1)})"
    if pick == 5:
        return (f"{rng.choice(['min', 'max'])}("
                f"{random_term(rng, binders, depth - 1)},"
                f" {random_term(rng, binders, depth - 1)})")
    op = "/" if pick >= 8 else rng.choice("+-*")
    return (f"({random_term(rng, binders, depth - 1)} {op}"
            f" {random_term(rng, binders, depth - 1)})")


def random_pred(rng, binders, depth):
    pick = rng.randrange(9 if depth else 1)
    if pick < 4:
        return (f"{random_term(rng, binders, 2)}"
                f" {rng.choice(sorted(S.COMPARISONS))}"
                f" {random_term(rng, binders, 2)}")
    if pick == 4:
        return f"!({random_pred(rng, binders, depth - 1)})"
    if pick == 5:
        name = f"b{len(binders)}"
        return (f"\\let {name} = {random_term(rng, binders, 2)};"
                f" {random_pred(rng, binders + [name], depth - 1)}")
    if pick == 6:
        var = rng.choice(["f", "g", "d", "e", "fa[i]", "da[0]", "i", "da"]
                         + binders)
        return (f"{rng.choice(PIN_BUILTINS)}({var},"
                f" {random_term(rng, binders, 1)},"
                f" {random_term(rng, binders, 1)})")
    return (f"({random_pred(rng, binders, depth - 1)}"
            f" {rng.choice(['&&', '||', '==>'])}"
            f" {random_pred(rng, binders, depth - 1)})")


def random_preds(n, seed=30):
    """n predicates over `PIN_VARS`, nested up to three deep, with \\let
    binders, min, max, abs, the built-ins of `PIN_BUILTINS` and the
    literals of `PIN_LITERALS`. About one in six fails to type."""
    rng = random.Random(seed)
    return [random_pred(rng, [], 3) for _ in range(n)]


def term_decisions(tt, out):
    for kid in tt.children:
        term_decisions(kid, out)
    if isinstance(tt.term, S.TBin) and tt.term.op == "/":
        out.append("trunc" if truncates(tt) else "exact")


def decisions(p, out):
    """Append to out, depth first, whether each division of p truncates,
    whether each comparison is decided on the float domains, and each
    built-in."""
    if isinstance(p, TypedRel):
        decisions(p.left, out)
        decisions(p.right, out)
    elif isinstance(p, TypedNot):
        decisions(p.pred, out)
    elif isinstance(p, TypedCmp):
        term_decisions(p.left, out)
        term_decisions(p.right, out)
        out.append("floats" if p.on_floats else "exact")
    elif isinstance(p, TypedLet):
        if isinstance(p.value, TypedBuiltin):
            decisions(p.value, out)
        else:
            term_decisions(p.value, out)
        decisions(p.body, out)
    else:
        for a in p.args:
            term_decisions(a, out)
        out.append("builtin")


def test_seeded_predicates_decide_as_pinned():
    """5000 seeded predicates: which divisions truncate, which
    comparisons are decided on the float domains, and which predicates
    fail to type are all as pinned."""
    digest = hashlib.sha256()
    seen = set()
    for text in random_preds(5000):
        out = []
        try:
            decisions(type_pred(parse_pred(text), PIN_VARS), out)
        except TypeErrorAt:
            out = ["raised"]
        seen.update(out)
        digest.update(" ".join(out).encode() + b"\n")
    assert seen == {"trunc", "exact", "floats", "builtin", "raised"}
    assert digest.hexdigest() == DECISIONS_SHA256
