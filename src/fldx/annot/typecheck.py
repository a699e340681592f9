"""Typing of annotation terms and predicates.

Every term receives a kind (`kinds`): Z(I), an integer in the interval
I; F(tau), a value of the float type tau; or Q, a rational. A term's
kind comes from its children's.

The checker (`evaluate`) computes every term exactly, as a rational
interval, whatever its kind. The kinds decide three things there: a
division of kind Z truncates, and any other divides exactly; a
comparison whose two sides join to a kind F rounds a bare literal to
the analysis format; and a built-in accepts as its first argument only
a program variable of kind F of its declared float type
(`syntax.BUILTINS`), or of `float` where it declares `double`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..errors import TypeErrorAt
from ..frontend import syntax as S
from ..numerics import BINARY64, is_representable
from .kinds import (IntInterval, Kind, FKind, Q, ZKind, int_interval_arith,
                    kind_join)

CTYPE_KIND = {
    "int": ZKind(IntInterval(-(2**31), 2**31 - 1)),
    "float": FKind("float"),
    "double": FKind("double"),
}


@dataclass
class TypedTerm:
    term: S.Term
    kind: Kind
    children: List["TypedTerm"] = field(default_factory=list)


@dataclass
class TypedCmp:
    op: str
    left: TypedTerm
    right: TypedTerm
    on_floats: bool  # decided on the float domains, a literal rounded


TypedPred = Union["TypedRel", "TypedNot", TypedCmp, "TypedLet", "TypedBuiltin"]


@dataclass
class TypedRel:
    op: str
    left: "TypedPred"
    right: "TypedPred"


@dataclass
class TypedNot:
    pred: "TypedPred"


@dataclass
class TypedLet:
    names: List[str]
    value: Union[TypedTerm, "TypedBuiltin"]
    body: "TypedPred"


@dataclass
class TypedBuiltin:
    name: str
    args: List[TypedTerm]
    loc: S.Loc = S.NOLOC


#: Environment for binders introduced by \let.
Gamma = Dict[str, Kind]


def const_kind(t: S.TConst) -> Kind:
    if t.is_integer:
        return ZKind(IntInterval.point(int(t.value)))
    if is_representable(t.value, BINARY64):
        return FKind("double")
    return Q


def _lvalue_kind(t: Union[S.TName, S.TIndex], var_types,
                 gamma: Gamma) -> Kind:
    """The kind of a name, a binder's or its C type's, or of an array
    element, its array's C type's."""
    if isinstance(t, S.TName):
        if t.name in gamma:
            return gamma[t.name]
        if t.name in var_types:
            return CTYPE_KIND[var_types[t.name][0]]
        raise TypeErrorAt(f"{t.loc}: unknown name {t.name!r} in annotation")
    if t.name not in var_types:
        raise TypeErrorAt(f"{t.loc}: unknown array {t.name!r}")
    return CTYPE_KIND[var_types[t.name][0]]


def _call_kind(name: str, kinds: List[Kind]) -> Kind:
    """The kind of a call of a term builtin from its arguments' kinds."""
    if name in ("min", "max"):
        return kind_join(kinds[0], kinds[1])
    if name == "abs":
        k = kinds[0]
        if isinstance(k, ZKind):
            m = max(abs(k.iv.lo), abs(k.iv.hi)) if k.iv.is_bounded() \
                else None
            return ZKind(IntInterval(0, m))
        return k if isinstance(k, FKind) else Q
    return Q  # max_distance


def type_term(t: S.Term, var_types, gamma: Optional[Gamma] = None) -> TypedTerm:
    """Type t bottom-up: each node's kind comes from its children's."""
    gamma = gamma or {}
    if isinstance(t, S.TConst):
        return TypedTerm(t, const_kind(t))
    if isinstance(t, (S.TName, S.TIndex)):
        k = _lvalue_kind(t, var_types, gamma)
        kids = []
        if isinstance(t, S.TIndex):
            kids = [type_term(t.index, var_types, gamma)]
            if not isinstance(kids[0].kind, ZKind):
                raise TypeErrorAt(f"{t.loc}: index of {t.name} is not an"
                                  f" integer")
        return TypedTerm(t, k, kids)
    if isinstance(t, S.TBin):
        kids = [type_term(t.left, var_types, gamma),
                type_term(t.right, var_types, gamma)]
        kl, kr = kids[0].kind, kids[1].kind
        if isinstance(kl, ZKind) and isinstance(kr, ZKind):
            return TypedTerm(t, ZKind(int_interval_arith(t.op, kl.iv, kr.iv)),
                             kids)
        # any non-integer operation is mathematical, hence rational
        return TypedTerm(t, Q, kids)
    if isinstance(t, S.TCall):
        kids = [type_term(a, var_types, gamma) for a in t.args]
        return TypedTerm(t, _call_kind(t.name, [kid.kind for kid in kids]),
                         kids)
    raise TypeErrorAt(f"unknown term {t!r}")


def type_cmp(op: str, left: S.Term, right: S.Term, var_types,
             gamma: Gamma) -> TypedCmp:
    tl = type_term(left, var_types, gamma)
    tr = type_term(right, var_types, gamma)
    return TypedCmp(op, tl, tr, isinstance(kind_join(tl.kind, tr.kind), FKind))


def _type_builtin(b: S.PBuiltin, var_types, gamma: Gamma) -> TypedBuiltin:
    """Type a predicate or pair built-in, whose first argument must be a
    variable of its declared float type or of one it converts to: a
    float converts to a double."""
    if not isinstance(b.args[0], (S.TName, S.TIndex)):
        raise TypeErrorAt(f"{b.loc}: first argument of {b.name} must be a"
                          f" program variable")
    args = [type_term(a, var_types, gamma) for a in b.args]
    k0 = args[0].kind
    want = S.BUILTINS[b.name].ctype
    if not isinstance(k0, FKind):
        got = "an int" if isinstance(k0, ZKind) else "a rational"
        raise TypeErrorAt(f"{b.loc}: {b.name} expects a floating-point"
                          f" variable, got {got}")
    if k0.tau != want and want != "double":
        raise TypeErrorAt(f"{b.loc}: {b.name} expects a {want} variable,"
                          f" got {k0.tau}")
    return TypedBuiltin(b.name, args, b.loc)


def type_pred(p: S.Pred, var_types, gamma: Optional[Gamma] = None) -> TypedPred:
    gamma = gamma or {}
    if isinstance(p, S.PRel):
        return TypedRel(p.op, type_pred(p.left, var_types, gamma),
                        type_pred(p.right, var_types, gamma))
    if isinstance(p, S.PNot):
        return TypedNot(type_pred(p.pred, var_types, gamma))
    if isinstance(p, S.PCmp):
        return type_cmp(p.op, p.left, p.right, var_types, gamma)
    if isinstance(p, S.PLet):
        if isinstance(p.value, S.PBuiltin):
            if len(p.names) != 2:
                raise TypeErrorAt(f"{p.loc}: {p.value.name} returns a pair;"
                                  f" bind two names")
            tv: Union[TypedTerm, TypedBuiltin] = \
                _type_builtin(p.value, var_types, gamma)
            g2 = dict(gamma)
            for n in p.names:
                g2[n] = Q
        else:
            if len(p.names) != 1:
                raise TypeErrorAt(f"{p.loc}: a term \\let binds one name")
            tv = type_term(p.value, var_types, gamma)
            g2 = dict(gamma)
            g2[p.names[0]] = tv.kind
        return TypedLet(p.names, tv, type_pred(p.body, var_types, g2))
    if isinstance(p, S.PBuiltin):
        return _type_builtin(p, var_types, gamma)
    raise TypeErrorAt(f"unknown predicate {p!r}")
