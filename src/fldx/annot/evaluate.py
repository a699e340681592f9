"""Evaluation of typed accuracy predicates over abstract memory.

Verdicts are three-valued: an assertion is valid, violated, or
indeterminate (the abstract value straddles the bound). Both violated
and indeterminate surface as alarms; the indeterminate flag is kept so
reports can distinguish a proof of failure from a loss of precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Optional

from ..domain import AbstractFloat
from ..errors import AnalysisAlarm, TypeErrorAt
from ..frontend import syntax as S
from ..numerics import (FloatFormat, RInterval, interval_over,
                        round_nearest, trunc_div)
from ..zonotope import SymbolEnv, SymbolPool
from .kinds import INT_RANGE
from .typecheck import (TypedBuiltin, TypedCmp, TypedLet, TypedNot, TypedPred,
                        TypedRel, TypedTerm)

VALID = "valid"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"

_TRUTH = {True: VALID, False: VIOLATED, None: INDETERMINATE}


@dataclass
class AssertRecord:
    """One assertion-evaluation event, kept for the analysis report."""
    kind: str  # 'assert' | 'print' | 'enlarge'
    builtin: Optional[str]
    variable: Optional[str]
    verdict: Optional[str]
    err_hull: Optional[RInterval] = None
    real_hull: Optional[RInterval] = None
    rel_hull: Optional[RInterval] = None
    float_hull: Optional[RInterval] = None
    loc: S.Loc = S.NOLOC


@dataclass
class PredResult:
    verdict: str  # valid | violated | indeterminate
    records: List[AssertRecord] = field(default_factory=list)


class Memory:
    """Abstract store: float vars map to AbstractFloat, int vars to
    integer-valued RInterval, arrays to lists of either."""

    def __init__(self, fmt: FloatFormat, pool: SymbolPool,
                 env: SymbolEnv) -> None:
        self.fmt = fmt
        self.pool = pool
        self.env = env
        self.vars: Dict[str, object] = {}

    def load(self, name: str):
        if name not in self.vars:
            raise AnalysisAlarm("out-of-bounds", f"read of unset variable {name}")
        return self.vars[name]

    def store(self, name: str, value) -> None:
        self.vars[name] = value

    def snapshot(self) -> Dict[str, object]:
        return {k: (list(v) if isinstance(v, list) else v)
                for k, v in self.vars.items()}

    def restore(self, snap: Dict[str, object]) -> None:
        self.vars = {k: (list(v) if isinstance(v, list) else v)
                     for k, v in snap.items()}


def _tv_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _tv_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _tv_not(a):
    return None if a is None else (not a)


def _load_lvalue(tt: TypedTerm, mem: Memory, binders):
    """The value a name or an array cell holds; an index range gives the
    list of the cells in it. An index that can leave the array raises an
    alarm, as a program read does."""
    t = tt.term
    if isinstance(t, S.TName):
        if t.name in binders:
            return binders[t.name]
        return mem.load(t.name)
    if isinstance(t, S.TIndex):
        arr = mem.load(t.name)
        iv = eval_term(tt.children[0], mem, binders)
        lo, hi = int(iv.lo), int(iv.hi)
        if lo < 0 or hi >= len(arr):
            raise AnalysisAlarm("out-of-bounds",
                                f"{t.loc}: index of {t.name} in [{lo}, {hi}]"
                                f" outside [0, {len(arr) - 1}]", t.loc)
        if lo == hi:
            return arr[lo]
        return [arr[i] for i in range(lo, hi + 1)]
    raise TypeErrorAt(f"not an lvalue: {t!r}")


def _math_value(v) -> RInterval:
    """Coerce a loaded value to its mathematical (machine) value."""
    if isinstance(v, AbstractFloat):
        return v.float_iv
    if isinstance(v, list):
        return reduce(RInterval.join, map(_math_value, v))
    return v


def eval_term(tt: TypedTerm, mem: Memory, binders=None) -> RInterval:
    binders = binders or {}
    t = tt.term
    if isinstance(t, S.TConst):
        return RInterval.point(t.value)
    if isinstance(t, (S.TName, S.TIndex)):
        return _math_value(_load_lvalue(tt, mem, binders))
    if isinstance(t, S.TBin):
        a = eval_term(tt.children[0], mem, binders)
        b = eval_term(tt.children[1], mem, binders)
        if t.op == "+":
            return a + b
        if t.op == "-":
            return a - b
        if t.op == "*":
            return a * b
        if t.op == "/":
            if tt.compute in INT_RANGE or tt.compute == "Z":
                return trunc_div(a, b)
            return a.divide(b)
        raise TypeErrorAt(f"bad term operator {t.op!r}")
    if isinstance(t, S.TCall):
        if t.name == "max_distance":
            return _max_distance(t, tt, mem, binders)
        args = [eval_term(c, mem, binders) for c in tt.children]
        if t.name == "min":
            return RInterval(min(args[0].lo, args[1].lo),
                             min(args[0].hi, args[1].hi))
        if t.name == "max":
            return RInterval(max(args[0].lo, args[1].lo),
                             max(args[0].hi, args[1].hi))
        if t.name == "abs":
            return _abs(args[0])
        raise TypeErrorAt(f"unknown term builtin {t.name!r}")
    raise TypeErrorAt(f"unknown term {t!r}")


def _max_distance(t: S.TCall, tt: TypedTerm, mem: Memory,
                  binders) -> RInterval:
    """max_distance(a, n) = max over i < n-1 of |a[i+1] - a[i]|."""
    a0 = t.args[0]
    if not isinstance(a0, S.TName):
        raise TypeErrorAt("max_distance needs an array name")
    arr = mem.vars.get(a0.name)
    if not isinstance(arr, list):
        raise TypeErrorAt(f"max_distance: {a0.name!r} is not an array")
    n_iv = eval_term(tt.children[1], mem, binders)
    if not n_iv.is_point():
        raise TypeErrorAt("max_distance needs a definite element count")
    n = int(n_iv.lo)
    if n < 2 or n > len(arr):
        raise TypeErrorAt(f"max_distance: bad count {n} for array of"
                          f" {len(arr)}")
    out = RInterval.point(Fraction(0))
    for i in range(n - 1):
        m = _abs(_math_value(arr[i + 1]) - _math_value(arr[i]))
        out = RInterval(max(out.lo, m.lo), max(out.hi, m.hi))
    return out


def _abs(a: RInterval) -> RInterval:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return -a
    return RInterval(Fraction(0), a.max_abs())


def _cmp_iv(op: str, a: RInterval, b: RInterval):
    if op == "<":
        if a.hi < b.lo:
            return True
        if a.lo >= b.hi:
            return False
        return None
    if op == "<=":
        if a.hi <= b.lo:
            return True
        if a.lo > b.hi:
            return False
        return None
    if op == ">":
        return _cmp_iv("<", b, a)
    if op == ">=":
        return _cmp_iv("<=", b, a)
    if op == "==":
        if a.is_point() and b.is_point() and a.lo == b.lo:
            return True
        if a.hi < b.lo or b.hi < a.lo:
            return False
        return None
    if op == "!=":
        return _tv_not(_cmp_iv("==", a, b))
    raise TypeErrorAt(f"bad comparison {op!r}")


def _first_lvalue_name(tt: TypedTerm) -> Optional[str]:
    t = tt.term
    if isinstance(t, S.TName):
        return t.name
    if isinstance(t, S.TIndex):
        return t.name
    return None


def _abstract_arg(tt: TypedTerm, mem: Memory, binders) -> AbstractFloat:
    v = _load_lvalue(tt, mem, binders)
    if isinstance(v, AbstractFloat):
        return v
    raise TypeErrorAt(f"{tt.term.loc}: expected a floating-point variable")


def _hull(x: AbstractFloat, name: str, var: Optional[str], mem: Memory,
          loc: S.Loc) -> RInterval:
    """The hull of x that builtin `name` reads: its relative error, real
    value or error."""
    if "relerr" in name:
        if x.rel is None:
            raise AnalysisAlarm(
                "relerr-undefined", f"relative error of {var} undefined:"
                f" real interval contains zero", loc)
        return x.rel
    return x.real_refined(mem.env) if "real" in name \
        else x.err_refined(mem.env)


def eval_builtin(b: TypedBuiltin, mem: Memory, binders,
                 records: List[AssertRecord]):
    name = b.name
    var = _first_lvalue_name(b.args[0]) if b.args else None
    if name in ("fprint", "dprint"):
        x = _abstract_arg(b.args[0], mem, binders)
        records.append(AssertRecord(
            "print", name, var, None,
            err_hull=x.err_refined(mem.env), real_hull=x.real_refined(mem.env),
            rel_hull=x.rel, float_hull=x.float_iv, loc=b.loc))
        return True
    if name.startswith("accuracy_enlarge"):
        x = _abstract_arg(b.args[0], mem, binders)
        vlo = eval_term(b.args[1], mem, binders).lo
        vhi = eval_term(b.args[2], mem, binders).hi
        elo = eval_term(b.args[3], mem, binders).lo
        ehi = eval_term(b.args[4], mem, binders).hi
        val = x.real_refined(mem.env).join(RInterval(vlo, vhi))
        err = x.err_refined(mem.env).join(RInterval(elo, ehi))
        y = AbstractFloat.from_input(val, err, mem.fmt, mem.pool, mem.env)
        _store_lvalue(b.args[0], y, mem, binders)
        records.append(AssertRecord("enlarge", name, var, None,
                                    err_hull=err, real_hull=val, loc=b.loc))
        return True
    if name.startswith("accuracy_assert"):
        x = _abstract_arg(b.args[0], mem, binders)
        lo_iv = eval_term(b.args[1], mem, binders)
        hi_iv = eval_term(b.args[2], mem, binders)
        target = _hull(x, name, var, mem, b.loc)
        if lo_iv.hi <= target.lo and target.hi <= hi_iv.lo:
            verdict = True
        elif target.hi < lo_iv.lo or hi_iv.hi < target.lo:
            verdict = False  # the whole enclosure misses the bound window
        else:
            verdict = None
        records.append(AssertRecord(
            "assert", name, var, _TRUTH[verdict],
            err_hull=x.err_refined(mem.env), real_hull=x.real_refined(mem.env),
            rel_hull=x.rel, float_hull=x.float_iv, loc=b.loc))
        return verdict
    raise TypeErrorAt(f"unknown builtin {name!r}")


def _store_lvalue(tt: TypedTerm, value, mem: Memory, binders) -> None:
    t = tt.term
    if isinstance(t, S.TName) and t.name not in binders:
        mem.store(t.name, value)
        return
    if isinstance(t, S.TIndex):
        arr = mem.load(t.name)
        iv = eval_term(tt.children[0], mem, binders)
        if iv.is_point() and iv.lo.denominator == 1:
            arr[int(iv.lo)] = value
            return
    raise TypeErrorAt(f"cannot update {t!r}")


def _eval_pred_tv(p: TypedPred, mem: Memory, binders,
                  records: List[AssertRecord]):
    if isinstance(p, TypedRel):
        a = _eval_pred_tv(p.left, mem, binders, records)
        if p.op == "&&":
            return _tv_and(a, _eval_pred_tv(p.right, mem, binders, records))
        if p.op == "||":
            return _tv_or(a, _eval_pred_tv(p.right, mem, binders, records))
        # implication
        return _tv_or(_tv_not(a), _eval_pred_tv(p.right, mem, binders, records))
    if isinstance(p, TypedNot):
        return _tv_not(_eval_pred_tv(p.pred, mem, binders, records))
    if isinstance(p, TypedCmp):
        if p.compute in ("float", "double"):
            # machine comparison on the float domains
            a = _machine_side(p.left, mem, binders)
            b = _machine_side(p.right, mem, binders)
        else:
            a = eval_term(p.left, mem, binders)
            b = eval_term(p.right, mem, binders)
        return _cmp_iv(p.op, a, b)
    if isinstance(p, TypedLet):
        b2 = dict(binders)
        if isinstance(p.value, TypedBuiltin):
            arg = p.value.args[0]
            pair = _hull(_abstract_arg(arg, mem, binders), p.value.name,
                         _first_lvalue_name(arg), mem, p.value.loc)
            b2[p.names[0]] = RInterval.point(pair.lo)
            b2[p.names[1]] = RInterval.point(pair.hi)
        else:
            b2[p.names[0]] = eval_term(p.value, mem, binders)
        return _eval_pred_tv(p.body, mem, b2, records)
    if isinstance(p, TypedBuiltin):
        return eval_builtin(p, mem, binders, records)
    raise TypeErrorAt(f"unknown predicate {p!r}")


def _machine_side(tt: TypedTerm, mem: Memory, binders) -> RInterval:
    t = tt.term
    if isinstance(t, S.TConst):
        x = t.value
        n, d = round_nearest(x.numerator, x.denominator, mem.fmt)
        return interval_over(n, n, d)
    return eval_term(tt, mem, binders)


def eval_pred(p: TypedPred, mem: Memory) -> PredResult:
    records: List[AssertRecord] = []
    tv = _eval_pred_tv(p, mem, {}, records)
    return PredResult(_TRUTH[tv], records)
