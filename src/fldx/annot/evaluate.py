"""Evaluation of typed accuracy predicates over abstract memory.

Verdicts are three-valued: an assertion is valid, violated, or
indeterminate (the abstract value straddles the bound). Both violated
and indeterminate surface as alarms; the indeterminate flag is kept so
reports can distinguish a proof of failure from a loss of precision.

Every term is evaluated exactly, as a rational interval. The checker
asks each question the executor also asks the way the executor does: a
comparison reads the region table of `numerics` (`compare`), an
integer division is `numerics.trunc_div` with its zero check, an array
cell is read through `Memory.cells` with its bounds check, and what a
built-in does and reads comes from its declaration in `syntax.BUILTINS`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Optional, Tuple

from ..config import InputSpec
from ..domain import AbstractFloat
from ..errors import AnalysisAlarm, OverflowAlarm, TypeErrorAt
from ..frontend import syntax as S
from ..numerics import (RING_OPS, FloatFormat, RInterval, compare,
                        interval_over, round_nearest, trunc_div)
from ..zonotope import SymbolEnv, SymbolPool
from .kinds import ZKind
from .typecheck import (TypedBuiltin, TypedCmp, TypedLet, TypedNot, TypedPred,
                        TypedRel, TypedTerm)

VALID = "valid"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"

_TRUTH = {True: VALID, False: VIOLATED, None: INDETERMINATE}


@dataclass
class AssertRecord:
    """One assertion-evaluation event, kept for the analysis report."""
    kind: str  # 'assert' | 'print'
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

    def load(self, name: str, loc: S.Loc):
        if name not in self.vars:
            raise AnalysisAlarm("out-of-bounds", f"{loc}: read of unset"
                                f" variable {name}", loc)
        return self.vars[name]

    def cells(self, name: str, iv: RInterval, loc: S.Loc,
              what: str = "index") -> Tuple[list, int, int]:
        """The array `name` and the bounds lo, hi of an index in the int
        interval iv: an error at loc when `name` holds no array, an
        out-of-bounds alarm there when iv reaches past either end."""
        arr = self.load(name, loc)
        if not isinstance(arr, list):
            raise TypeErrorAt(f"{loc}: {name} is not an array")
        lo, hi = iv.lo_n, iv.hi_n
        if lo < 0 or hi >= len(arr):
            raise AnalysisAlarm("out-of-bounds",
                                f"{loc}: {what} of {name} in [{lo}, {hi}]"
                                f" outside [0, {len(arr) - 1}]", loc)
        return arr, lo, hi

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
        return mem.load(t.name, t.loc)
    arr, lo, hi = mem.cells(t.name, eval_term(tt.children[0], mem, binders),
                            t.loc)
    return arr[lo] if lo == hi else arr[lo:hi + 1]


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
        v = _load_lvalue(tt, mem, binders)
        if isinstance(t, S.TName) and isinstance(v, list):
            raise TypeErrorAt(f"{t.loc}: expected a number, got an array")
        return _math_value(v)
    if isinstance(t, S.TBin):
        a = eval_term(tt.children[0], mem, binders)
        b = eval_term(tt.children[1], mem, binders)
        if t.op in RING_OPS:
            return RING_OPS[t.op](a, b)
        if t.op == "/":
            if isinstance(tt.kind, ZKind):
                return trunc_div(a, b, t.loc)
            return a.divide(b, t.loc)
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
    """max_distance(a, n) = max over i < n-1 of |a[i+1] - a[i]|, over
    the cells a[0..n-1] that `Memory.cells` reads."""
    a0 = t.args[0]
    if not isinstance(a0, S.TName):
        raise TypeErrorAt(f"{t.loc}: max_distance needs an array name")
    n_iv = eval_term(tt.children[1], mem, binders)
    if not (n_iv.is_point() and n_iv.den == 1):
        raise TypeErrorAt(f"{t.loc}: max_distance needs a definite integer"
                          f" element count")
    n = n_iv.lo_n
    if n < 2:
        raise TypeErrorAt(f"{t.loc}: max_distance needs at least 2"
                          f" elements, not {n}")
    arr, _, _ = mem.cells(a0.name, interval_over(0, n - 1, 1), t.loc)
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


def eval_builtin(b: TypedBuiltin, mem: Memory, binders,
                 records: List[AssertRecord]):
    """Built-in b on its variable, as its declaration says: an enlarge
    widens the variable and holds, or raises OverflowAlarm at b when the
    widened float interval leaves the format's range; a print records
    the variable's hulls and holds; an assert records them with its
    verdict, whether the quantity it reads lies between its bounds, and
    returns that verdict; a get returns the hull of the quantity it
    reads."""
    spec = S.BUILTINS[b.name]
    arg = b.args[0]
    x = _load_lvalue(arg, mem, binders)
    if not isinstance(x, AbstractFloat):
        raise TypeErrorAt(f"{b.loc}: expected a floating-point variable")
    bounds = [eval_term(t, mem, binders) for t in b.args[1:]]
    env = mem.env
    if spec.action == "enlarge":
        vlo, vhi, elo, ehi = bounds
        try:
            val = x.real_refined(env).join(RInterval(vlo.lo, vhi.hi))
            err = x.err_refined(env).join(RInterval(elo.lo, ehi.hi))
        except ValueError as exn:
            raise TypeErrorAt(f"{b.loc}: {b.name}: {exn}") from None
        try:
            InputSpec(val, err).check_finite(mem.fmt)
        except OverflowAlarm as exn:
            raise OverflowAlarm(f"{b.loc}: {exn}", b.loc) from None
        y = AbstractFloat.from_input(val, err, mem.fmt, mem.pool, env)
        _store_lvalue(arg, y, mem, binders)
        return True
    verdict = True
    rel = x.rel
    if spec.action != "print":
        if spec.quantity == "relerr":
            if rel is None:
                raise AnalysisAlarm(
                    "relerr-undefined", f"{b.loc}: relative error of"
                    f" {arg.term.name} undefined: real interval contains"
                    f" zero", b.loc)
            quantity = rel
        elif spec.quantity == "real":
            quantity = x.real_refined(env)
        else:
            quantity = x.err_refined(env)
        if spec.action == "get":
            return quantity
        lo, hi = bounds
        verdict = _tv_and(compare("<=", lo, quantity),
                          compare("<=", quantity, hi))
    records.append(AssertRecord(
        spec.action, b.name, arg.term.name,
        _TRUTH[verdict] if spec.action == "assert" else None,
        err_hull=x.err_refined(env), real_hull=x.real_refined(env),
        rel_hull=rel, float_hull=x.float_iv, loc=b.loc))
    return verdict


def _store_lvalue(tt: TypedTerm, value, mem: Memory, binders) -> None:
    """Store value in the variable or the one array cell that
    `_load_lvalue` read a float from."""
    t = tt.term
    if isinstance(t, S.TName):
        mem.store(t.name, value)
    else:
        arr = mem.load(t.name, t.loc)
        arr[eval_term(tt.children[0], mem, binders).lo_n] = value


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
        if p.on_floats:
            # machine comparison on the float domains
            a = _machine_side(p.left, mem, binders)
            b = _machine_side(p.right, mem, binders)
        else:
            a = eval_term(p.left, mem, binders)
            b = eval_term(p.right, mem, binders)
        return compare(p.op, a, b)
    if isinstance(p, TypedLet):
        b2 = dict(binders)
        if isinstance(p.value, TypedBuiltin):
            pair = eval_builtin(p.value, mem, binders, records)
            b2[p.names[0]] = RInterval.point(pair.lo)
            b2[p.names[1]] = RInterval.point(pair.hi)
        else:
            b2[p.names[0]] = eval_term(p.value, mem, binders)
        return _eval_pred_tv(p.body, mem, b2, records)
    if isinstance(p, TypedBuiltin):
        return eval_builtin(p, mem, binders, records)
    raise TypeErrorAt(f"unknown predicate {p!r}")


def _machine_side(tt: TypedTerm, mem: Memory, binders) -> RInterval:
    """A side of a comparison decided on the float domains: a bare
    literal rounds to the format, as in code, and one past its range
    raises OverflowAlarm at the literal."""
    t = tt.term
    if isinstance(t, S.TConst):
        x = t.value
        try:
            n, d = round_nearest(x.numerator, x.denominator, mem.fmt)
        except OverflowAlarm as exn:
            raise OverflowAlarm(f"{t.loc}: {exn}", t.loc) from None
        return interval_over(n, n, d)
    return eval_term(tt, mem, binders)


def eval_pred(p: TypedPred, mem: Memory) -> PredResult:
    records: List[AssertRecord] = []
    tv = _eval_pred_tv(p, mem, {}, records)
    return PredResult(_TRUTH[tv], records)
