"""Exact-rational shadow execution.

Runs a program on concrete inputs twice in lockstep: once with machine
floating-point semantics (every operation result rounded to nearest in
the chosen format, all arithmetic on exact rationals so the rounding is
itself exact) and once with ideal real semantics. Control flow follows
the machine values, exactly like hardware would. At every assertion
point the pair (float value, real value) of the asserted variable is
recorded; the difference is the true round-off error of this run.

Programs come from `pipeline.prepare`, so a function's only `return` is
the last statement it runs. A return is a store: `return e` converts e
to the function's return type and writes it to the frame's
`__return__` slot, which the call reads. One conversion, `_coerce`,
serves a cast, a store, an argument and a result.

This is deliberately independent from the abstract interpreter: it
shares only the AST and the rounding function, so it can serve as an
oracle for the analyzer's error enclosures.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Union

from ..errors import DivisionByZero, FldxError, TypeErrorAt
from ..frontend import syntax as S
from ..numerics import FloatFormat, round_nearest

ZERO = Fraction(0)


@dataclass(frozen=True)
class CVal:
    """One concrete value: exact machine float and exact real."""
    f: Fraction
    r: Fraction

    @property
    def err(self) -> Fraction:
        return self.f - self.r


@dataclass
class ShadowRecord:
    loc: S.Loc
    builtin: str
    variable: Optional[str]
    real_val: Fraction
    err: Fraction
    holds: Optional[bool]  # None for prints


class ShadowRun:
    """One concrete dual execution of a program."""

    def __init__(self, program: S.Program, fmt: FloatFormat,
                 inputs: Optional[Dict[str, Fraction]] = None,
                 int_inputs: Optional[Dict[str, int]] = None,
                 array_inputs: Optional[Dict[str, List[Fraction]]] = None
                 ) -> None:
        self.program = program
        self.fmt = fmt
        self.inputs = dict(inputs or {})
        self.int_inputs = dict(int_inputs or {})
        self.array_inputs = dict(array_inputs or {})
        self.records: List[ShadowRecord] = []
        self.vars: Dict[str, object] = {}
        self._fn: Optional[S.FuncDef] = None
        self._depth = 0

    # -- rounding ----------------------------------------------------------

    def _round(self, x: Fraction) -> Fraction:
        return Fraction(*round_nearest(x.numerator, x.denominator, self.fmt))

    def _input_value(self, x: Fraction) -> CVal:
        return CVal(self._round(x), x)

    # -- expressions -------------------------------------------------------

    def eval(self, e: S.Expr, target: Optional[str] = None):
        if isinstance(e, S.IntLit):
            return e.value
        if isinstance(e, S.FloatLit):
            return CVal(self._round(e.value), e.value)
        if isinstance(e, S.Var):
            return self._load(e.name, e.loc)
        if isinstance(e, S.Index):
            return self._cell(e.name, self._as_int(self.eval(e.index), e.loc),
                              e.loc)
        if isinstance(e, S.Unary):
            if e.op == "-":
                v = self.eval(e.expr)
                return CVal(-v.f, -v.r) if isinstance(v, CVal) else -v
            return 0 if self.truth(e.expr) else 1
        if isinstance(e, S.Binary):
            if e.op in S.COMPARISONS or e.op in ("&&", "||"):
                return 1 if self.truth(e) else 0
            return self._arith(e)
        if isinstance(e, S.Ternary):
            return self.eval(e.then) if self.truth(e.cond) \
                else self.eval(e.els)
        if isinstance(e, S.Cast):
            return self._coerce(e.ctype, self.eval(e.expr), e.loc)
        if isinstance(e, S.Call):
            return self._call(e, target)
        raise TypeErrorAt(f"unknown expression {e!r}")

    def _arith(self, e: S.Binary):
        a = self.eval(e.left)
        b = self.eval(e.right)
        if isinstance(a, int) and isinstance(b, int):
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if b == 0:
                raise DivisionByZero(f"{e.loc}: integer division by zero")
            if e.op == "/":
                return _trunc(Fraction(a, b))
            if e.op == "%":
                return a - _trunc(Fraction(a, b)) * b
            raise TypeErrorAt(f"{e.loc}: bad integer operator {e.op!r}")
        av = self._as_cval(a)
        bv = self._as_cval(b)
        if e.op == "+":
            f, r = av.f + bv.f, av.r + bv.r
        elif e.op == "-":
            f, r = av.f - bv.f, av.r - bv.r
        elif e.op == "*":
            f, r = av.f * bv.f, av.r * bv.r
        elif e.op == "/":
            if bv.f == 0 or bv.r == 0:
                raise DivisionByZero(f"{e.loc}: float division by zero")
            f, r = av.f / bv.f, av.r / bv.r
        else:
            raise TypeErrorAt(f"{e.loc}: bad float operator {e.op!r}")
        return CVal(self._round(f), r)

    def _as_cval(self, v) -> CVal:
        """v as a float: an int promotes to the nearest machine float,
        its real value exact."""
        if isinstance(v, CVal):
            return v
        x = Fraction(v)
        return CVal(self._round(x), x)

    def _as_int(self, v, loc: S.Loc) -> int:
        if isinstance(v, int):
            return v
        raise TypeErrorAt(f"{loc}: expected an integer")

    def _load(self, name: str, loc: S.Loc):
        if name not in self.vars:
            raise FldxError(f"{loc}: read of unset variable {name!r}")
        return self.vars[name]

    def _cell(self, name: str, i, loc: S.Loc):
        """Cell i of the array name, read in the code or in an annotation;
        a name holding no array, or an i that is not an int inside it, is
        an error at loc."""
        arr = self._load(name, loc)
        if not (isinstance(arr, list) and isinstance(i, int)
                and 0 <= i < len(arr)):
            raise FldxError(f"{loc}: bad index {i} into {name}")
        return arr[i]

    def _call(self, e: S.Call, target: Optional[str]):
        if e.name == "read_double":
            if target is not None and target in self.inputs:
                return self._input_value(self.inputs[target])
            raise FldxError(f"{e.loc}: no concrete input bound for"
                            f" read_double result")
        fn = self.program.functions[e.name]
        if self._depth > 64:
            raise FldxError(f"{e.loc}: call depth exceeded")
        frame = {p.name: self.eval(a) if p.is_array
                 else self._coerce(p.ctype, self.eval(a), a.loc)
                 for p, a in zip(fn.params, e.args)}
        saved, saved_fn = self.vars, self._fn
        self.vars, self._fn = frame, fn
        self._depth += 1
        try:
            self.exec_stmts(fn.body.stmts)
            return self.vars.get("__return__")
        finally:
            self._depth -= 1
            self.vars, self._fn = saved, saved_fn

    # -- control -----------------------------------------------------------

    def truth(self, e: S.Expr) -> bool:
        if isinstance(e, S.Unary) and e.op == "!":
            return not self.truth(e.expr)
        if isinstance(e, S.Binary) and e.op == "&&":
            return self.truth(e.left) and self.truth(e.right)
        if isinstance(e, S.Binary) and e.op == "||":
            return self.truth(e.left) or self.truth(e.right)
        if isinstance(e, S.Binary) and e.op in S.COMPARISONS:
            return _CMP[e.op](_machine(self.eval(e.left)),
                              _machine(self.eval(e.right)))
        return _machine(self.eval(e)) != 0

    # -- statements --------------------------------------------------------

    def exec_stmts(self, stmts: List[S.Stmt]) -> None:
        for s in stmts:
            self.exec_stmt(s)

    def exec_stmt(self, s: S.Stmt) -> None:
        if isinstance(s, S.Decl):
            self._decl(s)
        elif isinstance(s, S.Assign):
            self._assign(s)
        elif isinstance(s, S.If):
            if self.truth(s.cond):
                self.exec_stmts(s.then.stmts)
            elif s.els is not None:
                self.exec_stmts(s.els.stmts)
        elif isinstance(s, S.While):
            while self.truth(s.cond):
                self.exec_stmts(s.body.stmts)
        elif isinstance(s, S.DoWhile):
            while True:
                self.exec_stmts(s.body.stmts)
                if not self.truth(s.cond):
                    break
        elif isinstance(s, S.Return):
            if s.expr is not None:
                self.vars["__return__"] = self._coerce(
                    self._fn.ret_type, self.eval(s.expr), s.loc)
        elif isinstance(s, S.ExprStmt):
            self.eval(s.expr)
        elif isinstance(s, S.AssertStmt):
            self._assert(s)
        elif isinstance(s, S.AssumeStmt):
            pass  # analysis-only hypothesis; concrete runs need none
        elif isinstance(s, S.Block):
            self.exec_stmts(s.stmts)
        elif isinstance(s, S.SectionStmt):
            self.exec_stmts(s.body)  # markers are no-ops concretely
        else:
            raise TypeErrorAt(f"unknown statement {s!r}")

    def _coerce(self, ctype: str, v, loc: S.Loc):
        """v converted to ctype by a cast, a store, an argument or a
        result: a float to int truncates its machine value."""
        if ctype == "int":
            if isinstance(v, CVal):
                return _trunc(v.f)
            return self._as_int(v, loc)
        return self._as_cval(v)

    def _decl(self, s: S.Decl) -> None:
        if s.array_size is not None:
            if s.array_init is not None:
                self.vars[s.name] = [self._coerce(s.ctype, self.eval(x), s.loc)
                                     for x in s.array_init]
            elif s.name in self.array_inputs:
                self.vars[s.name] = self._input_cells(s.ctype, s.name)
            else:
                zero = 0 if s.ctype == "int" else CVal(ZERO, ZERO)
                self.vars[s.name] = [zero] * s.array_size
            return
        if s.init is not None:
            self.vars[s.name] = self._coerce(
                s.ctype, self.eval(s.init, target=s.name), s.loc)

    def _assign(self, s: S.Assign) -> None:
        name = s.target.name
        ctype = self._fn.var_types[name][0]
        v = self._coerce(ctype, self.eval(s.expr, target=name), s.loc)
        if isinstance(s.target, S.Var):
            self.vars[name] = v
            return
        arr = self._load(name, s.loc)
        i = self._as_int(self.eval(s.target.index), s.loc)
        if not isinstance(arr, list) or not 0 <= i < len(arr):
            raise FldxError(f"{s.loc}: bad write index {i} into {name}")
        arr[i] = v

    # -- assertions --------------------------------------------------------

    def _assert(self, s: S.AssertStmt) -> None:
        self._pred(s.pred, {}, s.loc)

    def _pred(self, p: S.Pred, binders: Dict[str, Fraction],
              loc: S.Loc) -> Optional[bool]:
        if isinstance(p, S.PRel):
            a = self._pred(p.left, binders, loc)
            b = self._pred(p.right, binders, loc)
            if p.op == "&&":
                return None if a is None or b is None else a and b
            if p.op == "||":
                return None if a is None or b is None else a or b
            if p.op == "==>":
                if a is False:
                    return True
                return b
            return None
        if isinstance(p, S.PNot):
            a = self._pred(p.pred, binders, loc)
            return None if a is None else not a
        if isinstance(p, S.PCmp):
            return _CMP[p.op](self._term(p.left, binders, loc),
                              self._term(p.right, binders, loc))
        if isinstance(p, S.PLet):
            values = [self._quantity(p.value, loc)] * 2 \
                if isinstance(p.value, S.PBuiltin) \
                else [self._term(p.value, binders, loc)]
            return self._pred(p.body, {**binders, **dict(zip(p.names, values))},
                              loc)
        if isinstance(p, S.PBuiltin):
            return self._builtin(p, binders, loc)
        raise TypeErrorAt(f"unknown predicate {p!r}")

    def _lvalue_cval(self, t: S.Term, loc: S.Loc) -> CVal:
        if isinstance(t, S.TName):
            v = self._load(t.name, loc)
        elif isinstance(t, S.TIndex):
            v = self._cell(t.name, self._term(t.index, {}, loc), loc)
        else:
            raise TypeErrorAt(f"{loc}: built-in needs an lvalue")
        return self._as_cval(v)

    def _quantity(self, b: S.PBuiltin, loc: S.Loc) -> Fraction:
        """What builtin b reads of its variable, as its declaration says:
        its relative error, its real value or its error."""
        v = self._lvalue_cval(b.args[0], loc)
        quantity = S.BUILTINS[b.name].quantity
        if quantity == "relerr":
            if v.r == 0:
                raise FldxError(f"{loc}: relative error undefined (real"
                                f" value is 0)")
            return v.err / abs(v.r)
        return v.r if quantity == "real" else v.err

    def _builtin(self, b: S.PBuiltin, binders, loc) -> Optional[bool]:
        action = S.BUILTINS[b.name].action
        if action == "enlarge":
            # the concrete run keeps its exact value; widening only
            # affects the abstract analysis
            return True
        v = self._lvalue_cval(b.args[0], loc)
        holds = True
        if action == "assert":
            lo = self._term(b.args[1], binders, loc)
            hi = self._term(b.args[2], binders, loc)
            holds = lo <= self._quantity(b, loc) <= hi
        self.records.append(ShadowRecord(
            loc, b.name, b.args[0].name, v.r, v.err,
            holds if action == "assert" else None))
        return holds

    def _term(self, t: S.Term, binders: Dict[str, Union[int, Fraction]],
              loc: S.Loc) -> Union[int, Fraction]:
        """The value of t: an int where `typecheck` gives t an integer
        kind (an integer literal, an int variable or binder, and the
        +, -, *, / and calls of ints), a Fraction otherwise."""
        if isinstance(t, S.TConst):
            return int(t.value) if t.is_integer else Fraction(t.value)
        if isinstance(t, S.TName):
            if t.name in binders:
                return binders[t.name]
            v = self._load(t.name, loc)
            if isinstance(v, list):
                raise TypeErrorAt(f"{loc}: expected a number, got an array")
            return _machine(v)
        if isinstance(t, S.TIndex):
            return _machine(self._cell(t.name,
                                       self._term(t.index, binders, loc), loc))
        if isinstance(t, S.TBin):
            a = self._term(t.left, binders, loc)
            b = self._term(t.right, binders, loc)
            if t.op == "+":
                return a + b
            if t.op == "-":
                return a - b
            if t.op == "*":
                return a * b
            if b == 0:
                raise DivisionByZero(f"{loc}: division by zero in term")
            if isinstance(a, int) and isinstance(b, int):
                return _trunc(Fraction(a, b))
            return Fraction(a) / b
        if isinstance(t, S.TCall):
            if t.name == "max_distance":
                return self._max_distance(t, binders, loc)
            args = [self._term(x, binders, loc) for x in t.args]
            if t.name == "abs":
                return abs(args[0])
            if t.name not in ("min", "max"):
                raise TypeErrorAt(f"unknown term builtin {t.name!r}")
            v = min(args) if t.name == "min" else max(args)
            return v if all(isinstance(x, int) for x in args) \
                else Fraction(v)
        raise TypeErrorAt(f"unknown term {t!r}")

    def _max_distance(self, t: S.TCall, binders, loc) -> Fraction:
        a0 = t.args[0]
        if not isinstance(a0, S.TName):
            raise TypeErrorAt(f"{loc}: max_distance needs an array name")
        n = int(self._term(t.args[1], binders, loc))
        fs = [self._as_cval(self._cell(a0.name, i, loc)).f for i in range(n)]
        return max((abs(b - a) for a, b in zip(fs, fs[1:])), default=ZERO)

    # -- entry -------------------------------------------------------------

    def run(self, entry: str) -> None:
        fn = self.program.functions[entry]
        self._fn = fn
        for p in fn.params:
            if p.is_array:
                if p.name not in self.array_inputs:
                    raise FldxError(f"no concrete array input for {p.name!r}")
                self.vars[p.name] = self._input_cells(p.ctype, p.name)
            elif p.ctype == "int":
                if p.name not in self.int_inputs:
                    raise FldxError(f"no concrete int input for {p.name!r}")
                self.vars[p.name] = self.int_inputs[p.name]
            else:
                if p.name not in self.inputs:
                    raise FldxError(f"no concrete input for {p.name!r}")
                self.vars[p.name] = self._input_value(self.inputs[p.name])
        self.exec_stmts(fn.body.stmts)

    def _input_cells(self, ctype: str, name: str) -> list:
        """The cells of the array `name` bound to the concrete input, as
        its element type."""
        cells = self.array_inputs[name]
        if ctype == "int" and any(Fraction(x).denominator != 1 for x in cells):
            raise FldxError(f"int array {name!r} bound to a non-integer cell")
        return [int(x) if ctype == "int" else self._input_value(x)
                for x in cells]


def _trunc(x: Fraction) -> int:
    return x.numerator // x.denominator if x >= 0 \
        else -((-x.numerator) // x.denominator)


_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _machine(v):
    """The machine value of an int or a float."""
    return v.f if isinstance(v, CVal) else v
