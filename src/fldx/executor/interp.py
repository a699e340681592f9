"""Abstract interpreter with split/merge path exploration.

The whole entry function runs as an implicit root section. Inside a
section, every undecided test and every float-to-int cast is one
decision step on t = lhs - rhs (for a cast, the cast value), enumerated
by the section's path explorer. One closure, built by `_cond`, tests
every condition: a comparison, or the truthiness e != 0 of any other
scalar. It and `_assume` read the region table of `numerics`, which
annotation comparisons read too: a comparison maps to a true and a false
region of t, and `!=` is decided as `==` negated. An int test chooses a
side only when t straddles the boundary. A float test or a cast offers,
in order, the candidates of `_flow`, each a machine region and an ideal
region of t:

  * stable flows: machine and ideal executions take the same branch
    (cast to the same integer), the float and the real interval of t
    meeting the same region;
  * unstable flows (user sections only): the machine float value and
    the ideal real value fall on different sides, which needs an error
    of t of the sign that machine region - ideal region allows. Each
    unstable flow is explored twice, once following the machine control
    flow (interpretation "float") and once following the ideal one
    (interpretation "real"); merge_unstable pairs the two runs back into
    a single state whose float fields come from the machine run and
    whose real fields come from the ideal run.

A decision builds the float, real and error forms of t once, into its
snapshot; the chosen flow constrains them jointly, equal constraints
projected as one and a lone one in a single round, meets the operands
and then refreshes every value once; `assume` applies the stable true
flow the same way, without a decision. One coercion, `_coerce`, converts
a value to a C type for a cast, a store, an argument and a result alike:
a float to int is a cast decision, an int to float a promotion rounded
to the format (exact when the format holds every int of the range), and
anything else (an array, the result of a void function) an error at the
operand. So every value in a frame has its declared type.

A return is a store. Programs come from `pipeline.prepare`, whose
`normalize_returns` leaves a function's only `return` as the last
statement it runs; `return e` converts e to the function's return type
and writes it to the frame's `__return__` slot, which a section merges
like any other variable and a call reads once the callee's body has run.
Each argument is bound to its parameter through `_coerce`; an array
passes by reference.

Each path walks the section body from its checkpoint, replaying the
explorer's recorded choices. A float test with more than one flow saves
an entry in the explorer: a snapshot of what it saw (mem, env,
interpretation, candidate flows, operands and the forms of t), and what
its flow left (signature item, interpretation, control value, trace
lines, mem and env). A replay takes up what each decision before the one
the explorer advanced left; that one restores its snapshot and applies
the flow the trace selects through `_take`, as its first visit did. So
every alternative of a decision starts from the state the decision saw,
and the float and the real run of an unstable flow share the symbols of
the inputs read before it. Only a test of an if, while or do condition
(through `!`, `&&`, `||`) at the section's own call depth saves, where
nothing but mem and env is live. A test inside an expression or a
callee, a cast and an int test are computed on every visit, since a
Python local there may hold a value built on the replay's own symbols.
The explorer holds at most one entry per decision of the current path.

With each entry the explorer records whether the stretch of the walk
that led to it, from the choice before it, was plain: it ran no assert,
assume, dprint or nested section, called no user function and settled
no int test without a choice. Such a stretch changes nothing but mem and
env, which the entry holds, and takes no branch of its own. So while the
next decision of a replay saved an entry after a plain stretch, the walk
skips (`_skip`): declarations, assignments and expression statements
return at once, and a condition takes up the saved decision (`_resume`)
without evaluating its operands. Mem and env are restored once, at the
last decision of such a chain, and the walk runs from there. A stretch
that is not plain runs again, so that its events are recorded again,
before its decision takes up its entry. Every other decision is a
choice with no saved state, and it ends the chain.

A finished path leaves its mem and env, grouped by signature and
interpretation; `_merge_unstable` pairs the float and the real run of
each signature into one. The merge then walks the variables that every
path holds, in the order the first path stored them, so fresh symbols
are allocated, and reports come out, the same under any hash seed. A
variable equal on every path keeps its value, an array merges cell by
cell, ints join, and floats join through one `union` of every path's
value, each refined under its own path's env, onto one fresh pair of
symbols. An index range read and a weak update join their cells through
the same `union`. A section whose every path is infeasible propagates
emptiness to the enclosing section.

An int value is an RInterval over denominator 1, built so by literals,
inputs, truth values and casts and kept so by the int operations; its
bounds are read as the ints `lo_n` and `hi_n`.

The program runs compiled: on its first visit in an analysis, an
expression (`_expr`), a condition (`_cond`) or a statement (`_stmt`)
becomes a closure specialized to its operator, literal value, location
and site id, which checks its operands' kinds as it runs; int + and -
and int tests (`settled`) work on the bounds, with no gcd. A closure
compiles its operands on its own first run, so compiling goes no deeper
than evaluating, and a literal past the format's range raises only when
run. `eval`, `decide` and `exec_stmt` look a node's closure up in a
cache keyed by id, which holds the node too and lives as long as the
Interp. Closures take the Interp as their argument and never hold it:
cached on it, one that did would leave every finished analysis in a
cycle. They reach domain functions through module globals and Interp
methods through attributes when they run, and run each statement of a
body through `exec_stmt`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Dict, List, Optional, Set, Tuple

from ..annot.evaluate import AssertRecord, Memory, eval_pred
from ..annot.typecheck import type_pred
from ..config import AnalysisConfig, InputSpec
from ..domain import (AbstractFloat, abs_neg, abs_op,
                      apply_substitution, make_substitution,
                      project_onto_symbols, union)
from ..errors import (AnalysisAlarm, DivisionByZero, InfeasiblePath,
                      OverflowAlarm, SectionInfeasible, TypeErrorAt)
from ..frontend import syntax as S
from ..numerics import (ANY, REGIONS, RationalLike, RInterval, int_range,
                        interval_over, pair_over, settled, trunc_div,
                        trunc_quotient)
from ..zonotope import AffineForm, Origin, SymbolEnv, SymbolPool, sym_range
from .explorer import PathExplorer

_INT_ZERO = interval_over(0, 0, 1)
_INT_ONE = interval_over(1, 1, 1)
_ARITH = frozenset("+-*/%")
_CAST_FAN_LIMIT = 64
_LOOP_LIMIT = 1_000_000


#: the mem and env a path of a section ends with
PathEnd = Tuple[Dict[str, object], SymbolEnv]


@dataclass
class SectionCtx:
    section_id: int
    is_user: bool
    explorer: PathExplorer
    depth: int = 0  # the call depth the section body runs at
    signature: List = field(default_factory=list)
    interp: Optional[str] = None


@dataclass
class SectionReport:
    section_id: int
    feasible_paths: int = 0
    started_paths: int = 0
    merged_pairs: int = 0
    infeasible: bool = False


class Interp:
    def __init__(self, program: S.Program, config: AnalysisConfig) -> None:
        self.program = program
        self.cfg = config
        self.fmt = config.fmt
        self.pool = SymbolPool()
        self.env: SymbolEnv = {}
        self.mem = Memory(self.fmt, self.pool, self.env)
        self.stack: List[SectionCtx] = []
        self.records: List[AssertRecord] = []
        self.alarms: List[AnalysisAlarm] = []
        self.warnings: List[str] = []
        self.trace: List[str] = []
        self.section_reports: List[SectionReport] = []
        #: the compiled form: (closure, node) by id(node), of the nodes
        #: run through `exec_stmt` and `eval`, and of those `decide` runs
        self._code: Dict[int, tuple] = {}
        self._conds: Dict[int, tuple] = {}
        self._fn: Optional[S.FuncDef] = None
        self._call_depth = 0
        self._skip = False

    # -- helpers ----------------------------------------------------------

    def _trace(self, msg: str) -> None:
        if self.cfg.collect_trace:
            self.trace.append(msg)

    def _warn(self, msg: str) -> None:
        if msg not in self.warnings:
            self.warnings.append(msg)

    def _alarm(self, alarm: AnalysisAlarm) -> None:
        key = (alarm.kind, str(alarm))
        if key not in [(a.kind, str(a)) for a in self.alarms]:
            self.alarms.append(alarm)

    @property
    def ctx(self) -> SectionCtx:
        return self.stack[-1]

    def _not_plain(self) -> None:
        self.ctx.explorer.plain = False

    @cached_property
    def _float_zero(self) -> AbstractFloat:
        """The float constant 0, compared against by truthiness tests and
        float-to-int casts and stored by zero-initialized arrays."""
        return AbstractFloat.from_literal(0, self.fmt)

    def _promote_int(self, iv: RInterval) -> AbstractFloat:
        """Int-to-float promotion, rounded to the format as C rounds it:
        exact when the format holds every int of iv; otherwise a point
        rounds as a literal does, an interval as an input does, with its
        representation error."""
        if max(-iv.lo_n, iv.hi_n) <= self.fmt.beta ** self.fmt.p * iv.den:
            real = AffineForm.from_interval(iv, self.pool, Origin.INPUT)
            return AbstractFloat(iv, real, iv, AffineForm.of_point(_INT_ZERO),
                                 _INT_ZERO)
        if iv.lo_n == iv.hi_n:
            return AbstractFloat.from_literal(iv.lo, self.fmt)
        return AbstractFloat.from_input(iv, None, self.fmt, self.pool,
                                        self.env)

    def _as_float(self, v, loc: S.Loc) -> AbstractFloat:
        """v, an operand at loc, as a float; an int is promoted, and
        one past the format's range raises OverflowAlarm there."""
        if isinstance(v, AbstractFloat):
            return v
        if isinstance(v, RInterval):
            try:
                return self._promote_int(v)
            except OverflowAlarm as exn:
                raise OverflowAlarm(f"{loc}: {exn}", loc) from None
        raise TypeErrorAt(f"{loc}: expected a number, got {_kind(v)}")

    def _as_int(self, v, loc: S.Loc) -> RInterval:
        """v, an operand at loc, as an int."""
        if isinstance(v, RInterval):
            return v
        raise TypeErrorAt(f"{loc}: expected an integer, got {_kind(v)}")

    def _number(self, v, loc: S.Loc):
        """v, an operand at loc that may be an int or a float."""
        if isinstance(v, (AbstractFloat, RInterval)):
            return v
        raise TypeErrorAt(f"{loc}: expected a number, got {_kind(v)}")

    def _coerce(self, ctype: str, v, loc: S.Loc, site: int,
                src: Optional[S.Expr] = None):
        """v converted to ctype, by a cast at loc or by a store, an
        argument or a result there: a float to int is a cast decision (on
        the variable `src`, if any), an int to float a promotion."""
        at = loc if src is None else src.loc
        if ctype != "int":
            return self._as_float(v, at)
        if isinstance(v, AbstractFloat):
            return self._cast_float_to_int(loc, site, v, src)
        return self._number(v, at)

    def _hull(self, items):
        """The hull of one or more values of one type, each given with the
        env it is read under: one value is its own hull, ints join, and
        floats join through one `union`."""
        if len(items) == 1:
            return items[0][0]
        if isinstance(items[0][0], RInterval):
            return reduce(RInterval.join, [v for v, _ in items])
        return union(items, self.pool)

    def _restore(self, mem: Dict[str, object], env: SymbolEnv) -> None:
        """Put back a saved mem and env."""
        self.mem.restore(mem)
        self.env.clear()
        self.env.update(env)

    # -- constraint machinery ---------------------------------------------

    def _narrow_symbol(self, sym: int, nr: RInterval) -> None:
        """Narrow sym to nr and offer the rewrite to every variable whose
        forms contain sym; `apply_substitution` returns any other form
        unchanged, so the others are not visited."""
        affected: List[Tuple[str, AbstractFloat, RInterval, RInterval]] = []
        for name, v in self.mem.vars.items():
            if isinstance(v, AbstractFloat) \
                    and (sym in v.real.ns or sym in v.err.ns):
                affected.append((name, v, v.real.linear_part(self.env),
                                 v.err.linear_part(self.env)))
        sub = make_substitution(sym, nr, self.pool, self.env)
        if sub is None:
            return
        thr = self.cfg.threshold
        for name, v, lin_real, lin_err in affected:
            real = apply_substitution(v.real, sub, lin_real, self.env, thr)
            err = apply_substitution(v.err, sub, lin_err, self.env, thr)
            if real is not v.real or err is not v.err:
                self.mem.vars[name] = AbstractFloat(
                    v.float_iv, real, v.real_iv, err, v.err_iv)

    def _constrain_joint(self, constraints) -> None:
        """Narrow symbol ranges under several simultaneous form
        constraints: iterate the projections to a fixpoint on a scratch
        copy of the ranges, then adopt the narrowing of each symbol a
        projection moved, in symbol order.

        Projecting one linear constraint on a nonempty region is exact:
        each symbol keeps just the values at which the form can meet the
        region, the hull of the solutions, so projecting again changes
        nothing (Benhamou et al., ICLP 1999). Equal constraints, such as
        the float and the real one of a stable test on error-free
        operands, are projected as one, and a lone one in one round. Two
        or more, or a lone empty region (none built here is), take rounds
        projecting each of them until a round changes nothing."""
        live = []
        for c in constraints:
            if (c[1] is not None or c[2] is not None) and c not in live:
                live.append(c)
        scratch = dict(self.env)
        moved: Set[int] = set()
        lone = len(live) == 1 and (None in live[0][1:]
                                   or live[0][1] <= live[0][2])
        for _ in range(1 if lone else 8):
            changed = False
            for form, lo, hi in live:
                updates = project_onto_symbols(form, lo, hi, scratch)
                if updates:
                    changed = True
                    scratch.update(updates)
                    moved.update(updates)
            if not changed:
                break
        for sym in sorted(moved):
            self._narrow_symbol(sym, scratch[sym])

    def _refresh_all(self) -> None:
        for name, v in list(self.mem.vars.items()):
            if isinstance(v, AbstractFloat):
                self.mem.vars[name] = v.refresh(self.env)
            elif isinstance(v, list):
                self.mem.vars[name] = [
                    x.refresh(self.env) if isinstance(x, AbstractFloat) else x
                    for x in v]

    def _meet_operands(self, lhs: S.Expr, rhs: Optional[S.Expr], kind: type,
                       a: RInterval, b: RInterval, reg) -> None:
        """Under `lhs - rhs` in reg, meet each variable operand holding a
        `kind` value (an int itself, a float its float interval) with
        what the other operand allows: lhs with b + reg, rhs with
        a - reg. An int operand always bounds the other, a float one
        only when thin."""
        lo, hi = reg
        for e, own, other, flip in ((lhs, a, b, False), (rhs, b, a, True)):
            if kind is AbstractFloat and not other.is_point():
                continue
            region = _bound(own, other, _neg(hi), _neg(lo)) if flip \
                else _bound(own, other, lo, hi)
            v = self.mem.vars.get(e.name) if isinstance(e, S.Var) else None
            if not isinstance(v, kind):
                continue
            m = (v if kind is RInterval else v.float_iv).meet(region)
            if m is None:
                raise InfeasiblePath
            self.mem.vars[e.name] = m if kind is RInterval else \
                AbstractFloat(m, v.real, v.real_iv, v.err, v.err_iv)

    # -- the compiled form (module docstring) -----------------------------

    def _compile(self, node, build, cache=None) -> tuple:
        """Build node's closure and enter it, with node, in cache."""
        entry = (self._code if cache is None else cache)[id(node)] = (
            build(node), node)
        return entry

    def eval(self, e: S.Expr):
        return (self._code.get(id(e)) or self._compile(e, self._expr))[0](self)

    def decide(self, e: S.Expr, branch: bool = False) -> bool:
        """Truth of condition e on the current path (module docstring);
        `branch` marks the condition of an if, while or do statement,
        whose float tests may resume a saved state (see `_flow`)."""
        code = self._conds.get(id(e)) or self._compile(e, self._cond,
                                                       self._conds)
        return code[0](self, branch)

    def exec_stmt(self, s: S.Stmt) -> None:
        (self._code.get(id(s)) or self._compile(s, self._stmt))[0](self)

    def _expr(self, e: S.Expr, target: Optional[str] = None):
        """e's closure; `target`, the variable e is stored to, binds a
        read_double to its input."""
        if isinstance(e, (S.IntLit, S.FloatLit)):
            try:
                v = int_range(e.value, e.value) if isinstance(e, S.IntLit) \
                    else AbstractFloat.from_literal(e.value, self.fmt)
            except OverflowAlarm as exn:
                msg = f"{e.loc}: {exn}"

                def overflow(it):
                    raise OverflowAlarm(msg, e.loc)
                return overflow
            return lambda it: v
        if isinstance(e, S.Var):
            def load(it):
                v = it.mem.vars.get(e.name)
                return it.mem.load(e.name, e.loc) if v is None else v
            return load
        if isinstance(e, S.Binary) and e.op in _ARITH:
            return self._arith(e)
        if isinstance(e, S.Call):
            return self._call(e, target)
        sub = None
        if isinstance(e, (S.Unary, S.Binary)) and e.op != "-":
            def truth(it):  # of `!`, a comparison, `&&` or `||`
                nonlocal sub
                sub = sub or it._cond(e)
                return _INT_ONE if sub(it, False) else _INT_ZERO
            return truth
        if isinstance(e, S.Unary):  # '-'
            def negate(it):
                nonlocal sub
                sub = sub or it._expr(e.expr)
                v = it._number(sub(it), e.expr.loc)
                return abs_neg(v) if type(v) is AbstractFloat else -v
            return negate
        if isinstance(e, S.Cast):
            def cast(it):
                nonlocal sub
                sub = sub or it._expr(e.expr)
                return it._coerce(e.ctype, sub(it), e.loc, id(e), e.expr)
            return cast
        if isinstance(e, S.Index):
            def cell(it):
                arr, lo, hi = it.mem.cells(e.name, it._as_int(
                    it.eval(e.index), e.index.loc), e.loc, "index")
                return it._hull([(v, it.env) for v in arr[lo:hi + 1]])
            return cell
        if isinstance(e, S.Ternary):
            def pick(it):
                nonlocal sub
                sub = sub or (it._expr(e.then), it._expr(e.els))
                return sub[0](it) if it.decide(e.cond) else sub[1](it)
            return pick
        raise TypeErrorAt(f"unknown expression {e!r}")

    def _arith(self, e: S.Binary):
        """The closure of a chain such as a + b + c, left operand first:
        its left spine runs as a loop, each operator on two ints through
        `_int_arith`, on other operands through `abs_op`."""
        spine = []
        while isinstance(e, S.Binary) and e.op in _ARITH:
            spine.append(e)
            e = e.left
        left, spine, subs = e, spine[::-1], None

        def chain(it):
            nonlocal subs
            subs = subs or (it._expr(left),
                            [(x, x.right.loc, it._expr(x.right))
                             for x in spine])
            a = subs[0](it)
            for x, at, sub in subs[1]:
                b = sub(it)
                if type(a) is RInterval and type(b) is RInterval:
                    a = it._int_arith(x.op, a, b, x.loc)
                    continue
                if x.op == "%":
                    raise TypeErrorAt(f"{x.loc}: % requires integer operands")
                l, r = it._as_float(a, x.left.loc), it._as_float(b, at)
                try:
                    a = abs_op(x.op, l, r, it.fmt, it.pool, it.env,
                               it.cfg.max_syms)
                except DivisionByZero as exn:
                    raise DivisionByZero(f"{at}: {exn}", at) from None
                except OverflowAlarm as exn:
                    raise OverflowAlarm(f"{x.loc}: {exn}", x.loc) from None
            return a
        return chain

    def _int_arith(self, op: str, a: RInterval, b: RInterval,
                   loc: S.Loc) -> RInterval:
        if op == "+":
            return int_range(a.lo_n + b.lo_n, a.hi_n + b.hi_n)
        if op == "-":
            return int_range(a.lo_n - b.hi_n, a.hi_n - b.lo_n)
        if op == "*":
            return a * b
        if op == "/":
            return trunc_div(a, b, loc)
        if op == "%":
            if b.contains(0):
                raise AnalysisAlarm("division-by-zero",
                                    f"{loc}: modulo by zero", loc)
            if a.is_point() and b.is_point():
                r = a.lo_n - trunc_quotient(a.lo_n, b.lo_n) * b.lo_n
                return interval_over(r, r, 1)
            m = max(-b.lo_n, b.hi_n) - 1
            return interval_over(-m if a.lo_n < 0 else 0,
                                 m if a.hi_n > 0 else 0, 1)
        raise TypeErrorAt(f"unknown integer operator {op!r}")

    def _call(self, e: S.Call, target: Optional[str]):
        """A call's closure: a read_double reads the input bound to
        `target`, else its bounds'; a function runs on its arguments."""
        if e.name == "read_double":
            spec = self.cfg.inputs.get(target)

            def read(it):
                nonlocal spec
                spec = spec or it._input_spec(e)
                return AbstractFloat.from_input(spec.value, spec.err, it.fmt,
                                                it.pool, it.env)
            return read
        fn = self.program.functions[e.name]

        def call(it):
            if it._call_depth > 16:
                raise TypeErrorAt(f"{e.loc}: call depth exceeded (recursion"
                                  f" is not supported)")
            frame = {p.name: it.eval(a) if p.is_array
                     else it._coerce(p.ctype, it.eval(a), a.loc, id(a))
                     for p, a in zip(fn.params, e.args)}
            saved_vars, saved_fn = it.mem.vars, it._fn
            it.mem.vars, it._fn = frame, fn
            it._call_depth += 1
            try:
                it.exec_stmts(fn.body.stmts)
                result = it.mem.vars.get("__return__")
            finally:
                it._call_depth -= 1
                it.mem.vars, it._fn = saved_vars, saved_fn
            it._not_plain()
            return result
        return call

    def _input_spec(self, e: S.Call) -> InputSpec:
        if not e.args:
            raise TypeErrorAt(f"{e.loc}: read_double needs bounds or an"
                              f" input binding")
        ends = [_literal_value(a) for a in e.args]
        try:
            spec = InputSpec(RInterval(*ends[:2]),
                             RInterval(*ends[2:]) if ends[2:] else None)
        except ValueError as exn:
            raise TypeErrorAt(f"{e.loc}: read_double: {exn}") from None
        try:
            spec.check_finite(self.fmt)
        except OverflowAlarm as exn:
            raise OverflowAlarm(f"{e.loc}: {exn}", e.loc) from None
        return spec

    # -- decisions --------------------------------------------------------

    def _cond(self, e: S.Expr):
        """The closure deciding e (see `decide`) on the interpreter and
        `branch` it is given; an int test works on the bounds of t."""
        sub = None
        if isinstance(e, S.Unary) and e.op == "!":
            def negation(it, branch):
                nonlocal sub
                sub = sub or it._cond(e.expr)
                return not sub(it, branch)
            return negation
        if isinstance(e, S.Binary) and e.op in ("&&", "||"):
            def junction(it, branch):
                nonlocal sub
                sub = sub or (it._cond(e.left), it._cond(e.right))
                if e.op == "&&":
                    return sub[0](it, branch) and sub[1](it, branch)
                return sub[0](it, branch) or sub[1](it, branch)
            return junction
        op, lhs, rhs = (e.op, e.left, e.right) if isinstance(e, S.Binary) \
            and e.op in S.COMPARISONS else ("!=", e, None)
        neg = op == "!="
        ints = REGIONS[True]["==" if neg else op]
        t, f = REGIONS[False]["==" if neg else op]
        flows = [("sT", True, t, True, t), ("sF", False, f, False, f),
                 ("uT", True, t, False, f), ("uF", False, f, True, t)]

        def test(it, branch):
            nonlocal sub
            if it._skip:
                return neg != it._resume(it.ctx.explorer.entry())
            sub = sub or (it._expr(lhs), rhs and it._expr(rhs))
            a = sub[0](it)
            b = sub[1](it) if rhs else _INT_ZERO \
                if type(a) is RInterval else it._float_zero
            if type(a) is not RInterval or type(b) is not RInterval:
                return neg != it._flow(
                    e.loc, id(e), "test", flows, lhs, rhs,
                    it._as_float(a, lhs.loc),
                    it._as_float(b, (rhs or lhs).loc), branch)
            known = settled(a, b, ints[0])
            if known is not None:
                it._not_plain()
                return known != neg
            # t straddles the boundary of the true region: choose a side
            take_true = it.ctx.explorer.choose(2) == 0
            it.ctx.signature.append((id(e), "iT" if take_true else "iF"))
            if it.cfg.collect_trace:
                it._trace(f"decision {e.loc}: int {str(take_true).lower()}")
            it._meet_operands(lhs, rhs, RInterval, a, b,
                              ints[take_true == neg])
            return take_true
        return test

    def _flow(self, loc: S.Loc, site: int, noun: str, candidates,
              lhs: Optional[S.Expr], rhs: Optional[S.Expr],
              l: AbstractFloat, r: AbstractFloat, branch: bool = False):
        """Choose one flow of a float test or cast on t = l - r, apply it
        and return its control value.

        `candidates` are, in choice order, (tag, machine value, machine
        region of t, ideal value, ideal region of t). One is offered when
        the float and the real interval of t meet its two regions. When
        its two values differ it is unstable: the error of t must take a
        nonzero value of the sign that machine region - ideal region
        allows, and outside a user section it only raises an alarm.
        Inside one it is offered twice, its control value taken from the
        machine ("float") or the ideal ("real") run.

        The forms of t are built here once, kept in the snapshot for
        every flow `_take` applies. A test of a `branch` condition at the
        section's own call depth with several flows saves what it saw
        and, in `_take`, what its flow left; a later visit takes them up
        (module docstring).
        """
        ctx = self.ctx
        keep = branch and self._call_depth == ctx.depth
        entry = ctx.explorer.entry() if keep else None
        if entry is not None:
            return self._resume(entry)
        env = self.env
        t_fiv = l.float_iv - r.float_iv
        t_riv = l.real_refined(env) - r.real_refined(env)
        forms = _forms(l, r)
        t_eiv = forms[2].concretize(env)
        t_eiv = t_eiv.meet(l.err_refined(env) - r.err_refined(env)) or t_eiv
        fixed = ctx.interp
        flows = []
        gap = False
        for tag, f_val, f_reg, r_val, r_reg in candidates:
            stable = f_val == r_val
            e_reg = ANY if stable else _error_region(f_reg, r_reg, t_eiv)
            if e_reg is None or not (t_fiv.meets(*f_reg)
                                     and t_riv.meets(*r_reg)):
                continue
            if stable:
                flows.append((tag, None, f_val, f_reg, r_reg, e_reg))
            elif not ctx.is_user:
                gap = True
            else:
                for interp, value in (("float", f_val), ("real", r_val)):
                    if fixed is None or fixed == interp:
                        flows.append((tag, interp, value, f_reg, r_reg,
                                      e_reg))
        if gap:
            self._warn(f"{loc}: possibly unstable {noun} outside any"
                       f" split/merge section")
            self._alarm(AnalysisAlarm(
                "instrumentation-gap",
                f"{loc}: unstable {noun} not covered by a section", loc))
        if not flows:
            raise InfeasiblePath
        snap = (loc, site, noun, flows, lhs, rhs, l, r, forms)
        keep = keep and len(flows) > 1
        if keep:
            ctx.explorer.save((snap, fixed, self.mem.snapshot(),
                               dict(self.env)), ctx.explorer.plain)
        return self._take(snap, keep)

    def _take(self, snap, keep: bool):
        """Choose one of the flows of snap, a decision's candidates,
        operands and forms of t as `_flow` built them, apply it and return
        its control value; when keep, save what it left."""
        ctx = self.ctx
        loc, site, noun, flows, lhs, rhs, l, r, forms = snap
        tag, interp, value, f_reg, r_reg, e_reg = \
            flows[ctx.explorer.choose(len(flows))]
        ctx.signature.append((site, tag))
        if interp is not None and ctx.interp is None:
            ctx.interp = interp
        first_line = len(self.trace)
        if self.cfg.collect_trace:
            self._trace(f"decision {loc}: {'cast ' if noun == 'cast' else ''}"
                        f"{tag}" + (f"/{interp}" if interp else ""))
        self._apply(lhs, rhs, l, r, forms, f_reg, r_reg, e_reg)
        if keep:
            ctx.explorer.save_post(((site, tag), ctx.interp, value,
                                    self.trace[first_line:],
                                    self.mem.snapshot(), dict(self.env)))
        return value

    def _resume(self, entry):
        """Take up a saved decision: what its flow left, its signature
        item, interpretation, trace lines and control value, returned,
        the walk skipping on while the next decision saved an entry after
        a plain stretch, else mem and env restored here; or, with no such
        state, its snapshot restored and the selected flow taken."""
        ctx = self.ctx
        (snap, interp, mem, env), post, _ = entry
        if post is None:
            ctx.interp, self._skip = interp, False
            self._restore(mem, env)
            return self._take(snap, True)
        ctx.explorer.choose(len(snap[3]))
        item, ctx.interp, value, lines, mem, env = post
        ctx.signature.append(item)
        self.trace.extend(lines)
        self._skip = ctx.explorer.skips()
        if not self._skip:
            self._restore(mem, env)
        return value

    def _apply(self, lhs: Optional[S.Expr], rhs: Optional[S.Expr],
               l: AbstractFloat, r: AbstractFloat, forms, f_reg, r_reg,
               e_reg) -> None:
        """Constrain t = l - r to a flow: of its `_forms`, built once per
        decision, the float one to f_reg, the real one to r_reg and the
        error one to e_reg; then meet the operands and refresh once."""
        self._constrain_joint([(forms[0], *f_reg), (forms[1], *r_reg),
                               (forms[2], *e_reg)])
        self._meet_operands(lhs, rhs, AbstractFloat, l.float_iv, r.float_iv,
                            f_reg)
        self._refresh_all()

    # float-to-int cast ---------------------------------------------------

    def _cast_float_to_int(self, loc: S.Loc, site: int, v: AbstractFloat,
                           src: Optional[S.Expr] = None) -> RInterval:
        """(int) v as a decision among the truncations k of the machine
        value and kr in {k - 1, k, k + 1} of the ideal one."""
        fiv = v.float_iv
        klo = trunc_quotient(fiv.lo_n, fiv.den)
        khi = trunc_quotient(fiv.hi_n, fiv.den)
        if khi - klo + 1 > _CAST_FAN_LIMIT:
            self._warn(f"{loc}: cast range spans {khi - klo + 1} integers;"
                       f" not splitting")
            self._alarm(AnalysisAlarm(
                "analysis-incomplete",
                f"{loc}: cast not split over {khi - klo + 1} integers; the"
                f" ideal truncation may differ from the machine one", loc))
            return interval_over(klo, khi, 1)
        candidates = []
        for k in range(klo, khi + 1):
            pre = _trunc_preimage(k)
            candidates.append((f"c{k}", k, pre, k, pre))
            for kr in (k - 1, k + 1):
                candidates.append((f"c{k}r{kr}", k, pre, kr,
                                   _trunc_preimage(kr)))
        k = self._flow(loc, site, "cast", candidates, src, None, v,
                       self._float_zero)
        return interval_over(k, k, 1)

    # -- statements -------------------------------------------------------

    def exec_stmts(self, stmts: List[S.Stmt]) -> None:
        for s in stmts:
            self.exec_stmt(s)

    def _stmt(self, s: S.Stmt):
        """s's closure, which runs each statement of s through `exec_stmt`
        and, but for a return, stores nothing while the walk skips."""
        if isinstance(s, (S.Decl, S.Assign, S.Return)):
            return self._store(s)
        sub = None
        if isinstance(s, S.If):
            def branch(it):
                nonlocal sub
                sub = sub or it._cond(s.cond)
                taken = s.then if sub(it, True) else s.els
                for x in taken.stmts if taken is not None else ():
                    it.exec_stmt(x)
            return branch
        if isinstance(s, (S.While, S.DoWhile)):
            # a do-while runs its body once before the first test
            do = isinstance(s, S.DoWhile)

            def loop(it):
                nonlocal sub
                sub = sub or it._cond(s.cond)
                n = 0
                while n == 0 and do or sub(it, True):
                    for x in s.body.stmts:
                        it.exec_stmt(x)
                    n += 1
                    if n > _LOOP_LIMIT:
                        raise AnalysisAlarm("loop-limit",
                                            f"{s.loc}: loop iteration limit"
                                            f" exceeded", s.loc)
            return loop
        if isinstance(s, S.AssertStmt):
            def check(it):
                nonlocal sub
                sub = sub or type_pred(s.pred, it._fn.var_types)
                it._not_plain()
                res = eval_pred(sub, it.mem)
                it.records.extend(res.records)
                if res.verdict != "valid":
                    it._alarm(AnalysisAlarm(
                        "assertion", f"{s.loc}: assertion {res.verdict}",
                        s.loc))
            return check
        if isinstance(s, S.AssumeStmt):
            def assume(it):
                it._assume(s.cond)
                it._not_plain()
            return assume
        if isinstance(s, S.ExprStmt):
            return lambda it: it._skip or it.eval(s.expr)
        if isinstance(s, S.Block):
            def block(it):
                for x in s.stmts:
                    it.exec_stmt(x)
            return block
        if isinstance(s, S.SectionStmt):
            return lambda it: it.exec_section(s)
        raise TypeErrorAt(f"unknown statement {s!r}")

    def _store(self, s):
        """The closure of a declaration, an assignment or a return: its
        value, converted to the C type of its target, stored there."""
        index, sub = None, None
        if isinstance(s, S.Return):
            name, ctype, e = "__return__", self._fn.ret_type, s.expr
        elif isinstance(s, S.Assign):
            name, e, index = s.target.name, s.expr, getattr(s.target,
                                                            "index", None)
            ctype = self._fn.var_types[name][0]
        else:
            name, ctype, e = s.name, s.ctype, s.init
            if s.array_init is not None:
                sub = lambda it: [it._coerce(ctype, it.eval(x), s.loc, id(x))
                                  for x in s.array_init]
            elif s.array_size is not None:
                zero = _INT_ZERO if ctype == "int" else self._float_zero
                sub = lambda it: [zero] * s.array_size
        if e is None and sub is None:  # nothing to store
            return lambda it: None
        scalar, skips = sub is None, not isinstance(s, S.Return)

        def store(it):
            nonlocal sub
            if skips and it._skip:
                return
            sub = sub or it._expr(e, name)
            v = sub(it)
            if scalar:
                v = it._coerce(ctype, v, s.loc, id(s))
            if index is None:
                it.mem.vars[name] = v
                return
            arr, lo, hi = it.mem.cells(name, it._as_int(
                it.eval(index), index.loc), s.loc, "write index")
            if lo == hi:
                arr[lo] = v
                return
            it._warn(f"{s.loc}: weak update of {name}[{lo}..{hi}]")
            for i in range(lo, hi + 1):
                arr[i] = it._hull([(arr[i], it.env), (v, it.env)])
        return store

    def _assume(self, e: S.Expr) -> None:
        """Keep the paths where e holds: a comparison applies its stable
        true flow, any other condition is decided."""
        if isinstance(e, S.Binary) and e.op == "&&":
            self._assume(e.left)
            self._assume(e.right)
            return
        if not (isinstance(e, S.Binary) and e.op in S.COMPARISONS):
            if not self.decide(e):
                raise InfeasiblePath
            return
        a = self.eval(e.left)
        b = self.eval(e.right)
        neg = e.op == "!="
        integral = type(a) is RInterval and type(b) is RInterval
        true_reg, false_reg = REGIONS[integral]["==" if neg else e.op]
        reg = false_reg if neg else true_reg
        if integral:
            known = settled(a, b, true_reg)
            if known is None:
                self._meet_operands(e.left, e.right, RInterval, a, b, reg)
            elif known == neg:
                raise InfeasiblePath
            return
        l = self._as_float(a, e.left.loc)
        r = self._as_float(b, e.right.loc)
        self._apply(e.left, e.right, l, r, _forms(l, r), reg, reg, ANY)

    # -- sections ---------------------------------------------------------

    def exec_section(self, sec: S.SectionStmt) -> None:
        if self.stack:
            self._not_plain()
        report = SectionReport(sec.section_id)
        self.section_reports.append(report)
        checkpoint_mem = self.mem.snapshot()
        checkpoint_env = dict(self.env)
        ex = PathExplorer(self.cfg.path_budget)
        ctx = SectionCtx(sec.section_id, sec.section_id != 0, ex,
                         self._call_depth)
        self.stack.append(ctx)
        #: each finished path's end, by signature and interpretation
        finished: Dict[Tuple, Dict[Optional[str], PathEnd]] = {}
        self._trace(f"section {sec.section_id}: enter")
        try:
            while True:
                self._restore(checkpoint_mem, checkpoint_env)
                ctx.signature, ctx.interp = [], None
                self._skip = ex.skips()
                end = None
                try:
                    self.exec_stmts(sec.body)
                    finished.setdefault(tuple(ctx.signature), {})[
                        ctx.interp] = (self.mem.snapshot(), dict(self.env))
                    report.feasible_paths += 1
                    end = "feasible"
                except InfeasiblePath:
                    end = "infeasible"
                except SectionInfeasible as si:
                    self._trace(f"section {sec.section_id}: path abandoned,"
                                f" inner section {si.section_id} empty")
                except AnalysisAlarm as al:
                    self._alarm(al)
                    self._trace(f"section {sec.section_id}: path aborted"
                                f" with alarm {al.kind}")
                if end is not None and self.cfg.collect_trace:
                    sig = _sig_str(ctx.signature, ctx.interp)
                    self._trace(f"section {sec.section_id}: path {sig} {end}")
                if not ex.next_path():
                    break
            report.started_paths = ex.paths_started
            if ex.budget_hit:
                self._warn(f"section {sec.section_id}: path budget"
                           f" ({self.cfg.path_budget}) exhausted; remaining"
                           f" flows unexplored")
        finally:
            self.stack.pop()

        states, pairs = self._merge_unstable(finished)
        report.merged_pairs = pairs
        if not states:
            report.infeasible = True
            self._restore(checkpoint_mem, checkpoint_env)
            self._trace(f"section {sec.section_id}: no feasible path,"
                        f" propagating emptiness")
            raise SectionInfeasible(sec.section_id)
        merged = self._merge_states(states)
        self._restore(merged, checkpoint_env)
        self._trace(f"section {sec.section_id}: merged"
                    f" {len(states)} states")

    def _merge_unstable(self, finished):
        """The ends to merge and the number of pairs combined, from the
        path ends of `finished`, grouped by signature, then interpretation:
        a lone end is kept as it is, and the float and the real run of one
        signature combine into one end, dropped when they do not meet."""
        out: List[PathEnd] = []
        pairs = 0
        for sig, group in finished.items():
            if len(group) == 1:
                out.extend(group.values())
                continue
            combined = self._combine_pair(*group["float"], *group["real"])
            if combined is not None:
                out.append(combined)
                pairs += 1
                if self.cfg.collect_trace:
                    self._trace(f"merge_unstable: paired {_sig_str(sig)}")
        return out, pairs

    def _combine_pair(self, mem_f, env_f: SymbolEnv, mem_r,
                      env_r: SymbolEnv) -> Optional[PathEnd]:
        """The float fields of the machine run's end (mem_f, env_f) with
        the real fields of the ideal run's, under the meet of their envs;
        None when that is empty. Sharing symbols is sound: both runs start
        from their decision's one snapshot, so a symbol both hold, such
        as an input's, names one quantity in both, and one allocated
        later is in one env only. The meet is then the conjunction of
        both flows' constraints, which the machine and the ideal
        execution of one input satisfy together."""
        env_c: SymbolEnv = {}
        for sym in env_f.keys() | env_r.keys():
            m = sym_range(env_f, sym).meet(sym_range(env_r, sym))
            if m is None:
                return None
            env_c[sym] = m
        mem: Dict[str, object] = {}
        for name, vf in mem_f.items():
            if name in mem_r:
                try:
                    mem[name] = self._combine_value(vf, mem_r[name], env_c)
                except InfeasiblePath:
                    return None
        vf, vr = mem_f.get("__return__"), mem_r.get("__return__")
        if self._call_depth and isinstance(vf, RInterval) \
                and not (vf == vr and vf.is_point()):
            # an int has no ideal value: the caller would take the
            # machine result for exact
            self._alarm(AnalysisAlarm(
                "instrumentation-gap",
                f"{self._fn.name}: int result of an unstable test returned"
                f" to the caller"))
        return mem, env_c

    def _combine_value(self, vf, vr, env_c: SymbolEnv):
        if isinstance(vf, AbstractFloat) and isinstance(vr, AbstractFloat):
            if vf == vr:
                return vf
            real_iv = vr.real.concretize(env_c).meet(vr.real_iv)
            if real_iv is None:
                raise InfeasiblePath
            err_form = (vf.real + vf.err) - vr.real
            err_iv = err_form.concretize(env_c).meet(vf.float_iv - real_iv)
            if err_iv is None:
                raise InfeasiblePath
            return AbstractFloat(vf.float_iv, vr.real, real_iv, err_form,
                                 err_iv)
        if isinstance(vf, list) and isinstance(vr, list):
            return [self._combine_value(a, b, env_c) for a, b in zip(vf, vr)]
        return vf  # machine value for ints

    def _merge_states(self, states: List[PathEnd]) -> Dict[str, object]:
        """Every variable that all states hold, in the first state's
        order, joined over them."""
        first, _ = states[0]
        return {name: self._merge_values([(mem[name], env)
                                          for mem, env in states])
                for name in first
                if all(name in mem for mem, _ in states)}

    def _merge_values(self, vals):
        first = vals[0][0]
        if all(v == first for v, _ in vals[1:]):
            return first
        if isinstance(first, list):
            return [self._merge_values([(v[i], env) for v, env in vals])
                    for i in range(len(first))]
        if isinstance(first, (AbstractFloat, RInterval)):
            return self._hull(vals)
        return first

    # -- entry ------------------------------------------------------------

    def run(self, entry: str) -> None:
        fn = self.program.functions[entry]
        self._fn = fn
        for p in fn.params:
            if p.is_array:
                kind, inputs = "array ", self.cfg.array_inputs
            elif p.ctype == "int":
                kind, inputs = "int ", self.cfg.int_inputs
            else:
                kind, inputs = "", self.cfg.inputs
            if p.name not in inputs:
                raise TypeErrorAt(f"missing input binding for {kind}parameter"
                                  f" {p.name!r}")
            x = inputs[p.name]
            if not p.is_array:
                v = interval_over(x, x, 1) if p.ctype == "int" else \
                    AbstractFloat.from_input(x.value, x.err, self.fmt,
                                             self.pool, self.env)
            elif p.ctype != "int":
                v = [AbstractFloat.from_literal(c, self.fmt) for c in x]
            elif all(c.denominator == 1 for c in x):
                v = [interval_over(c, c, 1) for c in map(int, x)]
            else:
                raise TypeErrorAt(f"int array parameter {p.name!r} bound to"
                                  f" a non-integer cell")
            self.mem.store(p.name, v)
        root = S.SectionStmt(0, [], [], list(fn.body.stmts), fn.body.loc)
        try:
            self.exec_section(root)
        except SectionInfeasible:
            self._alarm(AnalysisAlarm(
                "no-feasible-path",
                f"no feasible execution path in {entry}"))


def _literal_value(e: S.Expr) -> RationalLike:
    if isinstance(e, (S.FloatLit, S.IntLit)):
        return e.value
    if isinstance(e, S.Unary) and e.op == "-":
        return -_literal_value(e.expr)
    raise TypeErrorAt(f"{e.loc}: read_double bounds must be literals")


def _kind(v) -> str:
    """What a value that is not the number an operand needs is."""
    if v is None:
        return "the result of a void function"
    return "an array" if isinstance(v, list) else "a floating-point value"


def _sig_str(sig, interp: Optional[str] = None) -> str:
    tags = "/".join(t for _, t in sig) or "straight"
    return tags + (f"[{interp}]" if interp else "")


def _trunc_preimage(k: int):
    """Closed over-approximation (lo, hi) of {x | (int) x == k}."""
    if k > 0:
        return k, k + 1
    if k < 0:
        return k - 1, k
    return -1, 1


def _forms(l: AbstractFloat, r: AbstractFloat) -> tuple:
    """The float (real + error), real and error forms of t = l - r."""
    return (l.real + l.err) - (r.real + r.err), l.real - r.real, l.err - r.err


def _error_region(f_reg, r_reg, e_iv: RInterval):
    """The sign region of the error t_float - t_real of an unstable flow
    with t_float in f_reg and t_real in r_reg: at most 0 when f_reg lies
    at or below r_reg, at least 0 when at or above it, either sign
    otherwise. None when e_iv has no nonzero value in it."""
    negative = not e_iv.within(0, None)
    positive = not e_iv.within(None, 0)
    if f_reg[1] is not None and r_reg[0] is not None \
            and f_reg[1] <= r_reg[0]:
        return (None, 0) if negative else None
    if f_reg[0] is not None and r_reg[1] is not None \
            and f_reg[0] >= r_reg[1]:
        return (0, None) if positive else None
    return ANY if negative or positive else None


def _neg(x: Optional[int]) -> Optional[int]:
    return None if x is None else -x


def _bound(own: RInterval, base: RInterval, lo, hi) -> RInterval:
    """base + [lo, hi] for int region bounds, an unbounded end taken one
    past the end of own, the interval of the operand this bounds; each
    end an int over the denominator of the interval it comes from."""
    d, e = base.den, own.den
    lo_n, lo_d = (base.lo_n + lo * d, d) if lo is not None \
        else (own.lo_n - e, e)
    hi_n, hi_d = (base.hi_n + hi * d, d) if hi is not None \
        else (own.hi_n + e, e)
    if lo_n * hi_d > hi_n * lo_d:
        raise InfeasiblePath
    return pair_over(lo_n, lo_d, hi_n, hi_d)
