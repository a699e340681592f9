"""Abstract interpreter with split/merge path exploration.

The whole entry function runs as an implicit root section. Inside a
section, every undecided test becomes a decision point enumerated by the
section's path explorer:

  * stable flows: machine and ideal executions take the same branch;
  * unstable flows (user sections only): the machine float value and the
    ideal real value fall on opposite sides of the test. Each unstable
    flow is explored twice, once following the machine control flow
    ("float" interpretation) and once following the ideal one ("real"
    interpretation); merge_unstable pairs the two runs back into a
    single state whose float fields come from the machine run and whose
    real fields come from the ideal run.

After all paths of a section are explored the per-path states are
folded with the interval-hull union. A section whose every path is
infeasible propagates emptiness to the enclosing section.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from ..annot.evaluate import AssertRecord, Memory, eval_pred
from ..annot.typecheck import TypedPred, type_pred
from ..config import AnalysisConfig, InputSpec
from ..domain import (AbstractFloat, abs_neg, abs_op,
                      apply_substitution, make_substitution,
                      project_onto_symbols, union)
from ..errors import (AnalysisAlarm, InfeasiblePath, SectionInfeasible,
                      TypeErrorAt)
from ..frontend import syntax as S
from ..numerics import RInterval, rat
from ..zonotope import AffineForm, Origin, SymbolEnv, SymbolPool, sym_range
from .explorer import PathExplorer

ZERO = Fraction(0)
_CAST_FAN_LIMIT = 64
_LOOP_LIMIT = 1_000_000


class _Return(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class PathState:
    signature: Tuple
    interp: Optional[str]  # None | 'float' | 'real'
    mem: Dict[str, object]
    env: SymbolEnv


@dataclass
class SectionCtx:
    section_id: int
    is_user: bool
    explorer: PathExplorer
    signature: List = field(default_factory=list)
    interp: Optional[str] = None

    def reset(self) -> None:
        self.signature = []
        self.interp = None


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
        self._alarm_keys: Set[Tuple[str, str]] = set()
        self.warnings: List[str] = []
        self.trace: List[str] = []
        self.section_reports: List[SectionReport] = []
        self._typed: Dict[int, TypedPred] = {}
        self._fn: Optional[S.FuncDef] = None
        self._call_depth = 0

    # -- helpers ----------------------------------------------------------

    def _trace(self, msg: str) -> None:
        if self.cfg.collect_trace:
            self.trace.append(msg)

    def _warn(self, msg: str) -> None:
        if msg not in self.warnings:
            self.warnings.append(msg)

    def _alarm(self, alarm: AnalysisAlarm) -> None:
        key = (alarm.kind, str(alarm))
        if key not in self._alarm_keys:
            self._alarm_keys.add(key)
            self.alarms.append(alarm)

    @property
    def ctx(self) -> SectionCtx:
        return self.stack[-1]

    def _promote_int(self, iv: RInterval) -> AbstractFloat:
        """Exact int-to-float promotion (widened if not representable)."""
        real = AffineForm.from_interval(iv, self.pool, Origin.INPUT)
        return AbstractFloat(iv, real, iv, AffineForm.constant(0),
                             RInterval.point(0))

    def _as_float(self, v) -> AbstractFloat:
        if isinstance(v, AbstractFloat):
            return v
        if isinstance(v, RInterval):
            return self._promote_int(v)
        raise TypeErrorAt(f"not a numeric value: {v!r}")

    def _as_int(self, v) -> RInterval:
        if isinstance(v, RInterval):
            return v
        raise TypeErrorAt(f"expected an integer value, got {v!r}")

    # -- constraint machinery ---------------------------------------------

    def _narrow_symbol(self, sym: int, nr: RInterval) -> None:
        """Narrow sym to nr and offer the rewrite to every variable whose
        forms contain sym; `apply_substitution` returns any other form
        unchanged, so the others are not visited."""
        affected: List[Tuple[str, AbstractFloat, Fraction, Fraction]] = []
        for name, v in self.mem.vars.items():
            if isinstance(v, AbstractFloat) \
                    and (sym in v.real.terms or sym in v.err.terms):
                affected.append((name, v, v.real.width(self.env),
                                 v.err.width(self.env)))
        sub = make_substitution(sym, nr, self.pool, self.env)
        if sub is None:
            return
        thr = self.cfg.threshold
        for name, v, w_real, w_err in affected:
            real = apply_substitution(v.real, sub, w_real, self.env, thr)
            err = apply_substitution(v.err, sub, w_err, self.env, thr)
            if real is not v.real or err is not v.err:
                self.mem.vars[name] = AbstractFloat(
                    v.float_iv, real, v.real_iv, err, v.err_iv)

    def _constrain_joint(self, constraints) -> None:
        """Narrow symbol ranges under several simultaneous form
        constraints: iterate the projections to a fixpoint on a scratch
        copy of the ranges, then adopt every narrowing at once."""
        scratch = dict(self.env)
        for _ in range(8):
            changed = False
            for form, lo, hi in constraints:
                if lo is None and hi is None:
                    continue
                updates = project_onto_symbols(form, lo, hi, scratch)
                if updates:
                    changed = True
                    scratch.update(updates)
            if not changed:
                break
        for sym in sorted(scratch):
            nr = scratch[sym]
            cur = sym_range(self.env, sym)
            if nr is not cur and nr != cur:
                self._narrow_symbol(sym, nr)

    def _refresh_all(self) -> None:
        for name, v in list(self.mem.vars.items()):
            if isinstance(v, AbstractFloat):
                self.mem.vars[name] = v.refresh(self.env)
            elif isinstance(v, list):
                self.mem.vars[name] = [
                    x.refresh(self.env) if isinstance(x, AbstractFloat) else x
                    for x in v]

    def _meet_var_float(self, e: S.Expr, region: RInterval) -> None:
        """Directly narrow a variable's float interval (lvalue operand
        compared against a thin bound)."""
        if not isinstance(e, S.Var):
            return
        v = self.mem.vars.get(e.name)
        if not isinstance(v, AbstractFloat):
            return
        m = v.float_iv.meet(region)
        if m is None:
            raise InfeasiblePath
        self.mem.vars[e.name] = v.with_float_iv(m).refresh(self.env)

    def _meet_var_int(self, e: S.Expr, region: RInterval) -> None:
        if not isinstance(e, S.Var):
            return
        v = self.mem.vars.get(e.name)
        if not isinstance(v, RInterval):
            return
        m = v.meet(region)
        if m is None:
            raise InfeasiblePath
        self.mem.vars[e.name] = m

    # -- expression evaluation --------------------------------------------

    def eval(self, e: S.Expr, target: Optional[str] = None):
        if isinstance(e, S.IntLit):
            return RInterval.point(Fraction(e.value))
        if isinstance(e, S.FloatLit):
            return AbstractFloat.from_literal(e.value, self.fmt)
        if isinstance(e, S.Var):
            return self.mem.load(e.name)
        if isinstance(e, S.Index):
            return self._load_index(e)
        if isinstance(e, S.Unary):
            if e.op == "-":
                v = self.eval(e.expr)
                return abs_neg(v) if isinstance(v, AbstractFloat) else -v
            # logical not
            b = self.decide(e.expr)
            return RInterval.point(Fraction(0 if b else 1))
        if isinstance(e, S.Binary):
            if e.op in S.COMPARISONS or e.op in ("&&", "||"):
                b = self.decide(e)
                return RInterval.point(Fraction(1 if b else 0))
            return self._eval_arith(e)
        if isinstance(e, S.Ternary):
            return self.eval(e.then) if self.decide(e.cond) else self.eval(e.els)
        if isinstance(e, S.Cast):
            return self._eval_cast(e)
        if isinstance(e, S.Call):
            return self._eval_call(e, target)
        raise TypeErrorAt(f"unknown expression {e!r}")

    def _load_index(self, e: S.Index):
        arr = self.mem.load(e.name)
        iv = self._as_int(self.eval(e.index))
        lo = int(iv.lo)
        hi = int(iv.hi)
        if lo < 0 or hi >= len(arr):
            raise AnalysisAlarm("out-of-bounds",
                                f"{e.loc}: index of {e.name} in [{lo}, {hi}]"
                                f" outside [0, {len(arr) - 1}]", e.loc)
        if lo == hi:
            return arr[lo]
        vals = arr[lo:hi + 1]
        if all(isinstance(x, AbstractFloat) for x in vals):
            out = vals[0]
            for x in vals[1:]:
                out = union(out, x, self.pool, self.env)
            return out
        out = vals[0]
        for x in vals[1:]:
            out = out.join(x)
        return out

    def _eval_arith(self, e: S.Binary):
        a = self.eval(e.left)
        b = self.eval(e.right)
        if isinstance(a, RInterval) and isinstance(b, RInterval):
            return self._int_arith(e.op, a, b, e.loc)
        if e.op == "%":
            raise TypeErrorAt(f"{e.loc}: % requires integer operands")
        return abs_op(e.op, self._as_float(a), self._as_float(b), self.fmt,
                      self.pool, self.env, self.cfg.max_syms)

    def _int_arith(self, op: str, a: RInterval, b: RInterval,
                   loc: S.Loc) -> RInterval:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b.contains(ZERO):
                raise AnalysisAlarm("division-by-zero",
                                    f"{loc}: integer division by zero", loc)
            return _trunc_div(a, b)
        if op == "%":
            if b.contains(ZERO):
                raise AnalysisAlarm("division-by-zero",
                                    f"{loc}: modulo by zero", loc)
            if a.is_point() and b.is_point():
                q = _c_trunc(a.lo / b.lo)
                return RInterval.point(a.lo - q * b.lo)
            m = b.max_abs() - 1
            lo = -m if a.lo < 0 else ZERO
            hi = m if a.hi > 0 else ZERO
            return RInterval(lo, hi)
        raise TypeErrorAt(f"unknown integer operator {op!r}")

    def _eval_cast(self, e: S.Cast):
        v = self.eval(e.expr)
        if e.ctype in ("float", "double"):
            if isinstance(v, RInterval):
                return self._promote_int(v)
            return v
        # float-to-int (or int-to-int, a no-op here)
        if isinstance(v, RInterval):
            return v
        return self._cast_float_to_int(e.loc, id(e), v, e.expr)

    def _eval_call(self, e: S.Call, target: Optional[str]):
        if e.name == "read_double":
            return self._read_input(e, target)
        fn = self.program.functions.get(e.name)
        if fn is None:
            raise TypeErrorAt(f"{e.loc}: unknown function {e.name!r}")
        if self._call_depth > 16:
            raise TypeErrorAt(f"{e.loc}: call depth exceeded (recursion is"
                              f" not supported)")
        args = [self.eval(a) for a in e.args]
        saved_vars = self.mem.vars
        saved_fn = self._fn
        self.mem.vars = {}
        for p, v in zip(fn.params, args):
            self.mem.vars[p.name] = v
        self._call_depth += 1
        self._fn = fn
        try:
            self.exec_stmts(fn.body.stmts)
            result = None
        except _Return as r:
            result = r.value
        finally:
            self._call_depth -= 1
            self._fn = saved_fn
            self.mem.vars = saved_vars
        return result

    def _read_input(self, e: S.Call, target: Optional[str]) -> AbstractFloat:
        spec: Optional[InputSpec] = None
        if target is not None and target in self.cfg.inputs:
            spec = self.cfg.inputs[target]
        elif len(e.args) >= 2:
            lo = _literal_value(e.args[0])
            hi = _literal_value(e.args[1])
            err = None
            if len(e.args) == 4:
                err = RInterval(_literal_value(e.args[2]),
                                _literal_value(e.args[3]))
            spec = InputSpec(RInterval(lo, hi), err)
        if spec is None:
            raise TypeErrorAt(f"{e.loc}: read_double needs bounds or an"
                              f" input binding")
        return AbstractFloat.from_input(spec.value, spec.err, self.fmt,
                                        self.pool, self.env)

    # -- decisions --------------------------------------------------------

    def decide(self, e: S.Expr) -> bool:
        """Truth of a condition on the current path, splitting as needed."""
        if isinstance(e, S.Unary) and e.op == "!":
            return not self.decide(e.expr)
        if isinstance(e, S.Binary) and e.op == "&&":
            return self.decide(e.left) and self.decide(e.right)
        if isinstance(e, S.Binary) and e.op == "||":
            return self.decide(e.left) or self.decide(e.right)
        if isinstance(e, S.Binary) and e.op in S.COMPARISONS:
            a = self.eval(e.left)
            b = self.eval(e.right)
            if isinstance(a, RInterval) and isinstance(b, RInterval):
                return self._decide_int(e, a, b)
            return self._decide_float(e, self._as_float(a), self._as_float(b))
        # scalar truthiness: e != 0
        v = self.eval(e)
        if isinstance(v, AbstractFloat):
            cmp = S.Binary("!=", e, S.FloatLit("0.0", ZERO, e.loc), e.loc)
            return self._decide_float(cmp, v, AbstractFloat.exact(0, self.fmt),
                                      site=id(e))
        if not v.contains(ZERO):
            return True
        if v.is_point():
            return False
        cmp = S.Binary("!=", e, S.IntLit(0, e.loc), e.loc)
        return self._decide_int(cmp, v, RInterval.point(ZERO), site=id(e))

    # integer comparison --------------------------------------------------

    def _decide_int(self, e: S.Binary, a: RInterval, b: RInterval,
                    site: Optional[int] = None) -> bool:
        op = e.op
        t = _int_cmp(op, a, b)
        if t is not None:
            return t
        ex = self.ctx.explorer
        choice = ex.choose(2)  # 0: true, 1: false
        take_true = choice == 0
        self.ctx.signature.append((site or id(e), "iT" if take_true else "iF"))
        self._trace(f"decision {e.loc}: int {'true' if take_true else 'false'}")
        ra, rb = _int_regions(op if take_true else _neg_op(op), a, b)
        if ra is not None:
            self._meet_var_int(e.left, ra)
        if rb is not None:
            self._meet_var_int(e.right, rb)
        return take_true

    # float comparison ----------------------------------------------------

    def _decide_float(self, e: S.Binary, l: AbstractFloat,
                      r: AbstractFloat, site: Optional[int] = None) -> bool:
        op = e.op
        site = site or id(e)
        if op == "!=":
            return not self._decide_float(
                S.Binary("==", e.left, e.right, e.loc), l, r, site=site)

        t_fiv = l.float_iv - r.float_iv
        t_riv = l.real_refined(self.env) - r.real_refined(self.env)
        err_form = l.err - r.err
        t_eiv = err_form.concretize(self.env)
        m = t_eiv.meet(l.err_refined(self.env) - r.err_refined(self.env))
        if m is not None:
            t_eiv = m

        region_T, region_F = _float_regions(op)

        def overlaps(iv: RInterval, reg) -> bool:
            lo, hi = reg
            if lo is not None and iv.hi < lo:
                return False
            if hi is not None and iv.lo > hi:
                return False
            return True

        flows: List[Tuple[str, Optional[str]]] = []
        if overlaps(t_fiv, region_T) and overlaps(t_riv, region_T):
            flows.append(("sT", None))
        if overlaps(t_fiv, region_F) and overlaps(t_riv, region_F):
            flows.append(("sF", None))

        in_user = self.ctx.is_user
        fixed = self.ctx.interp
        unstable_possible = []
        # uT: machine true, ideal false; uF the reverse. The error
        # t_float - t_real must be able to take the sign that separates
        # the two sides.
        if op == "==":
            # true region is a point: the complement is not an interval,
            # so the real side of unstable flows is left unconstrained
            err_T = err_F = not t_eiv.is_point()
        elif op in ("<", "<="):
            err_T, err_F = t_eiv.lo < 0, t_eiv.hi > 0
        else:  # > or >=
            err_T, err_F = t_eiv.hi > 0, t_eiv.lo < 0
        uT_ok = err_T and overlaps(t_fiv, region_T) \
            and overlaps(t_riv, region_F)
        uF_ok = err_F and overlaps(t_fiv, region_F) \
            and overlaps(t_riv, region_T)
        if uT_ok:
            unstable_possible.append("uT")
        if uF_ok:
            unstable_possible.append("uF")

        if in_user:
            for kind in unstable_possible:
                for interp in ("float", "real"):
                    if fixed is None or fixed == interp:
                        flows.append((kind, interp))
        elif unstable_possible:
            self._warn(f"{e.loc}: possibly unstable test outside any"
                       f" split/merge section")
            self._alarm(AnalysisAlarm(
                "instrumentation-gap",
                f"{e.loc}: unstable test not covered by a section", e.loc))

        if not flows:
            raise InfeasiblePath
        kind, interp = flows[self.ctx.explorer.choose(len(flows))]
        self.ctx.signature.append((site, kind))
        if interp is not None and self.ctx.interp is None:
            self.ctx.interp = interp
        self._trace(f"decision {e.loc}: {kind}"
                    + (f"/{interp}" if interp else ""))

        form_f = (l.real + l.err) - (r.real + r.err)
        form_r = l.real - r.real
        e_reg = (None, None)
        if kind == "sT":
            f_reg, r_reg = region_T, region_T
        elif kind == "sF":
            f_reg, r_reg = region_F, region_F
        elif kind == "uT":
            f_reg, r_reg = region_T, region_F if op != "==" else (None, None)
            if op != "==":
                e_reg = (None, ZERO) if op in ("<", "<=") else (ZERO, None)
        else:  # uF
            f_reg, r_reg = region_F, region_T
            if op != "==":
                e_reg = (ZERO, None) if op in ("<", "<=") else (None, ZERO)
        self._constrain_joint([(form_f, *f_reg), (form_r, *r_reg),
                               (err_form, *e_reg)])
        self._direct_meets(e, l, r, f_reg)
        self._refresh_all()

        cf = kind in ("sT", "uT")
        if interp == "real":
            return not cf if kind in ("uT", "uF") else cf
        return cf

    def _direct_meets(self, e: S.Binary, l: AbstractFloat, r: AbstractFloat,
                      f_reg) -> None:
        lo, hi = f_reg
        if r.float_iv.is_point():
            c = r.float_iv.lo
            nlo = c + lo if lo is not None else l.float_iv.lo - 1
            nhi = c + hi if hi is not None else l.float_iv.hi + 1
            if nlo > nhi:
                raise InfeasiblePath
            self._meet_var_float(e.left, RInterval(nlo, nhi))
        if l.float_iv.is_point():
            c = l.float_iv.lo
            nlo = c - hi if hi is not None else r.float_iv.lo - 1
            nhi = c - lo if lo is not None else r.float_iv.hi + 1
            if nlo > nhi:
                raise InfeasiblePath
            self._meet_var_float(e.right, RInterval(nlo, nhi))

    # float-to-int cast ---------------------------------------------------

    def _cast_float_to_int(self, loc: S.Loc, site: int, v: AbstractFloat,
                           src: Optional[S.Expr] = None) -> RInterval:
        klo = _c_trunc(v.float_iv.lo)
        khi = _c_trunc(v.float_iv.hi)
        if khi - klo + 1 > _CAST_FAN_LIMIT:
            self._warn(f"{loc}: cast range spans {khi - klo + 1} integers;"
                       f" not splitting")
            return RInterval(Fraction(klo), Fraction(khi))
        riv = v.real_refined(self.env)
        eiv = v.err_refined(self.env)
        in_user = self.ctx.is_user
        fixed = self.ctx.interp

        flows: List[Tuple[int, int, Optional[str]]] = []
        for k in range(klo, khi + 1):
            pre = _trunc_preimage(k)
            if v.float_iv.meet(pre) is None:
                continue
            if riv.meet(pre) is not None:
                flows.append((k, k, None))
            unstable = []
            for kr in (k - 1, k + 1):
                pr = _trunc_preimage(kr)
                if riv.meet(pr) is None:
                    continue
                # machine truncates high while ideal is lower => err > 0
                need_pos = kr < k
                if need_pos and eiv.hi <= 0:
                    continue
                if not need_pos and eiv.lo >= 0:
                    continue
                unstable.append(kr)
            if in_user:
                for kr in unstable:
                    for interp in ("float", "real"):
                        if fixed is None or fixed == interp:
                            flows.append((k, kr, interp))
            elif unstable:
                self._warn(f"{loc}: possibly unstable cast outside any"
                           f" split/merge section")
                self._alarm(AnalysisAlarm(
                    "instrumentation-gap",
                    f"{loc}: unstable cast not covered by a section",
                    loc))
        if not flows:
            raise InfeasiblePath
        k, kr, interp = flows[self.ctx.explorer.choose(len(flows))]
        tag = f"c{k}" if k == kr else f"c{k}r{kr}"
        self.ctx.signature.append((site, tag))
        if interp is not None and self.ctx.interp is None:
            self.ctx.interp = interp
        self._trace(f"decision {loc}: cast {tag}"
                    + (f"/{interp}" if interp else ""))

        pre_f = _trunc_preimage(k)
        pre_r = _trunc_preimage(kr)
        e_reg = (None, None)
        if kr < k:
            e_reg = (ZERO, None)
        elif kr > k:
            e_reg = (None, ZERO)
        self._constrain_joint([(v.real + v.err, pre_f.lo, pre_f.hi),
                               (v.real, pre_r.lo, pre_r.hi),
                               (v.err, *e_reg)])
        if isinstance(src, S.Var):
            self._meet_var_float(src, pre_f)
        self._refresh_all()
        control = kr if interp == "real" else k
        return RInterval.point(Fraction(control))

    # -- statements -------------------------------------------------------

    def exec_stmts(self, stmts: List[S.Stmt]) -> None:
        for s in stmts:
            self.exec_stmt(s)

    def exec_stmt(self, s: S.Stmt) -> None:
        if isinstance(s, S.Decl):
            self._exec_decl(s)
        elif isinstance(s, S.Assign):
            self._exec_assign(s)
        elif isinstance(s, S.If):
            if self.decide(s.cond):
                self.exec_stmts(s.then.stmts)
            elif s.els is not None:
                self.exec_stmts(s.els.stmts)
        elif isinstance(s, S.While):
            n = 0
            while self.decide(s.cond):
                self.exec_stmts(s.body.stmts)
                n += 1
                if n > _LOOP_LIMIT:
                    raise AnalysisAlarm("loop-limit",
                                        f"{s.loc}: loop iteration limit"
                                        f" exceeded", s.loc)
        elif isinstance(s, S.DoWhile):
            n = 0
            while True:
                self.exec_stmts(s.body.stmts)
                n += 1
                if n > _LOOP_LIMIT:
                    raise AnalysisAlarm("loop-limit",
                                        f"{s.loc}: loop iteration limit"
                                        f" exceeded", s.loc)
                if not self.decide(s.cond):
                    break
        elif isinstance(s, S.Return):
            raise _Return(self.eval(s.expr) if s.expr is not None else None)
        elif isinstance(s, S.ExprStmt):
            self.eval(s.expr)
        elif isinstance(s, S.AssertStmt):
            self._exec_assert(s)
        elif isinstance(s, S.AssumeStmt):
            self._exec_assume(s)
        elif isinstance(s, S.Block):
            self.exec_stmts(s.stmts)
        elif isinstance(s, S.SectionStmt):
            self.exec_section(s)
        else:
            raise TypeErrorAt(f"unknown statement {s!r}")

    def _coerce_store(self, ctype: str, value, loc: S.Loc, site: int):
        if ctype == "int":
            if isinstance(value, AbstractFloat):
                return self._cast_float_to_int(loc, site, value)
            return self._as_int(value)
        return self._as_float(value)

    def _exec_decl(self, s: S.Decl) -> None:
        if s.array_size is not None:
            vals = []
            if s.array_init is not None:
                for e in s.array_init:
                    vals.append(self._coerce_store(s.ctype, self.eval(e),
                                                   s.loc, id(e)))
            else:
                for _ in range(s.array_size):
                    vals.append(RInterval.point(ZERO) if s.ctype == "int"
                                else AbstractFloat.exact(0, self.fmt))
            self.mem.store(s.name, vals)
            return
        if s.init is None:
            return
        v = self.eval(s.init, target=s.name)
        self.mem.store(s.name, self._coerce_store(s.ctype, v, s.loc, id(s)))

    def _exec_assign(self, s: S.Assign) -> None:
        name = s.target.name
        ctype = (self._fn.var_types.get(name, ("double", False))[0]
                 if self._fn else "double")
        v = self.eval(s.expr, target=name)
        v = self._coerce_store(ctype, v, s.loc, id(s))
        if isinstance(s.target, S.Var):
            self.mem.store(name, v)
            return
        arr = self.mem.load(name)
        iv = self._as_int(self.eval(s.target.index))
        lo, hi = int(iv.lo), int(iv.hi)
        if lo < 0 or hi >= len(arr):
            raise AnalysisAlarm("out-of-bounds",
                                f"{s.loc}: write index of {name} in"
                                f" [{lo}, {hi}] out of bounds", s.loc)
        if lo == hi:
            arr[lo] = v
        else:
            self._warn(f"{s.loc}: weak update of {name}[{lo}..{hi}]")
            for i in range(lo, hi + 1):
                old = arr[i]
                if isinstance(old, AbstractFloat) \
                        and isinstance(v, AbstractFloat):
                    arr[i] = union(old, v, self.pool, self.env)
                elif isinstance(old, RInterval) and isinstance(v, RInterval):
                    arr[i] = old.join(v)
                else:
                    arr[i] = v

    def _exec_assert(self, s: S.AssertStmt) -> None:
        key = id(s)
        if key not in self._typed:
            vt = self._fn.var_types if self._fn else {}
            self._typed[key] = type_pred(s.pred, vt)
        res = eval_pred(self._typed[key], self.mem)
        for rec in res.records:
            rec.loc = s.loc if rec.loc is S.NOLOC else rec.loc
            self.records.append(rec)
        if res.verdict != "valid":
            self._alarm(AnalysisAlarm(
                "assertion",
                f"{s.loc}: assertion {res.verdict}", s.loc))

    def _exec_assume(self, s: S.AssumeStmt) -> None:
        e = s.cond
        if isinstance(e, S.Binary) and e.op == "&&":
            self._exec_assume(S.AssumeStmt(e.left, s.loc))
            self._exec_assume(S.AssumeStmt(e.right, s.loc))
            return
        if isinstance(e, S.Binary) and e.op in S.COMPARISONS:
            a = self.eval(e.left)
            b = self.eval(e.right)
            if isinstance(a, RInterval) and isinstance(b, RInterval):
                t = _int_cmp(e.op, a, b)
                if t is False:
                    raise InfeasiblePath
                if t is None:
                    ra, rb = _int_regions(e.op, a, b)
                    if ra is not None:
                        self._meet_var_int(e.left, ra)
                    if rb is not None:
                        self._meet_var_int(e.right, rb)
                return
            l, r = self._as_float(a), self._as_float(b)
            region_T, _ = _float_regions(e.op if e.op != "!=" else "==")
            if e.op == "!=":
                return  # complement of a point constrains nothing
            self._constrain_joint([
                ((l.real + l.err) - (r.real + r.err), *region_T),
                (l.real - r.real, *region_T)])
            self._direct_meets(e, l, r, region_T)
            self._refresh_all()
            return
        if not self.decide(e):
            raise InfeasiblePath

    # -- sections ---------------------------------------------------------

    def exec_section(self, sec: S.SectionStmt) -> None:
        report = SectionReport(sec.section_id)
        self.section_reports.append(report)
        checkpoint_mem = self.mem.snapshot()
        checkpoint_env = dict(self.env)
        ex = PathExplorer(self.cfg.path_budget)
        ctx = SectionCtx(sec.section_id, sec.section_id != 0, ex)
        self.stack.append(ctx)
        finished: List[PathState] = []
        self._trace(f"section {sec.section_id}: enter")
        try:
            while True:
                self.mem.restore(checkpoint_mem)
                self.env.clear()
                self.env.update(checkpoint_env)
                ctx.reset()
                try:
                    try:
                        self.exec_stmts(sec.body)
                    except _Return as r:
                        self.mem.store("__return__", r.value)
                    finished.append(PathState(tuple(ctx.signature), ctx.interp,
                                              self.mem.snapshot(),
                                              dict(self.env)))
                    report.feasible_paths += 1
                    self._trace(f"section {sec.section_id}: path"
                                f" {_sig_str(ctx.signature, ctx.interp)}"
                                f" feasible")
                except InfeasiblePath:
                    self._trace(f"section {sec.section_id}: path"
                                f" {_sig_str(ctx.signature, ctx.interp)}"
                                f" infeasible")
                except SectionInfeasible as si:
                    self._trace(f"section {sec.section_id}: path abandoned,"
                                f" inner section {si.section_id} empty")
                except AnalysisAlarm as al:
                    self._alarm(al)
                    self._trace(f"section {sec.section_id}: path aborted"
                                f" with alarm {al.kind}")
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
            self.mem.restore(checkpoint_mem)
            self.env.clear()
            self.env.update(checkpoint_env)
            self._trace(f"section {sec.section_id}: no feasible path,"
                        f" propagating emptiness")
            raise SectionInfeasible(sec.section_id)
        merged = self._merge_states(states)
        self.mem.vars = merged
        self.env.clear()
        self.env.update(checkpoint_env)
        self._trace(f"section {sec.section_id}: merged"
                    f" {len(states)} states")
        if "__return__" in merged and all("__return__" in st.mem
                                          for st in states):
            raise _Return(merged["__return__"])

    def _merge_unstable(self, finished: List[PathState]):
        by_sig: Dict[Tuple, Dict[Optional[str], PathState]] = {}
        for st in finished:
            by_sig.setdefault(st.signature, {})[st.interp] = st
        out: List[PathState] = []
        pairs = 0
        for sig, group in by_sig.items():
            if None in group:
                out.append(group[None])
                continue
            sf = group.get("float")
            sr = group.get("real")
            if sf is not None and sr is not None:
                combined = self._combine_pair(sf, sr)
                if combined is not None:
                    out.append(combined)
                    pairs += 1
                    self._trace(f"merge_unstable: paired {_sig_str(sig, None)}")
                continue
            if sf is not None:
                out.append(sf)
            if sr is not None:
                out.append(sr)
        return out, pairs

    def _combine_pair(self, sf: PathState, sr: PathState) -> Optional[PathState]:
        env_c: SymbolEnv = {}
        for sym in set(sf.env) | set(sr.env):
            m = sym_range(sf.env, sym).meet(sym_range(sr.env, sym))
            if m is None:
                return None
            env_c[sym] = m
        mem: Dict[str, object] = {}
        for name in set(sf.mem) & set(sr.mem):
            vf, vr = sf.mem[name], sr.mem[name]
            try:
                mem[name] = self._combine_value(vf, vr, env_c)
            except InfeasiblePath:
                return None
        return PathState(sf.signature, None, mem, env_c)

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

    def _merge_states(self, states: List[PathState]) -> Dict[str, object]:
        keys = set(states[0].mem)
        for st in states[1:]:
            keys &= set(st.mem)
        out: Dict[str, object] = {}
        for name in keys:
            vals = [(st.mem[name], st.env) for st in states]
            out[name] = self._merge_values(vals)
        return out

    def _merge_values(self, vals):
        first = vals[0][0]
        if all(v == first for v, _ in vals[1:]):
            return first
        if isinstance(first, AbstractFloat):
            acc = None
            for v, env in vals:
                cur = _bake(v, env, self.pool)
                acc = cur if acc is None else union(acc, cur, self.pool,
                                                    self.env)
            return acc
        if isinstance(first, RInterval):
            acc = first
            for v, _ in vals[1:]:
                acc = acc.join(v)
            return acc
        if isinstance(first, list):
            return [self._merge_values([(v[i], env) for v, env in vals])
                    for i in range(len(first))]
        return first

    # -- entry ------------------------------------------------------------

    def run(self, entry: str) -> None:
        fn = self.program.functions[entry]
        self._fn = fn
        for p in fn.params:
            if p.is_array:
                if p.name not in self.cfg.array_inputs:
                    raise TypeErrorAt(f"missing input binding for array"
                                      f" parameter {p.name!r}")
                vals = [AbstractFloat.from_literal(rat(x), self.fmt)
                        for x in self.cfg.array_inputs[p.name]]
                self.mem.store(p.name, vals)
            elif p.ctype == "int":
                if p.name not in self.cfg.int_inputs:
                    raise TypeErrorAt(f"missing input binding for int"
                                      f" parameter {p.name!r}")
                self.mem.store(p.name,
                               RInterval.point(self.cfg.int_inputs[p.name]))
            else:
                if p.name not in self.cfg.inputs:
                    raise TypeErrorAt(f"missing input binding for parameter"
                                      f" {p.name!r}")
                spec = self.cfg.inputs[p.name]
                self.mem.store(p.name, AbstractFloat.from_input(
                    spec.value, spec.err, self.fmt, self.pool, self.env))
        root = S.SectionStmt(0, [], [], list(fn.body.stmts), fn.body.loc)
        try:
            self.exec_section(root)
        except SectionInfeasible:
            self._alarm(AnalysisAlarm(
                "no-feasible-path",
                f"no feasible execution path in {entry}"))
        except _Return:
            pass


def _literal_value(e: S.Expr) -> Fraction:
    if isinstance(e, S.FloatLit):
        return e.value
    if isinstance(e, S.IntLit):
        return Fraction(e.value)
    if isinstance(e, S.Unary) and e.op == "-":
        return -_literal_value(e.expr)
    raise TypeErrorAt(f"{e.loc}: read_double bounds must be literals")


def _bake(v: AbstractFloat, env: SymbolEnv, pool: SymbolPool) -> AbstractFloat:
    """Collapse a value's forms to their per-path interval hulls."""
    riv = v.real.concretize(env).meet(v.real_iv)
    eiv = v.err.concretize(env).meet(v.err_iv)
    if riv is None or eiv is None:
        raise InfeasiblePath
    return AbstractFloat(
        v.float_iv,
        AffineForm.from_interval(riv, pool, Origin.NONLINEAR), riv,
        AffineForm.from_interval(eiv, pool, Origin.NONLINEAR), eiv)


def _sig_str(sig, interp) -> str:
    tags = "/".join(t for _, t in sig) or "straight"
    return tags + (f"[{interp}]" if interp else "")


def _c_trunc(x: Fraction) -> int:
    n = x.numerator // x.denominator if x >= 0 \
        else -((-x.numerator) // x.denominator)
    return n


def _trunc_div(a: RInterval, b: RInterval) -> RInterval:
    cs = [Fraction(_c_trunc(x / y)) for x in (a.lo, a.hi)
          for y in (b.lo, b.hi)]
    return RInterval(min(cs), max(cs))


def _trunc_preimage(k: int) -> RInterval:
    """Closed over-approximation of {x | (int) x == k}."""
    if k > 0:
        return RInterval(Fraction(k), Fraction(k + 1))
    if k < 0:
        return RInterval(Fraction(k - 1), Fraction(k))
    return RInterval(Fraction(-1), Fraction(1))


def _int_cmp(op: str, a: RInterval, b: RInterval) -> Optional[bool]:
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
        return _int_cmp("<", b, a)
    if op == ">=":
        return _int_cmp("<=", b, a)
    if op == "==":
        if a.is_point() and b.is_point():
            return a.lo == b.lo
        if a.hi < b.lo or b.hi < a.lo:
            return False
        return None
    if op == "!=":
        t = _int_cmp("==", a, b)
        return None if t is None else not t
    raise TypeErrorAt(f"unknown comparison {op!r}")


def _neg_op(op: str) -> str:
    return {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
            "==": "!=", "!=": "=="}[op]


def _int_regions(op: str, a: RInterval, b: RInterval):
    """Narrowed intervals for (a, b) assuming `a op b` holds; integral."""
    one = Fraction(1)
    if op == "<":
        return (RInterval(a.lo, min(a.hi, b.hi - one)),
                RInterval(max(b.lo, a.lo + one), b.hi)) \
            if a.lo <= b.hi - one and b.hi >= a.lo + one else (None, None)
    if op == "<=":
        ra = RInterval(a.lo, min(a.hi, b.hi)) if a.lo <= b.hi else None
        rb = RInterval(max(b.lo, a.lo), b.hi) if b.hi >= a.lo else None
        return ra, rb
    if op == ">":
        rb, ra = _int_regions("<", b, a)
        return ra, rb
    if op == ">=":
        rb, ra = _int_regions("<=", b, a)
        return ra, rb
    if op == "==":
        m = a.meet(b)
        return m, m
    return None, None  # !=


def _float_regions(op: str):
    """(lo, hi) true- and false-region bounds of `t op 0`, t = lhs - rhs."""
    if op in ("<", "<="):
        return (None, ZERO), (ZERO, None)
    if op in (">", ">="):
        return (ZERO, None), (None, ZERO)
    if op == "==":
        return (ZERO, ZERO), (None, None)
    raise TypeErrorAt(f"unknown float comparison {op!r}")
