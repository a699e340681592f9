"""Data-dependency analysis backing split/merge placement.

For a statement (or statement sequence) p:
  * mustdef(p): variables necessarily written by p,
  * maydef(p): (variable, writing leaf statement) pairs possibly written,
  * mayref(p): (variable, reading leaf statement) pairs read before being
    written when executing p (sequences kill later reads of variables
    already assigned),
  * readers(F): for each (writer, variable) definition of the function,
    the statements it reaches, computed by reaching definitions on the
    CFG.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..frontend import cfg as C
from ..frontend import syntax as S


def _enlarge_targets(p: S.Pred) -> Set[str]:
    """Variables updated by enlarge built-ins inside an assertion."""
    out: Set[str] = set()
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, S.PRel):
            stack += [q.left, q.right]
        elif isinstance(q, S.PNot):
            stack.append(q.pred)
        elif isinstance(q, S.PLet):
            stack.append(q.body)
        elif isinstance(q, S.PBuiltin):
            if q.name.startswith("accuracy_enlarge") and q.args:
                a = q.args[0]
                if isinstance(a, (S.TName, S.TIndex)):
                    out.add(a.name)
    return out


def _pred_reads(p: S.Pred) -> Set[str]:
    out: Set[str] = set()
    bound: Set[str] = set()

    def term(t: S.Term) -> None:
        if isinstance(t, S.TName):
            if t.name not in bound:
                out.add(t.name)
        elif isinstance(t, S.TIndex):
            out.add(t.name)
            term(t.index)
        elif isinstance(t, S.TBin):
            term(t.left)
            term(t.right)
        elif isinstance(t, S.TCall):
            for a in t.args:
                term(a)

    def pred(q: S.Pred) -> None:
        if isinstance(q, S.PRel):
            pred(q.left)
            pred(q.right)
        elif isinstance(q, S.PNot):
            pred(q.pred)
        elif isinstance(q, S.PCmp):
            term(q.left)
            term(q.right)
        elif isinstance(q, S.PLet):
            if isinstance(q.value, S.PBuiltin):
                for a in q.value.args:
                    term(a)
            else:
                term(q.value)
            bound.update(q.names)
            pred(q.body)
        elif isinstance(q, S.PBuiltin):
            for a in q.args:
                term(a)

    pred(p)
    return out


def leaf_defs(s: S.Stmt) -> Set[str]:
    """Variables a leaf statement may write."""
    if isinstance(s, S.Assign):
        return {s.target.name}
    if isinstance(s, S.Decl):
        if s.init is not None or s.array_init is not None:
            return {s.name}
        return set()
    if isinstance(s, S.AssertStmt):
        return _enlarge_targets(s.pred)
    return set()


def leaf_must_defs(s: S.Stmt) -> Set[str]:
    """Variables a leaf statement certainly and fully overwrites."""
    if isinstance(s, S.Assign):
        # an array-cell write leaves the other cells live
        return {s.target.name} if isinstance(s.target, S.Var) else set()
    if isinstance(s, S.Decl):
        if s.init is not None or s.array_init is not None:
            return {s.name}
        return set()
    if isinstance(s, S.AssertStmt):
        return _enlarge_targets(s.pred)
    return set()


def leaf_reads(s: S.Stmt) -> Set[str]:
    out: Set[str] = set()
    for e in S.stmt_exprs(s):
        out |= S.vars_read(e)
    if isinstance(s, S.AssertStmt):
        out |= _pred_reads(s.pred)
    return out


def must_def(s: S.Stmt) -> Set[str]:
    if isinstance(s, S.Block):
        return must_def_seq(s.stmts)
    if isinstance(s, S.SectionStmt):
        return must_def_seq(s.body)
    if isinstance(s, S.If):
        t = must_def(s.then)
        e = must_def(s.els) if s.els is not None else set()
        return t & e
    if isinstance(s, S.While):
        return set()
    if isinstance(s, S.DoWhile):
        return must_def(s.body)
    return leaf_must_defs(s)


def must_def_seq(stmts: List[S.Stmt]) -> Set[str]:
    out: Set[str] = set()
    for s in stmts:
        out |= must_def(s)
    return out


def may_def(s: S.Stmt) -> Set[Tuple[str, int]]:
    """(variable, id of writing leaf statement) pairs."""
    out: Set[Tuple[str, int]] = set()
    for sub in S.walk_stmts(s):
        for v in leaf_defs(sub):
            out.add((v, id(sub)))
    return out


def may_def_seq(stmts: List[S.Stmt]) -> Set[Tuple[str, int]]:
    out: Set[Tuple[str, int]] = set()
    for s in stmts:
        out |= may_def(s)
    return out


def may_ref(s: S.Stmt) -> Set[Tuple[str, int]]:
    if isinstance(s, S.Block):
        return may_ref_seq(s.stmts)
    if isinstance(s, S.SectionStmt):
        return may_ref_seq(s.body)
    if isinstance(s, S.If):
        out = {(v, id(s)) for v in leaf_reads(s)}
        out |= may_ref(s.then)
        if s.els is not None:
            out |= may_ref(s.els)
        return out
    if isinstance(s, (S.While, S.DoWhile)):
        return {(v, id(s)) for v in leaf_reads(s)} | may_ref(s.body)
    return {(v, id(s)) for v in leaf_reads(s)}


def may_ref_seq(stmts: List[S.Stmt]) -> Set[Tuple[str, int]]:
    """Sequence rule: a variable certainly assigned earlier in the
    sequence is no longer an upward-exposed read."""
    out: Set[Tuple[str, int]] = set()
    killed: Set[str] = set()
    for s in stmts:
        out |= {(v, i) for v, i in may_ref(s) if v not in killed}
        killed |= must_def(s)
    return out


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


@dataclass
class DepSets:
    #: (writer stmt id, variable) -> ids of the statements its value reaches
    readers: Dict[Tuple[int, str], Set[int]] = field(default_factory=dict)
    stmt_by_id: Dict[int, S.Stmt] = field(default_factory=dict)

    def escapes(self, writer: int, v: str, inside: Set[int]) -> bool:
        """Whether v as written by writer reaches a reader not in inside."""
        return any(r not in inside for r in self.readers.get((writer, v), ()))


def compute_dep_sets(fn: S.FuncDef, graph: C.Cfg) -> DepSets:
    """Reaching definitions over fn's CFG, one bit per (variable, writer)
    definition; parameters are definitions at entry."""
    # sweep in reverse postorder from entry, then the unreachable nodes
    reached = set(graph.order)
    nodes = graph.order + [n for n in range(len(graph.succ))
                           if n not in reached]

    defs_of: Dict[str, int] = {}  # variable -> mask of its definitions
    def_site: List[Tuple[int, str]] = []  # bit -> (writer id, variable)

    def define(v: str, writer: int) -> int:
        bit = 1 << len(def_site)
        def_site.append((writer, v))
        defs_of[v] = defs_of.get(v, 0) | bit
        return bit

    # the lists below are indexed by node id
    stmt_by_id: Dict[int, S.Stmt] = {}
    gen = [0] * len(nodes)
    kill_vars: List[Set[str]] = [set()] * len(nodes)
    reads: List[Set[str]] = [set()] * len(nodes)
    for n in nodes:
        st = graph.stmt_of.get(n)
        if st is None:
            continue
        stmt_by_id[id(st)] = st
        for v in leaf_defs(st):
            gen[n] |= define(v, id(st))
        kill_vars[n] = leaf_must_defs(st)
        reads[n] = leaf_reads(st)
    params = 0
    for p in fn.params:
        params |= define(p.name, id(fn))
    gen[C.ENTRY] |= params
    # masks of distinct variables are disjoint: their sum is their union
    keep = [~sum(defs_of.get(v, 0) for v in kv) for kv in kill_vars]

    # round-robin sweeps reach the same least fixed point as any worklist
    pred = graph.pred
    inn = [0] * len(nodes)
    out = gen[:]
    changed = True
    while changed:
        changed = False
        for n in nodes:
            x = 0
            for p in pred[n]:
                x |= out[p]
            inn[n] = x
            o = gen[n] | (x & keep[n])
            if o != out[n]:
                out[n] = o
                changed = True

    readers: Dict[Tuple[int, str], Set[int]] = {}
    for n in nodes:
        for v in reads[n]:
            bits = inn[n] & defs_of.get(v, 0) & ~params
            while bits:
                low = bits & -bits
                bits ^= low
                key = def_site[low.bit_length() - 1]
                readers.setdefault(key, set()).add(id(graph.stmt_of[n]))
    return DepSets(readers, stmt_by_id)


def region_descendant_ids(stmts: List[S.Stmt]) -> Set[int]:
    out: Set[int] = set()
    for s in stmts:
        for sub in S.walk_stmts(s):
            out.add(id(sub))
    return out


def save_list(stmts: List[S.Stmt]) -> Set[str]:
    defs = {v for v, _ in may_def_seq(stmts)}
    refs = {v for v, _ in may_ref_seq(stmts)}
    return defs & refs


def merge_list(stmts: List[S.Stmt], deps: DepSets) -> Set[str]:
    inside = region_descendant_ids(stmts)
    return {v for v, writer in may_def_seq(stmts)
            if deps.escapes(writer, v, inside)}
