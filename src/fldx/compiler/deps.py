"""Data dependencies of a region, for split/merge placement and its
validator.

A region is a consecutive run of statements of one block, nested
statements included. Placement and the validator ask two questions of
one, each on its own CFG and its own `readers` map:
  * escaping(stmts, readers): each variable written in the region whose
    value reaches a statement outside it, with the ids of those
    statements. A section grows until no int variable escapes, and the
    variables that escape are its merge list.
  * save_list(stmts): the variables the region writes and may read
    before writing them, its upward-exposed reads. Each path through a
    section starts from their values at the split.

`compute_dep_sets` gives the `readers` map: reaching definitions on the
function's CFG, from each (writer, variable) definition to the
statements its value reaches.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..frontend import cfg as C
from ..frontend import syntax as S

#: (writer stmt id, variable) -> ids of the statements its value reaches
Readers = Dict[Tuple[int, str], Set[int]]


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
    """Variables a leaf statement certainly and fully overwrites: all it
    writes, unless it writes an array cell, which leaves the others live."""
    if isinstance(s, S.Assign) and isinstance(s.target, S.Index):
        return set()
    return leaf_defs(s)


def leaf_reads(s: S.Stmt) -> Set[str]:
    out: Set[str] = set()
    for e in S.stmt_exprs(s):
        out |= S.vars_read(e)
    if isinstance(s, S.AssertStmt):
        out |= {t.name for t in S.pred_names(s.pred)}
    return out


def compute_dep_sets(fn: S.FuncDef, graph: C.Cfg) -> Readers:
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
    gen = [0] * len(nodes)
    kill_vars: List[Set[str]] = [set()] * len(nodes)
    reads: List[Set[str]] = [set()] * len(nodes)
    for n in nodes:
        st = graph.stmt_of.get(n)
        if st is None:
            continue
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

    readers: Readers = {}
    for n in nodes:
        for v in reads[n]:
            bits = inn[n] & defs_of.get(v, 0) & ~params
            while bits:
                low = bits & -bits
                bits ^= low
                key = def_site[low.bit_length() - 1]
                readers.setdefault(key, set()).add(id(graph.stmt_of[n]))
    return readers


def escaping(stmts: List[S.Stmt], readers: Readers) -> Dict[str, Set[int]]:
    """Each variable written in the region whose value reaches a statement
    outside it, with the ids of those statements."""
    subs = [sub for s in stmts for sub in S.walk_stmts(s)]
    inside = {id(sub) for sub in subs}
    out: Dict[str, Set[int]] = {}
    for sub in subs:
        for v in leaf_defs(sub):
            outside = readers.get((id(sub), v), set()) - inside
            if outside:
                out.setdefault(v, set()).update(outside)
    return out


def _exposed(s: S.Stmt) -> Tuple[Set[str], Set[str]]:
    """The variables s may read before writing them, and those it
    certainly writes. A loop's condition counts as read first; a `while`
    body may not run, a `do` body runs at least once."""
    if isinstance(s, (S.Block, S.SectionStmt)):
        reads: Set[str] = set()
        writes: Set[str] = set()
        for sub in S.stmt_children(s):
            r, w = _exposed(sub)
            reads |= r - writes
            writes |= w
        return reads, writes
    if isinstance(s, S.If):
        r, w = _exposed(s.then)
        er, ew = _exposed(s.els) if s.els is not None else (set(), set())
        return leaf_reads(s) | r | er, w & ew
    if isinstance(s, (S.While, S.DoWhile)):
        r, w = _exposed(s.body)
        return leaf_reads(s) | r, w if isinstance(s, S.DoWhile) else set()
    return leaf_reads(s), leaf_must_defs(s)


def save_list(stmts: List[S.Stmt]) -> Set[str]:
    """The variables the region writes and may read before writing them."""
    written = {v for s in stmts for sub in S.walk_stmts(s)
               for v in leaf_defs(sub)}
    return written & _exposed(S.Block(stmts))[0]
