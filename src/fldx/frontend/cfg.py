"""Statement-level control-flow graph, dominators and post-dominators.

Nodes are leaf statements plus synthetic ENTRY/EXIT nodes; section
markers contribute a split node and a merge node so dominance queries
about section boundaries are direct.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional

import networkx as nx

from . import syntax as S

ENTRY = "entry"
EXIT = "exit"


@dataclass
class Cfg:
    """A function's CFG. The graph must not change once built: the
    immediate-(post-)dominator maps are computed on first use and kept."""

    graph: nx.DiGraph
    #: node id -> statement (None for entry/exit and synthetic nodes)
    stmt_of: Dict[object, Optional[S.Stmt]] = field(default_factory=dict)
    node_of: Dict[int, object] = field(default_factory=dict)
    #: id(SectionStmt) -> synthetic merge node
    merge_of: Dict[int, object] = field(default_factory=dict)

    @cached_property
    def idom(self) -> Dict[object, object]:
        return nx.immediate_dominators(self.graph, ENTRY)

    @cached_property
    def ipdom(self) -> Dict[object, object]:
        return nx.immediate_dominators(self.graph.reverse(copy=False), EXIT)

    def dominates(self, a, b) -> bool:
        return _dom_query(self.idom, a, b)

    def strictly_dominates(self, a, b) -> bool:
        return a != b and self.dominates(a, b)

    def post_dominates(self, a, b) -> bool:
        return _dom_query(self.ipdom, a, b)

    def strictly_post_dominates(self, a, b) -> bool:
        return a != b and self.post_dominates(a, b)


def _dom_query(idom: Dict[object, object], a, b) -> bool:
    """a dominates b under the immediate-dominator map."""
    n = b
    while True:
        if n == a:
            return True
        if n not in idom or idom[n] == n:
            return False
        n = idom[n]


class _Builder:
    def __init__(self) -> None:
        self.g = nx.DiGraph()
        self.stmt_of: Dict[object, Optional[S.Stmt]] = {}
        self.node_of: Dict[int, object] = {}
        self.merge_of: Dict[int, object] = {}
        self._n = 0

    def node(self, stmt: Optional[S.Stmt], tag: str = "s") -> object:
        nid = f"{tag}{self._n}"
        self._n += 1
        self.g.add_node(nid)
        self.stmt_of[nid] = stmt
        if stmt is not None:
            self.node_of[id(stmt)] = nid
        return nid

    def edge(self, a, b) -> None:
        self.g.add_edge(a, b)

    def seq(self, stmts: List[S.Stmt], preds: List[object]) -> List[object]:
        """Wire a statement sequence; returns the fall-through predecessors."""
        for s in stmts:
            preds = self.stmt(s, preds)
        return preds

    def stmt(self, s: S.Stmt, preds: List[object]) -> List[object]:
        if isinstance(s, S.Block):
            return self.seq(s.stmts, preds)
        if isinstance(s, S.If):
            n = self.node(s)
            for p in preds:
                self.edge(p, n)
            out = self.seq(s.then.stmts, [n])
            if s.els is not None:
                out = out + self.seq(s.els.stmts, [n])
            else:
                out = out + [n]
            return out
        if isinstance(s, S.While):
            n = self.node(s)
            for p in preds:
                self.edge(p, n)
            back = self.seq(s.body.stmts, [n])
            for p in back:
                self.edge(p, n)
            return [n]
        if isinstance(s, S.DoWhile):
            n = self.node(s)
            first = self.seq(s.body.stmts, preds + [n])
            for p in first:
                self.edge(p, n)
            return [n]
        if isinstance(s, S.Return):
            n = self.node(s)
            for p in preds:
                self.edge(p, n)
            self.edge(n, EXIT)
            return []
        if isinstance(s, S.SectionStmt):
            split = self.node(s, tag="split")
            for p in preds:
                self.edge(p, split)
            # a return closing the body leaves through the merge, as the
            # executor merges the section's paths before it returns
            tail = s.body[-1] if s.body and isinstance(s.body[-1], S.Return) \
                else None
            inner = self.seq(s.body[:-1] if tail else s.body, [split])
            if tail is not None:
                ret = self.node(tail)
                for p in inner:
                    self.edge(p, ret)
                inner = [ret]
            merge = self.node(None, tag="merge")
            self.stmt_of[merge] = None
            self.node_of[id(s)] = split
            self.merge_of[id(s)] = merge
            for p in inner:
                self.edge(p, merge)
            if tail is not None:
                self.edge(merge, EXIT)
                return []
            return [merge]
        n = self.node(s)
        for p in preds:
            self.edge(p, n)
        return [n]


def build_cfg(fn: S.FuncDef) -> Cfg:
    b = _Builder()
    b.g.add_node(ENTRY)
    b.g.add_node(EXIT)
    b.stmt_of[ENTRY] = None
    b.stmt_of[EXIT] = None
    out = b.seq(fn.body.stmts, [ENTRY])
    for p in out:
        b.edge(p, EXIT)
    return Cfg(b.g, b.stmt_of, b.node_of, b.merge_of)


def check_exit_reachable(cfg: Cfg) -> List[object]:
    """Nodes from which EXIT is unreachable (infinite loops)."""
    can_reach = set(nx.descendants(cfg.graph.reverse(copy=False), EXIT))
    can_reach.add(EXIT)
    return [n for n in cfg.graph.nodes if n not in can_reach]


# ---------------------------------------------------------------------------
# Return normalization
# ---------------------------------------------------------------------------

RETVAL = "__retval"
RETFLAG = "__returned"


def _contains_return(s: S.Stmt) -> bool:
    return any(isinstance(x, S.Return) for x in S.walk_stmts(s))


def normalize_returns(fn: S.FuncDef) -> S.FuncDef:
    """Rewrite to a single fall-through exit.

    ``return e`` becomes assignments to a result variable and a done
    flag; statements that may follow a conditional return are guarded by
    the flag, and loops containing returns get the flag added to their
    condition. Functions already in single-tail-return shape are
    returned unchanged.
    """
    body = fn.body.stmts
    returns = [x for x in S.walk_stmts(fn.body) if isinstance(x, S.Return)]
    if not returns:
        return fn
    if len(returns) == 1 and body and body[-1] is returns[0]:
        return fn

    not_done = S.Binary("==", S.Var(RETFLAG), S.IntLit(0))

    def rw_block(stmts: List[S.Stmt]) -> List[S.Stmt]:
        out: List[S.Stmt] = []
        for i, s in enumerate(stmts):
            s2 = rw_stmt(s)
            out.append(s2)
            if _contains_return(s):
                rest = rw_block(stmts[i + 1:])
                if rest:
                    out.append(S.If(not_done, S.Block(rest), None, s.loc))
                return out
        return out

    def rw_stmt(s: S.Stmt) -> S.Stmt:
        if isinstance(s, S.Return):
            assigns: List[S.Stmt] = []
            if s.expr is not None:
                assigns.append(S.Assign(S.Var(RETVAL), s.expr, s.loc))
            assigns.append(S.Assign(S.Var(RETFLAG), S.IntLit(1), s.loc))
            return S.Block(assigns, s.loc)
        if isinstance(s, S.Block):
            return S.Block(rw_block(s.stmts), s.loc)
        if isinstance(s, S.If):
            return S.If(s.cond, rw_stmt(s.then),
                        rw_stmt(s.els) if s.els is not None else None, s.loc)
        if isinstance(s, S.While):
            if _contains_return(s):
                cond = S.Binary("&&", not_done, s.cond, s.loc)
                return S.While(cond, rw_stmt(s.body), s.loc)
            return s
        if isinstance(s, S.DoWhile):
            if _contains_return(s):
                cond = S.Binary("&&", not_done, s.cond, s.loc)
                return S.DoWhile(rw_stmt(s.body), cond, s.loc)
            return s
        if isinstance(s, S.SectionStmt):
            return S.SectionStmt(s.section_id, s.save_list, s.merge_list,
                                 rw_block(s.body), s.loc)
        return s

    new_body: List[S.Stmt] = []
    if fn.ret_type != "void":
        new_body.append(S.Decl(fn.ret_type, RETVAL,
                               S.IntLit(0) if fn.ret_type == "int"
                               else S.FloatLit("0.0", Fraction(0))))
    new_body.append(S.Decl("int", RETFLAG, S.IntLit(0)))
    new_body.extend(rw_block(body))
    if fn.ret_type != "void":
        new_body.append(S.Return(S.Var(RETVAL)))
    fn2 = S.FuncDef(fn.ret_type, fn.name, fn.params, S.Block(new_body),
                    fn.loc)
    return fn2
