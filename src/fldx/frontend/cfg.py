"""Statement-level control-flow graph, dominators and post-dominators.

Nodes are leaf statements plus synthetic ENTRY/EXIT nodes; section
markers contribute a split node and a merge node so dominance queries
about section boundaries are direct.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional

from . import syntax as S

ENTRY = 0
EXIT = 1


def reverse_postorder(succ: List[List[int]], root: int) -> List[int]:
    """The nodes reachable from root, in reverse postorder of one
    depth-first search that takes successors in list order."""
    post: List[int] = []
    seen = {root}
    stack = [(root, iter(succ[root]))]
    while stack:
        n, todo = stack[-1]
        for m in todo:
            if m not in seen:
                seen.add(m)
                stack.append((m, iter(succ[m])))
                break
        else:
            stack.pop()
            post.append(n)
    post.reverse()
    return post


def immediate_dominators(pred: List[List[int]], order: List[int]
                         ) -> Dict[int, int]:
    """Immediate dominator of each node of order, a reverse postorder
    from its root order[0], which maps to itself. The iterative algorithm
    of Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm"
    (2001): a predecessor outside order is unreachable and ignored."""
    root = order[0]
    rank = {n: i for i, n in enumerate(order)}
    idom = {root: root}
    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            new = None
            for p in pred[n]:
                if p not in idom:
                    continue
                if new is None:
                    new = p
                    continue
                # walk both up the tree to their nearest common dominator
                while p != new:
                    while rank[p] > rank[new]:
                        p = idom[p]
                    while rank[new] > rank[p]:
                        new = idom[new]
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    return idom


@dataclass
class Cfg:
    """A function's CFG over node ids 0..n-1. It must not change once
    built: the orders and immediate-(post-)dominator maps are computed on
    first use and kept."""

    succ: List[List[int]]
    pred: List[List[int]]
    #: node id -> statement (None for entry/exit and merge nodes)
    stmt_of: Dict[int, Optional[S.Stmt]]
    #: id(statement) -> its node; a SectionStmt's node is its split
    node_of: Dict[int, int]
    #: id(SectionStmt) -> synthetic merge node
    merge_of: Dict[int, int]

    @cached_property
    def order(self) -> List[int]:
        """Reverse postorder of the nodes reachable from ENTRY."""
        return reverse_postorder(self.succ, ENTRY)

    @cached_property
    def back_order(self) -> List[int]:
        """Reverse postorder of the nodes that reach EXIT, searched from
        EXIT along the predecessor lists."""
        return reverse_postorder(self.pred, EXIT)

    @cached_property
    def idom(self) -> Dict[int, int]:
        return immediate_dominators(self.pred, self.order)

    @cached_property
    def ipdom(self) -> Dict[int, int]:
        return immediate_dominators(self.succ, self.back_order)

    def dominates(self, a, b) -> bool:
        return _dom_query(self.idom, a, b)

    def strictly_dominates(self, a, b) -> bool:
        return a != b and self.dominates(a, b)

    def post_dominates(self, a, b) -> bool:
        return _dom_query(self.ipdom, a, b)

    def strictly_post_dominates(self, a, b) -> bool:
        return a != b and self.post_dominates(a, b)


def _dom_query(idom: Dict[int, int], a, b) -> bool:
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
        self.succ: List[List[int]] = [[], []]
        self.pred: List[List[int]] = [[], []]
        self.stmt_of: Dict[int, Optional[S.Stmt]] = {ENTRY: None, EXIT: None}
        self.node_of: Dict[int, int] = {}
        self.merge_of: Dict[int, int] = {}

    def node(self, stmt: Optional[S.Stmt], preds: List[int]) -> int:
        """A new node for stmt, entered from each of preds."""
        n = len(self.succ)
        self.succ.append([])
        self.pred.append([])
        self.stmt_of[n] = stmt
        if stmt is not None:
            self.node_of[id(stmt)] = n
        for p in preds:
            self.edge(p, n)
        return n

    def edge(self, a: int, b: int) -> None:
        # one edge per pair: an `if` with an empty then-block wires its
        # test to the next statement twice
        if b not in self.succ[a]:
            self.succ[a].append(b)
            self.pred[b].append(a)

    def seq(self, stmts: List[S.Stmt], preds: List[int]) -> List[int]:
        """Wire a statement sequence; returns the fall-through predecessors."""
        for s in stmts:
            preds = self.stmt(s, preds)
        return preds

    def stmt(self, s: S.Stmt, preds: List[int]) -> List[int]:
        if isinstance(s, S.Block):
            return self.seq(s.stmts, preds)
        if isinstance(s, S.If):
            n = self.node(s, preds)
            out = self.seq(s.then.stmts, [n])
            if s.els is not None:
                out = out + self.seq(s.els.stmts, [n])
            else:
                out = out + [n]
            return out
        if isinstance(s, S.While):
            n = self.node(s, preds)
            for p in self.seq(s.body.stmts, [n]):
                self.edge(p, n)
            return [n]
        if isinstance(s, S.DoWhile):
            n = self.node(s, [])
            for p in self.seq(s.body.stmts, preds + [n]):
                self.edge(p, n)
            return [n]
        if isinstance(s, S.Return):
            self.edge(self.node(s, preds), EXIT)
            return []
        if isinstance(s, S.SectionStmt):
            split = self.node(s, preds)
            # a return closing the body leaves through the merge, as the
            # executor merges the section's paths before it returns
            tail = s.body[-1] if s.body and isinstance(s.body[-1], S.Return) \
                else None
            inner = self.seq(s.body[:-1] if tail else s.body, [split])
            if tail is not None:
                inner = [self.node(tail, inner)]
            merge = self.node(None, inner)
            self.merge_of[id(s)] = merge
            if tail is not None:
                self.edge(merge, EXIT)
                return []
            return [merge]
        return [self.node(s, preds)]


def build_cfg(fn: S.FuncDef) -> Cfg:
    b = _Builder()
    for p in b.seq(fn.body.stmts, [ENTRY]):
        b.edge(p, EXIT)
    return Cfg(b.succ, b.pred, b.stmt_of, b.node_of, b.merge_of)


def check_exit_reachable(cfg: Cfg) -> List[int]:
    """Nodes from which EXIT is unreachable (infinite loops)."""
    reach = set(cfg.back_order)
    return [n for n in range(len(cfg.succ)) if n not in reach]


# ---------------------------------------------------------------------------
# Return normalization
# ---------------------------------------------------------------------------

RETVAL = "__retval"
RETFLAG = "__returned"


def _contains_return(s: S.Stmt) -> bool:
    return any(isinstance(x, S.Return) for x in S.walk_stmts(s))


def _rw_block(stmts: List[S.Stmt], not_done: S.Expr) -> List[S.Stmt]:
    """stmts rewritten by `normalize_returns`; not_done tests the flag."""
    out: List[S.Stmt] = []
    for i, s in enumerate(stmts):
        out.append(_rw_stmt(s, not_done))
        if _contains_return(s):
            rest = _rw_block(stmts[i + 1:], not_done)
            if rest:
                out.append(S.If(not_done, S.Block(rest), None, s.loc))
            return out
    return out


def _rw_stmt(s: S.Stmt, not_done: S.Expr) -> S.Stmt:
    if isinstance(s, S.Return):
        assigns: List[S.Stmt] = []
        if s.expr is not None:
            assigns.append(S.Assign(S.Var(RETVAL), s.expr, s.loc))
        assigns.append(S.Assign(S.Var(RETFLAG), S.IntLit(1), s.loc))
        return S.Block(assigns, s.loc)
    if isinstance(s, S.Block):
        return S.Block(_rw_block(s.stmts, not_done), s.loc)
    if isinstance(s, S.If):
        return S.If(s.cond, _rw_stmt(s.then, not_done),
                    _rw_stmt(s.els, not_done) if s.els is not None else None,
                    s.loc)
    if isinstance(s, (S.While, S.DoWhile)) and _contains_return(s):
        cond = S.Binary("&&", not_done, s.cond, s.loc)
        body = _rw_stmt(s.body, not_done)
        return S.While(cond, body, s.loc) if isinstance(s, S.While) \
            else S.DoWhile(body, cond, s.loc)
    if isinstance(s, S.SectionStmt):
        return S.SectionStmt(s.section_id, s.save_list, s.merge_list,
                             _rw_block(s.body, not_done), s.loc)
    return s


def normalize_returns(fn: S.FuncDef) -> S.FuncDef:
    """Rewrite to a single fall-through exit.

    ``return e`` becomes assignments to a result variable and a done
    flag; statements that may follow a conditional return are guarded by
    the flag, and loops containing returns get the flag added to their
    condition. Functions already in single-tail-return shape are
    returned unchanged. The rewrite's variables are fn's and the two it
    adds.
    """
    body = fn.body.stmts
    returns = [x for x in S.walk_stmts(fn.body) if isinstance(x, S.Return)]
    if not returns:
        return fn
    if len(returns) == 1 and body and body[-1] is returns[0]:
        return fn

    not_done = S.Binary("==", S.Var(RETFLAG), S.IntLit(0))
    new_body: List[S.Stmt] = []
    var_types = dict(fn.var_types)
    if fn.ret_type != "void":
        new_body.append(S.Decl(fn.ret_type, RETVAL,
                               S.IntLit(0) if fn.ret_type == "int"
                               else S.FloatLit("0.0", Fraction(0))))
        var_types[RETVAL] = (fn.ret_type, False)
    new_body.append(S.Decl("int", RETFLAG, S.IntLit(0)))
    var_types[RETFLAG] = ("int", False)
    new_body.extend(_rw_block(body, not_done))
    if fn.ret_type != "void":
        new_body.append(S.Return(S.Var(RETVAL)))
    return S.FuncDef(fn.ret_type, fn.name, fn.params, S.Block(new_body),
                     fn.loc, var_types)
