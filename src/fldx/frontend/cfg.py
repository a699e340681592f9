"""Statement-level control-flow graph.

Nodes are leaf statements plus synthetic ENTRY/EXIT nodes; a section
contributes a split node and a merge node.

Nodes are numbered in flow order, a do-while's test after its body, so
an edge into a lower id either enters EXIT, numbered 1 but last, or is a
loop back edge. The builder records the back edges, which the
reaching-definitions solve reads, and the nodes ENTRY does not reach.

There are no dominator trees: mini-C has no `goto`, `break` or
`continue`, so the validator reads the dominance criterion from a
section's shape (`compiler/validator.py`). A parser that adds any of the
three must bring dominators back.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set

from . import syntax as S

ENTRY = 0
EXIT = 1


@dataclass
class Cfg:
    """A function's CFG over node ids 0..n-1, numbered in flow order."""

    succ: List[List[int]]
    pred: List[List[int]]
    #: id(statement) -> its node; a SectionStmt's node is its split
    node_of: Dict[int, int]
    #: id(SectionStmt) -> synthetic merge node
    merge_of: Dict[int, int]
    #: each node with a loop back edge -> the lowest node it jumps back to
    back: Dict[int, int]
    #: the nodes ENTRY does not reach
    dead: Set[int]


class _Builder:
    def __init__(self) -> None:
        self.succ: List[List[int]] = [[], []]  # ENTRY's and EXIT's
        self.pred: List[List[int]] = [[], []]
        self.node_of: Dict[int, int] = {}
        self.merge_of: Dict[int, int] = {}
        self.back: Dict[int, int] = {}
        self.dead: Set[int] = set()

    def node(self, stmt: Optional[S.Stmt], preds: List[int]) -> int:
        """A new node for stmt, entered from preds."""
        n = len(self.succ)
        succ = self.succ
        succ.append([])
        self.pred.append(list(preds))
        if stmt is not None:
            self.node_of[id(stmt)] = n
        for p in preds:
            succ[p].append(n)
        if not preds or self.dead and self.dead.issuperset(preds):
            self.dead.add(n)
        return n

    def edge(self, a: int, b: int) -> None:
        self.succ[a].append(b)
        self.pred[b].append(a)

    def seq(self, stmts: List[S.Stmt], preds: List[int]) -> List[int]:
        """Wire a statement sequence; returns its fall-through nodes, once."""
        for s in stmts:
            kind = type(s)
            preds = [self.node(s, preds)] if kind not in _WIRED \
                else self.wire(s, kind, preds)
        return preds

    def wire(self, s: S.Stmt, kind: type, preds: List[int]) -> List[int]:
        if kind is S.Block:
            return self.seq(s.stmts, preds)
        if kind is S.If:
            n = self.node(s, preds)
            out = self.seq(s.then.stmts, [n])
            other = self.seq(s.els.stmts, [n]) if s.els is not None else [n]
            return out + other if out != other else out  # both may be [n]
        if kind is S.While:
            n = self.node(s, preds)
            for p in self.seq(s.body.stmts, [n]):
                self.edge(p, n)
                # p may end an inner do-while too, whose head is higher
                self.back[p] = n
            return [n]
        if kind is S.DoWhile:
            first = len(self.succ)  # the test itself if the body is empty
            n = self.node(s, self.seq(s.body.stmts, preds))
            self.edge(n, first)
            self.back[n] = first
            return [n]
        if kind is S.Return:
            self.edge(self.node(s, preds), EXIT)
            return []
        split = self.node(s, preds)
        # a return closing the body leaves through the merge, as the
        # executor merges the section's paths before it returns
        tail = s.body[-1] if s.body and type(s.body[-1]) is S.Return \
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


#: the statements that are not one node falling through to the next
_WIRED = frozenset({S.Block, S.If, S.While, S.DoWhile, S.Return,
                    S.SectionStmt})


def build_cfg(fn: S.FuncDef) -> Cfg:
    b = _Builder()
    for p in b.seq(fn.body.stmts, [ENTRY]):
        b.edge(p, EXIT)
    return Cfg(b.succ, b.pred, b.node_of, b.merge_of, b.back, b.dead)


def check_exit_reachable(cfg: Cfg) -> List[int]:
    """Nodes from which EXIT is unreachable (infinite loops)."""
    seen, todo = {EXIT}, [EXIT]
    while todo:
        new = set(cfg.pred[todo.pop()]) - seen
        seen |= new
        todo += new
    return sorted(set(range(len(cfg.succ))) - seen)


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
