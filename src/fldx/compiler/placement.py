"""Greedy placement of split/merge sections around unstable-test
candidates.

A candidate is a statement whose evaluation contains a floating-point
comparison or a float-to-int conversion: an explicit cast, or an
implicit one where a float is stored into an int, passed to an int
parameter or returned by an int function. Sections start as the candidate
statement alone and are expanded (merge first, hoisting to the enclosing
block when needed) until:
  1. the split strictly dominates the merge and the merge strictly
     post-dominates the split,
  2. both markers sit in the same syntactic block,
  3. no integer variable written inside the section is read after it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import PlacementError
from ..frontend import syntax as S
from ..frontend.cfg import build_cfg
from . import deps as D


@dataclass
class Placement:
    """A placed section: stmts[start..end] of the owning block."""
    block: List[S.Stmt]
    start: int
    end: int
    save_list: List[str] = field(default_factory=list)
    merge_list: List[str] = field(default_factory=list)
    section_id: int = 0

    @property
    def stmts(self) -> List[S.Stmt]:
        return self.block[self.start:self.end + 1]


@dataclass
class PlacementResult:
    placements: List[Placement]
    warnings: List[str] = field(default_factory=list)


_FLOATS = ("float", "double")


def _expr_has_unstable(e: S.Expr, var_types, program: S.Program) -> bool:
    """Whether e holds a float comparison or a float-to-int conversion,
    by a cast or by an argument to an int parameter: a node whose
    `operands` include a float."""
    for sub in S.walk_exprs(e):
        kind = type(sub)
        if kind is S.Binary and sub.op in S.COMPARISONS:
            operands = [sub.left, sub.right]
        elif kind is S.Cast and sub.ctype == "int":
            operands = [sub.expr]
        elif kind is S.Call and sub.name in program.functions:
            operands = [a for p, a in zip(program.functions[sub.name].params,
                                          sub.args)
                        if p.ctype == "int" and not p.is_array]
        else:
            continue
        if any(S.expr_ctype(x, var_types, program) in _FLOATS
               for x in operands):
            return True
    return False


def _stores_float_in_int(s: S.Stmt, fn: S.FuncDef, program: S.Program
                         ) -> bool:
    """Whether s stores a float into an int: a declaration or an
    assignment of an int, or the return of an int function. The stored
    value's type is looked up only when the target is an int."""
    kind = type(s)
    if kind is S.Decl and s.ctype == "int":
        values = s.array_init or [s.init]
    elif kind is S.Assign and fn.var_types[s.target.name][0] == "int":
        values = [s.expr]
    elif kind is S.Return and fn.ret_type == "int":
        values = [s.expr]
    else:
        return False
    return any(v is not None
               and S.expr_ctype(v, fn.var_types, program) in _FLOATS
               for v in values)


def find_candidates(fn: S.FuncDef, program: S.Program) -> List[S.Stmt]:
    """Innermost statements containing an unstable-test candidate.

    Statements already covered by a section keep their existing markers
    and are not candidates again.
    """
    covered = {id(s)
               for sec in S.walk_stmts(fn.body)
               if isinstance(sec, S.SectionStmt)
               for s in S.walk_stmts(S.Block(sec.body))}
    out: List[S.Stmt] = []
    for s in S.walk_stmts(fn.body):
        if isinstance(s, (S.Block, S.SectionStmt)) or id(s) in covered:
            continue
        if _stores_float_in_int(s, fn, program) \
                or any(_expr_has_unstable(e, fn.var_types, program)
                       for e in S.stmt_exprs(s)):
            out.append(s)
    return out


def _parent_maps(fn: S.FuncDef):
    """For every statement: the block list that directly owns it and its
    index there, plus each block list's owning statement."""
    owner: Dict[int, Tuple[List[S.Stmt], int]] = {}
    block_owner: Dict[int, Optional[S.Stmt]] = {}

    def visit_list(stmts: List[S.Stmt], owning: Optional[S.Stmt]) -> None:
        block_owner[id(stmts)] = owning
        for i, s in enumerate(stmts):
            owner[id(s)] = (stmts, i)
            for child in _child_lists(s):
                visit_list(child, s)

    def _child_lists(s: S.Stmt) -> List[List[S.Stmt]]:
        if isinstance(s, S.Block):
            return [s.stmts]
        if isinstance(s, S.If):
            return [s.then.stmts] + ([s.els.stmts] if s.els else [])
        if isinstance(s, (S.While, S.DoWhile)):
            return [s.body.stmts]
        if isinstance(s, S.SectionStmt):
            return [s.body]
        return []

    visit_list(fn.body.stmts, None)
    return owner, block_owner


def _index_in(sid: int, block: List[S.Stmt], owner, block_owner
              ) -> Optional[int]:
    """The index in block of the statement with id sid, or of the
    ancestor of it that block holds; None if block holds neither."""
    while sid in owner:
        blk, i = owner[sid]
        if blk is block:
            return i
        owning = block_owner[id(blk)]
        if owning is None:
            return None
        sid = id(owning)
    return None


def _grow(fn: S.FuncDef, cand: S.Stmt, readers: D.Readers, owner,
          block_owner, warnings: List[str]) -> Placement:
    """Widen the span of cand's block until no int variable written in it
    is read after it, hoisting to the enclosing statement whenever such a
    read lies outside the block. Each turn widens or hoists, so it ends."""
    block, idx = owner[id(cand)]
    start = end = idx
    while True:
        escaped = D.escaping(block[start:end + 1], readers)
        ks = [_index_in(r, block, owner, block_owner)
              for v, rs in escaped.items() if fn.var_types[v][0] == "int"
              for r in rs]
        if not ks:
            break
        if None in ks:
            enclosing = block_owner[id(block)]
            if enclosing is None:
                raise PlacementError(
                    f"cannot satisfy integer-escape criterion for"
                    f" candidate at {cand.loc}")
            block, idx = owner[id(enclosing)]
            start = end = idx
        else:
            start, end = min(start, *ks), max(end, *ks)
    if start == 0 and end == len(fn.body.stmts) - 1 and block is fn.body.stmts:
        warnings.append(f"section for candidate at {cand.loc} spans the"
                        f" whole function body")
    return Placement(block, start, end)


def place_sections(fn: S.FuncDef, readers: D.Readers,
                   program: S.Program) -> PlacementResult:
    warnings: List[str] = []
    owner, block_owner = _parent_maps(fn)
    placements = [_grow(fn, cand, readers, owner, block_owner, warnings)
                  for cand in find_candidates(fn, program)]

    # fuse overlaps within a block; drop sections nested inside another
    placements = _fuse(placements, owner, block_owner)

    for sid, p in enumerate(placements, 1):
        p.section_id = sid
        p.save_list = sorted(D.save_list(p.stmts))
        p.merge_list = sorted(D.escaping(p.stmts, readers))
        ints = [v for v in p.merge_list if fn.var_types[v][0] == "int"]
        if ints:
            raise PlacementError(
                f"integer variables {ints} would escape section {sid}")
        warnings.extend(f"section {sid}: whole array {v!r} merged"
                        f" (element-level tracking not attempted)"
                        for v in p.merge_list if fn.var_types[v][1])
    return PlacementResult(placements, warnings)


def _fuse(placements: List[Placement], owner, block_owner) -> List[Placement]:
    def covers(outer: Placement, p: Placement) -> bool:
        """p's whole span lies (possibly nested) within outer's span."""
        if p.block is outer.block:
            return outer.start <= p.start and p.end <= outer.end \
                and (outer.start, outer.end) != (p.start, p.end)
        i = _index_in(id(p.stmts[0]), outer.block, owner, block_owner)
        return i is not None and outer.start <= i <= outer.end

    # merge same-block overlaps first
    changed = True
    while changed:
        changed = False
        for i in range(len(placements)):
            for j in range(i + 1, len(placements)):
                a, b = placements[i], placements[j]
                if a.block is b.block and not (a.end < b.start - 0 or
                                               b.end < a.start - 0):
                    a.start = min(a.start, b.start)
                    a.end = max(a.end, b.end)
                    del placements[j]
                    changed = True
                    break
            if changed:
                break
    # drop nested sections
    out: List[Placement] = []
    for p in placements:
        if any(q is not p and covers(q, p) for q in placements):
            continue
        out.append(p)
    return out


def instrument_function(fn: S.FuncDef, result: PlacementResult) -> None:
    """Rewrite blocks in place, wrapping placed spans in SectionStmt."""
    by_block: Dict[int, List[Placement]] = {}
    for p in result.placements:
        by_block.setdefault(id(p.block), []).append(p)
    for plist in by_block.values():
        plist.sort(key=lambda p: p.start, reverse=True)
        block = plist[0].block
        for p in plist:
            body = block[p.start:p.end + 1]
            sec = S.SectionStmt(p.section_id, list(p.save_list),
                                list(p.merge_list), body,
                                body[0].loc if body else S.NOLOC)
            block[p.start:p.end + 1] = [sec]


def instrument(program: S.Program) -> Tuple[S.Program, List[str]]:
    """Place and insert sections in every function; returns warnings."""
    warnings: List[str] = []
    for fn in program.functions.values():
        readers = D.compute_dep_sets(fn, build_cfg(fn))
        res = place_sections(fn, readers, program)
        warnings.extend(res.warnings)
        instrument_function(fn, res)
    return program, warnings
