"""Greedy placement of split/merge sections around unstable-test
candidates.

A candidate is a statement that holds an unstable test: a float that
control flow tests, by a comparison or for truth, or that is converted
to int; `deps.fact_table` marks them. Sections start as the candidate
statement alone and are expanded (merge first, hoisting to the enclosing
block when needed) until:
  1. the split strictly dominates the merge and the merge strictly
     post-dominates the split,
  2. both markers sit in the same syntactic block,
  3. no integer variable written inside the section is read after it.

Mini-C has no `goto`, `break` or `continue`, so a span's shape gives 2
and decides 1; the validator reads 1 from it, and nothing computes
dominators. A parser that adds any of the three must bring them back.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PlacementError
from ..frontend import syntax as S
from ..frontend.cfg import Cfg, build_cfg
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
    #: `deps.escaping` of the span as it grew; None once fusion widens it
    escaped: Optional[Dict[str, Set[int]]] = None

    @property
    def stmts(self) -> List[S.Stmt]:
        return self.block[self.start:self.end + 1]


def outline(fn: S.FuncDef, table: D.Table):
    """The statements of fn that hold an unstable test, in source order,
    and where every statement sits: the block list that directly owns it
    and its index there, plus each block list's owning statement (None for
    the body's), from one walk."""
    cands: List[S.Stmt] = []
    owner: Dict[int, Tuple[List[S.Stmt], int]] = {}
    block_owner: Dict[int, Optional[S.Stmt]] = {id(fn.body.stmts): None}
    todo: List[S.Stmt] = [fn.body]  # the next statement on top
    while todo:
        s = todo.pop()
        kind = type(s)
        if kind is S.Block or kind is S.SectionStmt:
            stmts = s.stmts if kind is S.Block else s.body
            block_owner.setdefault(id(stmts), s)  # unless an arm's or a body's
            for i, sub in enumerate(stmts):
                owner[id(sub)] = (stmts, i)
            todo.extend(reversed(stmts))
            continue
        if table[id(s)].candidate:
            cands.append(s)
        if kind is S.If or kind is S.While or kind is S.DoWhile:
            kids = S.stmt_children(s)  # its arms, or its body
            for b in kids:
                block_owner[id(b.stmts)] = s
            todo.extend(reversed(kids))
    return cands, owner, block_owner


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


def _grow(fn: S.FuncDef, cand: S.Stmt, readers: D.Readers, table: D.Table,
          owner, block_owner, warnings: List[str]) -> Placement:
    """Widen the span of cand's block until no int variable written in it
    is read after it, hoisting to the enclosing statement whenever such a
    read lies outside the block. Each turn widens or hoists, so it ends."""
    block, idx = owner[id(cand)]
    start = end = idx
    while True:
        escaped = D.escaping(block[start:end + 1], readers, table)
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
    return Placement(block, start, end, escaped=escaped)


def place_sections(fn: S.FuncDef, graph: Cfg, table: D.Table,
                   warnings: List[str]) -> List[Placement]:
    """Sections around the candidates of fn, whose CFG is graph; with no
    candidate, none, and no dependencies are solved."""
    cands, owner, block_owner = outline(fn, table)
    if not cands:
        return []
    readers = D.compute_dep_sets(fn, graph, table)
    placements = _fuse([_grow(fn, cand, readers, table, owner, block_owner,
                              warnings) for cand in cands],
                       owner, block_owner)
    for sid, p in enumerate(placements, 1):
        p.section_id = sid
        p.save_list = sorted(D.save_list(p.stmts, table))
        p.merge_list = sorted(D.escaping(p.stmts, readers, table)
                              if p.escaped is None else p.escaped)
        ints = [v for v in p.merge_list if fn.var_types[v][0] == "int"]
        if ints:
            raise PlacementError(
                f"integer variables {ints} would escape section {sid}")
        warnings.extend(f"section {sid}: whole array {v!r} merged"
                        f" (element-level tracking not attempted)"
                        for v in p.merge_list if fn.var_types[v][1])
    return placements


def _fuse(placements: List[Placement], owner, block_owner) -> List[Placement]:
    """Fuse the overlapping spans of each block, then drop every span that
    lies within another. A span that fusion widens loses its escape map."""
    by_block: Dict[int, List[Placement]] = {}
    for p in placements:
        by_block.setdefault(id(p.block), []).append(p)
    # a fused span overlaps no span before it, since neither part did
    for spans in by_block.values():
        i = 0
        while i < len(spans):
            a = spans[i]
            for j in range(i + 1, len(spans)):
                b = spans[j]
                if a.start <= b.end and b.start <= a.end:
                    if b.start < a.start or b.end > a.end:
                        a.start, a.end = min(a.start, b.start), \
                            max(a.end, b.end)
                        a.escaped = None
                    del spans[j]
                    break
            else:
                i += 1
    left = {id(p) for spans in by_block.values() for p in spans}
    placements = [p for p in placements if id(p) in left]

    # the spans of one block are now disjoint, so a span lies within
    # another only if one of its ancestors lies in that span
    covered = {id(s) for p in placements for s in p.stmts}
    kept = []
    for p in placements:
        owning = block_owner[id(p.block)]
        while owning is not None and id(owning) not in covered:
            owning = block_owner[id(owner[id(owning)][0])]
        if owning is None:
            kept.append(p)
    return kept


def instrument_function(fn: S.FuncDef, placements: List[Placement],
                        table: D.Table) -> None:
    """Rewrite blocks in place, wrapping placed spans in SectionStmt, each
    entered in fn's fact table as a statement that does nothing itself."""
    by_block: Dict[int, List[Placement]] = {}
    for p in placements:
        by_block.setdefault(id(p.block), []).append(p)
    for plist in by_block.values():
        plist.sort(key=lambda p: p.start, reverse=True)
        block = plist[0].block
        for p in plist:
            body = block[p.start:p.end + 1]
            sec = S.SectionStmt(p.section_id, list(p.save_list),
                                list(p.merge_list), body,
                                body[0].loc if body else S.NOLOC)
            table[id(sec)] = D.NOTHING
            block[p.start:p.end + 1] = [sec]


def instrument(program: S.Program, cfgs: Optional[Dict[str, Cfg]] = None,
               tables: Optional[Dict[str, D.Table]] = None
               ) -> Tuple[S.Program, List[str]]:
    """Place and insert sections in every function and return warnings; a
    program with sections, whose CFGs have merge nodes, is left as it is.
    `cfgs` maps function names to CFGs, built here if not given, and is
    emptied as placement goes; fact tables come from `tables` or are
    built and kept there."""
    if cfgs is None:
        cfgs = {name: build_cfg(fn) for name, fn in program.functions.items()}
    if any(graph.merge_of for graph in cfgs.values()):
        return program, []
    tables = {} if tables is None else tables
    warnings: List[str] = []
    for fn in program.functions.values():
        table = D.table_of(fn, program, tables)
        instrument_function(fn, place_sections(fn, cfgs.pop(fn.name), table,
                                               warnings), table)
    return program, warnings
