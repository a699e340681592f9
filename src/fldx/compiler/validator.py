"""Independent checker for instrumented programs.

Re-derives dominance from the CFG and the escape sets from a fresh
dependency analysis; does not trust anything the placement pass stored
beyond the section boundaries themselves.
"""
from __future__ import annotations

from typing import List

from ..frontend import cfg as C
from ..frontend import syntax as S
from . import deps as D


def validate_function(fn: S.FuncDef) -> List[str]:
    """Returns a list of criterion violations (empty means valid)."""
    problems: List[str] = []
    graph = C.build_cfg(fn)
    readers = D.compute_dep_sets(fn, graph)

    sections = [s for s in S.walk_stmts(fn.body)
                if isinstance(s, S.SectionStmt)]
    for sec in sections:
        split = graph.node_of.get(id(sec))
        merge = graph.merge_of.get(id(sec))
        tag = f"section {sec.section_id}"
        if split is None or merge is None:
            problems.append(f"{tag}: markers missing from the CFG")
            continue
        # criterion 1: split strictly dominates merge, merge strictly
        # post-dominates split
        if not graph.strictly_dominates(split, merge):
            problems.append(f"{tag}: split does not strictly dominate merge")
        if not graph.strictly_post_dominates(merge, split):
            problems.append(f"{tag}: merge does not strictly post-dominate"
                            f" split")
        # criterion 2: markers delimit one consecutive span of a single
        # syntactic block -- the SectionStmt shape guarantees this, so
        # only an empty body is degenerate
        if not sec.body:
            problems.append(f"{tag}: empty section body")
        # criterion 3: no integer variable written inside is read outside;
        # every variable written inside and read outside is merged
        escaped = D.escaping(sec.body, readers)
        problems.extend(f"{tag}: int variable {v!r} written inside is read"
                        f" after the merge"
                        for v in sorted(escaped) if fn.var_types[v][0] == "int")
        missing = escaped.keys() - set(sec.merge_list)
        if missing:
            problems.append(f"{tag}: merge_list misses {sorted(missing)}")
        # save_list must cover upward-exposed reads of written variables
        want_save = D.save_list(sec.body)
        missing_s = want_save - set(sec.save_list)
        if missing_s:
            problems.append(f"{tag}: save_list misses {sorted(missing_s)}")
    return problems


def validate(program: S.Program) -> List[str]:
    out: List[str] = []
    for fn in program.functions.values():
        out.extend(f"{fn.name}: {p}" for p in validate_function(fn))
    return out
