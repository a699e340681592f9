"""Independent checker for instrumented programs.

Shares with placement only the per-statement facts of `deps.fact_table`,
a pure function of each node. Re-derives the rest: its own CFG of the
instrumented function, reaching definitions and the escape and save
sets; trusts nothing placement stored but the section bounds.

Criterion 1 (the split strictly dominates the merge, which strictly
post-dominates the split) is read from the section's shape. Mini-C has
no `goto`, `break` or `continue`, so the body is entered only through
the split and left only through the merge or a `return`. The split thus
dominates the merge exactly when ENTRY reaches the merge, and the merge
post-dominates the split exactly when no return leaves the body but its
last statement, which the CFG routes through the merge; a nested
section's closing return counts as one that leaves. A parser that adds
any of the three jumps must bring dominators back.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from ..frontend import cfg as C
from ..frontend import syntax as S
from . import deps as D


def validate_function(fn: S.FuncDef, table: D.Table) -> List[str]:
    """Returns a list of criterion violations (empty means valid)."""
    problems: List[str] = []
    sections = [s for s in S.walk_stmts(fn.body)
                if type(s) is S.SectionStmt]
    if not sections:  # nothing to check, so no CFG to build
        return problems
    graph = C.build_cfg(fn)
    readers = D.compute_dep_sets(fn, graph, table)
    for sec in sections:
        split = graph.node_of.get(id(sec))
        merge = graph.merge_of.get(id(sec))
        tag = f"section {sec.section_id}"
        if split is None or merge is None:
            problems.append(f"{tag}: markers missing from the CFG")
            continue
        # criterion 1, from the section's shape (see the module docstring)
        if merge in graph.dead:
            problems.append(f"{tag}: split does not strictly dominate merge")
        if any(type(x) is S.Return and x is not sec.body[-1]
               for s in sec.body for x in S.walk_stmts(s)):
            problems.append(f"{tag}: merge does not strictly post-dominate"
                            f" split")
        # criterion 2: markers delimit one consecutive span of a single
        # syntactic block -- the SectionStmt shape guarantees this, so
        # only an empty body is degenerate
        if not sec.body:
            problems.append(f"{tag}: empty section body")
        # criterion 3: no integer variable written inside is read outside;
        # every variable written inside and read outside is merged
        escaped = D.escaping(sec.body, readers, table)
        problems.extend(f"{tag}: int variable {v!r} written inside is read"
                        f" after the merge"
                        for v in sorted(escaped) if fn.var_types[v][0] == "int")
        # and save_list covers upward-exposed reads of written variables
        for name, want, have in (
                ("merge_list", escaped.keys(), sec.merge_list),
                ("save_list", D.save_list(sec.body, table), sec.save_list)):
            missing = sorted(want - set(have))
            if missing:
                problems.append(f"{tag}: {name} misses {missing}")
    return problems


def validate(program: S.Program,
             tables: Optional[Dict[str, D.Table]] = None) -> List[str]:
    """Criterion violations of every function; each function's fact table
    is taken from `tables`, or built and kept there."""
    tables = {} if tables is None else tables
    out: List[str] = []
    for fn in program.functions.values():
        out.extend(f"{fn.name}: {p}" for p in validate_function(
            fn, D.table_of(fn, program, tables)))
    return out
