"""Per-statement facts and the data dependencies of a region, for
split/merge placement and its validator.

`fact_table` walks a function once and gives each statement's own facts,
its sub-statements aside: the variables it may write, those it certainly
and fully overwrites, those it reads, and whether it holds an unstable
test, a placement candidate: a comparison of a float, a float tested for
truth (a condition of if, while, do, assume or `?:`, an operand of `!`,
`&&` or `||`), or a float converted to int (a cast, a store into an int,
an int parameter, the result of an int function). Facts are a pure
function of the node and placement wraps the same leaves in sections, so
placement and the validator share one table; a block or a section does
nothing itself.

A region is a consecutive run of statements of one block, nested ones
included. Placement and the validator each build their own CFG and
`readers` map (`compute_dep_sets`: reaching definitions, from each
(writer, variable) definition to the statements its value reaches), and
ask two questions of a region:
  * escaping: each variable written inside whose value reaches a
    statement outside, with those statements' ids. A section grows until
    no int variable escapes; the variables that escape are its merge list.
  * save_list: the variables it writes and may read before writing them.
    Each path through a section starts from their values at the split.

The reaching-definitions solve holds one mask of definitions per CFG
node, its out-set. A node's in-set is built only after the fixed point,
and only where the node reads; nodes that certainly write the same
variables share one kill mask.
"""
from __future__ import annotations

from typing import (Dict, FrozenSet, List, NamedTuple, Sequence, Set,
                    Tuple)

from ..frontend import cfg as C
from ..frontend import syntax as S

#: (writer stmt id, variable) -> ids of the statements its value reaches
Readers = Dict[Tuple[int, str], Set[int]]

EMPTY: FrozenSet[str] = frozenset()


class Facts(NamedTuple):
    """What one statement does itself, its sub-statements aside."""
    writes: FrozenSet[str]   # variables it may write
    certain: FrozenSet[str]  # those it certainly and fully overwrites
    reads: FrozenSet[str]
    candidate: bool          # it holds an unstable test


NOTHING = Facts(EMPTY, EMPTY, EMPTY, False)

#: id(statement) -> its facts, for every statement of one function
Table = Dict[int, Facts]

_FLOATS = ("float", "double")


def _enlarge_targets(p: S.Pred) -> FrozenSet[str]:
    """Variables updated by enlarge built-ins inside an assertion."""
    out: Set[str] = set()
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, S.PRel):
            stack += [q.left, q.right]
        elif isinstance(q, (S.PNot, S.PLet)):
            stack.append(q.pred if isinstance(q, S.PNot) else q.body)
        elif isinstance(q, S.PBuiltin) and q.args \
                and S.BUILTINS[q.name].action == "enlarge" \
                and isinstance(q.args[0], (S.TName, S.TIndex)):
            out.add(q.args[0].name)
    return frozenset(out) if out else EMPTY


def _any_float(exprs: Sequence[S.Expr], fn: S.FuncDef,
               program: S.Program) -> bool:
    return any(S.expr_ctype(x, fn.var_types, program) in _FLOATS
               for x in exprs)


def _read(e: S.Expr, reads: Set[str], fn: S.FuncDef,
          program: S.Program) -> bool:
    """Add the variables e reads to reads, and tell whether e holds an
    unstable test: a node that tests or converts to int an operand that
    may be a float."""
    unstable = False
    for sub in S.walk_exprs(e):
        kind = type(sub)
        if kind is S.Var or kind is S.Index:
            reads.add(sub.name)
        elif unstable:
            continue
        elif kind is S.Binary:
            if sub.op in S.COMPARISONS or sub.op in ("&&", "||"):
                unstable = _any_float((sub.left, sub.right), fn, program)
        elif kind is S.Unary:
            unstable = sub.op == "!" and _any_float((sub.expr,), fn, program)
        elif kind is S.Ternary:
            unstable = _any_float((sub.cond,), fn, program)
        elif kind is S.Cast:
            unstable = sub.ctype == "int" \
                and _any_float((sub.expr,), fn, program)
        elif kind is S.Call and sub.name in program.functions:
            unstable = _any_float(
                [a for p, a in zip(program.functions[sub.name].params,
                                   sub.args)
                 if p.ctype == "int" and not p.is_array], fn, program)
    return unstable


def stmt_facts(s: S.Stmt, fn: S.FuncDef, program: S.Program) -> Facts:
    """The facts of one statement of fn, from one walk of each expression
    it evaluates itself."""
    kind = type(s)
    if kind is S.Block or kind is S.SectionStmt:
        return NOTHING
    exprs = S.stmt_exprs(s)
    writes = certain = EMPTY
    # the values s itself tests for truth or converts to int
    operands: Sequence[S.Expr] = ()
    if kind is S.Decl:
        if s.init is not None or s.array_init is not None:
            writes = certain = frozenset((s.name,))
        operands = exprs if s.ctype == "int" else ()
    elif kind is S.Assign:
        writes = frozenset((s.target.name,))
        # an array cell write leaves the other cells live
        certain = EMPTY if type(s.target) is S.Index else writes
        operands = exprs[:1] if fn.var_types[s.target.name][0] == "int" \
            else ()
    elif kind is S.Return:
        operands = exprs if fn.ret_type == "int" else ()
    elif kind is not S.ExprStmt:  # a condition, or an assertion
        operands = exprs
    reads: Set[str] = set()
    tests = [_read(e, reads, fn, program) for e in exprs]  # reads them all
    if kind is S.AssertStmt:
        reads.update(t.name for t in S.pred_names(s.pred))
        writes = certain = _enlarge_targets(s.pred)
    return Facts(writes, certain, frozenset(reads) if reads else EMPTY,
                 any(tests) or _any_float(operands, fn, program))


def fact_table(fn: S.FuncDef, program: S.Program) -> Table:
    """The facts of every statement of fn, in one walk. Statements with
    equal facts share one Facts object, and facts one object per equal
    set of names, so that a table costs little more than its keys."""
    shared: Dict[Facts, Facts] = {}
    sets: Dict[FrozenSet[str], FrozenSet[str]] = {}
    table: Table = {}
    for s in S.walk_stmts(fn.body):
        f = stmt_facts(s, fn, program)
        if f not in shared:
            shared[f] = Facts(*[sets.setdefault(x, x) for x in f[:3]],
                              f.candidate)
        table[id(s)] = shared[f]
    return table


def table_of(fn: S.FuncDef, program: S.Program,
             tables: Dict[str, Table]) -> Table:
    """fn's fact table from tables, built and kept there on first use."""
    if fn.name not in tables:
        tables[fn.name] = fact_table(fn, program)
    return tables[fn.name]


def compute_dep_sets(fn: S.FuncDef, graph: C.Cfg, table: Table) -> Readers:
    """Reaching definitions over fn's CFG, one bit per (variable, writer)
    definition; parameters are definitions at entry."""
    n_nodes = len(graph.succ)
    facts = [NOTHING if st is None else table[id(st)]
             for st in map(graph.stmt_of.get, range(n_nodes))]

    defs_of: Dict[str, int] = {}  # variable -> mask of its definitions
    def_site: List[Tuple[int, str]] = []  # bit -> (writer id, variable)

    def define(v: str, writer: int) -> int:
        bit = 1 << len(def_site)
        def_site.append((writer, v))
        defs_of[v] = defs_of.get(v, 0) | bit
        return bit

    gen = [0] * n_nodes
    for n, f in enumerate(facts):
        for v in f.writes:
            gen[n] |= define(v, id(graph.stmt_of[n]))
    params = 0
    for p in fn.params:
        params |= define(p.name, id(fn))
    gen[C.ENTRY] |= params
    # one kill mask per distinct certain set; masks of distinct variables
    # are disjoint, so their sum is their union
    kills: Dict[FrozenSet[str], int] = {}
    for f in facts:
        if f.certain not in kills:
            kills[f.certain] = ~sum(map(defs_of.__getitem__, f.certain))
    keep = [kills[f.certain] for f in facts]

    # sweep in reverse postorder from entry, then the unreachable nodes:
    # round-robin sweeps reach the same least fixed point as any worklist
    nodes = graph.order + sorted(set(range(n_nodes)) - set(graph.order))
    pred = graph.pred
    out = gen[:]
    changed = True
    while changed:
        changed = False
        for n in nodes:
            x = 0
            for p in pred[n]:
                x |= out[p]
            o = gen[n] | (x & keep[n])
            if o != out[n]:
                out[n] = o
                changed = True

    readers: Readers = {}
    for n, f in enumerate(facts):
        if not f.reads:
            continue
        inn = 0  # the union of the out-masks of n's predecessors
        for p in pred[n]:
            inn |= out[p]
        for v in f.reads:
            bits = inn & defs_of.get(v, 0) & ~params
            while bits:
                low = bits & -bits
                bits ^= low
                key = def_site[low.bit_length() - 1]
                readers.setdefault(key, set()).add(id(graph.stmt_of[n]))
    return readers


def escaping(stmts: List[S.Stmt], readers: Readers, table: Table
             ) -> Dict[str, Set[int]]:
    """Each variable written in the region whose value reaches a statement
    outside it, with the ids of those statements."""
    subs = [id(sub) for s in stmts for sub in S.walk_stmts(s)]
    inside = set(subs)
    out: Dict[str, Set[int]] = {}
    for sid in subs:
        for v in table[sid].writes:
            outside = readers.get((sid, v), set()) - inside
            if outside:
                out.setdefault(v, set()).update(outside)
    return out


def _exposed(s: S.Stmt, table: Table) -> Tuple[Set[str], Set[str]]:
    """The variables s may read before writing them, and those it
    certainly writes. A loop's condition counts as read first; a `while`
    body may not run, a `do` body runs at least once."""
    if isinstance(s, (S.Block, S.SectionStmt)):
        reads: Set[str] = set()
        writes: Set[str] = set()
        for sub in S.stmt_children(s):
            r, w = _exposed(sub, table)
            reads |= r - writes
            writes |= w
        return reads, writes
    own = table[id(s)]
    if isinstance(s, S.If):
        r, w = _exposed(s.then, table)
        er, ew = _exposed(s.els, table) if s.els is not None \
            else (EMPTY, EMPTY)
        return own.reads | r | er, w & ew
    if isinstance(s, (S.While, S.DoWhile)):
        r, w = _exposed(s.body, table)
        return own.reads | r, w if isinstance(s, S.DoWhile) else EMPTY
    return own.reads, own.certain


def save_list(stmts: List[S.Stmt], table: Table) -> Set[str]:
    """The variables the region writes and may read before writing them."""
    written = {v for s in stmts for sub in S.walk_stmts(s)
               for v in table[id(sub)].writes}
    return written & _exposed(S.Block(stmts), table)[0]
