"""Per-statement facts and the data dependencies of a region, for
split/merge placement and its validator.

`fact_table` walks a function once and gives each statement's own facts,
its sub-statements aside: the variables it may write (an array passed to
a function among them), those it certainly and fully overwrites, those
it reads, and whether it holds an unstable test, a placement candidate:
a comparison of a float, a float tested for truth (a condition of if,
while, do, assume or `?:`, an operand of `!`, `&&` or `||`), or a float
converted to int (a cast, a store into an int, an int parameter, the
result of an int function). Facts are a pure
function of the node and placement wraps the same leaves in sections, so
placement and the validator share one table; a block or a section does
nothing itself. One bottom-up walk of each expression gives its C type,
its reads and its tests, with a loop along chains of operators.

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

The reaching-definitions solve keeps one mask of definitions per CFG
node, its out-set, and sweeps the nodes in flow order, their ids. When
the out-set of a node with a loop back edge changes, the sweep goes back
to where those edges enter: each loop is solved as the sweep reaches its
end. In-sets are built after, only where a node reads.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

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

# An expression's code: its C type as one of three bits, and a fourth bit
# when it holds an unstable test; "void" counts as int
INT, FLOAT, DOUBLE, UNSTABLE = 1, 2, 4, 8
_CODE = {"int": INT, "float": FLOAT, "double": DOUBLE}
#: arithmetic on operands whose codes or together to t
_JOIN = tuple(t & UNSTABLE | (DOUBLE if t & DOUBLE else FLOAT if t & FLOAT
                              else INT) for t in range(16))
#: a value of code t compared, tested for truth or converted to int
_TEST = tuple(t & UNSTABLE | INT | (UNSTABLE if t & 6 else 0)
              for t in range(16))
_TESTS = S.COMPARISONS | {"&&", "||"}
_CONDITIONS = (S.If, S.While, S.DoWhile, S.AssumeStmt)


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


def _scan(e: S.Expr, reads: Set[str], passed: Set[str],
          codes: Dict[str, int], functions: Dict[str, S.FuncDef]) -> int:
    """e's code, from one walk of its nodes, each after its operands, with
    no recursion however deep e nests; adds the variables e reads to reads
    and the arrays it passes to a function, which may write them, to
    passed."""
    stack: List[int] = []  # the codes of the operands met, last on top
    for x in reversed(list(S.walk_exprs(e))):
        kind = type(x)
        if kind is S.Var:
            reads.add(x.name)
            stack.append(codes[x.name])
        elif kind is S.Binary:
            t = stack.pop() | stack.pop()
            stack.append(_TEST[t] if x.op in _TESTS else _JOIN[t])
        elif kind is S.IntLit or kind is S.FloatLit:
            stack.append(INT if kind is S.IntLit else DOUBLE)
        elif kind is S.Index:
            reads.add(x.name)
            stack.append(codes[x.name] | stack.pop() & UNSTABLE)
        elif kind is S.Cast and x.ctype != "int":
            stack.append(stack.pop() & UNSTABLE | _CODE[x.ctype])
        elif kind is S.Cast or kind is S.Unary and x.op == "!":
            stack.append(_TEST[stack.pop()])
        elif kind is S.Ternary:  # its condition's code is on top
            t = _TEST[stack.pop()] & UNSTABLE
            stack.append(t | _JOIN[stack.pop() | stack.pop()])
        elif kind is S.Call:
            args = [stack.pop() for _ in x.args]
            t = UNSTABLE if any(a & UNSTABLE for a in args) else 0
            callee = functions.get(x.name)
            for p, a, arg in zip(callee.params if callee else (), args,
                                 x.args):
                if p.is_array:
                    if type(arg) is S.Var:
                        passed.add(arg.name)
                elif p.ctype == "int" and a & 6:
                    t |= UNSTABLE
            stack.append(t | (DOUBLE if callee is None
                              or x.name == "read_double"
                              else _CODE.get(callee.ret_type, INT)))
        elif kind is not S.Unary:  # a minus leaves its operand's code
            raise TypeError(f"unknown expression {x!r}")
    return stack[0]


def fact_table(fn: S.FuncDef, program: S.Program) -> Table:
    """The facts of every statement of fn, in one walk. Statements with
    equal facts share one Facts object, and facts one object per equal
    set of names, so that a table costs little more than its keys."""
    codes = {v: _CODE[t] for v, (t, _) in fn.var_types.items()}
    reads: Set[str] = set()  # those of the statement being walked
    passed: Set[str] = set()  # the arrays it passes to a function

    def scan(e: S.Expr) -> int:
        return _scan(e, reads, passed, codes, program.functions)

    # the code bits that make a statement a candidate: a float counts where
    # it is tested or converted to int
    into_int = UNSTABLE | FLOAT | DOUBLE
    returns = into_int if fn.ret_type == "int" else UNSTABLE
    sets: Dict[FrozenSet[str], FrozenSet[str]] = {EMPTY: EMPTY}
    shared: Dict[tuple, Facts] = {}
    table: Table = {}
    todo: List[S.Stmt] = [fn.body]
    while todo:
        s = todo.pop()
        kind = type(s)
        writes = certain = EMPTY
        u = 0
        if kind is S.Assign:
            name = s.target.name
            u = scan(s.expr) & (into_int if codes[name] == INT else UNSTABLE)
            writes = frozenset((name,))
            if type(s.target) is S.Index:  # the other cells stay live
                u |= scan(s.target.index) & UNSTABLE
            else:
                certain = writes
        elif kind is S.Block or kind is S.SectionStmt:
            todo.extend(s.stmts if kind is S.Block else s.body)
            table[id(s)] = NOTHING
            continue
        elif kind in _CONDITIONS:
            u = scan(s.cond) & into_int
            todo.extend(S.stmt_children(s))
        elif kind is S.Decl:
            exprs = s.array_init or []
            for x in exprs if s.init is None else [s.init, *exprs]:
                u |= scan(x)
            u &= into_int if s.ctype == "int" else UNSTABLE
            if s.init is not None or s.array_init is not None:
                writes = certain = frozenset((s.name,))
        elif kind is S.AssertStmt:
            reads.update(t.name for t in S.pred_names(s.pred))
            writes = certain = _enlarge_targets(s.pred)
        elif s.expr is not None:  # a return or an expression statement
            u = scan(s.expr) & (returns if kind is S.Return else UNSTABLE)
        if passed:  # a write, though not a certain one
            writes = writes | passed
            passed.clear()
        key = (writes, certain, frozenset(reads) if reads else EMPTY, u != 0)
        reads.clear()
        f = shared.get(key)
        if f is None:
            f = shared[key] = Facts(*[sets.setdefault(x, x) for x in key[:3]],
                                    key[3])
        table[id(s)] = f
    return table


def table_of(fn: S.FuncDef, program: S.Program,
             tables: Dict[str, Table]) -> Table:
    """fn's fact table from tables, built and kept there on first use."""
    if fn.name not in tables:
        tables[fn.name] = fact_table(fn, program)
    return tables[fn.name]


def compute_dep_sets(fn: S.FuncDef, graph: C.Cfg, table: Table) -> Readers:
    """Reaching definitions over fn's CFG, one bit per (writer, variable)
    definition. A parameter's value at entry has no writer in fn, so it
    gets no bit and no readers."""
    n_nodes = len(graph.succ)
    gen = [0] * n_nodes
    keep = [-1] * n_nodes  # the definitions each node lets through
    site: List[Tuple[int, str]] = []  # bit index -> (writer id, variable)
    defs_of: Dict[str, int] = {}  # variable -> mask of its definitions
    certain: List[Tuple[int, FrozenSet[str]]] = []
    bit = 1
    for sid, n in graph.node_of.items():
        f = table[sid]
        if f.writes:
            for v in f.writes:
                site.append((sid, v))
                defs_of[v] = defs_of.get(v, 0) | bit
                gen[n] |= bit
                bit <<= 1
            if f.certain:
                certain.append((n, f.certain))
    # one kill mask per distinct certain set; masks of distinct variables
    # are disjoint, so their sum is their union
    kills: Dict[FrozenSet[str], int] = {}
    for n, vs in certain:
        if vs not in kills:
            kills[vs] = ~sum(map(defs_of.__getitem__, vs))
        keep[n] = kills[vs]

    pred, back = graph.pred, graph.back
    out = gen[:]
    start = C.EXIT + 1  # ENTRY defines nothing, EXIT reads nothing
    while True:
        for n in range(start, n_nodes):
            x = 0
            for p in pred[n]:
                x |= out[p]
            o = gen[n] | (x & keep[n])
            if o != out[n]:
                out[n] = o
                if n in back:  # a change went round a loop: sweep it again
                    start = back[n]
                    break
        else:
            break

    readers: Readers = {}
    for sid, n in graph.node_of.items():
        names = table[sid].reads
        if not names:
            continue
        inn = 0  # the union of the out-masks of n's predecessors
        for p in pred[n]:
            inn |= out[p]
        for v in names:
            bits = inn & defs_of.get(v, 0)
            while bits:
                low = bits & -bits
                bits ^= low
                readers.setdefault(site[low.bit_length() - 1], set()).add(sid)
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
