"""AST for the analyzed mini-C subset and its assertion annotations.

Every node class is slotted, so a node has no `__dict__` and nothing may
add an attribute to it; a cache of per-node data keys by `id(node)`, as
`Interp._code` and `Interp._conds` do.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union


@dataclass(slots=True, unsafe_hash=True)
class Loc:
    """A line and column, never changed once built. Not frozen: a frozen
    one takes three times as long to build, and a parse builds many."""
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NOLOC = Loc(0, 0)


# -- expressions -------------------------------------------------------------


@dataclass(slots=True)
class IntLit:
    value: int
    loc: Loc = NOLOC


@dataclass(slots=True)
class FloatLit:
    text: str
    value: Fraction
    loc: Loc = NOLOC


@dataclass(slots=True)
class Var:
    name: str
    loc: Loc = NOLOC


@dataclass(slots=True)
class Index:
    name: str
    index: "Expr"
    loc: Loc = NOLOC


@dataclass(slots=True)
class Unary:
    op: str  # '-' or '!'
    expr: "Expr"
    loc: Loc = NOLOC


@dataclass(slots=True)
class Binary:
    op: str  # + - * / % < <= > >= == != && ||
    left: "Expr"
    right: "Expr"
    loc: Loc = NOLOC


@dataclass(slots=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    els: "Expr"
    loc: Loc = NOLOC


@dataclass(slots=True)
class Cast:
    ctype: str  # 'int', 'float', 'double'
    expr: "Expr"
    loc: Loc = NOLOC


@dataclass(slots=True)
class Call:
    name: str
    args: List["Expr"]
    loc: Loc = NOLOC


Expr = Union[IntLit, FloatLit, Var, Index, Unary, Binary, Ternary, Cast, Call]

COMPARISONS = {"<", "<=", ">", ">=", "==", "!="}


def precedences(*levels: str) -> Dict[str, int]:
    """Each operator of `levels`, listed by precedence, loosest first,
    blank-separated, mapped to its precedence, counted from 1."""
    return {op: prec for prec, level in enumerate(levels, 1)
            for op in level.split()}


#: the binary operators of C expressions, of annotation terms and of
#: annotation predicates, by precedence. An operator folds to the left,
#: but those of RIGHT_ASSOC, which fold to the right.
EXPR_PREC = precedences("||", "&&", "== !=", "< <= > >=", "+ -", "* / %")
TERM_PREC = precedences("+ -", "* /")
PRED_PREC = precedences("==>", "||", "&&")
RIGHT_ASSOC = frozenset({"==>"})


# -- annotation predicates and terms ----------------------------------------


@dataclass(slots=True)
class TConst:
    value: Fraction
    text: str
    loc: Loc = NOLOC

    @property
    def is_integer(self) -> bool:
        return "." not in self.text and "e" not in self.text.lower()


@dataclass(slots=True)
class TName:
    """A binder or a program left-value; resolved during typing."""
    name: str
    loc: Loc = NOLOC


@dataclass(slots=True)
class TIndex:
    name: str
    index: "Term"
    loc: Loc = NOLOC


@dataclass(slots=True)
class TBin:
    op: str  # + - * /
    left: "Term"
    right: "Term"
    loc: Loc = NOLOC


@dataclass(slots=True)
class TCall:
    """Term-level built-in: min, max, abs, max_distance."""
    name: str
    args: List["Term"]
    loc: Loc = NOLOC


Term = Union[TConst, TName, TIndex, TBin, TCall]


@dataclass(slots=True)
class PRel:
    op: str  # && || ==>
    left: "Pred"
    right: "Pred"
    loc: Loc = NOLOC


@dataclass(slots=True)
class PNot:
    pred: "Pred"
    loc: Loc = NOLOC


@dataclass(slots=True)
class PCmp:
    op: str  # < <= == > >= !=
    left: Term
    right: Term
    loc: Loc = NOLOC


@dataclass(slots=True)
class PLet:
    names: List[str]  # one name, or two for pair-returning built-ins
    value: Union[Term, "PBuiltin"]
    body: "Pred"
    loc: Loc = NOLOC


@dataclass(slots=True)
class PBuiltin:
    name: str
    args: List[Term]
    loc: Loc = NOLOC


Pred = Union[PRel, PNot, PCmp, PLet, PBuiltin]


@dataclass(frozen=True, slots=True)
class Builtin:
    """An annotation built-in: its arity; its action, which is `assert`,
    `enlarge`, `print` (predicates), `get` (a pair, bound by \\let) or
    `term`; the float type of its variable, its first argument (None for
    a term); and the quantity of the variable it reads: `err`, `real` or
    `relerr` (None for an enlarge, a print or a term)."""
    arity: int
    action: str
    ctype: Optional[str] = None
    quantity: Optional[str] = None


#: every annotation built-in, by name
BUILTINS = {
    "accuracy_enlarge_fval_err": Builtin(5, "enlarge", "float"),
    "accuracy_enlarge_dval_err": Builtin(5, "enlarge", "double"),
    "accuracy_assert_ferr": Builtin(3, "assert", "float", "err"),
    "accuracy_assert_derr": Builtin(3, "assert", "double", "err"),
    "accuracy_assert_frelerr": Builtin(3, "assert", "float", "relerr"),
    "accuracy_assert_drelerr": Builtin(3, "assert", "double", "relerr"),
    "fprint": Builtin(1, "print", "float"),
    "dprint": Builtin(1, "print", "double"),
    "accuracy_get_ferr": Builtin(1, "get", "float", "err"),
    "accuracy_get_derr": Builtin(1, "get", "double", "err"),
    "accuracy_get_frelerr": Builtin(1, "get", "float", "relerr"),
    "accuracy_get_drelerr": Builtin(1, "get", "double", "relerr"),
    "accuracy_get_freal": Builtin(1, "get", "float", "real"),
    "accuracy_get_dreal": Builtin(1, "get", "double", "real"),
    "min": Builtin(2, "term"),
    "max": Builtin(2, "term"),
    "abs": Builtin(1, "term"),
    "max_distance": Builtin(2, "term"),
}


# -- statements --------------------------------------------------------------


@dataclass(slots=True)
class Decl:
    ctype: str  # 'int', 'float', 'double'
    name: str
    init: Optional[Expr] = None
    array_size: Optional[int] = None
    array_init: Optional[List[Expr]] = None
    loc: Loc = NOLOC


@dataclass(slots=True)
class Assign:
    target: Union[Var, Index]
    expr: Expr
    loc: Loc = NOLOC


@dataclass(slots=True)
class If:
    cond: Expr
    then: "Block"
    els: Optional["Block"] = None
    loc: Loc = NOLOC


@dataclass(slots=True)
class While:
    cond: Expr
    body: "Block"
    loc: Loc = NOLOC


@dataclass(slots=True)
class DoWhile:
    body: "Block"
    cond: Expr
    loc: Loc = NOLOC


@dataclass(slots=True)
class Return:
    expr: Optional[Expr] = None
    loc: Loc = NOLOC


@dataclass(slots=True)
class ExprStmt:
    expr: Expr
    loc: Loc = NOLOC


@dataclass(slots=True)
class AssertStmt:
    pred: Pred
    loc: Loc = NOLOC


@dataclass(slots=True)
class AssumeStmt:
    cond: Expr
    loc: Loc = NOLOC


@dataclass(slots=True)
class Block:
    stmts: List["Stmt"]
    loc: Loc = NOLOC


@dataclass(slots=True)
class SectionStmt:
    """A split-merge section: body re-executed once per feasible path."""
    section_id: int
    save_list: List[str]
    merge_list: List[str]
    body: List["Stmt"]
    loc: Loc = NOLOC


Stmt = Union[Decl, Assign, If, While, DoWhile, Return, ExprStmt, AssertStmt,
             AssumeStmt, Block, SectionStmt]


@dataclass(slots=True)
class Param:
    ctype: str
    name: str
    is_array: bool = False


@dataclass(slots=True)
class FuncDef:
    ret_type: str  # 'int', 'float', 'double', 'void'
    name: str
    params: List[Param]
    body: Block
    loc: Loc = NOLOC
    #: var name -> ('int'|'float'|'double', is_array): the parameters, then
    #: the declarations in source order, filled by the parser
    var_types: Dict[str, Tuple[str, bool]] = field(default_factory=dict)


@dataclass(slots=True)
class Program:
    functions: Dict[str, FuncDef]


# -- helpers -----------------------------------------------------------------


def stmt_children(s: Stmt) -> Sequence[Stmt]:
    kind = type(s)
    if kind is Block or kind is SectionStmt:
        return s.stmts if kind is Block else s.body
    if kind is If:
        return (s.then,) if s.els is None else (s.then, s.els)
    return (s.body,) if kind is While or kind is DoWhile else ()


def walk_stmts(s: Stmt) -> Iterator[Stmt]:
    """Yield s and all its sub-statements, depth first, in source order.

    One generator and an explicit stack, however deep the nesting: the
    children of a statement are read when the walk resumes after yielding
    it, as a recursive walk would."""
    stack = [s]
    while stack:
        s = stack.pop()
        yield s
        if type(s) not in _LEAVES:
            kids = stmt_children(s)
            if kids:
                stack.extend(reversed(kids))


#: the statements that hold no statement
_LEAVES = frozenset({Decl, Assign, Return, ExprStmt, AssertStmt,
                     AssumeStmt})


def expr_children(e: Expr) -> Sequence[Expr]:
    kind = type(e)
    if kind is Binary:
        return (e.left, e.right)
    if kind is Unary or kind is Cast:
        return (e.expr,)
    if kind is Index:
        return (e.index,)
    if kind is Ternary:
        return (e.cond, e.then, e.els)
    return e.args if kind is Call else ()


def walk_exprs(e: Expr) -> Iterator[Expr]:
    """Yield e and all its sub-expressions, depth first, left to right,
    with an explicit stack as `walk_stmts` does."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if type(e) not in _ATOMS:
            stack.extend(reversed(expr_children(e)))


#: the expressions that hold no expression
_ATOMS = frozenset({Var, IntLit, FloatLit})


def pred_names(p: Pred) -> List[Union[TName, TIndex]]:
    """The names of p that denote program variables, left to right: every
    array element, and every name outside the scope of a \\let binding it."""
    out: List[Union[TName, TIndex]] = []
    # (term or predicate, the \let names bound there), next one on top
    todo: List[Tuple[Union[Term, Pred], frozenset]] = [(p, frozenset())]
    while todo:
        q, bound = todo.pop()
        if isinstance(q, TName):
            if q.name not in bound:
                out.append(q)
        elif isinstance(q, TIndex):
            out.append(q)
            todo.append((q.index, bound))
        elif isinstance(q, PLet):
            todo += [(q.body, bound | set(q.names)), (q.value, bound)]
        elif isinstance(q, (TBin, PRel, PCmp)):
            todo += [(q.right, bound), (q.left, bound)]
        elif isinstance(q, PNot):
            todo.append((q.pred, bound))
        elif isinstance(q, (TCall, PBuiltin)):
            todo += [(a, bound) for a in reversed(q.args)]
    return out
