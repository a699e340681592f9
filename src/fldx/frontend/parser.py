"""Hand-written lexer and recursive-descent parser for the mini-C subset.

Annotation comments ``/*@ ... */`` carry accuracy assertions and
split/merge section markers; they are lexed as single tokens and parsed
with a dedicated sub-grammar.

Both grammars are read by three shared readers:

- `_climber` builds a precedence climber from an operand reader, a node
  constructor and a table of operator precedences from `syntax`, which
  the printer reads too: `EXPR_PREC` for C expressions, `TERM_PREC` for
  annotation terms and `PRED_PREC` for predicates. Every operator folds
  to the left except those of `syntax.RIGHT_ASSOC` (`==>`).
- `_items` reads a comma-separated list and its closing token: call
  arguments, array initializers, parameters, `\\let` names and built-in
  arguments.
- `_builtin` reads a call of an annotation built-in and checks its
  argument count against the built-in's declaration in `syntax`;
  `_at_builtin` tells whether a call of a built-in of given actions
  starts at the cursor.

Names are resolved as they are read. `_Cursor.names` starts from a
function's parameters and takes each declaration once its initializer
is read; it becomes `FuncDef.var_types`, one type per name per function,
so a declaration giving a name another type or array-ness is an error.
A variable of the code is checked as it is read, an annotation's names
on its parsed predicate with `S.pred_names`, which leaves out `\\let`
binders (`_parse_pred_atom` may read a term twice). A call may name a
later function. Name errors and calls wait in `_Cursor.pending`, in
source order, a call before its arguments; the first error is raised
once the whole source has parsed, so any syntax error comes first.
`parse_expr` and `parse_pred` check no names.

Position model: tokens are rows (`Tokens`), a kind, a text and a start
offset each, so no token is an object. Line and column come from the
offset, by bisecting the offsets at which the source's lines start, only
when a node or an error asks for them. A token gets at most one `S.Loc`,
shared by every node the token starts (a statement and its first
operand), and the `S.Loc`s of one line share one line number. All the
tokens of an annotation share one `S.Loc`: the annotation's position.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SyntaxErrorAt, TypeErrorAt
from . import syntax as S

KEYWORDS = {"int", "float", "double", "void", "if", "else", "while", "do",
            "return", "assume"}

#: One match per token, the blanks and comments before it included; only
#: a match at the end of the source takes no group. `open_annot`,
#: `open_comment` and `bad` are errors: their matches take the rest of
#: the source, so an error is the last token.
_LEX_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*|/\*(?!@).*?\*/)*
    (?:(?P<kw>(?:%s)(?!\w))
      |(?P<ident>[A-Za-z_]\w*)
      |(?P<op><=|>=|==|!=|&&|\|\||/(?!\*)|[-+*%%<>=!?:;,(){}\[\]])
      |(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
      |(?P<annot>/\*@.*?\*/)
      |(?P<open_annot>/\*@).*
      |(?P<open_comment>/\*).*
      |\Z
      |(?P<bad>.).*)
    """ % "|".join(sorted(KEYWORDS)),
    re.VERBOSE | re.DOTALL,
)

#: the message of each error kind, formatted with the token's text
_LEX_ERRORS = {"open_annot": "unterminated annotation",
               "open_comment": "unterminated comment",
               "bad": "unexpected character {!r}"}


class Tokens:
    """Token i is of kind `kinds[i]` ('num', 'ident', 'op', 'kw', 'annot'
    or 'eof', which comes last), spelled `texts[i]`, at offset
    `offsets[i]` of `src`, and `loc(i)` is its position; `len()` counts
    the tokens. An annotation's tokens have no offsets: all are at `at`."""
    __slots__ = ("kinds", "texts", "offsets", "src", "_starts", "_lines",
                 "_locs")

    def __init__(self, kinds, texts, offsets, src, at=None) -> None:
        self.kinds, self.texts, self.offsets, self.src = \
            kinds, texts, offsets, src
        self._starts, self._lines = None, []  # each line's offset, number
        self._locs = [at] * len(kinds)

    def __len__(self) -> int:
        return len(self.kinds)

    def loc(self, i: int) -> S.Loc:
        loc = self._locs[i]
        if loc is None:
            starts = self._starts
            if starts is None:
                starts = self._starts = array("i", [0])
                starts.extend(m.end() for m in re.finditer("\n", self.src))
                self._lines = [None] * (len(starts) + 1)
            off = self.offsets[i]
            k = bisect_right(starts, off)
            line = self._lines[k]
            if line is None:
                line = self._lines[k] = k
            loc = self._locs[i] = S.Loc(line, off - starts[k - 1] + 1)
        return loc


def tokenize(src: str) -> Tokens:
    """The tokens of src; eof sits just past its last character."""
    kinds, texts, offsets = [], [], array("i")
    for m in _LEX_RE.finditer(src):
        g = m.lastindex
        if g is not None:
            kinds.append(m.lastgroup)
            texts.append(m[g])
            offsets.append(m.start(g))
    error = _LEX_ERRORS.get(kinds[-1]) if kinds else None
    kinds.append("eof")
    texts.append("")
    offsets.append(len(src))
    toks = Tokens(kinds, texts, offsets, src)
    if error:
        _Cursor(toks).error(error.format(texts[-2]), len(kinds) - 2)
    return toks


class _Cursor:
    """A position in `Tokens`: token `i`, of kind `kind` and text `text`.
    `names` is the current function's variables as declared so far, and
    `pending` the calls and name errors met so far, in source order."""
    __slots__ = ("kinds", "texts", "loc", "i", "kind", "text", "names",
                 "pending")

    def __init__(self, toks: Tokens) -> None:
        self.kinds, self.texts, self.loc = toks.kinds, toks.texts, toks.loc
        self.seek(0)
        self.names: Dict[str, Tuple[str, bool]] = {}
        self.pending: list = []

    def seek(self, i: int) -> None:
        self.i, self.kind, self.text = i, self.kinds[i], self.texts[i]

    def advance(self) -> int:
        """Move past the current token, unless it is eof; its index."""
        i = self.i
        if self.kind != "eof":
            self.i = j = i + 1
            self.kind = self.kinds[j]
            self.text = self.texts[j]
        return i

    def at(self, text: str) -> bool:
        return self.text == text and self.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        if self.text == text and self.kind in ("op", "kw"):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> int:
        if not self.at(text):
            self.error(f"expected {text!r}, found {self.text!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.kind != "ident":
            self.error(f"expected ident, found {self.text!r}")
        return self.texts[self.advance()]

    def error(self, msg: str, i: Optional[int] = None):
        """Raise msg at token i, the current one by default."""
        loc = self.loc(self.i if i is None else i)
        raise SyntaxErrorAt(msg, loc.line, loc.col)

    def use(self, name: str, loc: S.Loc) -> None:
        """Note a read or a write of the variable name at loc."""
        if name not in self.names:
            self.pending.append(TypeErrorAt(
                f"{loc}: use of undeclared variable {name!r}"))

    def declare(self, name: str, kind: Tuple[str, bool], loc: S.Loc) -> None:
        """Declare name at loc as kind: (its type, whether an array)."""
        if self.names.setdefault(name, kind) != kind:
            self.pending.append(TypeErrorAt(
                f"{loc}: {name} redeclared with another type"))


# ---------------------------------------------------------------------------
# The shared readers
# ---------------------------------------------------------------------------


def _climber(operand: Callable, make: Callable,
             precs: Dict[str, int]) -> Callable:
    """A reader of operands joined by binary operators: `operand` reads an
    operand, `make(op, left, right, loc)` builds a node, and `precs`
    gives each operator its precedence, 1 the loosest. A right operand
    takes only the operators binding tighter than its own, so equal
    precedence folds to the left; an operator of `S.RIGHT_ASSOC` lets
    its right operand take itself too, and folds to the right."""
    #: operator -> (its precedence, the least its right operand takes)
    binds = {op: (prec, prec if op in S.RIGHT_ASSOC else prec + 1)
             for op, prec in precs.items()}

    def climb(c: _Cursor, min_prec: int = 0):
        left = operand(c)
        while True:
            op = c.text  # no other kind of token spells an operator
            bind = binds.get(op)
            if bind is None or bind[0] < min_prec:
                return left
            c.advance()
            left = make(op, left, climb(c, bind[1]), left.loc)
    return climb


def _items(c: _Cursor, item: Callable, close: str,
           empty: bool = True) -> list:
    """What `item` reads, separated by commas, up to the `close` token,
    which is consumed; an empty list only where `empty` allows it."""
    items = []
    if not (empty and c.accept(close)):
        items.append(item(c))
        while c.accept(","):
            items.append(item(c))
        c.expect(close)
    return items


def _at_builtin(c: _Cursor, *actions: str) -> bool:
    """Whether a call of a built-in doing one of `actions` starts at the
    cursor."""
    b = S.BUILTINS.get(c.text)
    return b is not None and b.action in actions and c.texts[c.i + 1] == "("


def _builtin(c: _Cursor, make: Callable):
    """The call of the built-in at the cursor, its argument count checked
    against its declaration: `make(name, args, loc)`."""
    name = c.text
    t = c.advance()
    c.advance()  # (
    args = _items(c, _term, ")")
    arity = S.BUILTINS[name].arity
    if len(args) != arity:
        c.error(f"{name} expects {arity} arguments", t)
    return make(name, args, c.loc(t))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _parse_expr(c: _Cursor) -> S.Expr:
    """A ternary, or a binary expression; `?:` is right-associative."""
    cond = _binary(c)
    if c.accept("?"):
        then = _parse_expr(c)
        c.expect(":")
        return S.Ternary(cond, then, _parse_expr(c), cond.loc)
    return cond


def _parse_unary(c: _Cursor) -> S.Expr:
    op = c.text
    if c.kind == "op" and op in ("-", "!"):
        t = c.advance()
        return S.Unary(op, _parse_unary(c), c.loc(t))
    return _parse_primary(c)


def _parse_primary(c: _Cursor) -> S.Expr:
    kind, text = c.kind, c.text
    if kind == "num":
        t = c.advance()
        if text.isdigit():
            return S.IntLit(int(text), c.loc(t))
        return S.FloatLit(text, Fraction(text), c.loc(t))
    if kind == "ident":
        t = c.advance()
        if c.accept("("):
            call = S.Call(text, [], c.loc(t))
            c.pending.append(call)  # checked before its arguments
            call.args = _items(c, _parse_expr, ")")
            return call
        loc = c.loc(t)
        c.use(text, loc)
        if c.accept("["):
            idx = _parse_expr(c)
            c.expect("]")
            return S.Index(text, idx, loc)
        return S.Var(text, loc)
    if c.at("("):
        # cast or parenthesized expression
        t = c.advance()
        if c.kind == "kw" and c.text in ("int", "float", "double") \
                and c.texts[c.i + 1] == ")":
            ctype = c.texts[c.advance()]
            c.advance()
            return S.Cast(ctype, _parse_unary(c), c.loc(t))
        e = _parse_expr(c)
        c.expect(")")
        return e
    c.error(f"unexpected token {text!r} in expression")


_binary = _climber(_parse_unary, S.Binary, S.EXPR_PREC)


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

_ANNOT_RE = re.compile(
    r"""
    \s+
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<let>\\let)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>==>|<=|>=|==|!=|&&|\|\||[-+*/<>=!?:;,()\[\]])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize_annot(body: str, line: int, col: int) -> Tokens:
    """The tokens of an annotation body, all at the annotation's
    position (line, col)."""
    ms = [m for m in _ANNOT_RE.finditer(body) if m.lastgroup is not None]
    bad = [m[0] for m in ms if m.lastgroup == "bad"]
    if bad:
        raise SyntaxErrorAt(f"bad annotation character {bad[0]!r}", line, col)
    return Tokens([m.lastgroup for m in ms] + ["eof"],
                  [m[0] for m in ms] + [""], None, body, S.Loc(line, col))


def _parse_term_operand(c: _Cursor) -> S.Term:
    """A number, a negation, a parenthesized term, a built-in call, an
    array cell or a name. The negation of a number is a number."""
    kind, text, t = c.kind, c.text, c.i
    if kind == "num":
        c.advance()
        return S.TConst(Fraction(text), text, c.loc(t))
    if c.accept("-"):
        inner = _parse_term_operand(c)
        if isinstance(inner, S.TConst):
            return S.TConst(-inner.value, "-" + inner.text, c.loc(t))
        return S.TBin("-", S.TConst(Fraction(0), "0", c.loc(t)), inner,
                      c.loc(t))
    if c.accept("("):
        e = _term(c)
        c.expect(")")
        return e
    if kind == "ident":
        if c.texts[c.i + 1] == "(":
            if not _at_builtin(c, "term"):
                c.error(f"unknown term function {text!r}")
            return _builtin(c, S.TCall)
        c.advance()
        if c.accept("["):
            idx = _term(c)
            c.expect("]")
            return S.TIndex(text, idx, c.loc(t))
        return S.TName(text, c.loc(t))
    c.error(f"unexpected token {text!r} in annotation term")


_term = _climber(_parse_term_operand, S.TBin, S.TERM_PREC)


def _parse_pred_atom(c: _Cursor) -> S.Pred:
    """A negation, a `\\let`, a predicate built-in, a parenthesized
    predicate, or a comparison; a chain `a <= b <= c` is read as
    `a <= b && b <= c`."""
    t = c.i
    if c.accept("!"):
        return S.PNot(_parse_pred_atom(c), c.loc(t))
    if c.kind == "let":
        c.advance()
        parens = c.accept("(")
        names = _items(c, _Cursor.expect_ident, ")" if parens else "=",
                       empty=False)
        if parens:
            c.expect("=")
        value = (_builtin(c, S.PBuiltin) if _at_builtin(c, "get")
                 else _term(c))
        c.expect(";")
        return S.PLet(names, value, _pred(c), c.loc(t))
    if _at_builtin(c, "assert", "enlarge", "print"):
        return _builtin(c, S.PBuiltin)
    if c.text == "(":
        # a parenthesized predicate, or else the start of a term
        try:
            c.advance()
            p = _pred(c)
            c.expect(")")
            return p
        except SyntaxErrorAt:
            c.seek(t)
    left = _term(c)
    p = None
    while c.text in S.COMPARISONS:
        op = c.texts[c.advance()]
        right = _term(c)
        cmp = S.PCmp(op, left, right, left.loc)
        p = cmp if p is None else S.PRel("&&", p, cmp, p.loc)
        left = right
    if p is None:
        c.error("expected a comparison in annotation")
    return p


_pred = _climber(_parse_pred_atom, S.PRel, S.PRED_PREC)


_MARKER_RE = re.compile(r"^\s*(split|merge)\s*\(\s*(\d+)\s*((?:,\s*[A-Za-z_]\w*\s*)*)\)\s*;?\s*$")


def parse_annotation(text: str, loc: S.Loc):
    """Parse the text of an /*@ ... */ token at loc into ('assert', pred)
    or a section marker ('split'|'merge', id, [vars])."""
    body = text[3:-2].strip()
    m = _MARKER_RE.match(body)
    if m is not None:
        names = [s.strip() for s in m.group(3).split(",") if s.strip()]
        return (m.group(1), int(m.group(2)), names)
    if body.startswith("assert"):
        body = body[len("assert"):]
    if body.endswith(";"):
        body = body[:-1]
    c = _Cursor(_tokenize_annot(body, loc.line, loc.col))
    return ("assert", _whole(c, _pred, "annotation"))


# ---------------------------------------------------------------------------
# Statements and programs
# ---------------------------------------------------------------------------


def _parse_block(c: _Cursor) -> S.Block:
    loc = c.loc(c.expect("{"))
    stmts: List[S.Stmt] = []
    open_sections: List[Tuple[int, List[str], S.Loc, List[S.Stmt]]] = []

    def sink() -> List[S.Stmt]:
        return open_sections[-1][3] if open_sections else stmts

    while not c.at("}"):
        if c.kind == "annot":
            t = c.advance()
            tloc = c.loc(t)
            parsed = parse_annotation(c.texts[t], tloc)
            if parsed[0] == "assert":
                for n in S.pred_names(parsed[1]):
                    c.use(n.name, n.loc)
                sink().append(S.AssertStmt(parsed[1], tloc))
            elif parsed[0] == "split":
                open_sections.append((parsed[1], parsed[2], tloc, []))
            else:  # merge
                if not open_sections or open_sections[-1][0] != parsed[1]:
                    c.error(f"unmatched merge({parsed[1]})", t)
                sid, save, sloc, body = open_sections.pop()
                sink().append(S.SectionStmt(sid, save, parsed[2], body, sloc))
            continue
        sink().append(_parse_stmt(c))
    if open_sections:
        sid, _, sloc, _ = open_sections[-1]
        raise SyntaxErrorAt(f"split({sid}) without matching merge",
                            sloc.line, sloc.col)
    c.expect("}")
    return S.Block(stmts, loc)


def _parse_stmt(c: _Cursor) -> S.Stmt:
    kind, text, t = c.kind, c.text, c.i
    if c.at("{"):
        return _parse_block(c)
    if kind == "kw" and text in ("int", "float", "double"):
        c.advance()
        name = c.expect_ident()
        if c.accept("["):
            size = _array_size(c)
            c.expect("]")
            init_list: Optional[List[S.Expr]] = None
            if c.accept("="):
                c.expect("{")
                init_list = _items(c, _parse_expr, "}", empty=False)
                if len(init_list) != size:
                    c.error(f"array {name} initializer has {len(init_list)}"
                            f" elements for size {size}", t)
            c.expect(";")
            c.declare(name, (text, True), c.loc(t))
            return S.Decl(text, name, None, size, init_list, c.loc(t))
        init = None
        if c.accept("="):
            init = _parse_expr(c)
        c.expect(";")
        c.declare(name, (text, False), c.loc(t))
        return S.Decl(text, name, init, None, None, c.loc(t))
    if kind == "kw":
        if c.accept("if"):
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            then = _as_block(_parse_stmt(c))
            els = None
            if c.accept("else"):
                els = _as_block(_parse_stmt(c))
            return S.If(cond, then, els, c.loc(t))
        if c.accept("while"):
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            return S.While(cond, _as_block(_parse_stmt(c)), c.loc(t))
        if c.accept("do"):
            body = _as_block(_parse_stmt(c))
            c.expect("while")
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            c.expect(";")
            return S.DoWhile(body, cond, c.loc(t))
        if c.accept("return"):
            e = None if c.at(";") else _parse_expr(c)
            c.expect(";")
            return S.Return(e, c.loc(t))
        if c.accept("assume"):
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            c.expect(";")
            return S.AssumeStmt(cond, c.loc(t))
    # assignment or expression statement
    e = _parse_expr(c)
    if c.accept("="):
        if not isinstance(e, (S.Var, S.Index)):
            c.error("assignment target must be a variable or array element",
                    t)
        rhs = _parse_expr(c)
        c.expect(";")
        return S.Assign(e, rhs, c.loc(t))
    c.expect(";")
    return S.ExprStmt(e, c.loc(t))


def _as_block(s: S.Stmt) -> S.Block:
    return s if isinstance(s, S.Block) else S.Block([s], s.loc)


def _parse_function(c: _Cursor) -> S.FuncDef:
    ret = c.text
    if not (c.kind == "kw" and ret in ("int", "float", "double", "void")):
        c.error(f"expected a function definition, found {ret!r}")
    t = c.advance()
    name = c.expect_ident()
    c.expect("(")
    if c.at("void") and c.texts[c.i + 1] == ")":
        c.advance()
    params = _items(c, _parse_param, ")")
    c.names = {p.name: (p.ctype, p.is_array) for p in params}
    body = _parse_block(c)
    return S.FuncDef(ret, name, params, body, c.loc(t), c.names)


def _parse_param(c: _Cursor) -> S.Param:
    ctype = c.text
    if not (c.kind == "kw" and ctype in ("int", "float", "double")):
        c.error(f"expected a parameter type, found {ctype!r}")
    c.advance()
    is_array = c.accept("*")
    name = c.expect_ident()
    if c.accept("["):
        if c.kind == "num":
            _array_size(c)
        is_array = True
        c.expect("]")
    return S.Param(ctype, name, is_array)


def _array_size(c: _Cursor) -> int:
    """An array size: a decimal integer literal."""
    if not c.text.isdigit():
        c.error(f"array size must be an integer, found {c.text!r}")
    return int(c.texts[c.advance()])


def parse_program(src: str) -> S.Program:
    c = _Cursor(tokenize(src))
    funcs = {}
    while c.kind != "eof":
        fn = _parse_function(c)
        if fn.name in funcs:
            raise SyntaxErrorAt(f"duplicate function {fn.name!r}",
                                fn.loc.line, fn.loc.col)
        funcs[fn.name] = fn
    for x in c.pending:
        if not isinstance(x, S.Call):
            raise x
        if x.name == "read_double":
            if len(x.args) not in (0, 2, 4):
                raise TypeErrorAt(f"{x.loc}: read_double takes 0, 2 or 4"
                                  f" arguments, not {len(x.args)}")
            continue
        callee = funcs.get(x.name)
        if callee is None:
            raise TypeErrorAt(f"{x.loc}: unknown function {x.name!r}")
        k = len(callee.params)
        if len(x.args) != k:
            raise TypeErrorAt(f"{x.loc}: {x.name} takes {k} argument"
                              f"{'' if k == 1 else 's'}, not {len(x.args)}")
    return S.Program(funcs)


def _whole(c: _Cursor, read: Callable, what: str):
    """What `read` reads, which must take every token up to eof."""
    x = read(c)
    if c.kind != "eof":
        c.error(f"trailing tokens in {what}: {c.text!r}")
    return x


def parse_expr(src: str) -> S.Expr:
    """Parse a standalone expression (test helper)."""
    return _whole(_Cursor(tokenize(src)), _parse_expr, "expression")


def parse_pred(src: str) -> S.Pred:
    """Parse a standalone annotation predicate (test helper)."""
    return _whole(_Cursor(_tokenize_annot(src, 0, 0)), _pred, "annotation")
