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

Position model: a token's position is two ints, its 1-based line and
column, found from the offsets of the newlines before it; a syntax error
reports those ints. An `S.Loc` is built only when the parser attaches a
token's position to an AST node (`Token.loc`, at most once per token).
Every token of an annotation carries the position of the annotation
itself.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SyntaxErrorAt, TypeErrorAt
from . import syntax as S

#: Whitespace and comments have no group name: their matches are skipped
#: without building a token. `open_annot`, `open_comment` and `bad` match
#: only where no alternative above them does, and end the scan with an
#: error; the first two come before `op`, which would take their `/`.
_TOKEN_RE = re.compile(
    r"""
    \s+
  | //[^\n]*
  | (?P<annot>/\*@.*?\*/)
  | /\*.*?\*/
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<open_annot>/\*@)
  | (?P<open_comment>/\*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/%<>=!?:;,(){}\[\]])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: the message of each error group, formatted with the matched text
_LEX_ERRORS = {"open_annot": "unterminated annotation",
               "open_comment": "unterminated comment",
               "bad": "unexpected character {!r}"}

KEYWORDS = {"int", "float", "double", "void", "if", "else", "while", "do",
            "return", "assume"}


class Token:
    __slots__ = ("kind", "text", "line", "col", "_loc")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # 'num', 'ident', 'op', 'kw', 'annot', 'eof'
        self.text = text
        self.line = line
        self.col = col
        self._loc: Optional[S.Loc] = None

    @property
    def loc(self) -> S.Loc:
        """The token's position as an `S.Loc`, built on first use, so the
        nodes a token starts (a statement and its first operand) share it."""
        if self._loc is None:
            self._loc = S.Loc(self.line, self.col)
        return self._loc

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(src: str) -> List[Token]:
    """The tokens of src, ending with an 'eof' token."""
    toks: List[Token] = []
    append = toks.append
    line, line_start = 1, 0
    nl = src.find("\n")  # the first newline at or after line_start
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind is None:  # whitespace or a comment
            continue
        start = m.start()
        while 0 <= nl < start:
            line += 1
            line_start = nl + 1
            nl = src.find("\n", line_start)
        col = start - line_start + 1
        text = m.group()
        if kind == "ident":
            if text in KEYWORDS:
                kind = "kw"
        elif kind in _LEX_ERRORS:
            raise SyntaxErrorAt(_LEX_ERRORS[kind].format(text), line, col)
        append(Token(kind, text, line, col))
    # eof sits just past the last character
    append(Token("eof", "", src.count("\n") + 1, len(src) - src.rfind("\n")))
    return toks


class _Cursor:
    """A position in a token list; `cur` is always `toks[i]`. `names` is
    the current function's variables as declared so far, and `pending`
    the calls and name errors met so far, in source order."""
    __slots__ = ("toks", "i", "cur", "names", "pending")

    def __init__(self, toks: List[Token]) -> None:
        self.toks = toks
        self.i = 0
        self.cur = toks[0]
        self.names: Dict[str, Tuple[str, bool]] = {}
        self.pending: list = []

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.i += 1
            self.cur = self.toks[self.i]
        return t

    def at(self, text: str) -> bool:
        t = self.cur
        return t.text == text and t.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        t = self.cur
        if t.text == text and t.kind in ("op", "kw"):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            t = self.cur
            raise SyntaxErrorAt(f"expected {text!r}, found {t.text!r}",
                                t.line, t.col)
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        if self.cur.kind != kind:
            t = self.cur
            raise SyntaxErrorAt(f"expected {kind}, found {t.text!r}",
                                t.line, t.col)
        return self.advance()

    def error(self, msg: str):
        t = self.cur
        raise SyntaxErrorAt(msg, t.line, t.col)

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
            op = c.cur.text  # no other kind of token spells an operator
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
    b = S.BUILTINS.get(c.cur.text)
    return b is not None and b.action in actions \
        and c.toks[c.i + 1].text == "("


def _builtin(c: _Cursor, make: Callable):
    """The call of the built-in at the cursor, its argument count checked
    against its declaration: `make(name, args, loc)`."""
    t = c.advance()
    c.advance()  # (
    args = _items(c, _term, ")")
    arity = S.BUILTINS[t.text].arity
    if len(args) != arity:
        raise SyntaxErrorAt(f"{t.text} expects {arity} arguments",
                            t.line, t.col)
    return make(t.text, args, t.loc)


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
    t = c.cur
    if t.kind == "op" and t.text in ("-", "!"):
        c.advance()
        return S.Unary(t.text, _parse_unary(c), t.loc)
    return _parse_primary(c)


def _parse_primary(c: _Cursor) -> S.Expr:
    t = c.cur
    if t.kind == "num":
        c.advance()
        if t.text.isdigit():
            return S.IntLit(int(t.text), t.loc)
        return S.FloatLit(t.text, Fraction(t.text), t.loc)
    if c.at("("):
        # cast or parenthesized expression
        nxt = c.toks[c.i + 1]
        if nxt.kind == "kw" and nxt.text in ("int", "float", "double") \
                and c.toks[c.i + 2].text == ")":
            c.advance()
            ctype = c.advance().text
            c.advance()
            return S.Cast(ctype, _parse_unary(c), t.loc)
        c.advance()
        e = _parse_expr(c)
        c.expect(")")
        return e
    if t.kind == "ident":
        c.advance()
        if c.accept("("):
            call = S.Call(t.text, [], t.loc)
            c.pending.append(call)  # checked before its arguments
            call.args = _items(c, _parse_expr, ")")
            return call
        c.use(t.text, t.loc)
        if c.accept("["):
            idx = _parse_expr(c)
            c.expect("]")
            return S.Index(t.text, idx, t.loc)
        return S.Var(t.text, t.loc)
    c.error(f"unexpected token {t.text!r} in expression")


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


def _tokenize_annot(body: str, line: int, col: int) -> List[Token]:
    """The tokens of an annotation body, each at the annotation's
    position (line, col)."""
    toks: List[Token] = []
    for m in _ANNOT_RE.finditer(body):
        kind = m.lastgroup
        if kind is None:  # whitespace
            continue
        if kind == "bad":
            raise SyntaxErrorAt(f"bad annotation character {m.group()!r}",
                                line, col)
        toks.append(Token(kind, m.group(), line, col))
    toks.append(Token("eof", "", line, col))
    return toks


def _parse_term_operand(c: _Cursor) -> S.Term:
    """A number, a negation, a parenthesized term, a built-in call, an
    array cell or a name. The negation of a number is a number."""
    t = c.cur
    if t.kind == "num":
        c.advance()
        return S.TConst(Fraction(t.text), t.text, t.loc)
    if c.accept("-"):
        inner = _parse_term_operand(c)
        if isinstance(inner, S.TConst):
            return S.TConst(-inner.value, "-" + inner.text, t.loc)
        return S.TBin("-", S.TConst(Fraction(0), "0", t.loc), inner, t.loc)
    if c.accept("("):
        e = _term(c)
        c.expect(")")
        return e
    if t.kind == "ident":
        if c.toks[c.i + 1].text == "(":
            if not _at_builtin(c, "term"):
                raise SyntaxErrorAt(f"unknown term function {t.text!r}",
                                    t.line, t.col)
            return _builtin(c, S.TCall)
        c.advance()
        if c.accept("["):
            idx = _term(c)
            c.expect("]")
            return S.TIndex(t.text, idx, t.loc)
        return S.TName(t.text, t.loc)
    c.error(f"unexpected token {t.text!r} in annotation term")


_term = _climber(_parse_term_operand, S.TBin, S.TERM_PREC)


def _parse_pred_atom(c: _Cursor) -> S.Pred:
    """A negation, a `\\let`, a predicate built-in, a parenthesized
    predicate, or a comparison; a chain `a <= b <= c` is read as
    `a <= b && b <= c`."""
    t = c.cur
    if c.accept("!"):
        return S.PNot(_parse_pred_atom(c), t.loc)
    if t.kind == "let":
        c.advance()
        parens = c.accept("(")
        names = _items(c, lambda c: c.expect_kind("ident").text,
                       ")" if parens else "=", empty=False)
        if parens:
            c.expect("=")
        value = (_builtin(c, S.PBuiltin) if _at_builtin(c, "get")
                 else _term(c))
        c.expect(";")
        return S.PLet(names, value, _pred(c), t.loc)
    if _at_builtin(c, "assert", "enlarge", "print"):
        return _builtin(c, S.PBuiltin)
    if t.text == "(":
        # a parenthesized predicate, or else the start of a term
        mark = c.i
        try:
            c.advance()
            p = _pred(c)
            c.expect(")")
            return p
        except SyntaxErrorAt:
            c.i, c.cur = mark, t
    left = _term(c)
    p = None
    while c.cur.text in S.COMPARISONS:
        op = c.advance().text
        right = _term(c)
        cmp = S.PCmp(op, left, right, left.loc)
        p = cmp if p is None else S.PRel("&&", p, cmp, p.loc)
        left = right
    if p is None:
        c.error("expected a comparison in annotation")
    return p


_pred = _climber(_parse_pred_atom, S.PRel, S.PRED_PREC)


_MARKER_RE = re.compile(r"^\s*(split|merge)\s*\(\s*(\d+)\s*((?:,\s*[A-Za-z_]\w*\s*)*)\)\s*;?\s*$")


def parse_annotation(tok: Token):
    """Parse an /*@ ... */ token into ('assert', pred) or a section marker
    ('split'|'merge', id, [vars])."""
    body = tok.text[3:-2].strip()
    m = _MARKER_RE.match(body)
    if m is not None:
        names = [s.strip() for s in m.group(3).split(",") if s.strip()]
        return (m.group(1), int(m.group(2)), names)
    if body.startswith("assert"):
        body = body[len("assert"):]
    if body.endswith(";"):
        body = body[:-1]
    c = _Cursor(_tokenize_annot(body, tok.line, tok.col))
    return ("assert", _whole(c, _pred, "annotation"))


# ---------------------------------------------------------------------------
# Statements and programs
# ---------------------------------------------------------------------------


def _parse_block(c: _Cursor) -> S.Block:
    loc = c.expect("{").loc
    stmts: List[S.Stmt] = []
    open_sections: List[Tuple[int, List[str], S.Loc, List[S.Stmt]]] = []

    def sink() -> List[S.Stmt]:
        return open_sections[-1][3] if open_sections else stmts

    while not c.at("}"):
        if c.cur.kind == "annot":
            tok = c.advance()
            parsed = parse_annotation(tok)
            if parsed[0] == "assert":
                for n in S.pred_names(parsed[1]):
                    c.use(n.name, n.loc)
                sink().append(S.AssertStmt(parsed[1], tok.loc))
            elif parsed[0] == "split":
                open_sections.append((parsed[1], parsed[2], tok.loc, []))
            else:  # merge
                if not open_sections or open_sections[-1][0] != parsed[1]:
                    raise SyntaxErrorAt(f"unmatched merge({parsed[1]})",
                                        tok.line, tok.col)
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
    t = c.cur
    if c.at("{"):
        return _parse_block(c)
    if t.kind == "kw" and t.text in ("int", "float", "double"):
        c.advance()
        name = c.expect_kind("ident").text
        if c.accept("["):
            size = _array_size(c)
            c.expect("]")
            init_list: Optional[List[S.Expr]] = None
            if c.accept("="):
                c.expect("{")
                init_list = _items(c, _parse_expr, "}", empty=False)
                if len(init_list) != size:
                    raise SyntaxErrorAt(
                        f"array {name} initializer has {len(init_list)}"
                        f" elements for size {size}", t.line, t.col)
            c.expect(";")
            c.declare(name, (t.text, True), t.loc)
            return S.Decl(t.text, name, None, size, init_list, t.loc)
        init = None
        if c.accept("="):
            init = _parse_expr(c)
        c.expect(";")
        c.declare(name, (t.text, False), t.loc)
        return S.Decl(t.text, name, init, None, None, t.loc)
    if t.kind == "kw":
        if c.accept("if"):
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            then = _as_block(_parse_stmt(c))
            els = None
            if c.accept("else"):
                els = _as_block(_parse_stmt(c))
            return S.If(cond, then, els, t.loc)
        if c.accept("while"):
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            return S.While(cond, _as_block(_parse_stmt(c)), t.loc)
        if c.accept("do"):
            body = _as_block(_parse_stmt(c))
            c.expect("while")
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            c.expect(";")
            return S.DoWhile(body, cond, t.loc)
        if c.accept("return"):
            e = None if c.at(";") else _parse_expr(c)
            c.expect(";")
            return S.Return(e, t.loc)
        if c.accept("assume"):
            c.expect("(")
            cond = _parse_expr(c)
            c.expect(")")
            c.expect(";")
            return S.AssumeStmt(cond, t.loc)
    # assignment or expression statement
    e = _parse_expr(c)
    if c.accept("="):
        if not isinstance(e, (S.Var, S.Index)):
            raise SyntaxErrorAt("assignment target must be a variable or"
                                " array element", t.line, t.col)
        rhs = _parse_expr(c)
        c.expect(";")
        return S.Assign(e, rhs, t.loc)
    c.expect(";")
    return S.ExprStmt(e, t.loc)


def _as_block(s: S.Stmt) -> S.Block:
    return s if isinstance(s, S.Block) else S.Block([s], s.loc)


def _parse_function(c: _Cursor) -> S.FuncDef:
    t = c.cur
    if not (t.kind == "kw" and t.text in ("int", "float", "double", "void")):
        c.error(f"expected a function definition, found {t.text!r}")
    ret = c.advance().text
    name = c.expect_kind("ident").text
    c.expect("(")
    if c.at("void") and c.toks[c.i + 1].text == ")":
        c.advance()
    params = _items(c, _parse_param, ")")
    c.names = {p.name: (p.ctype, p.is_array) for p in params}
    body = _parse_block(c)
    return S.FuncDef(ret, name, params, body, t.loc, c.names)


def _parse_param(c: _Cursor) -> S.Param:
    t = c.cur
    if not (t.kind == "kw" and t.text in ("int", "float", "double")):
        c.error(f"expected a parameter type, found {t.text!r}")
    ctype = c.advance().text
    is_array = c.accept("*")
    name = c.expect_kind("ident").text
    if c.accept("["):
        if c.cur.kind == "num":
            _array_size(c)
        is_array = True
        c.expect("]")
    return S.Param(ctype, name, is_array)


def _array_size(c: _Cursor) -> int:
    """An array size: a decimal integer literal."""
    if not c.cur.text.isdigit():
        c.error(f"array size must be an integer, found {c.cur.text!r}")
    return int(c.advance().text)


def parse_program(src: str) -> S.Program:
    c = _Cursor(tokenize(src))
    funcs = {}
    while c.cur.kind != "eof":
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
    if c.cur.kind != "eof":
        c.error(f"trailing tokens in {what}: {c.cur.text!r}")
    return x


def parse_expr(src: str) -> S.Expr:
    """Parse a standalone expression (test helper)."""
    return _whole(_Cursor(tokenize(src)), _parse_expr, "expression")


def parse_pred(src: str) -> S.Pred:
    """Parse a standalone annotation predicate (test helper)."""
    return _whole(_Cursor(_tokenize_annot(src, 0, 0)), _pred, "annotation")
