"""Hand-written lexer and recursive-descent parser for the mini-C subset.

Annotation comments ``/*@ ... */`` hold accuracy assertions and
split/merge section markers; they are lexed as single tokens and parsed
with a dedicated sub-grammar. Both grammars are read by shared readers:

- `_climber` builds a precedence climber from an operand reader, a node
  constructor and a table of operator precedences from `syntax`, which
  the printer reads too: `EXPR_PREC` for C expressions, `TERM_PREC` for
  annotation terms and `PRED_PREC` for predicates. Every operator folds
  to the left except those of `syntax.RIGHT_ASSOC` (`==>`). An operand
  reader reads an operand and its prefixes in one call, a name or a
  number first; the climber calls itself only for a tighter operator.
- `_items` reads a comma-separated list and its closing token.
- `_builtin` reads a call of an annotation built-in and checks its
  argument count against its declaration in `syntax`; `_at_builtin`
  tells whether a call of a built-in of given actions starts here.

Punctuation and keywords are matched by text alone: no ident, number or
annotation token spells one, and eof spells "".

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
offset each. Line and column come from the offset, by bisecting the
offsets at which the source's lines start, only when a node or an error
asks for them. A token gets at most one `S.Loc`, shared by every node it
starts (a statement and its first operand), and the `S.Loc`s of one line
share one line number. An annotation's tokens share its position. Equal
texts of one source share one string, and its equal float literals one
value; nothing is kept across sources.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import count, islice
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SyntaxErrorAt, TypeErrorAt
from . import syntax as S

KEYWORDS = {"int", "float", "double", "void", "if", "else", "while", "do",
            "return", "assume"}

_TYPES = ("int", "float", "double")

#: One match per token, the blanks and comments before it included; only
#: matches at the end of the source take no group. `open_annot`,
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
    __slots__ = ("kinds", "texts", "offsets", "_starts", "_lines", "_locs")

    def __init__(self, kinds, texts, offsets, src, at=None) -> None:
        self.kinds, self.texts, self.offsets = kinds, texts, offsets
        self._locs = [at] * len(kinds)
        if at is None:
            # line starts and numbers: `count` makes ints of 28 bytes
            self._starts = starts = array("i", [0])
            starts.extend(map(re.Match.end, re.finditer("\n", src)))
            self._lines = list(islice(count(), len(starts) + 1))

    def __len__(self) -> int:
        return len(self.kinds)

    def loc(self, i: int) -> S.Loc:
        loc = self._locs[i]
        if loc is None:
            off, starts = self.offsets[i], self._starts
            k = bisect_right(starts, off)
            loc = self._locs[i] = S.Loc(self._lines[k],
                                        off - starts[k - 1] + 1)
        return loc


def tokenize(src: str) -> Tokens:
    """The tokens of src; eof sits just past its last character."""
    kinds, texts, offsets = [], [], array("i")
    share = {}.setdefault
    for m in _LEX_RE.finditer(src):
        g = m.lastindex
        if g is not None:
            kinds.append(m.lastgroup)
            text = m[g]
            texts.append(share(text, text))
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
    """A position in `Tokens`: token `i`, spelled `text`; a reader moves it
    by setting both. `names` is the current function's variables declared
    so far, `pending` the calls and name errors met so far, in order, and
    `values` the value of each float literal read so far."""
    __slots__ = ("kinds", "texts", "loc", "i", "text", "names", "pending",
                 "values")

    def __init__(self, toks: Tokens) -> None:
        self.kinds, self.texts, self.loc = toks.kinds, toks.texts, toks.loc
        self.i, self.text = 0, self.texts[0]
        self.names: Dict[str, Tuple[str, bool]] = {}
        self.pending: list = []
        self.values: Dict[str, Fraction] = {}

    def accept(self, text: str) -> bool:
        if self.text != text:
            return False
        self.i, self.text = self.i + 1, self.texts[self.i + 1]
        return True

    def expect(self, text: str) -> int:
        """Move past token text, which must be the current one: its index."""
        i = self.i
        if self.text != text:
            self.error(f"expected {text!r}, found {self.text!r}")
        self.i, self.text = i + 1, self.texts[i + 1]
        return i

    def expect_ident(self) -> str:
        if self.kinds[self.i] != "ident":
            self.error(f"expected ident, found {self.text!r}")
        return self.texts[self.expect(self.text)]

    def error(self, msg: str, i: Optional[int] = None):
        """Raise msg at token i, the current one by default."""
        loc = self.loc(self.i if i is None else i)
        raise SyntaxErrorAt(msg, loc.line, loc.col)

    def use(self, name: str, loc: S.Loc) -> None:
        """Note a read or a write of the variable name at loc."""
        if name not in self.names:
            self.pending.append(TypeErrorAt(
                f"{loc}: use of undeclared variable {name!r}"))


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
    #: operator -> (its precedence, the least its right operand takes);
    #: any other token binds (-1, 0), which nothing takes
    binds = {op: (prec, prec if op in S.RIGHT_ASSOC else prec + 1)
             for op, prec in precs.items()}

    def climb(c: _Cursor, min_prec: int = 0, left=None):
        left = operand(c) if left is None else left  # or go on from left
        while True:
            op = c.text  # no other kind of token spells an operator
            bind = binds.get(op, (-1, 0))
            if bind[0] < min_prec:
                return left
            c.i, c.text = c.i + 1, c.texts[c.i + 1]
            right = operand(c)
            if binds.get(c.text, (-1, 0))[0] >= bind[1]:
                right = climb(c, bind[1], right)
            left = make(op, left, right, left.loc)
    return climb


def _items(c: _Cursor, item: Callable, close: str,
           empty: bool = True) -> list:
    """What `item` reads, separated by commas, up to the `close` token,
    which is consumed; an empty list only where `empty` allows it."""
    items = []
    if not (empty and c.accept(close)):
        items.append(item(c))
        while c.text == ",":
            c.i, c.text = c.i + 1, c.texts[c.i + 1]
            items.append(item(c))
        c.expect(close)
    return items


def _at_builtin(c: _Cursor, *actions: str) -> bool:
    """Whether a call of a built-in doing one of `actions` starts here."""
    b = S.BUILTINS.get(c.text)
    return b is not None and b.action in actions and c.texts[c.i + 1] == "("


def _builtin(c: _Cursor, make: Callable):
    """The call of the built-in at the cursor, its argument count checked
    against its declaration: `make(name, args, loc)`."""
    t, name = c.i, c.text
    c.i, c.text = t + 2, c.texts[t + 2]  # past the name and its (
    args = _items(c, _term, ")")
    arity = S.BUILTINS[name].arity
    if len(args) != arity:
        c.error(f"{name} expects {arity} arguments", t)
    return make(name, args, c.loc(t))


def _integer(c: _Cursor, i: int) -> int:
    """Token i, an integer literal: octal with a leading 0, as in C."""
    text = c.texts[i]
    if text[0] == "0" and ("8" in text or "9" in text):
        c.error(f"invalid digit in octal constant {text!r}", i)
    return int(text, 8 if text[0] == "0" else 10)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _parse_expr(c: _Cursor) -> S.Expr:
    """A ternary, or a binary expression; `?:` is right-associative."""
    cond = _binary(c)
    if c.text == "?":
        c.i, c.text = c.i + 1, c.texts[c.i + 1]
        then = _parse_expr(c)
        c.expect(":")
        return S.Ternary(cond, then, _parse_expr(c), cond.loc)
    return cond


def _parse_operand(c: _Cursor) -> S.Expr:
    """A name, a number, a call, an array cell, a negation, a cast or a
    parenthesized expression."""
    i, text, texts = c.i, c.text, c.texts
    kind = c.kinds[i]
    if kind == "ident":
        c.i, c.text = i + 1, texts[i + 1]
        if c.text == "(":
            call = S.Call(text, [], c.loc(i))
            c.pending.append(call)  # checked before its arguments
            c.i, c.text = i + 2, texts[i + 2]
            call.args = _items(c, _parse_expr, ")")
            return call
        loc = c.loc(i)
        c.use(text, loc)
        if c.text != "[":
            return S.Var(text, loc)
        c.i, c.text = i + 2, texts[i + 2]
        idx = _parse_expr(c)
        c.expect("]")
        return S.Index(text, idx, loc)
    if kind == "num":
        c.i, c.text = i + 1, texts[i + 1]
        if text.isdigit():
            return S.IntLit(_integer(c, i), c.loc(i))
        value = c.values.get(text)
        if value is None:
            value = c.values[text] = Fraction(text)
        return S.FloatLit(text, value, c.loc(i))
    if text == "-" or text == "!":
        c.i, c.text = i + 1, texts[i + 1]
        return S.Unary(text, _parse_operand(c), c.loc(i))
    if text == "(":  # a cast or a parenthesized expression
        ctype = texts[i + 1]
        if ctype in _TYPES and texts[i + 2] == ")":
            c.i, c.text = i + 3, texts[i + 3]
            return S.Cast(ctype, _parse_operand(c), c.loc(i))
        c.i, c.text = i + 1, ctype
        e = _parse_expr(c)
        c.expect(")")
        return e
    c.error(f"unexpected token {text!r} in expression")


_binary = _climber(_parse_operand, S.Binary, S.EXPR_PREC)


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
    t, text, texts = c.i, c.text, c.texts
    kind = c.kinds[t]
    if kind == "num":
        c.i, c.text = t + 1, texts[t + 1]
        value = Fraction(_integer(c, t) if text.isdigit() else text)
        return S.TConst(value, text, c.loc(t))
    if kind == "ident":
        if texts[t + 1] == "(":
            if not _at_builtin(c, "term"):
                c.error(f"unknown term function {text!r}")
            return _builtin(c, S.TCall)
        c.i, c.text = t + 1, texts[t + 1]
        if not c.accept("["):
            return S.TName(text, c.loc(t))
        idx = _term(c)
        c.expect("]")
        return S.TIndex(text, idx, c.loc(t))
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
    c.error(f"unexpected token {text!r} in annotation term")


_term = _climber(_parse_term_operand, S.TBin, S.TERM_PREC)


def _parse_pred_atom(c: _Cursor) -> S.Pred:
    """A negation, a `\\let`, a predicate built-in, a parenthesized
    predicate, or a comparison; a chain `a <= b <= c` is read as
    `a <= b && b <= c`."""
    t, texts = c.i, c.texts
    if c.accept("!"):
        return S.PNot(_parse_pred_atom(c), c.loc(t))
    if c.accept("\\let"):
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
            c.i, c.text = t + 1, texts[t + 1]
            p = _pred(c)
            c.expect(")")
            return p
        except SyntaxErrorAt:
            c.i, c.text = t, texts[t]
    left = _term(c)
    p = None
    while c.text in S.COMPARISONS:
        op = c.text
        c.i, c.text = c.i + 1, texts[c.i + 1]
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
    body = body.removeprefix("assert").removesuffix(";")
    c = _Cursor(_tokenize_annot(body, loc.line, loc.col))
    return ("assert", _whole(c, _pred, "annotation"))


# ---------------------------------------------------------------------------
# Statements and programs
# ---------------------------------------------------------------------------


def _parse_block(c: _Cursor) -> S.Block:
    loc = c.loc(c.expect("{"))
    stmts: List[S.Stmt] = []
    out = stmts  # where statements go: the innermost open section's body
    open_sections: List[Tuple[int, List[str], S.Loc, List[S.Stmt]]] = []
    kinds = c.kinds
    while c.text != "}":
        t = c.i
        if kinds[t] != "annot":
            out.append(_parse_stmt(c))
            continue
        c.i, c.text = t + 1, c.texts[t + 1]
        tloc = c.loc(t)
        parsed = parse_annotation(c.texts[t], tloc)
        if parsed[0] == "assert":
            for n in S.pred_names(parsed[1]):
                c.use(n.name, n.loc)
            out.append(S.AssertStmt(parsed[1], tloc))
        elif parsed[0] == "split":
            out = []
            open_sections.append((parsed[1], parsed[2], tloc, out))
        else:  # merge
            if not open_sections or open_sections[-1][0] != parsed[1]:
                c.error(f"unmatched merge({parsed[1]})", t)
            sid, save, sloc, body = open_sections.pop()
            out = open_sections[-1][3] if open_sections else stmts
            out.append(S.SectionStmt(sid, save, parsed[2], body, sloc))
    if open_sections:
        sid, _, sloc, _ = open_sections[-1]
        raise SyntaxErrorAt(f"split({sid}) without matching merge",
                            sloc.line, sloc.col)
    c.i, c.text = c.i + 1, c.texts[c.i + 1]  # past the }
    return S.Block(stmts, loc)


def _parse_stmt(c: _Cursor) -> S.Stmt:
    """A statement; those that end in `;` share its check."""
    t, text, texts = c.i, c.text, c.texts
    kind = c.kinds[t]
    if kind == "ident" and texts[t + 1] == "=":  # name = expr;
        loc = c.loc(t)
        c.use(text, loc)
        c.i, c.text = t + 2, texts[t + 2]
        s = S.Assign(S.Var(text, loc), _parse_expr(c), loc)
    elif text == "{":
        return _parse_block(c)
    elif kind != "kw" or text == "void" or text == "else":
        e = _parse_expr(c)  # an assignment or an expression statement
        if c.accept("="):
            if not isinstance(e, (S.Var, S.Index)):
                c.error("assignment target must be a variable or array"
                        " element", t)
            s = S.Assign(e, _parse_expr(c), c.loc(t))
        else:
            s = S.ExprStmt(e, c.loc(t))
    else:
        c.i, c.text = t + 1, texts[t + 1]  # past the keyword
        if text in _TYPES:
            name = c.expect_ident()
            size = init = init_list = None
            if c.accept("["):
                size = _array_size(c)
                c.expect("]")
                if c.accept("="):
                    c.expect("{")
                    init_list = _items(c, _parse_expr, "}", empty=False)
                    if len(init_list) != size:
                        c.error(f"array {name} initializer has"
                                f" {len(init_list)} elements for size {size}",
                                t)
            elif c.accept("="):
                init = _parse_expr(c)
            s = S.Decl(text, name, init, size, init_list, c.loc(t))
            typed = (text, size is not None)  # its type, whether an array
            if c.names.setdefault(name, typed) != typed:
                c.pending.append(TypeErrorAt(
                    f"{s.loc}: {name} redeclared with another type"))
        elif text == "if":
            cond = _parse_cond(c)
            then = _as_block(_parse_stmt(c))
            els = _as_block(_parse_stmt(c)) if c.accept("else") else None
            return S.If(cond, then, els, c.loc(t))
        elif text == "while":
            cond = _parse_cond(c)
            return S.While(cond, _as_block(_parse_stmt(c)), c.loc(t))
        elif text == "do":
            body = _as_block(_parse_stmt(c))
            c.expect("while")
            s = S.DoWhile(body, _parse_cond(c), c.loc(t))
        elif text == "return":
            e = None if c.text == ";" else _parse_expr(c)
            s = S.Return(e, c.loc(t))
        else:  # assume
            s = S.AssumeStmt(_parse_cond(c), c.loc(t))
    if c.text != ";":
        c.expect(";")  # raises
    c.i, c.text = c.i + 1, texts[c.i + 1]
    return s


def _parse_cond(c: _Cursor) -> S.Expr:
    """A parenthesized condition."""
    c.expect("(")
    cond = _parse_expr(c)
    c.expect(")")
    return cond


def _as_block(s: S.Stmt) -> S.Block:
    return s if isinstance(s, S.Block) else S.Block([s], s.loc)


def _parse_function(c: _Cursor) -> S.FuncDef:
    t, ret = c.i, c.text
    if not (ret in _TYPES or ret == "void"):
        c.error(f"expected a function definition, found {ret!r}")
    c.i, c.text = t + 1, c.texts[t + 1]
    name = c.expect_ident()
    c.expect("(")
    if c.text == "void" and c.texts[c.i + 1] == ")":
        c.i, c.text = c.i + 1, ")"
    params = _items(c, _parse_param, ")")
    c.names = {p.name: (p.ctype, p.is_array) for p in params}
    body = _parse_block(c)
    return S.FuncDef(ret, name, params, body, c.loc(t), c.names)


def _parse_param(c: _Cursor) -> S.Param:
    t, ctype = c.i, c.text
    if ctype not in _TYPES:
        c.error(f"expected a parameter type, found {ctype!r}")
    c.i, c.text = t + 1, c.texts[t + 1]
    is_array = c.accept("*")
    name = c.expect_ident()
    if c.accept("["):
        if c.kinds[c.i] == "num":
            _array_size(c)
        is_array = True
        c.expect("]")
    return S.Param(ctype, name, is_array)


def _array_size(c: _Cursor) -> int:
    """An array size: an integer literal."""
    if not c.text.isdigit():
        c.error(f"array size must be an integer, found {c.text!r}")
    return _integer(c, c.expect(c.text))


def parse_program(src: str) -> S.Program:
    c = _Cursor(tokenize(src))
    funcs = {}
    while c.text:
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
    if c.text:
        c.error(f"trailing tokens in {what}: {c.text!r}")
    return x


def parse_expr(src: str) -> S.Expr:
    """Parse a standalone expression (test helper)."""
    return _whole(_Cursor(tokenize(src)), _parse_expr, "expression")


def parse_pred(src: str) -> S.Pred:
    """Parse a standalone annotation predicate (test helper)."""
    return _whole(_Cursor(_tokenize_annot(src, 0, 0)), _pred, "annotation")
