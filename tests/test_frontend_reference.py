"""The lexer and the AST walkers, checked against the code they replaced,
kept here as the reference: a `match` loop that builds a position for
every lexeme, and walks that recurse through one generator per level.

Token streams mix identifiers, keywords, numbers, operators, `\\n`, `\\t`
and `\\r`, line comments, multi-line block comments, multi-line
annotations and stray characters, with and without blanks between them.
Walk orders are compared on every corpus function after instrumentation,
so sections and the rewritten returns are walked too.
"""
import re
from typing import List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fldx.compiler import deps as D
from fldx.config import AnalysisConfig
from fldx.errors import SyntaxErrorAt
from fldx.frontend import parse_expr
from fldx.frontend import syntax as S
from fldx.frontend.parser import KEYWORDS, _tokenize_annot, tokenize
from fldx.pipeline import prepare
from tests.conftest import all_corpus_names, corpus_source

# ---------------------------------------------------------------------------
# Reference code: the lexer loops and the recursive walks
# ---------------------------------------------------------------------------

REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<annot>/\*@.*?\*/)
  | (?P<comment>/\*.*?\*/)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/%<>=!?:;,(){}\[\]])
    """,
    re.VERBOSE | re.DOTALL,
)

REF_ANNOT_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<let>\\let)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>==>|<=|>=|==|!=|&&|\|\||[-+*/<>=!?:;,()\[\]])
    """,
    re.VERBOSE,
)

Tok = Tuple[str, str, int, int]


def ref_tokenize(src: str) -> List[Tok]:
    toks: List[Tok] = []
    pos = 0
    line, col = 1, 1
    n = len(src)
    while pos < n:
        m = REF_TOKEN_RE.match(src, pos)
        if m is None:
            raise SyntaxErrorAt(f"unexpected character {src[pos]!r}",
                                line, col)
        text = m.group(0)
        kind = m.lastgroup
        loc = S.Loc(line, col)
        if kind == "ident":
            kind = "kw" if text in KEYWORDS else "ident"
        if kind in ("num", "ident", "kw", "op", "annot"):
            toks.append((kind, text, loc.line, loc.col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


def ref_tokenize_annot(body: str, loc: S.Loc) -> List[Tok]:
    toks: List[Tok] = []
    pos = 0
    while pos < len(body):
        m = REF_ANNOT_RE.match(body, pos)
        if m is None:
            raise SyntaxErrorAt(f"bad annotation character {body[pos]!r}",
                                loc.line, loc.col)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(0), loc.line, loc.col))
        pos = m.end()
    toks.append(("eof", "", loc.line, loc.col))
    return toks


def ref_stmt_children(s):
    if isinstance(s, S.Block):
        return list(s.stmts)
    if isinstance(s, S.If):
        return [s.then] + ([s.els] if s.els is not None else [])
    if isinstance(s, (S.While, S.DoWhile)):
        return [s.body]
    if isinstance(s, S.SectionStmt):
        return list(s.body)
    return []


def ref_walk_stmts(s):
    yield s
    for c in ref_stmt_children(s):
        yield from ref_walk_stmts(c)


def ref_expr_children(e):
    if isinstance(e, (S.Unary, S.Cast)):
        return [e.expr]
    if isinstance(e, S.Binary):
        return [e.left, e.right]
    if isinstance(e, S.Ternary):
        return [e.cond, e.then, e.els]
    if isinstance(e, S.Call):
        return list(e.args)
    if isinstance(e, S.Index):
        return [e.index]
    return []


def ref_walk_exprs(e):
    yield e
    for c in ref_expr_children(e):
        yield from ref_walk_exprs(c)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

OPS = ["<=", ">=", "==", "!=", "&&", "||", "-", "+", "*", "/", "%", "<",
       ">", "=", "!", "?", ":", ";", ",", "(", ")", "{", "}", "[", "]"]
BAD = list("@#$`\\'\"~^&|.") + ["é"]

names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
numbers = st.from_regex(
    r"(\d{1,3}\.\d{0,2}|\.\d{1,2}|\d{1,3})([eE][-+]?\d{1,2})?",
    fullmatch=True)
blanks = st.text(alphabet=" \t\r\n", min_size=1, max_size=3)
comment_text = st.text(alphabet="ab */\n\t@", max_size=12).filter(
    lambda t: "*/" not in t)
annot_bodies = st.lists(
    st.one_of(names, numbers, st.sampled_from(
        ["==>", "<=", "&&", "(", ")", ",", ";", "-", "*", "\\let", "\n",
         " ", "\t"])), max_size=8).map("".join)

pieces = st.one_of(
    names,
    st.sampled_from(sorted(KEYWORDS)),
    numbers,
    st.sampled_from(OPS),
    blanks,
    comment_text.map(lambda t: "//" + t.replace("\n", " ")),
    comment_text.map(lambda t: "/*" + t + "*/"),
    annot_bodies.map(lambda t: "/*@" + t.replace("*/", "") + "*/"),
)

#: blanks between pieces; none lets pieces run together
seps = st.sampled_from(["", "", " ", "\n", "\t", "\r\n"])


@st.composite
def streams(draw):
    parts = []
    for piece, sep in draw(st.lists(st.tuples(pieces, seps), max_size=30)):
        parts.append(piece)
        # a `/` run into a following `*` would open a comment the stream
        # never closes, which the reference lexes as operators
        parts.append(sep or (" " if piece.endswith("/") else ""))
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))),
                     draw(st.sampled_from(BAD)))
    src = "".join(parts)
    # pieces can still open a comment that never closes: the tail of a
    # block comment swallowed by a line comment is code (`// /*\n/*/`)
    assume(not leaves_a_comment_open(src))
    return src


COMMENT_OPENER = re.compile(r"//|/\*")


def leaves_a_comment_open(src):
    """Whether src, read as C, opens a block comment it never closes."""
    pos = 0
    while (m := COMMENT_OPENER.search(src, pos)) is not None:
        if m.group() == "//":
            pos = src.find("\n", m.end())
            if pos < 0:
                return False
        else:
            pos = src.find("*/", m.end())
            if pos < 0:
                return True
            pos += 2
    return False


@pytest.mark.parametrize("src,open_", [
    ("// /*\n/*/ ", True), ("/* a */ /*", True), ("// /*\nb*/ ", False),
    ("/*/ */", False), ("a // /* b", False)])
def test_comment_scan_finds_an_open_comment(src, open_):
    assert leaves_a_comment_open(src) == open_


def lexed(tokenize_fn, *args):
    try:
        return tokenize_fn(*args)
    except SyntaxErrorAt as exn:
        return ("error", str(exn), exn.line, exn.col)


def as_tuples(toks):
    if isinstance(toks, tuple):
        return toks
    return [(t.kind, t.text, t.line, t.col) for t in toks]


@settings(max_examples=300, deadline=None)
@given(streams())
def test_tokens_match_the_reference(src):
    assert as_tuples(lexed(tokenize, src)) == lexed(ref_tokenize, src)


@settings(max_examples=200, deadline=None)
@given(annot_bodies, st.sampled_from([""] + BAD + ["%", "{"]))
def test_annotation_tokens_match_the_reference(body, bad):
    body += bad
    assert as_tuples(lexed(_tokenize_annot, body, 4, 9)) \
        == lexed(ref_tokenize_annot, body, S.Loc(4, 9))


@pytest.mark.parametrize("name", all_corpus_names())
def test_corpus_tokens_match_the_reference(name):
    src = corpus_source(name)
    assert as_tuples(tokenize(src)) == ref_tokenize(src)


@pytest.mark.parametrize("src,message,line,col", [
    ("int main() {\n  /* open\n  return 0;\n}\n",
     "unterminated comment", 2, 3),
    ("int main() {\n  x = 1; /*@ assert x <= 1;\n}\n",
     "unterminated annotation", 2, 10),
    ("/* closed */ int /*", "unterminated comment", 1, 18),
    ("/*@ closed */\n/*@", "unterminated annotation", 2, 1),
])
def test_unterminated_comment_is_reported_where_it_opens(src, message,
                                                         line, col):
    with pytest.raises(SyntaxErrorAt) as info:
        tokenize(src)
    assert str(info.value) == f"{line}:{col}: {message}"


# ---------------------------------------------------------------------------
# Walkers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", all_corpus_names())
def test_walk_orders_match_the_reference(name):
    program, _ = prepare(corpus_source(name), AnalysisConfig())
    for fn in program.functions.values():
        stmts = list(S.walk_stmts(fn.body))
        assert [id(s) for s in stmts] \
            == [id(s) for s in ref_walk_stmts(fn.body)]
        for s in stmts:
            for e in S.stmt_exprs(s):
                assert [id(x) for x in S.walk_exprs(e)] \
                    == [id(x) for x in ref_walk_exprs(e)]


def test_walkers_do_not_recurse_on_deep_trees():
    # a 3000-term sum is a left-deep tree of 2999 additions
    e = parse_expr(" + ".join(["x"] * 3000))
    nodes = list(S.walk_exprs(e))
    assert len(nodes) == 5999
    assert all(isinstance(n, S.Binary) for n in nodes[:2999])
    assert all(isinstance(n, S.Var) for n in nodes[2999:])
    # the fact table reads the sum with the same walk
    program = S.Program({})
    fn = S.FuncDef("double", "f", [S.Param("double", "x")], S.Block([]),
                   var_types={"x": ("double", False)})
    assert D.stmt_facts(S.Return(e), fn, program).reads == {"x"}
    block = S.Block([])
    for _ in range(3000):
        block = S.Block([block])
    blocks = list(S.walk_stmts(block))
    assert len(blocks) == 3001
    assert all(outer.stmts == [inner]
               for outer, inner in zip(blocks, blocks[1:]))
