"""The lexer and the AST walkers, checked against the code they replaced,
kept here as the reference: a `match` loop that builds a position for
every lexeme, and walks that recurse through one generator per level.
The parser is checked against pins of the trees, and of the rejections,
of the parser it replaced, which had one hand-written ladder of
functions per grammar level.

Token streams mix identifiers, keywords, numbers, operators, `\\n`, `\\t`
and `\\r`, line comments, multi-line block comments, multi-line
annotations and stray characters, with and without blanks between them.
Walk orders are compared on every corpus function after instrumentation,
so sections and the rewritten returns are walked too.
"""
import gc
import hashlib
import random
import re
import tracemalloc
from collections import Counter
from typing import List, Tuple

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fldx.cli import main
from fldx.compiler import deps as D
from fldx.config import AnalysisConfig
from fldx.errors import SyntaxErrorAt, TypeErrorAt
from fldx.frontend import parse_expr, parse_pred, parse_program
from fldx.frontend import syntax as S
from fldx.frontend.parser import KEYWORDS, _tokenize_annot, tokenize
from fldx.pipeline import prepare
from perfbench import workloads as W
from tests.conftest import all_corpus_names, corpus_source, stmt_exprs

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
    locs = map(toks.loc, range(len(toks)))
    return [(kind, text, loc.line, loc.col)
            for kind, text, loc in zip(toks.kinds, toks.texts, locs)]


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


@pytest.mark.parametrize("workload,seed", [
    ("wide_instrument", 11), ("wide_instrument", 37),
    ("branch_fanout", 11), ("branch_fanout", 37)])
def test_generated_tokens_match_the_reference(workload, seed):
    """The 70 KB sources run to about 5,500 lines and to offsets past
    65,535, far beyond the Hypothesis streams. The token count, eof
    included, is what the benchmark's `frontend.tokens_per_s` counts."""
    for p in W.WORKLOADS[workload](seed):
        ref = ref_tokenize(p.source)
        toks = tokenize(p.source)
        assert len(toks) == len(ref)
        assert as_tuples(toks) == ref


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
            for e in stmt_exprs(s):
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
    ret = S.Return(e)
    fn = S.FuncDef("double", "f", [S.Param("double", "x")], S.Block([ret]),
                   var_types={"x": ("double", False)})
    assert D.fact_table(fn, S.Program({"f": fn}))[id(ret)].reads == {"x"}
    block = S.Block([])
    for _ in range(3000):
        block = S.Block([block])
    blocks = list(S.walk_stmts(block))
    assert len(blocks) == 3001
    assert all(outer.stmts == [inner]
               for outer, inner in zip(blocks, blocks[1:]))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: SHA-256 of `repr(parse_program(source))` for the workload programs,
#: keyed workload/seed/program
AST_SHA256 = {
    "corpus/0/absorption.c":
        "061414414ba69bb00412529be4f93c46da261fb9390304e11a9f195ccd14ee14",
    "corpus/0/associativity.c":
        "2e112ad2a54eed461888d8bf12e0bd8e81005c8adc82ac5195aab5eb84518ba9",
    "corpus/0/comp_abs.c":
        "58dd6966e17a0b4866414699fc4dac40222a088db995dfbe32eb143eb19f7501",
    "corpus/0/comp_cont.c":
        "b8ba342ae5bd840aa192c810b9319fcf9da72ce093ab97633d3e20bba4543816",
    "corpus/0/comp_disc.c":
        "9876df0a376f027d0e78cad7b422ae5a13ca9d326762502262126a0a9d0af82a",
    "corpus/0/comp_disc_nested.c":
        "b6540ea16e763b16df376bb991a71c534055ab5894e5a68d5fb7fdc0ff478d9b",
    "corpus/0/division.c":
        "c099c649c190e717fafe03d44310ce6ae61b562b9f0dac9be6a3327db5fb0009",
    "corpus/0/filter.c":
        "c9090560f326db12dfcd96e5ed92d4833ba378c36bd16941f789e1478d3695e1",
    "corpus/0/inter_loop.c":
        "cde88870f80b233b0fd8bd4bc52900afe23809bb364c264c085d7186dd0ec423",
    "corpus/0/motiv_example.c":
        "fe565840beb077e90628ecf0bce77a162f59bc93f6b6458d8fe6972eac307576",
    "corpus/0/newton_sqrt.c":
        "6ed92535c94bbac48a2753b07f418178a45404f95edef05143dcc5c2e44e58a3",
    "corpus/0/patriot.c":
        "4fda24ca03a0ea5a59c33da0fda942b560b8676fc93985c4ba2a885f39928019",
    "corpus/0/polynome.c":
        "7b921bd7aa36b82d47badfd418de54b448289d1985adfe121bcee65d7e599749",
    "corpus/0/relative.c":
        "b639fdce04d06ff7647bddd1cb638e9fc2eb704fa6260f445e829dca17d626ae",
    "corpus/0/scanf.c":
        "bdbee6db14921c30b6605c1d2639f5d115044fb6252c5ccdb6e52cd8736c1ccb",
    "branch_fanout/11/fanout_n4":
        "583ab25a8d557904c96b96dc769f10e5678c200e37ee286ae79df93660d91d79",
    "branch_fanout/11/fanout_n5":
        "a3e60b0c1d2f30f78a19399c035cd6a0c8ed114210849d63b2bb2ac8768c70fa",
    "branch_fanout/11/fanout_n6":
        "5b6a544dc602df1a37883ae7a28d9020fd4b444975ae312beb7bd3fdfd91104d",
    "branch_fanout/11/fanout_n7":
        "3960e21bcdbcefc50f2d1505e3d548a27380965c116cc0b1d4767e00a78c579e",
    "branch_fanout/11/fanout_n8":
        "283a7de12bdfcf41aef35dd7d518becf2349cc07c75f45a141bc1b9a35163686",
    "branch_fanout/11/fanout_n9":
        "36c86afa9686a71ae19e5246a01a0d47910ca848061f16dd85c22ae449521510",
    "wide_instrument/1/wide_10kb":
        "0eb5ca51650667d7825ffbcc58fff529c96d81f81c2fa4e3ac487e01d64b840d",
    "wide_instrument/1/wide_14kb":
        "916c4adc309accff1ec8d099cc0389916a003d3a81eae7a7186cedf60e32f85c",
    "wide_instrument/1/wide_20kb":
        "3cb37638bb6f670bf8a2027ea7afeec43ba0d27caf360caed03d57e1c88556f0",
    "wide_instrument/1/wide_28kb":
        "4382d1f11db128765d75d8437546cc0d9a77f6517e3471136f0d5d58b27e35e1",
    "wide_instrument/1/wide_40kb":
        "6b40274b1b264c82bc86a3ce07f86aef405a3159dffcc96921e8a3e0c13d3d98",
    "wide_instrument/1/wide_56kb":
        "204702c550326b3db8fdc83639ddc252935eb843f56a64b5a37f3a085f0681e7",
    "wide_instrument/1/wide_70kb":
        "c5ac95dc0a2b08bcf71cff1075656aaaeb97f5d28e34b3a401612e593fb508f8",
    "wide_instrument/5/wide_10kb":
        "2a88d123b6146295f2ad713eeb53a05aa3fc0649561aee79a8156a20fa028f68",
    "wide_instrument/5/wide_14kb":
        "caa0c056074232981b0d1df718a2cd354fe5351af61e7e718641c69084e09474",
    "wide_instrument/5/wide_20kb":
        "0570433800411e98c30c7a9765f2e5d8fc84029285b83043b8f97c81da6bc4d9",
    "wide_instrument/5/wide_28kb":
        "c58d2a84f6b76ee71a28712c03b8dfdd88a729760e1973daf8a737e4b1f07c3a",
    "wide_instrument/5/wide_40kb":
        "4f982958a3d57103508b1cbce7862256667d93e117ae75314eec0d261cb1b559",
    "wide_instrument/5/wide_56kb":
        "27836ac89a649d672dd7dde55d43ccd9f463a06386b4ff911160fe7791efc95c",
    "wide_instrument/5/wide_70kb":
        "c59e7100b1f9425e70d8f06deb068cb6806c413e1c2f5fd09c8ef3861e85cc89",
    "wide_instrument/11/wide_10kb":
        "8aeb3eff37efb144583c71bff48a4a20d6589ee6bd06b909104f7cc18d5a9735",
    "wide_instrument/11/wide_14kb":
        "4f7191ad7fb449035e0646f3b3c972b7211abb059bf45883fbaeb19caccf5700",
    "wide_instrument/11/wide_20kb":
        "dc9aa60f686cd22d67e5faffd5243eb678397d5fc0dee02f32e8f4d21f775e47",
    "wide_instrument/11/wide_28kb":
        "84bbfbb1db19ed32d7c3a7d2c761d0e027e7e28f6bb95f4184ff8619d8291345",
    "wide_instrument/11/wide_40kb":
        "60fd62de1597d8b26e22dccef39af19509966ec196e1d265fb70097f513bff58",
    "wide_instrument/11/wide_56kb":
        "86864ae3b8c9610e3731e9fb4bbc226f6389004536e1d9385d2e52f391d2521a",
    "wide_instrument/11/wide_70kb":
        "54e487f86ea5d152d5813bcad4dec9954475dea4f95d6f7bbd21e9c807339d1d",
}

#: annotation predicates and the repr of their trees; every token of an
#: annotation carries the annotation's position, 0:0 here, so the
#: positions are left out
PRED_TREES = [
    ('a <= 1 ==> b <= 2 ==> c <= 3',
     "PRel(op='==>', left=PCmp(op='<=', left=TName(name='a'), "
     "right=TConst(value=Fraction(1, 1), text='1')), right=PRel(op='==>', "
     "left=PCmp(op='<=', left=TName(name='b'), "
     "right=TConst(value=Fraction(2, 1), text='2')), right=PCmp(op='<=', "
     "left=TName(name='c'), right=TConst(value=Fraction(3, 1), text='3'))))"),
    ('(a <= 1 ==> b <= 2) ==> c <= 3',
     "PRel(op='==>', left=PRel(op='==>', left=PCmp(op='<=', "
     "left=TName(name='a'), right=TConst(value=Fraction(1, 1), text='1')), "
     "right=PCmp(op='<=', left=TName(name='b'), "
     "right=TConst(value=Fraction(2, 1), text='2'))), right=PCmp(op='<=', "
     "left=TName(name='c'), right=TConst(value=Fraction(3, 1), text='3')))"),
    ('a <= 1 || b <= 2 && c <= 3',
     "PRel(op='||', left=PCmp(op='<=', left=TName(name='a'), "
     "right=TConst(value=Fraction(1, 1), text='1')), right=PRel(op='&&', "
     "left=PCmp(op='<=', left=TName(name='b'), "
     "right=TConst(value=Fraction(2, 1), text='2')), right=PCmp(op='<=', "
     "left=TName(name='c'), right=TConst(value=Fraction(3, 1), text='3'))))"),
    ('a <= 1 && b <= 2 || c <= 3 ==> d <= 4',
     "PRel(op='==>', left=PRel(op='||', left=PRel(op='&&', "
     "left=PCmp(op='<=', left=TName(name='a'), "
     "right=TConst(value=Fraction(1, 1), text='1')), right=PCmp(op='<=', "
     "left=TName(name='b'), right=TConst(value=Fraction(2, 1), "
     "text='2'))), right=PCmp(op='<=', left=TName(name='c'), "
     "right=TConst(value=Fraction(3, 1), text='3'))), right=PCmp(op='<=', "
     "left=TName(name='d'), right=TConst(value=Fraction(4, 1), text='4')))"),
    ('!a <= 1 && b != 2',
     "PRel(op='&&', left=PNot(pred=PCmp(op='<=', left=TName(name='a'), "
     "right=TConst(value=Fraction(1, 1), text='1'))), right=PCmp(op='!=', "
     "left=TName(name='b'), right=TConst(value=Fraction(2, 1), text='2')))"),
    ('!(a < 1 || b > 2)',
     "PNot(pred=PRel(op='||', left=PCmp(op='<', left=TName(name='a'), "
     "right=TConst(value=Fraction(1, 1), text='1')), right=PCmp(op='>', "
     "left=TName(name='b'), right=TConst(value=Fraction(2, 1), text='2'))))"),
    ('\\let e = x - y; e <= 1 ==> e >= 0',
     "PLet(names=['e'], value=TBin(op='-', left=TName(name='x'), "
     "right=TName(name='y')), body=PRel(op='==>', left=PCmp(op='<=', "
     "left=TName(name='e'), right=TConst(value=Fraction(1, 1), text='1')), "
     "right=PCmp(op='>=', left=TName(name='e'), "
     "right=TConst(value=Fraction(0, 1), text='0'))))"),
    ('\\let (lo, hi) = accuracy_get_derr(y); lo <= hi',
     "PLet(names=['lo', 'hi'], value=PBuiltin(name='accuracy_get_derr', "
     "args=[TName(name='y')]), body=PCmp(op='<=', left=TName(name='lo'), "
     "right=TName(name='hi')))"),
    ('\\let lo, hi = accuracy_get_dreal(y); lo == hi',
     "PLet(names=['lo', 'hi'], value=PBuiltin(name='accuracy_get_dreal', "
     "args=[TName(name='y')]), body=PCmp(op='==', left=TName(name='lo'), "
     "right=TName(name='hi')))"),
    ('0 <= x <= 1',
     "PRel(op='&&', left=PCmp(op='<=', left=TConst(value=Fraction(0, 1), "
     "text='0'), right=TName(name='x')), right=PCmp(op='<=', "
     "left=TName(name='x'), right=TConst(value=Fraction(1, 1), text='1')))"),
    ('0 <= x < y <= 1',
     "PRel(op='&&', left=PRel(op='&&', left=PCmp(op='<=', "
     "left=TConst(value=Fraction(0, 1), text='0'), right=TName(name='x')), "
     "right=PCmp(op='<', left=TName(name='x'), right=TName(name='y'))), "
     "right=PCmp(op='<=', left=TName(name='y'), "
     "right=TConst(value=Fraction(1, 1), text='1')))"),
    ('(x + 1) * 2 <= (y)',
     "PCmp(op='<=', left=TBin(op='*', left=TBin(op='+', "
     "left=TName(name='x'), right=TConst(value=Fraction(1, 1), text='1')), "
     "right=TConst(value=Fraction(2, 1), text='2')), right=TName(name='y'))"),
    ('(x <= 1) && (x + 1) * 2 <= (y - 1) / 2',
     "PRel(op='&&', left=PCmp(op='<=', left=TName(name='x'), "
     "right=TConst(value=Fraction(1, 1), text='1')), right=PCmp(op='<=', "
     "left=TBin(op='*', left=TBin(op='+', left=TName(name='x'), "
     "right=TConst(value=Fraction(1, 1), text='1')), "
     "right=TConst(value=Fraction(2, 1), text='2')), right=TBin(op='/', "
     "left=TBin(op='-', left=TName(name='y'), "
     "right=TConst(value=Fraction(1, 1), text='1')), "
     "right=TConst(value=Fraction(2, 1), text='2'))))"),
    ('- 3 <= -x',
     "PCmp(op='<=', left=TConst(value=Fraction(-3, 1), text='-3'), "
     "right=TBin(op='-', left=TConst(value=Fraction(0, 1), text='0'), "
     "right=TName(name='x')))"),
    ('-(2 * x) <= - (3)',
     "PCmp(op='<=', left=TBin(op='-', left=TConst(value=Fraction(0, 1), "
     "text='0'), right=TBin(op='*', left=TConst(value=Fraction(2, 1), "
     "text='2'), right=TName(name='x'))), right=TConst(value=Fraction(-3, "
     "1), text='-3'))"),
    ('min(x, 1) <= max(y, 2.5e-1)',
     "PCmp(op='<=', left=TCall(name='min', args=[TName(name='x'), "
     "TConst(value=Fraction(1, 1), text='1')]), right=TCall(name='max', "
     "args=[TName(name='y'), TConst(value=Fraction(1, 4), text='2.5e-1')]))"),
    ('abs(x - y) <= max_distance(a, 3)',
     "PCmp(op='<=', left=TCall(name='abs', args=[TBin(op='-', "
     "left=TName(name='x'), right=TName(name='y'))]), "
     "right=TCall(name='max_distance', args=[TName(name='a'), "
     "TConst(value=Fraction(3, 1), text='3')]))"),
    ('a[i + 1] - a[i] <= 1e-3',
     "PCmp(op='<=', left=TBin(op='-', left=TIndex(name='a', "
     "index=TBin(op='+', left=TName(name='i'), "
     "right=TConst(value=Fraction(1, 1), text='1'))), "
     "right=TIndex(name='a', index=TName(name='i'))), "
     "right=TConst(value=Fraction(1, 1000), text='1e-3'))"),
    ('accuracy_assert_derr(y, -1, 1) && dprint(y)',
     "PRel(op='&&', left=PBuiltin(name='accuracy_assert_derr', "
     "args=[TName(name='y'), TConst(value=Fraction(-1, 1), text='-1'), "
     "TConst(value=Fraction(1, 1), text='1')]), "
     "right=PBuiltin(name='dprint', args=[TName(name='y')]))"),
    ('x - y - z / 2 / w == 0',
     "PCmp(op='==', left=TBin(op='-', left=TBin(op='-', "
     "left=TName(name='x'), right=TName(name='y')), right=TBin(op='/', "
     "left=TBin(op='/', left=TName(name='z'), "
     "right=TConst(value=Fraction(2, 1), text='2')), "
     "right=TName(name='w'))), right=TConst(value=Fraction(0, 1), "
     "text='0'))"),
]


@pytest.mark.parametrize("workload,seed", [
    ("corpus", 0), ("branch_fanout", 11), ("wide_instrument", 1),
    ("wide_instrument", 5), ("wide_instrument", 11)])
def test_program_trees_match_the_pins(workload, seed):
    key = f"{workload}/{seed}/"
    got = {key + p.name: hashlib.sha256(
        repr(parse_program(p.source)).encode()).hexdigest()
        for p in W.WORKLOADS[workload](seed)}
    assert got == {k: v for k, v in AST_SHA256.items() if k.startswith(key)}


@pytest.mark.parametrize("src,tree", PRED_TREES)
def test_predicate_trees_match_the_pins(src, tree):
    assert repr(parse_pred(src)).replace(", loc=Loc(line=0, col=0)", "") \
        == tree


def test_parsing_the_largest_source_holds_no_more_memory_than_before():
    """tracemalloc's peak during `parse_program` of the seed-37 70 KB
    source, and the tree it returns, in MB: 4.76 and 2.38 when every token
    was an object holding its line and column."""
    src = W.wide_instrument(37)[-1].source
    parse_program(src)  # compiles and caches the patterns it uses
    gc.collect()
    tracemalloc.start()
    try:
        tree = parse_program(src)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.functions
    assert round(peak / 1e6, 2) <= 4.76
    assert round(held / 1e6, 2) <= 2.38


MAIN = ("int main() {\n  double x = read_double(0.0, 1.0);\n"
        "  double y = x * 2.0;\n  %s\n  return 0;\n}\n")
ANNOT = MAIN % "/*@ assert %s; */"
G2 = "double g(double v, double w) { return v; }\n"

#: sources the parser rejects, each with the message it gives; the
#: parser with a ladder per level gave the same messages, except that
#: `min()` and `accuracy_get_derr()` failed at their `)` instead of on
#: their argument count. A non-integer array size used to end in a
#: ValueError traceback in a declaration and be skipped in a parameter.
REJECTED = {
    "min-no-arguments": (ANNOT % "min() <= 1", "4:3: min expects 2 arguments"),
    "abs-two-arguments": (ANNOT % "abs(x, y) <= 1",
                          "4:3: abs expects 1 arguments"),
    "unknown-term-function": (ANNOT % "foo(x) <= 1",
                              "4:3: unknown term function 'foo'"),
    "pair-outside-let": (ANNOT % "accuracy_get_derr(y) <= 1",
                         "4:3: unknown term function 'accuracy_get_derr'"),
    "missing-comparison": (ANNOT % "x + 1",
                           "4:3: expected a comparison in annotation"),
    "trailing-tokens": (ANNOT % "x <= 1 y",
                        "4:3: trailing tokens in annotation: 'y'"),
    "dangling-implication": (ANNOT % "x <= 1 ==>",
                             "4:3: unexpected token '' in annotation term"),
    "dangling-and": (ANNOT % "x <= 1 &&",
                     "4:3: unexpected token '' in annotation term"),
    "unclosed-parenthesis": (ANNOT % "(x <= 1", "4:3: expected ')', found"
                             " '<='"),
    "missing-operand": (ANNOT % "1 + <= 2",
                        "4:3: unexpected token '<=' in annotation term"),
    "pred-built-in-no-arguments": (ANNOT % "dprint()",
                                   "4:3: dprint expects 1 arguments"),
    "pred-built-in-arity": (ANNOT % "accuracy_assert_derr(y, 1)",
                            "4:3: accuracy_assert_derr expects 3 arguments"),
    "built-in-trailing-comma": (ANNOT % "dprint(y,)", "4:3: unexpected"
                                " token ')' in annotation term"),
    "let-no-names": (ANNOT % "\\let () = accuracy_get_derr(y); 0 <= 1",
                     "4:3: expected ident, found ')'"),
    "let-names-without-comma": (
        ANNOT % "\\let (lo hi) = accuracy_get_derr(y); lo <= hi",
        "4:3: expected ')', found 'hi'"),
    "let-pair-no-arguments": (
        ANNOT % "\\let (lo, hi) = accuracy_get_derr(); lo <= hi",
        "4:3: accuracy_get_derr expects 1 arguments"),
    "let-missing-semicolon": (ANNOT % "\\let e = x - y e <= 1",
                              "4:3: expected ';', found 'e'"),
    "empty-array-initializer": (
        "int main() {\n  int a[0] = {};\n  return 0;\n}\n",
        "2:15: unexpected token '}' in expression"),
    "initializer-trailing-comma": (
        "int main() {\n  double a[2] = {1.0, };\n  return 0;\n}\n",
        "2:23: unexpected token '}' in expression"),
    "initializer-size": (
        "int main() {\n  double a[2] = {1.0};\n  return 0;\n}\n",
        "2:3: array a initializer has 1 elements for size 2"),
    "array-size-not-an-integer": (
        "int main() {\n  int a[1.5];\n  return 0;\n}\n",
        "2:9: array size must be an integer, found '1.5'"),
    "parameter-size-not-an-integer": (
        "double g(double t[2.5]) { return t[0]; }\n" + MAIN % "",
        "1:19: array size must be an integer, found '2.5'"),
    "call-trailing-comma": (G2 + MAIN % "y = g(x,);",
                            "5:11: unexpected token ')' in expression"),
    "call-missing-comma": (G2 + MAIN % "y = g(x y);",
                           "5:11: expected ')', found 'y'"),
    "parameter-trailing-comma": (
        "double g(double v,) { return v; }\n" + MAIN % "",
        "1:19: expected a parameter type, found ')'"),
    "parameter-without-type": (
        "double g(v) { return v; }\n" + MAIN % "",
        "1:10: expected a parameter type, found 'v'"),
    "dangling-operator": (MAIN % "y = x +;",
                          "4:10: unexpected token ';' in expression"),
    "missing-operand-in-c": (MAIN % "y = * x;",
                             "4:7: unexpected token '*' in expression"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_sources_end_in_a_parse_error(tmp_path, name):
    source, message = REJECTED[name]
    src = tmp_path / "p.c"
    src.write_text(source)
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 2, res.output
    assert f"error: parse: {message}" in res.output


# ---------------------------------------------------------------------------
# Token mutants
# ---------------------------------------------------------------------------

#: SHA-256 over the outcome of every mutant `token_mutants` makes: the
#: `repr` of the parsed tree, or the error's class and message
MUTANTS_SHA256 = \
    "e9199538b7505c3c70ff761f2e245b071c379aa20d797284ac358fe2da790594"


def mutate(rng, texts: List[str], vocabulary: List[str]) -> List[str]:
    """texts with one token deleted, duplicated, swapped with the next
    one or replaced by a token of the vocabulary."""
    out = list(texts)
    i = rng.randrange(len(out))
    how = rng.randrange(4)
    if how == 0:
        del out[i]
    elif how == 1:
        out.insert(i, out[i])
    elif how == 2 and i + 1 < len(out):
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        out[i] = rng.choice(vocabulary)
    return out


def token_mutants(n: int, seed: int = 28) -> List[str]:
    """n sources, each a corpus program with one token mutated and its
    tokens joined by single spaces. One in four mutates a token inside
    one of the program's annotations instead."""
    rng = random.Random(seed)
    sources = [tokenize(corpus_source(name)).texts[:-1]
               for name in all_corpus_names()]
    vocabulary = sorted({t for texts in sources for t in texts
                         if not t.startswith("/*@")})
    bodies = [_tokenize_annot(t[3:-2], 0, 0).texts[:-1]
              for texts in sources for t in texts if t.startswith("/*@")]
    annot_vocabulary = sorted({t for body in bodies for t in body})
    out = []
    for _ in range(n):
        texts = list(rng.choice(sources))
        annots = [i for i, t in enumerate(texts) if t.startswith("/*@")]
        if annots and rng.randrange(4) == 0:
            i = rng.choice(annots)
            body = _tokenize_annot(texts[i][3:-2], 0, 0).texts[:-1]
            texts[i] = "/*@ " + " ".join(
                mutate(rng, body, annot_vocabulary)) + " */"
        else:
            texts = mutate(rng, texts, vocabulary)
        out.append(" ".join(texts))
    return out


def test_token_mutants_parse_or_fail_as_pinned():
    """800 one-token mutants of the corpus: each parses to the pinned
    tree or fails with the pinned syntax or name error, and none raises
    anything else. About 9 in 10 are syntax errors, so this pins the
    parser's error paths: which token each rejection names, and where."""
    digest = hashlib.sha256()
    kinds = Counter()
    for src in token_mutants(800):
        try:
            outcome = repr(parse_program(src))
            kind = "tree"
        except (SyntaxErrorAt, TypeErrorAt) as exn:
            kind = type(exn).__name__
            outcome = f"{kind}: {exn}"
        kinds[kind] += 1
        digest.update(hashlib.sha256(outcome.encode()).digest())
    assert set(kinds) == {"tree", "SyntaxErrorAt", "TypeErrorAt"}
    assert digest.hexdigest() == MUTANTS_SHA256
