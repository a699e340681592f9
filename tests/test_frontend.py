"""Parser, printer, and control-flow graph construction."""
import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from click.testing import CliRunner

from fldx.cli import main
from fldx.compiler.deps import fact_table
from fldx.compiler.validator import validate_function
from fldx.config import AnalysisConfig
from fldx.errors import SyntaxErrorAt, TypeErrorAt
from fldx.frontend import parse_expr, parse_pred, parse_program, print_program
from fldx.frontend import syntax as S
from fldx.frontend.cfg import (ENTRY, EXIT, RETFLAG, RETVAL, build_cfg,
                               check_exit_reachable, normalize_returns)
from fldx.frontend.printer import print_expr, print_pred
from fldx.pipeline import prepare
from tests.conftest import all_corpus_names, corpus_source, kernel_functions


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", all_corpus_names())
def test_print_parse_fixpoint_on_corpus(name):
    src = corpus_source(name)
    p1 = parse_program(src)
    out1 = print_program(p1)
    p2 = parse_program(out1)
    out2 = print_program(p2)
    assert out1 == out2


@pytest.mark.parametrize("text", [
    "a + b * c",
    "(a + b) * c",
    "a / b / c",
    "a - (b - c)",
    "-x * y",
    "(int) (x + 0.5)",
    "(double) n",
    "x < y && y < z || !done",
    "f(a, b) + g()",
    "t[i + 1] - t[i]",
    "a > b ? a : b",
])
def test_expression_round_trip(text):
    e1 = parse_expr(text)
    t1 = print_expr(e1)
    assert print_expr(parse_expr(t1)) == t1


#: (source expression, its print): the print shows the parse tree's
#: grouping, with parentheses only where precedence needs them
PRINTED_EXPRESSIONS = [
    ('a + b * c - d / a', 'a + b * c - d / a'),
    ('a - b - c - d', 'a - b - c - d'),
    ('a / b / c * d', 'a / b / c * d'),
    ('a - (b - c) + (a + b) * (c - d)', 'a - (b - c) + (a + b) * (c - d)'),
    ('-a * -b - -c', '-a * -b - -c'),
    ('-(a + b) * -(int) c', '-(a + b) * -(int) c'),
    ('(int) a + (double) i * 2', '(int) a + (double) i * 2'),
    ('(double) (i + j) / k', '(double) (i + j) / k'),
    ('i % j * k - i / j % k', 'i % j * k - i / j % k'),
    ('a < b && b < c || !(c == d) && i != j', 'a < b && b < c || !(c == d) && i != j'),
    ('a <= b == c >= d', 'a <= b == c >= d'),
    ('!a || b && !c', '!a || b && !c'),
    ('a > b ? a - b : b > c ? b : c', 'a > b ? a - b : b > c ? b : c'),
    ('(a > b ? a : b) * c', '(a > b ? a : b) * c'),
    ('a ? b : c ? d : a', 'a ? b : c ? d : a'),
    ('a || b ? c + d : -d', 'a || b ? c + d : -d'),
    ("((a - b) - (c))", "a - b - c"),
    ("(a * (b)) / ((c))", "a * b / c"),
    ("a - (b + c) * d", "a - (b + c) * d"),
]


@pytest.mark.parametrize("text,printed", PRINTED_EXPRESSIONS)
def test_expression_prints_as_parsed(text, printed):
    src = ("int main() { double a = 1.0; double b = 2.0; double c = 3.0;"
           " double d = 4.0; int i = 1; int j = 2; int k = 3; double r = "
           + text + "; return 0; }")
    lines = print_program(parse_program(src)).splitlines()
    assert f"  double r = {printed};" in lines


@pytest.mark.parametrize("text", [
    "x + 1 <= y",
    "\\let e = x - y; e <= 0.001 && e >= -0.001",
    "\\let (lo, hi) = accuracy_get_derr(x); hi - lo <= 0.5",
    "accuracy_assert_derr(z, -0.5, 0.5)",
    "a <= b ==> b <= c ==> a <= c",
    "!(x == y)",
    "abs(x - y) <= max(eps, 0.125)",
])
def test_predicate_round_trip(text):
    p1 = parse_pred(text)
    t1 = print_pred(p1)
    assert print_pred(parse_pred(t1)) == t1


def test_chained_comparison_becomes_conjunction():
    p = parse_pred("0 <= x <= 1")
    assert isinstance(p, S.PRel) and p.op == "&&"


# ---------------------------------------------------------------------------
# Syntax and resolution errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src", [
    "int main( { return 0; }",
    "int main() { double x = ; return 0; }",
    "int main() { if x > 0 { } return 0; }",
    "int main() { /*@ split(1); */ return 0; }",  # unmatched marker
    "int main() { /*@ merge(1); */ return 0; }",
    "int main() { /*@ accuracy_assert_derr(x); */ return 0; }",  # arity
])
def test_syntax_errors(src):
    with pytest.raises(SyntaxErrorAt):
        parse_program(src)


def test_use_before_declaration_rejected():
    with pytest.raises((SyntaxErrorAt, TypeErrorAt)):
        parse_program("int main() { double y = x + 1.0; return 0; }")


def test_a_do_while_condition_reads_what_its_body_declared():
    # blocks open no scope, and the body runs before the condition
    fn = parse_program("int main() { do { int k = 1; } while (k < 0);"
                       " return 0; }").functions["main"]
    assert fn.var_types == {"k": ("int", False)}


def test_duplicate_function_rejected():
    with pytest.raises((SyntaxErrorAt, TypeErrorAt)):
        parse_program("int f() { return 0; } int f() { return 1; }")


# ---------------------------------------------------------------------------
# Integer literals: a leading 0 makes one octal, as in C
# ---------------------------------------------------------------------------

OCTAL = """int main() {
  int k = 010;
  double a[010] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  double y = 8.0 + a[7];
  double z = 010.5;
  double w = 1.0 * k;
  /*@ assert y == 010; */
  /*@ assert dprint(w); */
  /*@ assert dprint(z); */
  return 00;
}
"""


def test_cli_a_leading_zero_integer_is_octal(tmp_path):
    """In code, in an array size and in an annotation constant 010 is 8;
    a float keeps its decimal digits."""
    src = tmp_path / "octal.c"
    src.write_text(OCTAL)
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 0, res.output  # y == 010 holds
    assert "[print] 8:3 w: float=[8, 8] real=[8, 8]" in res.output
    assert "[print] 9:3 z: float=[10.5, 10.5] real=[10.5, 10.5]" \
        in res.output
    res = CliRunner().invoke(main, ["instrument", str(src)])
    assert res.exit_code == 0, res.output
    assert "int k = 8;" in res.output and "double a[8] =" in res.output
    assert "y == 010" in res.output  # an annotation keeps its text


@pytest.mark.parametrize("old,new,message", [
    ("int k = 010;", "int k = 08;",
     "2:11: invalid digit in octal constant '08'"),
    ("a[7]", "a[0709]", "4:22: invalid digit in octal constant '0709'"),
    ("double a[010]", "double a[09]",
     "3:12: invalid digit in octal constant '09'"),
    ("y == 010", "y == 08", "7:3: invalid digit in octal constant '08'"),
    ("return 00;", "return 09;", "10:10: invalid digit in octal constant"
     " '09'"),
])
def test_cli_octal_literal_with_8_or_9_is_a_parse_error(tmp_path, old, new,
                                                        message):
    src = tmp_path / "octal.c"
    src.write_text(OCTAL.replace(old, new))
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 2, res.output
    assert f"error: parse: {message}" in res.output


# ---------------------------------------------------------------------------
# CFG: the validator's criterion 1 against brute force and networkx
# ---------------------------------------------------------------------------


def brute_strictly_dominates(g, root, a, b):
    """a strictly dominates b iff root reaches b and removing a
    disconnects b from root."""
    if a == b or not nx.has_path(g, root, b):
        return False
    if a == root:
        return True
    h = g.copy()
    h.remove_node(a)
    return not nx.has_path(h, root, b)


# every kind of section: one that holds, one a return leaves early, one
# round a loop body, a dead one, and one closing with a return
PROGRAMS = [
    """
    int main() {
      double x = read_double(0.0, 1.0);
      double y = 0.0;
      /*@ split(1); */
      if (x > 0.5) { y = x; } else { y = 0.0 - x; }
      /*@ merge(1); */
      int i = 0;
      while (i < 3) {
        /*@ split(2); */ y = y + x; /*@ merge(2); */
        i = i + 1;
      }
      return 0;
    }
    """,
    """
    int main() {
      double x = read_double(0.0, 1.0);
      do { x = x * 0.5; } while (x > 0.125);
      /*@ split(1); */
      if (x > 0.0) { return 1; }
      /*@ merge(1); */
      return 0;
      /*@ split(2); */ x = x + 1.0; /*@ merge(2); */
    }
    """,
    """
    int main() {
      double x = read_double(0.0, 1.0);
      if (x > 0.5) {
        /*@ split(1); */
        x = x * 2.0;
        /*@ split(2); */ if (x > 1.5) { return 2; } return 1;
        /*@ merge(2); */
        /*@ merge(1); */
      }
      return 0;
      /*@ split(3); */ do { return 3; } while (x > 0.0); /*@ merge(3); */
    }
    """,
]


@pytest.mark.parametrize("src", PROGRAMS)
def test_dominators_match_brute_force(src):
    """The validator's criterion-1 messages, the back edges and the dead
    nodes of the CFG agree with dominance read off node removal."""
    program = parse_program(src)
    fn = program.functions["main"]
    cfg = build_cfg(fn)
    g = nx_graph(cfg)
    rev = g.reverse(copy=True)
    want = []
    for sec in S.walk_stmts(fn.body):
        if type(sec) is not S.SectionStmt:
            continue
        split, merge = cfg.node_of[id(sec)], cfg.merge_of[id(sec)]
        tag = f"section {sec.section_id}"
        if not brute_strictly_dominates(g, ENTRY, split, merge):
            want.append(f"{tag}: split does not strictly dominate merge")
        if not brute_strictly_dominates(rev, EXIT, merge, split):
            want.append(f"{tag}: merge does not strictly post-dominate split")
    got = [p for p in validate_function(fn, fact_table(fn, program))
           if "dominate" in p]
    assert got == want
    reach = {ENTRY} | nx.descendants(g, ENTRY)
    assert cfg.dead == set(g) - reach
    for a, b in g.edges:
        if b <= a and b != EXIT:
            assert cfg.back[a] <= b
            assert a not in reach or b == a \
                or brute_strictly_dominates(g, ENTRY, b, a)


def random_function(rng, name, ids):
    """Source of an int function of random statements: ifs, whiles and
    do-whiles, hand-placed sections, nested up to three deep, and returns
    anywhere, so that some code is dead. Some sections close with a
    return; section ids come from ids."""
    def block(depth):
        out = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random() if depth < 3 else 1.0
            if r < 0.3:
                k = next(ids)
                body = block(depth + 1)
                if rng.random() < 0.3:
                    body.append("return k;")
                out += [f"/*@ split({k}); */", *body, f"/*@ merge({k}); */"]
            elif r < 0.45:
                els = f" else {{ {' '.join(block(depth + 1))} }}" \
                    if rng.random() < 0.5 else ""
                out.append(f"if (x < 0.5) {{ {' '.join(block(depth + 1))} }}"
                           + els)
            elif r < 0.55:
                out.append(f"while (k < 3) {{ {' '.join(block(depth + 1))} }}")
            elif r < 0.62:
                out.append(f"do {{ {' '.join(block(depth + 1))} }}"
                           f" while (y < 2.0);")
            elif r < 0.75:
                out.append("return k;")
            else:
                out.append(rng.choice(["y = y + x;", "k = k + 1;"]))
        return out

    tail = " return 0;" if rng.random() < 0.7 else ""
    return (f"int {name}(double x) {{ double y = 0.0; int k = 0;"
            f" {' '.join(block(0))}{tail} }}")


def nx_graph(cfg):
    """cfg's nodes and edges as a networkx graph."""
    g = nx.DiGraph()
    g.add_nodes_from(range(len(cfg.succ)))
    g.add_edges_from((a, b) for a, succ in enumerate(cfg.succ) for b in succ)
    return g


def nx_criterion_1(fn):
    """The criterion-1 messages of fn's sections, from networkx's
    dominators and post-dominators over the CFG's graph."""
    cfg = build_cfg(fn)
    g = nx_graph(cfg)
    dom = nx.immediate_dominators(g, ENTRY)
    pdom = nx.immediate_dominators(g.reverse(copy=True), EXIT)
    out = []
    for sec in S.walk_stmts(fn.body):
        if type(sec) is not S.SectionStmt:
            continue
        split, merge = cfg.node_of[id(sec)], cfg.merge_of[id(sec)]
        tag = f"section {sec.section_id}"
        if merge not in dom or not nx_dominates(dom, ENTRY, split, merge):
            out.append(f"{tag}: split does not strictly dominate merge")
        if not nx_dominates(pdom, EXIT, merge, split):
            out.append(f"{tag}: merge does not strictly post-dominate split")
    return out


def check_flow_order(cfg):
    """Every edge into a lower id but EXIT is a recorded loop back edge
    whose target dominates its reachable source; dead is the nodes
    ENTRY does not reach."""
    g = nx_graph(cfg)
    reach = {ENTRY} | nx.descendants(g, ENTRY)
    dom = nx.immediate_dominators(g, ENTRY)
    back = {}
    for a, b in g.edges:
        if b <= a and b != EXIT:
            back[a] = min(back.get(a, b), b)
            assert a not in reach or nx_dominates(dom, ENTRY, b, a)
    assert cfg.back == back
    assert cfg.dead == set(g) - reach


def test_orders_and_dominators_match_networkx():
    """On seeded random functions, the validator's criterion-1 messages,
    read from each section's shape, are those that networkx's dominators
    over the CFG give, and each of the four outcomes of a section occurs;
    the CFG's flow order leaves only back edges, each entering a
    dominator of its source, and edges into EXIT pointing to a lower
    id, and its dead nodes are those ENTRY does not reach."""
    rng = random.Random(27)
    ids = itertools.count(1)
    outcomes = Counter()
    checked = 0
    for _ in range(60):
        program = parse_program("\n".join(
            random_function(rng, f"f{i}", ids) for i in range(10)))
        for fn in program.functions.values():
            got = [p for p in validate_function(fn, fact_table(fn, program))
                   if "dominate" in p]
            want = nx_criterion_1(fn)
            assert got == want, print_program(S.Program({fn.name: fn}))
            check_flow_order(build_cfg(fn))
            for sec in S.walk_stmts(fn.body):
                if type(sec) is S.SectionStmt:
                    tag = f"section {sec.section_id}: "
                    outcomes[(f"{tag}split does not strictly dominate merge"
                              in want,
                              f"{tag}merge does not strictly post-dominate"
                              f" split" in want)] += 1
            checked += 1
    assert checked >= 500
    assert len(outcomes) == 4, outcomes


def nx_dominates(idom, root, a, b):
    """a dominates b under networkx's immediate-dominator map."""
    while b != a and b != root:
        b = idom[b]
    return b == a


def test_cfg_nodes_are_numbered_in_flow_order():
    """On every kernel function: an edge into a lower id, but into EXIT, is
    a loop back edge, whose target dominates its source, and the builder
    records it; no edge is doubled; dead is the nodes ENTRY does not
    reach."""
    for _, fn in kernel_functions():
        cfg = build_cfg(fn)
        assert sum(map(len, cfg.succ)) == nx_graph(cfg).number_of_edges()
        check_flow_order(cfg)
        assert check_exit_reachable(cfg) == []


@pytest.mark.parametrize("name", all_corpus_names())
def test_exit_structurally_reachable_on_corpus(name):
    program = parse_program(corpus_source(name))
    for fn in program.functions.values():
        assert check_exit_reachable(build_cfg(fn)) == []


def test_normalize_returns_guards_trailing_code():
    src = """
    int main() {
      double x = read_double(0.0, 1.0);
      if (x > 0.5) { return 1; }
      x = x + 1.0;
      return 0;
    }
    """
    fn = next(iter(parse_program(src).functions.values()))
    fn = normalize_returns(fn)
    text = print_program(S.Program({fn.name: fn}))
    assert "__returned" in text
    # every return became an assignment except a single tail return
    assert text.count("return ") == 1


def test_single_tail_return_left_alone():
    src = "int main() { int x = 3; return x; }"
    fn = next(iter(parse_program(src).functions.values()))
    before = print_program(S.Program({fn.name: fn}))
    fn2 = normalize_returns(fn)
    after = print_program(S.Program({fn2.name: fn2}))
    assert before == after


def test_prepare_types_the_variables_normalization_adds():
    src = """
    int sign(double x) { if (x < 0.0) { return -1; } return 1; }
    int main() { double y = read_double(-1.0, 1.0); int s = sign(y);
                 return s; }
    """
    program, _ = prepare(src, AnalysisConfig())
    # only sign is rewritten; its variables are the parser's and the two
    # the rewrite adds
    assert program.functions["sign"].var_types == {
        "x": ("double", False), RETVAL: ("int", False),
        RETFLAG: ("int", False)}
    assert program.functions["main"].var_types == {
        "y": ("double", False), "s": ("int", False)}
