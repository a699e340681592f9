"""Parser, printer, and control-flow graph construction."""
import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fldx.config import AnalysisConfig
from fldx.errors import SyntaxErrorAt, TypeErrorAt
from fldx.frontend import parse_expr, parse_pred, parse_program, print_program
from fldx.frontend import syntax as S
from fldx.frontend.cfg import (ENTRY, EXIT, RETFLAG, RETVAL, build_cfg,
                               check_exit_reachable, immediate_dominators,
                               normalize_returns)
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
# CFG: dominators against a brute-force reachability oracle
# ---------------------------------------------------------------------------


def brute_dominates(g, root, a, b):
    """a dominates b iff removing a disconnects b from root (or a == b)."""
    if a == b:
        return True
    if a == root:
        return True
    h = g.copy()
    h.remove_node(a)
    return not (b in h and nx.has_path(h, root, b))


PROGRAMS = [
    """
    int main() {
      double x = read_double(0.0, 1.0);
      double y = 0.0;
      if (x > 0.5) { y = x; } else { y = 0.0 - x; }
      int i = 0;
      while (i < 3) { y = y + x; i = i + 1; }
      return 0;
    }
    """,
    """
    int main() {
      double x = read_double(0.0, 1.0);
      do { x = x * 0.5; } while (x > 0.125);
      if (x > 0.0) { return 1; }
      return 0;
    }
    """,
]


@pytest.mark.parametrize("src", PROGRAMS)
def test_dominators_match_brute_force(src):
    fn = next(iter(parse_program(src).functions.values()))
    normalize_returns(fn)
    cfg = build_cfg(fn)
    g = nx.DiGraph()
    g.add_nodes_from(range(len(cfg.succ)))
    g.add_edges_from((a, b) for a, succ in enumerate(cfg.succ) for b in succ)
    nodes = list(g.nodes)
    for a in nodes:
        for b in nodes:
            want = brute_dominates(g, ENTRY, a, b)
            assert cfg.dominates(a, b) == want, (a, b)
            want_pd = brute_dominates(g.reverse(copy=True), EXIT, a, b)
            assert cfg.post_dominates(a, b) == want_pd, (a, b)


@st.composite
def rooted_digraphs(draw):
    """(node count, edge list, root): edges may repeat a pair or loop on
    a node, and some nodes may be unreachable from the root."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, edges, draw(node)


@settings(max_examples=300, deadline=None)
@given(rooted_digraphs())
# irreducible: y is entered from x and, round the back edge, from z, so
# the first sweep's dominator of y, x, is not final
@example((4, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 2)], 0))
def test_orders_and_dominators_match_networkx(graph):
    n, edges, root = graph
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    # ranked by networkx's own reverse postorder; the unreachable nodes,
    # which have no rank, are ignored
    rpo = list(nx.dfs_postorder_nodes(g, root))[::-1]
    idom = immediate_dominators(pred, rpo, {v: i for i, v in enumerate(rpo)})
    assert idom[root] == root
    # networkx 3.6 leaves the root out of its map, earlier versions map it
    # to itself
    want = nx.immediate_dominators(g, root)
    assert {k: v for k, v in idom.items() if k != root} \
        == {k: v for k, v in want.items() if k != root}


def nx_dominates(idom, root, a, b):
    """a dominates b under networkx's immediate-dominator map."""
    while b != a and b != root:
        b = idom[b]
    return b == a


def test_cfg_nodes_are_numbered_in_flow_order():
    """On every kernel function: an edge into a lower id, but into EXIT, is
    a loop back edge, whose target dominates its source, and the builder
    records it; no edge is doubled; order is the reachable nodes by id,
    EXIT last; back_order has every node after one of its successors; the
    dominators of both directions are networkx's."""
    for _, fn in kernel_functions():
        cfg = build_cfg(fn)
        g = nx.DiGraph()
        g.add_nodes_from(range(len(cfg.succ)))
        g.add_edges_from((a, b) for a, succ in enumerate(cfg.succ)
                         for b in succ)
        assert sum(map(len, cfg.succ)) == g.number_of_edges()
        reach = {ENTRY} | nx.descendants(g, ENTRY)
        dom = nx.immediate_dominators(g, ENTRY)
        back = {}
        for a, b in g.edges:
            if b <= a and b != EXIT:
                back[a] = min(back.get(a, b), b)
                assert a not in reach or nx_dominates(dom, ENTRY, b, a)
        assert cfg.back == back
        assert cfg.order == sorted(reach - {EXIT}) + [EXIT]
        assert check_exit_reachable(cfg) == []
        assert cfg.back_order[0] == EXIT
        assert sorted(cfg.back_order) == list(range(len(cfg.succ)))
        place = {n: i for i, n in enumerate(cfg.back_order)}
        assert all(min(place[m] for m in cfg.succ[n]) < place[n]
                   for n in cfg.back_order[1:])
        pdom = nx.immediate_dominators(g.reverse(copy=True), EXIT)
        for mine, want, root in ((cfg.idom, dom, ENTRY),
                                 (cfg.ipdom, pdom, EXIT)):
            assert {k: v for k, v in mine.items() if k != root} \
                == {k: v for k, v in want.items() if k != root}


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
