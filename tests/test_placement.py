"""Automatic split/merge placement around unstable floating-point tests,
and the independent validator that re-checks every placed section."""
import gc
import json
import re
from collections import Counter, deque
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fldx import pipeline
from fldx.cli import main
from fldx.compiler import deps as D
from fldx.compiler import placement as P
from fldx.compiler.placement import instrument, outline
from fldx.compiler.validator import validate
from fldx.config import AnalysisConfig
from fldx.executor.oracle import ShadowRun
from fldx.frontend import parse_program, print_program
from fldx.frontend import cfg as C
from fldx.frontend import syntax as S
from fldx.pipeline import instrumented_source, prepare
from perfbench import workloads as W
from tests.conftest import (all_corpus_names, corpus_source,
                            kernel_functions, stmt_exprs)


def instrumented(name):
    return instrumented_source(corpus_source(name), AnalysisConfig())


def sections_of(program):
    return [s for fn in program.functions.values()
            for s in S.walk_stmts(fn.body) if isinstance(s, S.SectionStmt)]


# ---------------------------------------------------------------------------
# Reference scenarios
# ---------------------------------------------------------------------------


def test_interpolation_cast_gets_one_section_merging_the_output():
    text = instrumented("motiv_example.c")
    # the split lands right before the float-to-int cast ...
    assert re.search(r"split\(1\); \*/\s*\n\s*int index = \(int\) in;", text)
    # ... and the merge joins the interpolated output just before the
    # robustness assertion
    assert re.search(r"merge\(1, out\); \*/\s*\n\s*/\*@ assert", text)
    assert text.count("split(") == 1 and text.count("merge(") == 1


def test_loop_condition_section_swallows_the_dependent_read():
    text = instrumented("inter_loop.c")
    # the knot index i is written by the unstable loop test, so the
    # section must keep every read of i inside and save its entry value
    assert "split(1, i);" in text
    assert re.search(r"merge\(1, res\); \*/\s*\n\s*/\*@ assert", text)
    sec = text[text.index("split(1"):text.index("merge(1")]
    assert "v[i]" in sec  # the interpolation that reads i stays inside


def test_nested_unstable_tests_fuse_into_one_section():
    text = instrumented("comp_disc_nested.c")
    assert text.count("split(") == 1 and text.count("merge(") == 1
    assert "merge(1, z);" in text
    sec = text[text.index("split(1"):text.index("merge(1")]
    assert sec.count("if (") == 2  # both unstable tests are inside


def test_simple_discontinuity_section():
    text = instrumented("comp_disc.c")
    assert "split(1);" in text and "merge(1, z);" in text


def test_stable_only_program_gets_no_sections():
    text = instrumented("absorption.c")
    assert "split(" not in text and "merge(" not in text


#: a function, if any, and statements of main after `double x` and
#: `int k`, with the number of sections they get: a float converted to
#: int, by a cast or implicitly, gets one; an int converted to float, or
#: no conversion, none
CONVERSIONS = {
    "cast": ("", "k = (int) x;", 1),
    "declaration": ("", "int m = x;", 1),
    "assignment": ("", "k = x;", 1),
    "array_initializer": ("", "int a[2] = {k, x};", 1),
    "argument": ("int id(int n) { return n; }", "int m = id(x);", 1),
    "result": ("int trunc(double v) { return v; }", "int m = trunc(x);", 1),
    "int_to_float": ("", "double y = k;", 0),
    "int_argument": ("int id(int n) { return n; }", "int m = id(k);", 0),
    "array_argument": ("int first(int a[2]) { return a[0]; }",
                       "int a[2] = {k, k}; int m = first(a);", 0),
}


@pytest.mark.parametrize("name", sorted(CONVERSIONS))
def test_a_float_to_int_conversion_is_a_candidate(name):
    fn, stmts, expected = CONVERSIONS[name]
    source = (f"{fn}\nint main() {{\n"
              f"  double x = read_double(0.0, 3.0);\n"
              f"  int k = 1;\n  {stmts}\n  return 0;\n}}\n")
    program, _ = prepare(source, AnalysisConfig())
    assert len(sections_of(program)) == expected


#: statements of main after `double x`, `double y` (both in [0, 1]) and
#: `double z = 0.0`, each testing a float for truth, that is x != 0
TRUTH_TESTS = {
    "if": "if (x) { z = 1.0; }",
    "while": "while (x) { z = z + 1.0; x = 0.0; }",
    "not": "z = !x;",
    "ternary": "z = x ? 1.0 : 2.0;",
    "and": "if (x && y) { z = 1.0; }",
    "or": "if (x || y) { z = 1.0; }",
}

#: inputs of the shadow runs: 0, a real whose float is 0, the ends and
#: points between
TRUTH_INPUTS = [Fraction(0), Fraction(1, 2 ** 1100), Fraction(1, 3),
                Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize("name", sorted(TRUTH_TESTS))
def test_cli_a_float_tested_for_truth_is_a_candidate(tmp_path, name):
    """The executor tests a float for truth as x != 0, an unstable test:
    placement puts a section around it, so no gap is reported, and every
    shadow run lies inside the reported hulls."""
    source = ("int main() {\n"
              "  double x = read_double(0.0, 1.0);\n"
              "  double y = read_double(0.0, 1.0);\n"
              f"  double z = 0.0;\n  {TRUTH_TESTS[name]}\n"
              "  /*@ assert dprint(z); */\n  return 0;\n}\n")
    src = tmp_path / "truth.c"
    src.write_text(source)
    res = CliRunner().invoke(main, ["analyze", "--report", "json", str(src)])
    assert res.exit_code == 0, res.output[-500:]
    rep = json.loads(res.output)
    assert not any(a["kind"] == "instrumentation-gap" for a in rep["alarms"])
    assert len(rep["placements"]) == 1
    [hull] = rep["prints"]
    err, real = ([Fraction(int(v["num"]), int(v["den"]))
                  if isinstance(v, dict) else Fraction(v) for v in hull[k]]
                 for k in ("err", "real"))
    program, _ = prepare(source, AnalysisConfig())
    for x in TRUTH_INPUTS:
        for y in TRUTH_INPUTS:
            shadow = ShadowRun(program, AnalysisConfig().fmt,
                               inputs={"x": x, "y": y})
            shadow.run("main")
            [rec] = shadow.records
            assert err[0] <= rec.err <= err[1], (x, y)
            assert real[0] <= rec.real_val <= real[1], (x, y)


def test_cli_an_array_a_callee_writes_is_saved_and_merged(tmp_path):
    """g writes a cell of the array it is passed, so each arm's call
    writes a, whose cell is read after the section."""
    src = tmp_path / "callee.c"
    src.write_text("void g(double t[2], double v) { t[0] = v; }\n"
                   "int main() {\n"
                   "  double x = read_double(0.0, 1.0);\n"
                   "  double a[2] = {0.0, 0.0};\n"
                   "  if (x < 0.5) { g(a, 1.0); } else { g(a, 2.0); }\n"
                   "  double y = a[0];\n"
                   "  /*@ assert dprint(y); */\n"
                   "  return 0;\n}\n")
    res = CliRunner().invoke(main, ["instrument", str(src)])
    assert res.exit_code == 0, res.output
    assert "/*@ split(1, a); */" in res.output
    assert "/*@ merge(1, a); */" in res.output


# ---------------------------------------------------------------------------
# Invariants over the whole corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", all_corpus_names())
def test_corpus_placements_pass_the_validator(name):
    program, _ = prepare(corpus_source(name), AnalysisConfig())
    assert validate(program) == []


@pytest.mark.parametrize("name", all_corpus_names())
def test_instrumentation_is_idempotent(name):
    cfg = AnalysisConfig()
    once = instrumented_source(corpus_source(name), cfg)
    twice = instrumented_source(once, cfg)
    assert once == twice


def test_existing_sections_are_preserved():
    src = corpus_source("comp_disc.c")
    text = instrumented_source(src, AnalysisConfig())
    program = parse_program(text)
    ids_before = [s.section_id for s in sections_of(program)]
    program2, warnings = instrument(program)
    assert [s.section_id for s in sections_of(program2)] == ids_before


# ---------------------------------------------------------------------------
# Validator rejections
# ---------------------------------------------------------------------------


def test_validator_flags_escaping_int_write():
    src = """
    int main() {
      double x = read_double(0.0, 1.0);
      int k = 0;
      /*@ split(1); */
      if (x < 0.5) { k = 1; }
      /*@ merge(1); */
      int m = k + 1;
      return m;
    }
    """
    problems = validate(parse_program(src))
    assert any("int variable 'k'" in p for p in problems)


def test_validator_flags_missing_merge_variable():
    src = """
    int main() {
      double x = read_double(0.0, 1.0);
      double z = 0.0;
      /*@ split(1); */
      if (x < 0.5) { z = x + 0.5; } else { z = x; }
      /*@ merge(1); */
      /*@ assert accuracy_assert_derr(z, -1.0, 1.0); */
      return 0;
    }
    """
    problems = validate(parse_program(src))
    assert any("merge_list misses" in p and "'z'" in p for p in problems)


def test_validator_flags_a_return_that_skips_the_merge(monkeypatch):
    src = """
    int main() {
      double x = read_double(0.0, 1.0);
      double y = 0.0;
      /*@ split(1); */
      if (x < 0.5) { return 1; }
      y = x + 1.0;
      /*@ merge(1, y); */
      /*@ split(2, y); */
      if (x < 0.25) { y = y + 1.0; }
      /*@ merge(2); */
      return 0;
    }
    """
    program = parse_program(src)
    built = []
    build_cfg = C.build_cfg

    def counting_build(fn):
        built.append(fn)
        return build_cfg(fn)

    monkeypatch.setattr(C, "build_cfg", counting_build)
    assert validate(program) == [
        "main: section 1: merge does not strictly post-dominate split"]
    # one CFG for the one function, however many sections are checked
    assert len(built) == 1


@pytest.mark.parametrize("args", [["instrument", "--format", "binary32"],
                                  ["analyze", "--subdiv", "2"]])
def test_cli_rejects_options_nothing_reads(tmp_path, args):
    # exit 2 is also the parse stage's code: the message tells them apart
    src = tmp_path / "x.c"
    src.write_text("int main() { return 0; }")
    res = CliRunner().invoke(main, args[:1] + [str(src)] + args[1:])
    assert res.exit_code == 2
    assert "No such option" in res.output and args[1] in res.output


def test_validator_flags_missing_save_variable():
    src = """
    int main() {
      double x = read_double(0.0, 1.0);
      double z = 0.0;
      /*@ split(1); */
      if (x < 0.5) { z = x; }
      z = z + 1.0;
      /*@ merge(1, z); */
      /*@ assert dprint(z); */
      return 0;
    }
    """
    assert validate(parse_program(src)) == [
        "main: section 1: save_list misses ['z']"]


def test_validator_accepts_complete_manual_section():
    src = """
    int main() {
      double x = read_double(0.0, 1.0);
      double z = 0.0;
      /*@ split(1); */
      if (x < 0.5) { z = x + 0.5; } else { z = x; }
      /*@ merge(1, z); */
      /*@ assert accuracy_assert_derr(z, -1.0, 1.0); */
      return 0;
    }
    """
    assert validate(parse_program(src)) == []


def test_section_round_trips_through_the_printer():
    src = instrumented("comp_disc_nested.c")
    assert print_program(parse_program(src)) == src


# ---------------------------------------------------------------------------
# The fact table against per-statement reference definitions
# ---------------------------------------------------------------------------


def ref_writes(s):
    """Variables s itself may write: an assignment's target, an
    initialized declaration, the variables an assertion enlarges."""
    if isinstance(s, S.Assign):
        return {s.target.name}
    if isinstance(s, S.Decl):
        if s.init is not None or s.array_init is not None:
            return {s.name}
        return set()
    if isinstance(s, S.AssertStmt):
        return ref_enlarged(s.pred)
    return set()


def ref_passed(s, program):
    """The arrays s passes to a function of the program, which may write
    their cells: writes of s, though not certain ones."""
    return {a.name for e in stmt_exprs(s) for c in S.walk_exprs(e)
            if isinstance(c, S.Call) and c.name in program.functions
            for p, a in zip(program.functions[c.name].params, c.args)
            if p.is_array and isinstance(a, S.Var)}


def ref_enlarged(p):
    if isinstance(p, S.PRel):
        return ref_enlarged(p.left) | ref_enlarged(p.right)
    if isinstance(p, S.PNot):
        return ref_enlarged(p.pred)
    if isinstance(p, S.PLet):
        return ref_enlarged(p.body)
    if isinstance(p, S.PBuiltin) and p.name.startswith("accuracy_enlarge") \
            and p.args and isinstance(p.args[0], (S.TName, S.TIndex)):
        return {p.args[0].name}
    return set()


def ref_certain(s):
    """What s certainly and fully overwrites: not an array cell."""
    if isinstance(s, S.Assign) and isinstance(s.target, S.Index):
        return set()
    return ref_writes(s)


def ref_reads(s):
    out = {n.name for e in stmt_exprs(s) for n in S.walk_exprs(e)
           if isinstance(n, (S.Var, S.Index))}
    if isinstance(s, S.AssertStmt):
        out |= {t.name for t in S.pred_names(s.pred)}
    return out


def ref_candidate(s, fn, program):
    """Brute force: list every value that s tests for truth, compares or
    converts to int, by descent from its statement-level context, and ask
    whether one of them is a float."""
    tested = []

    def visit(e, truth):
        if truth:
            tested.append(e)
        if isinstance(e, S.Binary):
            logical = e.op in ("&&", "||")
            if e.op in S.COMPARISONS:
                tested.extend([e.left, e.right])
            visit(e.left, logical)
            visit(e.right, logical)
        elif isinstance(e, S.Unary):
            visit(e.expr, e.op == "!")
        elif isinstance(e, S.Ternary):
            visit(e.cond, True)
            visit(e.then, False)
            visit(e.els, False)
        elif isinstance(e, S.Cast):
            if e.ctype == "int":
                tested.append(e.expr)
            visit(e.expr, False)
        elif isinstance(e, S.Call):
            callee = program.functions.get(e.name)
            for i, a in enumerate(e.args):
                if callee is not None and callee.params[i].ctype == "int" \
                        and not callee.params[i].is_array:
                    tested.append(a)
                visit(a, False)
        elif isinstance(e, S.Index):
            visit(e.index, False)

    if isinstance(s, (S.If, S.While, S.DoWhile, S.AssumeStmt)):
        visit(s.cond, True)
    else:
        into_int = (isinstance(s, S.Decl) and s.ctype == "int"
                    or isinstance(s, S.Assign)
                    and fn.var_types[s.target.name][0] == "int"
                    or isinstance(s, S.Return) and fn.ret_type == "int")
        for e in stmt_exprs(s):
            is_value = not (isinstance(s, S.Assign) and e is not s.expr)
            if into_int and is_value:
                tested.append(e)
            visit(e, False)
    return any(ref_ctype(e, fn.var_types, program) in ("float", "double")
               for e in tested)


def ref_ctype(e, var_types, program):
    """Static C type of an expression, with a loop down the left spine of
    an arithmetic chain: the typing the fact table had before it typed
    each expression in the walk that reads it."""
    if isinstance(e, S.IntLit):
        return "int"
    if isinstance(e, S.FloatLit):
        return "double"
    if isinstance(e, (S.Var, S.Index)):
        return var_types[e.name][0]
    if isinstance(e, S.Unary):
        return "int" if e.op == "!" else ref_ctype(e.expr, var_types, program)
    if isinstance(e, S.Binary) and (e.op in S.COMPARISONS
                                    or e.op in ("&&", "||")):
        return "int"
    if isinstance(e, S.Cast):
        return e.ctype
    if isinstance(e, S.Call):
        if e.name == "read_double":
            return "double"
        if e.name in program.functions:
            return program.functions[e.name].ret_type
        return "double"
    if isinstance(e, S.Ternary):
        sides = [e.then, e.els]
    else:
        sides = []
        while isinstance(e, S.Binary) and e.op in ("+", "-", "*", "/", "%"):
            sides.append(e.right)
            e = e.left
        sides.append(e)
    types = {ref_ctype(x, var_types, program) for x in sides}
    return "double" if "double" in types \
        else "float" if "float" in types else "int"


def ref_any_float(exprs, fn, program):
    return any(ref_ctype(x, fn.var_types, program) in ("float", "double")
               for x in exprs)


def ref_read(e, reads, fn, program):
    """The previous fact table's walk of one expression: adds the
    variables e reads to reads, and tells whether e holds an unstable
    test."""
    unstable = False
    for sub in S.walk_exprs(e):
        kind = type(sub)
        if kind is S.Var or kind is S.Index:
            reads.add(sub.name)
        elif unstable:
            continue
        elif kind is S.Binary:
            if sub.op in S.COMPARISONS or sub.op in ("&&", "||"):
                unstable = ref_any_float((sub.left, sub.right), fn, program)
        elif kind is S.Unary:
            unstable = sub.op == "!" and ref_any_float((sub.expr,), fn,
                                                       program)
        elif kind is S.Ternary:
            unstable = ref_any_float((sub.cond,), fn, program)
        elif kind is S.Cast:
            unstable = sub.ctype == "int" \
                and ref_any_float((sub.expr,), fn, program)
        elif kind is S.Call and sub.name in program.functions:
            unstable = ref_any_float(
                [a for p, a in zip(program.functions[sub.name].params,
                                   sub.args)
                 if p.ctype == "int" and not p.is_array], fn, program)
    return unstable


def ref_stmt_facts(s, fn, program):
    """The facts of one statement as the fact table computed them before
    it typed each expression in one walk: kept as the reference."""
    kind = type(s)
    if kind is S.Block or kind is S.SectionStmt:
        return D.NOTHING
    exprs = stmt_exprs(s)
    writes = certain = frozenset()
    operands = ()
    if kind is S.Decl:
        if s.init is not None or s.array_init is not None:
            writes = certain = frozenset((s.name,))
        operands = exprs if s.ctype == "int" else ()
    elif kind is S.Assign:
        writes = frozenset((s.target.name,))
        certain = frozenset() if type(s.target) is S.Index else writes
        operands = exprs[:1] if fn.var_types[s.target.name][0] == "int" \
            else ()
    elif kind is S.Return:
        operands = exprs if fn.ret_type == "int" else ()
    elif kind is not S.ExprStmt:
        operands = exprs
    reads = set()
    tests = [ref_read(e, reads, fn, program) for e in exprs]
    if kind is S.AssertStmt:
        reads.update(t.name for t in S.pred_names(s.pred))
        writes = certain = frozenset(ref_enlarged(s.pred))
    writes |= ref_passed(s, program)
    return D.Facts(writes, certain, frozenset(reads),
                   any(tests) or ref_any_float(operands, fn, program))


def test_fact_table_matches_the_previous_stmt_facts():
    """On every kernel function, before and after placement."""
    checked = 0
    for program, fn in kernel_functions():
        table = D.fact_table(fn, program)
        stmts = list(S.walk_stmts(fn.body))
        assert set(table) == {id(s) for s in stmts}
        for s in stmts:
            assert table[id(s)] == ref_stmt_facts(s, fn, program), s.loc
        checked += len(stmts)
    assert checked > 1500  # 1842 statements when this test was written


def fact_programs():
    """The corpus and wide_instrument seeds 1 and 5, normalized."""
    sources = [corpus_source(n) for n in all_corpus_names()]
    sources += [p.source for seed in (1, 5) for p in W.wide_instrument(seed)]
    config = AnalysisConfig(auto_instrument=False)
    return [prepare(src, config)[0] for src in sources]


def test_fact_table_matches_the_reference_on_every_statement():
    checked = candidates = 0
    for program in fact_programs():
        for fn in program.functions.values():
            table = D.fact_table(fn, program)
            stmts = list(S.walk_stmts(fn.body))
            assert set(table) == {id(s) for s in stmts}
            for s in stmts:
                f = table[id(s)]
                assert (set(f.writes), set(f.certain), set(f.reads)) == (
                    ref_writes(s) | ref_passed(s, program), ref_certain(s),
                    ref_reads(s)), s.loc
                checked += 1
            want = [s for s in stmts
                    if not isinstance(s, (S.Block, S.SectionStmt))
                    and ref_candidate(s, fn, program)]
            assert outline(fn, table)[0] == want
            candidates += len(want)
    # a guard that the programs were read: 37685 statements, 945
    # candidates when this test was written
    assert checked > 30_000 and candidates > 500


def test_truth_tests_are_candidates_by_the_reference_too():
    program = parse_program(
        "int main() { double x = read_double(0.0, 1.0);"
        " double y = read_double(0.0, 1.0); double z = 0.0;"
        + "".join(TRUTH_TESTS.values()) + " assume (x); return 0; }")
    fn = program.functions["main"]
    table = D.fact_table(fn, program)
    # all six forms and the assume; the declarations are not
    want = [s for s in S.walk_stmts(fn.body)
            if not isinstance(s, (S.Block, S.SectionStmt))
            and ref_candidate(s, fn, program)]
    assert len(want) == len(TRUTH_TESTS) + 1
    assert outline(fn, table)[0] == want


def counting_stages(monkeypatch):
    """Counters, by function name, of the fact tables built, the CFGs
    built and the reaching-definitions solves run from now on."""
    tables, built, solved = Counter(), Counter(), Counter()
    fact_table, build_cfg = D.fact_table, C.build_cfg
    compute_dep_sets = D.compute_dep_sets

    def counting_table(fn, program):
        tables[fn.name] += 1
        return fact_table(fn, program)

    def counting_build(fn):
        built[fn.name] += 1
        return build_cfg(fn)

    def counting_solve(fn, graph, table):
        solved[fn.name] += 1
        return compute_dep_sets(fn, graph, table)

    monkeypatch.setattr(D, "fact_table", counting_table)
    monkeypatch.setattr(D, "compute_dep_sets", counting_solve)
    for module in (C, P, pipeline):
        monkeypatch.setattr(module, "build_cfg", counting_build)
    return tables, built, solved


def test_each_table_is_built_once_and_a_cfg_again_only_where_checked(
        monkeypatch):
    """During prepare, each function's facts are computed once, in one
    walk, and shared by placement and the validator. The normalize stage
    builds each function's CFG for placement; the validator builds its own
    only for a function with sections. Each of the two solves reaching
    definitions only where sections are placed or checked."""
    tables, built, solved = counting_stages(monkeypatch)
    wide = W.wide_instrument(1)[0].source
    for source in (corpus_source("inter_loop.c"), wide):
        for counter in (tables, built, solved):
            counter.clear()
        program, _ = prepare(source, AnalysisConfig())
        checked = {fn.name for fn in program.functions.values()
                   if any(type(s) is S.SectionStmt
                          for s in S.walk_stmts(fn.body))}
        assert checked
        assert tables == {name: 1 for name in program.functions}
        assert built == {name: 1 + (name in checked)
                         for name in program.functions}
        assert solved == {name: 2 for name in checked}


def test_placement_reuses_the_escape_map_a_span_grew_with(monkeypatch):
    """In wide_10kb (seed 1) each span grows in one turn and fusion widens
    none, so `deps.escaping` runs once per section in placement and once
    in the validator."""
    calls = []
    escaping = D.escaping

    def counting_escaping(*args):
        calls.append(args)
        return escaping(*args)

    monkeypatch.setattr(D, "escaping", counting_escaping)
    program, _ = prepare(W.wide_instrument(1)[0].source, AnalysisConfig())
    assert len(calls) == 2 * len(sections_of(program)) > 0


def test_no_dataflow_for_a_function_without_candidates(monkeypatch):
    tables, built, solved = counting_stages(monkeypatch)
    program, _ = prepare("""
    double helper(double a) { double b = a * 2.0; return b + 1.0; }
    int main() {
      double x = read_double(0.0, 1.0);
      double y = helper(x);
      if (y < 2.0) { y = y + 1.0; }
      /*@ assert dprint(y); */
      return 0;
    }
    """, AnalysisConfig())
    assert len(sections_of(program)) == 1
    # the helper's CFG comes from the normalize stage alone, and neither
    # placement nor the validator solves its dependencies
    assert built == {"helper": 1, "main": 2}
    assert solved == {"main": 2}
    assert tables == {"helper": 1, "main": 1}


def test_instrumenting_leaves_no_cyclic_garbage():
    """Each instrumented tree is freed by reference counts once dropped,
    without waiting for a cyclic collection."""
    source = W.wide_instrument(3)[0].source
    instrumented_source(source, AnalysisConfig())
    gc.collect()
    gc.disable()
    try:
        instrumented_source(source, AnalysisConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Def-use triples against a reachability oracle
# ---------------------------------------------------------------------------


def statements_of(fn, graph):
    """Each node of fn's CFG -> its statement; None for ENTRY, EXIT and
    merge nodes."""
    out = dict.fromkeys(range(len(graph.succ)))
    out.update((graph.node_of[id(s)], s) for s in S.walk_stmts(fn.body)
               if id(s) in graph.node_of)
    return out


def brute_def_use(fn):
    """(writer, reader, v) where a breadth-first search from the writer's
    successors reaches the reader without passing a node that must-define
    v, by the reference definitions. Parameters are not writers."""
    graph = C.build_cfg(fn)
    succ, stmt_of = graph.succ, statements_of(fn, graph)
    out = set()
    for w in range(len(succ)):
        if stmt_of.get(w) is None:
            continue
        for v in ref_writes(stmt_of[w]):
            seen = set()
            todo = deque(succ[w])
            while todo:
                n = todo.popleft()
                if n in seen:
                    continue
                seen.add(n)
                st = stmt_of.get(n)
                if st is not None and v in ref_reads(st):
                    out.add((id(stmt_of[w]), id(st), v))
                if st is not None and v in ref_certain(st):
                    continue
                todo.extend(succ[n])
    return out


DEF_USE_PROGRAMS = [
    """
    double f(double a, int n) {
      double t[4] = {0.0, 1.0, 2.0, 3.0};
      int i = 0;
      double s = a;
      while (i < n) {
        t[i] = s * 0.5;
        if (s > 1.0) {
          if (i > 2) { s = s - t[i]; } else { a = a + 1.0; }
        }
        i = i + 1;
      }
      do { s = s + t[0]; a = a * 0.5; } while (a > 0.1);
      t[1] = a;
      return s + t[1] + t[2];
    }
    """,
    """
    int main() {
      double x = read_double(0.0, 1.0);
      double y = 0.0;
      int k = 0;
      if (x < 0.5) {
        if (x < 0.25) { y = x; k = 1; } else { y = 0.0 - x; }
      } else {
        do { y = y + x; k = k + 1; } while (k < 3 && y < 2.0);
      }
      while (k > 0) { x = x * y; k = k - 1; }
      /*@ assert dprint(x); */
      return k;
    }
    """,
]


def textbook_readers(fn, graph, table):
    """Reaching definitions as sets of (node, variable) pairs, solved by a
    worklist to the least fixed point, then each definition's readers."""
    n = len(graph.succ)
    stmt_of = statements_of(fn, graph)
    facts = [D.NOTHING if stmt_of[v] is None else table[id(stmt_of[v])]
             for v in range(n)]
    ins = [set() for _ in range(n)]
    outs = [set() for _ in range(n)]
    work = deque(range(n))
    while work:
        v = work.popleft()
        ins[v] = set().union(*(outs[p] for p in graph.pred[v]))
        new = {(v, x) for x in facts[v].writes} \
            | {d for d in ins[v] if d[1] not in facts[v].certain}
        if new != outs[v]:
            outs[v] = new
            work.extend(graph.succ[v])
    readers = {}
    for v in range(n):
        for w, x in ins[v]:
            if x in facts[v].reads:
                readers.setdefault((id(stmt_of[w]), x), set()).add(
                    id(stmt_of[v]))
    return readers


def test_readers_match_a_textbook_solver_on_every_kernel_function():
    pairs = 0
    for program, fn in kernel_functions():
        table = D.fact_table(fn, program)
        graph = C.build_cfg(fn)
        readers = D.compute_dep_sets(fn, graph, table)
        assert readers == textbook_readers(fn, graph, table), fn.name
        pairs += sum(map(len, readers.values()))
    assert pairs > 1000


def def_use_triples(readers):
    """(writer stmt id, reader stmt id, variable) over the whole body."""
    return {(w, r, v) for (w, v), rs in readers.items() for r in rs}


@pytest.mark.parametrize("src", DEF_USE_PROGRAMS)
def test_def_use_triples_match_brute_force(src):
    program = parse_program(src)
    for fn in program.functions.values():
        table = D.fact_table(fn, program)
        deps = D.compute_dep_sets(fn, C.build_cfg(fn), table)
        assert def_use_triples(deps) == brute_def_use(fn)


def test_array_cell_write_does_not_kill_earlier_writes():
    program = parse_program(DEF_USE_PROGRAMS[0])
    fn = program.functions["f"]
    data = def_use_triples(D.compute_dep_sets(
        fn, C.build_cfg(fn), D.fact_table(fn, program)))
    ret = fn.body.stmts[-1]
    # the declaration's cells reach the return past `t[1] = a`, and the
    # parameter a is read without a writer inside the function
    assert (id(fn.body.stmts[0]), id(ret), "t") in data
    assert not any(w == id(fn) for w, _, _ in data)


@pytest.mark.parametrize("src", DEF_USE_PROGRAMS)
def test_escaping_matches_brute_force_on_every_region(src):
    """For every contiguous run of every block: the variables written in
    the run whose values reach a statement outside it, with those
    statements."""
    program = parse_program(src)
    for fn in program.functions.values():
        table = D.fact_table(fn, program)
        readers = D.compute_dep_sets(fn, C.build_cfg(fn), table)
        triples = brute_def_use(fn)
        blocks = [b.stmts for b in S.walk_stmts(fn.body)
                  if isinstance(b, S.Block)]
        for block in blocks:
            for i in range(len(block)):
                for j in range(i + 1, len(block) + 1):
                    inside = {id(sub) for s in block[i:j]
                              for sub in S.walk_stmts(s)}
                    want = {}
                    for w, r, v in triples:
                        if w in inside and r not in inside:
                            want.setdefault(v, set()).add(r)
                    assert D.escaping(block[i:j], readers, table) == want


# ---------------------------------------------------------------------------
# Save lists
# ---------------------------------------------------------------------------


#: statements of a region after `double v`, `double t[2]` and `int k`,
#: and whether the region saves v (t for the array-cell write): a value
#: it may read before writing it
SAVES = {
    "while_body_write_then_read":
        ("while (k < 2) { v = 1.0; k = k + 1; } t[0] = v;", "v", True),
    "do_body_write_then_read":
        ("do { v = 1.0; k = k + 1; } while (k < 2); t[0] = v;", "v", False),
    "if_without_else":
        ("if (k > 0) { v = 1.0; } t[0] = v;", "v", True),
    "both_arms_write":
        ("if (k > 0) { v = 1.0; } else { v = 2.0; } t[0] = v;", "v", False),
    "array_cell_write":
        ("t[0] = 1.0; v = t[1];", "t", True),
}


@pytest.mark.parametrize("name", sorted(SAVES))
def test_a_region_saves_what_it_may_read_before_writing(name):
    stmts, var, saved = SAVES[name]
    program = parse_program(f"int main() {{ double v = 0.0; double t[2];"
                            f" int k = 0; {stmts} return 0; }}")
    fn = program.functions["main"]
    region = fn.body.stmts[3:-1]
    assert (var in D.save_list(region, D.fact_table(fn, program))) == saved
