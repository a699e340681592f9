"""Abstract execution: the six evaluation flows of an unstable test with
their exact constrained states, path enumeration within sections,
emptiness propagation across nested sections, what a merge costs in
fresh symbols and the order it joins in, and the compiled form: each
node compiled once, and no analysis left to the cyclic collector."""
import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import FunctionType

import pytest
from click.testing import CliRunner

from fldx.cli import main
from fldx.config import AnalysisConfig
from fldx.domain import AbstractFloat
from fldx.errors import AnalysisAlarm, InfeasiblePath
from fldx.executor import interp as I
from fldx.executor.explorer import PathExplorer
from fldx.executor.interp import Interp, SectionCtx
from fldx.frontend import parse_expr, parse_program
from fldx.frontend import syntax as S
from fldx.numerics import BINARY32, FORMATS, RInterval, interval_over
from fldx.pipeline import analyze, prepare
from fldx.zonotope import AffineForm, Origin
from perfbench import workloads as W
from tests.conftest import all_corpus_names, corpus_source, stmt_exprs


# ---------------------------------------------------------------------------
# The guard x >= 0 on x with real = eps0, err = 1e-7*eps1, float = [-1,1]
# admits exactly six flows; each constrained state is checked exactly.
# ---------------------------------------------------------------------------


def run_flow(idx):
    program = parse_program("int main() { return 0; }")
    it = Interp(program, AnalysisConfig())
    e0 = it.pool.fresh(Origin.INPUT)
    e1 = it.pool.fresh(Origin.INPUT)
    x = AbstractFloat(RInterval(F(-1), F(1)),
                      AffineForm(F(0), {e0: F(1)}), RInterval(F(-1), F(1)),
                      AffineForm(F(0), {e1: F(1, 10 ** 7)}),
                      RInterval(F(-1, 10 ** 7), F(1, 10 ** 7)))
    it.mem.store("x", x)
    ex = PathExplorer()
    ex.trace, ex.limits = [idx], [1]
    it.stack.append(SectionCtx(1, True, ex))
    taken = it.decide(parse_expr("x >= 0.0"))
    assert ex.limits == [6]  # exactly six flows at this decision
    return it, it.mem.vars["x"], taken


def one_term(form):
    assert len(form.terms) == 1
    return next(iter(form.terms.values()))


def test_stable_true_flow_exact():
    it, x, taken = run_flow(0)
    assert taken is True
    assert it.ctx.signature[-1][1] == "sT"
    # real becomes 0.5 + 0.5*eps_d, err is untouched, float = [0, 1]
    assert x.real.center == F(1, 2) and one_term(x.real) == F(1, 2)
    assert x.err.center == 0 and one_term(x.err) == F(1, 10 ** 7)
    assert x.float_iv == RInterval(F(0), F(1))


def test_stable_false_flow_exact():
    it, x, taken = run_flow(1)
    assert taken is False
    assert x.real.center == F(-1, 2) and one_term(x.real) == F(1, 2)
    assert x.float_iv == RInterval(F(-1), F(0))


@pytest.mark.parametrize("idx,interp,taken", [(2, "float", True),
                                              (3, "real", False)])
def test_unstable_true_flows_exact(idx, interp, taken):
    it, x, got = run_flow(idx)
    assert got is taken
    assert it.ctx.signature[-1][1] == "uT"
    assert it.ctx.interp == interp
    # real = -5e-8 + 5e-8*eps_d0, err = 5e-8 + 5e-8*eps_d1, float [0, 1e-7]
    assert x.real.center == F(-1, 2 * 10 ** 7)
    assert one_term(x.real) == F(1, 2 * 10 ** 7)
    assert x.err.center == F(1, 2 * 10 ** 7)
    assert one_term(x.err) == F(1, 2 * 10 ** 7)
    assert x.float_iv == RInterval(F(0), F(1, 10 ** 7))


@pytest.mark.parametrize("idx,interp,taken", [(4, "float", False),
                                              (5, "real", True)])
def test_unstable_false_flows_mirror(idx, interp, taken):
    it, x, got = run_flow(idx)
    assert got is taken
    assert it.ctx.signature[-1][1] == "uF"
    assert it.ctx.interp == interp
    assert x.real.center == F(1, 2 * 10 ** 7)
    assert x.err.center == F(-1, 2 * 10 ** 7)
    assert x.float_iv == RInterval(F(-1, 10 ** 7), F(0))


# ---------------------------------------------------------------------------
# Path enumeration: n independent stable binary decisions -> 2^n paths
# ---------------------------------------------------------------------------


def stable_program(n):
    reads = "\n".join(
        f"  double x{i} = read_double(0.0, 1.0, 0.0, 0.0);"
        for i in range(n))
    tests = "\n".join(
        f"  if (x{i} < 0.5) {{ acc = acc + 1.0; }}" for i in range(n))
    return (f"int main() {{\n{reads}\n  double acc = 0.0;\n"
            f"  /*@ split(1, acc); */\n{tests}\n  /*@ merge(1, acc); */\n"
            f"  return 0;\n}}\n")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_n_stable_decisions_explore_exactly_2_to_n_paths(n):
    rep = analyze(stable_program(n), AnalysisConfig())
    sec = [s for s in rep.sections if s["id"] == 1]
    assert len(sec) == 1
    assert sec[0]["feasible_paths"] == 2 ** n
    assert sec[0]["started_paths"] == 2 ** n
    assert sec[0]["merged_pairs"] == 0
    assert not rep.has_alarms


#: SHA-256 of `analyze(stable_program(6), AnalysisConfig()).to_json()`,
#: as computed when every replayed decision was computed again
STABLE_6_SHA256 = \
    "3703611f8d48c21048e97fc450ff8686e5416f2ccbfb59e8355ba7fa15ba31cb"


def test_replay_visits_every_decision_but_does_not_recompute_it(monkeypatch):
    """Each of the 2**6 paths replays its prefix and meets all 6 decisions,
    but only the first visit of each of the 2**7 - 2 nodes of the
    decision tree applies a flow; a replayed one restores the state that
    visit saved."""
    calls = {"choose": 0, "apply": 0}
    choose, apply = PathExplorer.choose, Interp._apply

    def counted_choose(self, n):
        calls["choose"] += 1
        return choose(self, n)

    def counted_apply(self, *args):
        calls["apply"] += 1
        return apply(self, *args)

    monkeypatch.setattr(PathExplorer, "choose", counted_choose)
    monkeypatch.setattr(Interp, "_apply", counted_apply)
    text = analyze(stable_program(6), AnalysisConfig()).to_json()
    assert calls["choose"] == 6 * 2 ** 6
    assert calls["apply"] <= 2 ** 7
    assert hashlib.sha256(text.encode()).hexdigest() == STABLE_6_SHA256


def test_path_budget_warns_and_stops():
    cfg = AnalysisConfig(path_budget=5)
    rep = analyze(stable_program(4), cfg)
    assert any("path budget" in w for w in rep.warnings)
    sec = [s for s in rep.sections if s["id"] == 1][0]
    assert sec["started_paths"] == 5


# ---------------------------------------------------------------------------
# Emptiness propagation from an inner all-infeasible section
# ---------------------------------------------------------------------------


EMPTY_INNER = """
int main() {
  double x = read_double(0.0, 1.0, 0.0, 0.0);
  /*@ split(1); */
  double y = x + 1.0;
  /*@ split(2); */
  assume (x < -1.0);
  double z = y;
  /*@ merge(2, z); */
  /*@ merge(1, y, z); */
  return 0;
}
"""


def test_all_infeasible_inner_section_propagates_emptiness():
    rep = analyze(EMPTY_INNER, AnalysisConfig(collect_trace=True))
    assert any("section 2: no feasible path, propagating emptiness" in t
               for t in rep.trace)
    assert any("section 1: path abandoned, inner section 2 empty" in t
               for t in rep.trace)
    assert any("section 1: no feasible path, propagating emptiness" in t
               for t in rep.trace)
    assert any(a["kind"] == "no-feasible-path" for a in rep.alarms)
    inner = [s for s in rep.sections if s["id"] == 2][0]
    outer = [s for s in rep.sections if s["id"] == 1][0]
    assert inner["infeasible"] and outer["infeasible"]


def test_feasible_sibling_paths_survive_an_infeasible_one():
    src = """
    int main() {
      double x = read_double(0.0, 1.0, 0.0, 0.0);
      double y = 0.0;
      /*@ split(1, y); */
      if (x < 0.5) { assume (x > 2.0); y = 1.0; } else { y = 2.0; }
      /*@ merge(1, y); */
      /*@ assert accuracy_assert_derr(y, -0.1, 0.1); */
      return 0;
    }
    """
    rep = analyze(src, AnalysisConfig(collect_trace=True))
    sec = [s for s in rep.sections if s["id"] == 1][0]
    assert sec["feasible_paths"] == 1      # the true branch is contradicted
    assert sec["started_paths"] == 2
    assert not any(a["kind"] == "no-feasible-path" for a in rep.alarms)


# ---------------------------------------------------------------------------
# Unstable flows are paired back into single states at the merge
# ---------------------------------------------------------------------------


def test_discontinuity_section_pairs_unstable_flows():
    rep = analyze(corpus_source("comp_disc.c"), AnalysisConfig())
    sec = [s for s in rep.sections if s["id"] == 1][0]
    assert sec["feasible_paths"] == 6   # 2 stable + 2 unstable x 2 interps
    assert sec["merged_pairs"] == 2
    assert any(a["kind"] == "assertion" for a in rep.alarms)


def test_unstable_cast_enumerates_and_merges():
    src = """
    int main() {
      double in = read_double(0.9999999, 1.0000001);
      double out = 0.0;
      /*@ split(1); */
      int index = (int) in;
      out = (double) index;
      /*@ merge(1, out); */
      /*@ assert dprint(out); */
      return 0;
    }
    """
    rep = analyze(src, AnalysisConfig())
    sec = [s for s in rep.sections if s["id"] == 1][0]
    assert sec["feasible_paths"] == 6
    assert sec["merged_pairs"] == 2
    out = [r for r in rep.prints if r.variable == "out"]
    assert out, "dprint record missing"


#: unstable flows whose machine and ideal branch meet different
#: decisions: at real x = 0.5 - 2**-56 the machine value is 0.5, so the
#: machine run sets s = 3 and the ideal run s = 1 or 2; in the loop, at
#: real x = 1 - 2**-56 the ideal run goes round once and the machine run
#: not at all, an error of -1
UNPAIRED_FLOWS = {
    "nested": "if (x < 0.5) { if (y < 0.5) { s = 1.0; } else { s = 2.0; } }"
              " else { s = 3.0; }",
    "loop": "double w = x; while (w < 1.0) { w = w + 0.75; s = s + 1.0; }",
}


@pytest.mark.xfail(strict=True, reason="_merge_unstable pairs a float and"
                   " a real run only when their whole signatures are equal,"
                   " so unstable flows whose two branches meet different"
                   " decisions are never paired and their error is lost")
@pytest.mark.parametrize("name", sorted(UNPAIRED_FLOWS))
def test_cli_unstable_flows_whose_branches_part_are_not_valid(tmp_path,
                                                              name):
    src = tmp_path / "p.c"
    src.write_text("int main() {\n  double x = read_double(0.0, 1.0);\n"
                   "  double y = read_double(0.0, 1.0, 0.0, 0.0);\n"
                   "  double s = 0.0;\n  " + UNPAIRED_FLOWS[name] + "\n"
                   "  /*@ accuracy_assert_derr(s, -0.5, 0.5); */\n"
                   "  return 0;\n}\n")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 1, res.output
    assert "[valid]" not in res.output


# ---------------------------------------------------------------------------
# A merge joins every path's value at once, in a fixed order
# ---------------------------------------------------------------------------


def _fanout_section(k: int):
    """A section of k paths, chosen by int tests on i in [0, k - 1],
    that store x or -x in y by turns: nothing but the merge of y makes a
    symbol. Returns the function f and the section."""
    arms = [f"if (i == {j}) {{ y = {'-' if j % 2 else ''}x; }} else "
            for j in range(k - 1)]
    last = f"{{ y = {'-' if (k - 1) % 2 else ''}x; }}"
    fn = parse_program(f"void f(double x, int i) {{ double y;"
                       f" {''.join(arms)}{last} }}").functions["f"]
    return fn, S.SectionStmt(1, [], [], fn.body.stmts[1:])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_merge_of_k_paths_makes_two_symbols_for_a_differing_float(k):
    fn, sec = _fanout_section(k)
    it = Interp(S.Program({"f": fn}), AnalysisConfig())
    it._fn = fn
    x = AbstractFloat.from_input(RInterval(F(0), F(1)), None, it.fmt,
                                 it.pool, it.env)
    it.mem.store("x", x)
    it.mem.store("i", interval_over(0, k - 1, 1))
    before = len(it.pool.symbols)
    it.exec_section(sec)
    assert it.section_reports[-1].feasible_paths == k
    y = it.mem.vars["y"]
    assert len(it.pool.symbols) - before == 2
    assert set(y.real.ns) | set(y.err.ns) == set(range(before, before + 2))
    assert y.float_iv == x.float_iv.join(-x.float_iv)
    assert it.mem.vars["x"] is x


#: a, b and c are merged onto fresh symbols; with at most two noise
#: symbols kept per value, the order of their ids decides which ones
#: `condense` folds and so z's real hull: a merge that followed the hash
#: order of the names printed [1, 5] or [2, 4] by the seed
ORDER_PROBE = """\
int main() {
  double x = read_double(0.0, 1.0);
  double a;
  double b;
  double c;
  if (x < 0.5) {
    a = 1.0;
    b = 1.0;
    c = 1.0;
  } else {
    a = 2.0;
    b = 2.0;
    c = 2.0;
  }
  double y = a + b + c;
  double z = y - a;
  /*@ dprint(z); */
  return 0;
}
"""

_REPORTS = """\
import json, sys
from fldx.config import AnalysisConfig
from fldx.pipeline import analyze
print(json.dumps([analyze(source, AnalysisConfig(max_syms=max_syms),
                          source_name=name).to_json()
                  for name, source, max_syms in json.load(sys.stdin)]))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    jobs = [("order_probe.c", ORDER_PROBE, 2)] + [
        (name, corpus_source(name), 64) for name in all_corpus_names()]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", _REPORTS],
                             input=json.dumps(jobs), env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        outs.append(json.loads(res.stdout))
    assert len(outs[0]) == len(jobs)
    for job, a, b in zip(jobs, *outs):
        assert a == b, job[0]


def test_unstable_test_outside_sections_raises_instrumentation_gap():
    src = """
    int main() {
      double x = read_double(0.9999999, 1.0000001);
      double z = 0.0;
      if (x < 1.0) { z = x + 0.5; } else { z = x; }
      /*@ assert dprint(z); */
      return 0;
    }
    """
    rep = analyze(src, AnalysisConfig(auto_instrument=False))
    assert any(a["kind"] == "instrumentation-gap" for a in rep.alarms)


def test_alarm_keeps_first_of_each_kind_and_text_in_order():
    it = Interp(parse_program("int main() { return 0; }"), AnalysisConfig())
    for kind, msg in [("b", "one"), ("a", "one"), ("b", "one"),
                      ("a", "two"), ("a", "one")]:
        it._alarm(AnalysisAlarm(kind, msg))
    assert [(a.kind, str(a)) for a in it.alarms] == [
        ("b", "one"), ("a", "one"), ("a", "two")]


# ---------------------------------------------------------------------------
# The flows _decide_float offers, per comparison operator: x = eps0 with
# float [-1, 1] against 0.0, its error c + 1e-7*eps1. An unstable flow
# needs an error of the sign that puts machine and ideal on opposite sides.
# ---------------------------------------------------------------------------

STABLE = [("sT", None, True), ("sF", None, False)]
UT = [("uT", "float", True), ("uT", "real", False)]
UF = [("uF", "float", False), ("uF", "real", True)]
E7 = F(1, 10 ** 7)


def negated(flows):
    return [(kind, interp, not taken) for kind, interp, taken in flows]


@pytest.mark.parametrize("op,err_center,expected", [
    ("<", 0, STABLE + UT + UF),
    ("<=", 0, STABLE + UT + UF),
    (">", 0, STABLE + UT + UF),
    (">=", 0, STABLE + UT + UF),
    ("==", 0, STABLE + UT + UF),
    ("!=", 0, negated(STABLE + UT + UF)),
    # float >= real: machine below while ideal above is impossible
    ("<", E7, STABLE + UF),
    ("<=", E7, STABLE + UF),
    (">", E7, STABLE + UT),
    (">=", E7, STABLE + UT),
    ("==", E7, STABLE + UT + UF),
    ("!=", E7, negated(STABLE + UT + UF)),
    # float <= real
    ("<", -E7, STABLE + UT),
    ("<=", -E7, STABLE + UT),
    (">", -E7, STABLE + UF),
    (">=", -E7, STABLE + UF),
    ("==", -E7, STABLE + UT + UF),
    ("!=", -E7, negated(STABLE + UT + UF)),
])
def test_decide_float_offers_flows_per_operator(op, err_center, expected):
    offered, n = [], 1
    while len(offered) < n:
        program = parse_program("int main() { return 0; }")
        it = Interp(program, AnalysisConfig())
        e0 = it.pool.fresh(Origin.INPUT)
        e1 = it.pool.fresh(Origin.INPUT)
        c = F(err_center)
        it.mem.store("x", AbstractFloat(
            RInterval(F(-1), F(1)), AffineForm(F(0), {e0: F(1)}),
            RInterval(F(-1), F(1)), AffineForm(c, {e1: E7}),
            RInterval(c - E7, c + E7)))
        ex = PathExplorer()
        ex.trace, ex.limits = [len(offered)], [1]
        it.stack.append(SectionCtx(1, True, ex))
        taken = it.decide(parse_expr(f"x {op} 0.0"))
        n = ex.limits[0]
        offered.append((it.ctx.signature[-1][1], it.ctx.interp, taken))
    assert offered == expected


# ---------------------------------------------------------------------------
# Every flow a decision offers, in choice order: the decision is replayed
# once per alternative of its `choose`. Intervals are shown as "[lo, hi]".
# ---------------------------------------------------------------------------


def show(iv):
    return f"[{iv.lo}, {iv.hi}]"


def offered_flows(setup, run):
    """`run(it)` once per alternative of the first decision it meets,
    on a fresh interpreter prepared by `setup(it)` inside a user
    section; the list of its results."""
    out, n = [], 1
    while len(out) < n:
        it = Interp(parse_program("int main() { return 0; }"),
                    AnalysisConfig())
        setup(it)
        ex = PathExplorer()
        ex.trace, ex.limits = [len(out)], [1]
        it.stack.append(SectionCtx(1, True, ex))
        out.append(run(it))
        n = ex.limits[0]
    return out


def float_var(it, name, fiv, center, rad, err_center, err_rad=E7):
    """A float variable with real center + rad*eps and error
    err_center + err_rad*eps' on fresh symbols, machine value fiv."""
    e0 = it.pool.fresh(Origin.INPUT)
    e1 = it.pool.fresh(Origin.INPUT)
    it.mem.store(name, AbstractFloat(
        fiv, AffineForm(center, {e0: rad}),
        RInterval(center - rad, center + rad),
        AffineForm(err_center, {e1: err_rad}),
        RInterval(err_center - err_rad, err_center + err_rad)))


# (int) x: stable flows c<k>, unstable flows c<k>r<kr> with the machine
# truncating to k and the ideal to kr, each under both interpretations.
@pytest.mark.parametrize("fiv,center,rad,err_center,err_rad,expected", [
    ((F(1, 2), F(3, 2)), F(1), F(1, 2), F(0), E7, [
        ("c0", None, 0, "[1/2, 1]"),
        ("c0r1", "float", 0, "[9999999/10000000, 1]"),
        ("c0r1", "real", 1, "[9999999/10000000, 1]"),
        ("c1", None, 1, "[1, 3/2]"),
        ("c1r0", "float", 1, "[1, 10000001/10000000]"),
        ("c1r0", "real", 0, "[1, 10000001/10000000]")]),
    # float >= real: only k-1 as the ideal truncation
    ((F(1, 2), F(3, 2)), F(1), F(1, 2), E7, E7, [
        ("c0", None, 0, "[1/2, 1]"),
        ("c1", None, 1, "[1, 3/2]"),
        ("c1r0", "float", 1, "[1, 5000001/5000000]"),
        ("c1r0", "real", 0, "[1, 5000001/5000000]")]),
    # float <= real: only k+1
    ((F(1, 2), F(3, 2)), F(1), F(1, 2), -E7, E7, [
        ("c0", None, 0, "[1/2, 1]"),
        ("c0r1", "float", 0, "[4999999/5000000, 1]"),
        ("c0r1", "real", 1, "[4999999/5000000, 1]"),
        ("c1", None, 1, "[1, 3/2]")]),
    # negative range
    ((F(-3, 2), F(-1, 2)), F(-1), F(1, 2), F(0), E7, [
        ("c-1", None, -1, "[-3/2, -1]"),
        ("c-1r0", "float", -1, "[-10000001/10000000, -1]"),
        ("c-1r0", "real", 0, "[-10000001/10000000, -1]"),
        ("c0", None, 0, "[-1, -1/2]"),
        ("c0r-1", "float", 0, "[-1, -9999999/10000000]"),
        ("c0r-1", "real", -1, "[-1, -9999999/10000000]")]),
    # one machine truncation, ideal k-1, k and k+1
    ((F(1), F(3, 2)), F(3, 2), F(1), F(-1, 4), F(5, 4), [
        ("c1", None, 1, "[1, 3/2]"),
        ("c1r0", "float", 1, "[1, 3/2]"),
        ("c1r0", "real", 0, "[1, 3/2]"),
        ("c1r2", "float", 1, "[1, 3/2]"),
        ("c1r2", "real", 2, "[1, 3/2]")]),
])
def test_cast_offers_flows_per_truncation(fiv, center, rad, err_center,
                                          err_rad, expected):
    def run(it):
        k = it.eval(parse_expr("(int) x"))
        assert k.is_point()
        return (it.ctx.signature[-1][1], it.ctx.interp, int(k.lo),
                show(it.mem.vars["x"].float_iv))

    got = offered_flows(
        lambda it: float_var(it, "x", RInterval(*fiv), center, rad,
                             err_center, err_rad), run)
    assert got == expected


def int_vars(it):
    it.mem.store("a", RInterval(F(0), F(3)))
    it.mem.store("b", RInterval(F(1), F(2)))


# a in [0, 3], b in [1, 2]: the signature tags, the truth taken and both
# narrowed operands, per choice. `a` alone is the test a != 0; `a < 1.5`
# compares in float, which narrows no int operand.
@pytest.mark.parametrize("cond,expected", [
    ("a < b", [
        (("iT",), True, "[0, 1]", "[1, 2]"),
        (("iF",), False, "[1, 3]", "[1, 2]")]),
    ("a <= b", [
        (("iT",), True, "[0, 2]", "[1, 2]"),
        (("iF",), False, "[2, 3]", "[1, 2]")]),
    ("a > b", [
        (("iT",), True, "[2, 3]", "[1, 2]"),
        (("iF",), False, "[0, 2]", "[1, 2]")]),
    ("a >= b", [
        (("iT",), True, "[1, 3]", "[1, 2]"),
        (("iF",), False, "[0, 1]", "[1, 2]")]),
    ("a == b", [
        (("iT",), True, "[1, 2]", "[1, 2]"),
        (("iF",), False, "[0, 3]", "[1, 2]")]),
    ("a != b", [
        (("iT",), True, "[0, 3]", "[1, 2]"),
        (("iF",), False, "[1, 2]", "[1, 2]")]),
    ("a", [
        (("iT",), True, "[0, 3]", "[1, 2]"),
        (("iF",), False, "[0, 0]", "[1, 2]")]),
    ("a < 4", [((), True, "[0, 3]", "[1, 2]")]),
    ("a >= 4", [((), False, "[0, 3]", "[1, 2]")]),
    ("a < 1.5", [
        (("sT",), True, "[0, 3]", "[1, 2]"),
        (("sF",), False, "[0, 3]", "[1, 2]")]),
])
def test_int_decision_per_operator(cond, expected):
    def run(it):
        taken = it.decide(parse_expr(cond))
        return (tuple(t for _, t in it.ctx.signature), taken,
                show(it.mem.vars["a"]), show(it.mem.vars["b"]))

    assert offered_flows(int_vars, run) == expected


def float_vars(it):
    # x is not yet consistent: float [0, 1] leaves real in [-1e-7, 1+1e-7]
    float_var(it, "x", RInterval(F(0), F(1)), F(0), F(1), F(0))
    float_var(it, "y", RInterval(F(1, 4), F(3, 4)), F(1, 2), F(1, 4), F(0))


def assumed(setup, cond, names):
    """Run `assume (cond)`: 'infeasible', or the float and real
    interval (ints: the interval) of each variable in `names`."""
    def run(it):
        try:
            it.exec_stmt(S.AssumeStmt(parse_expr(cond)))
        except InfeasiblePath:
            return "infeasible"
        return [show(v) if isinstance(v, RInterval)
                else (show(v.float_iv), show(v.real_iv))
                for v in map(it.mem.vars.get, names)]

    got = offered_flows(setup, run)
    assert len(got) == 1  # assume decides nothing
    return got[0]


@pytest.mark.parametrize("cond,expected", [
    ("a < b", ["[0, 1]", "[1, 2]"]),
    ("a <= b", ["[0, 2]", "[1, 2]"]),
    ("a > b", ["[2, 3]", "[1, 2]"]),
    ("a >= b", ["[1, 3]", "[1, 2]"]),
    ("a == b", ["[1, 2]", "[1, 2]"]),
    ("a != b", ["[0, 3]", "[1, 2]"]),
    ("a > 3", "infeasible"),
    ("a != 4", ["[0, 3]", "[1, 2]"]),
])
def test_assume_on_ints_per_operator(cond, expected):
    assert assumed(int_vars, cond, ["a", "b"]) == expected


# C truncates a quotient toward zero, and a remainder takes the sign of
# the dividend; a in [0, 3]
@pytest.mark.parametrize("expr,expected", [
    ("-7 / 2", "[-3, -3]"),
    ("7 / -2", "[-3, -3]"),
    ("-7 % 2", "[-1, -1]"),
    ("7 % -2", "[1, 1]"),
    ("-7 % -2", "[-1, -1]"),
    ("a / 2", "[0, 1]"),
    ("-a % 2", "[-1, 0]"),
    ("a % -3", "[0, 2]"),
])
def test_int_division_and_modulo_truncate_toward_zero(expr, expected):
    it = Interp(parse_program("int main() { return 0; }"), AnalysisConfig())
    int_vars(it)
    assert show(it.eval(parse_expr(expr))) == expected


@pytest.mark.parametrize("cond,expected", [
    ("x < 0.5", [
        ("[0, 1/2]", "[-1/10000000, 1/2]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x <= 0.5", [
        ("[0, 1/2]", "[-1/10000000, 1/2]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x > 0.5", [("[1/2, 1]", "[1/2, 1]"), ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x >= 0.5", [("[1/2, 1]", "[1/2, 1]"), ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x == 0.5", [("[1/2, 1/2]", "[1/2, 1/2]"), ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x != 0.5", [
        ("[0, 1]", "[-1/10000000, 1]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x < y", [
        ("[0, 7500001/10000000]", "[-1/10000000, 3/4]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x <= y", [
        ("[0, 7500001/10000000]", "[-1/10000000, 3/4]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x > y", [
        ("[2499999/10000000, 1]", "[1/4, 1]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x >= y", [
        ("[2499999/10000000, 1]", "[1/4, 1]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x == y", [
        ("[2499999/10000000, 7500001/10000000]", "[1/4, 3/4]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x != y", [
        ("[0, 1]", "[-1/10000000, 1]"),
        ("[1/4, 3/4]", "[1/4, 3/4]")]),
    ("x > 2.0", "infeasible"),
])
def test_assume_on_floats_per_operator(cond, expected):
    assert assumed(float_vars, cond, ["x", "y"]) == expected


def test_equality_under_a_nonzero_point_error_offers_unstable_flows():
    # x = round(0.1) is equal to the literal 0.1 in the machine while the
    # ideal x = 0.1 is not (and the ideal x = round(0.1) the reverse): the
    # error of x - 0.1 is the point 0.1 - round(0.1), not zero.
    src = """
    int main() {
      double x = read_double(0.0, 1.0, 0.0, 0.0);
      double z = 0.0;
      if (x == 0.1) { z = 10.0; } else { z = 1.0; }
      /*@ assert dprint(z); */
      return 0;
    }
    """
    rep = analyze(src, AnalysisConfig())
    z = [r for r in rep.prints if r.variable == "z"][0]
    assert z.float_hull.contains(F(10)) and z.real_hull.contains(F(10))
    sec = [s for s in rep.sections if s["id"] == 1][0]
    assert sec["merged_pairs"] >= 1


def test_int_result_of_an_unstable_test_returned_to_a_caller_alarms():
    # the ideal run of g may return 0 where the machine run returns 1,
    # which the int k cannot carry
    src = """
    int g(double x) {
      if (x > 0.5) { return 1; }
      return 0;
    }
    int main() {
      double x = read_double(0.0, 1.0);
      int k = g(x);
      double z = k * 1.0;
      /*@ assert dprint(z); */
      return 0;
    }
    """
    rep = analyze(src, AnalysisConfig())
    assert [a["kind"] for a in rep.alarms] == ["instrumentation-gap"]
    assert "g: int result of an unstable test" in rep.alarms[0]["message"]


def test_each_float_literal_node_is_built_once(monkeypatch):
    # patriot.c evaluates the literal 0.1 a thousand times in its loop
    source, config = corpus_source("patriot.c"), AnalysisConfig(fmt=BINARY32)
    program, _ = prepare(source, config)
    nodes = [e for fn in program.functions.values()
             for s in S.walk_stmts(fn.body) for top in stmt_exprs(s)
             for e in S.walk_exprs(top) if isinstance(e, S.FloatLit)]
    calls = []
    built = AbstractFloat.from_literal

    def counted(x, fmt):
        calls.append(x)
        return built(x, fmt)

    monkeypatch.setattr(AbstractFloat, "from_literal", staticmethod(counted))
    analyze(source, config)
    assert F(1, 10) in calls
    assert len(calls) <= len(nodes)


# ---------------------------------------------------------------------------
# One pass per decision
# ---------------------------------------------------------------------------


def test_a_stable_decision_projects_once_and_refreshes_once(monkeypatch):
    """Each of the 2**7 - 2 applied flows of stable_program(6) constrains
    x_i - 0.5 on error-free operands: its float and real constraints are
    one, projected in a round that narrows and a round that does not, and
    the met operand is refreshed only with every other variable."""
    calls = {"project": 0, "refresh": 0}
    project, refresh = I.project_onto_symbols, AbstractFloat.refresh

    def counted_project(*args):
        calls["project"] += 1
        return project(*args)

    def counted_refresh(self, env):
        calls["refresh"] += 1
        return refresh(self, env)

    monkeypatch.setattr(I, "project_onto_symbols", counted_project)
    monkeypatch.setattr(AbstractFloat, "refresh", counted_refresh)
    text = analyze(stable_program(6), AnalysisConfig()).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == STABLE_6_SHA256
    assert calls["project"] <= 2 * 126
    assert calls["refresh"] <= 7 * 126


def test_an_exact_value_refreshes_to_itself_without_concretizing(
        monkeypatch):
    v = AbstractFloat.from_literal(F(1, 10), BINARY32)

    def concretize(self, env):
        raise AssertionError("concretized")

    monkeypatch.setattr(AffineForm, "concretize", concretize)
    env = {0: RInterval(F(0), F(1))}
    assert v.refresh(env) is v
    assert v.real_refined(env) is v.real_iv
    assert v.err_refined(env) is v.err_iv
    assert v.float_iv - v.real_iv == v.err_iv


def test_no_trace_text_is_formatted_unless_asked(monkeypatch):
    calls = []
    sig_str = I._sig_str

    def counted(*args):
        calls.append(args)
        return sig_str(*args)

    monkeypatch.setattr(I, "_sig_str", counted)
    source = corpus_source("comp_disc.c")
    analyze(source, AnalysisConfig())
    assert calls == []
    rep = analyze(source, AnalysisConfig(collect_trace=True))
    assert calls and any("merge_unstable: paired" in t for t in rep.trace)


#: the corpus and fanout_n4 .. fanout_n6 at seed 11
TRACED = W.corpus() + [p for p in W.branch_fanout(11) if p.n_tests <= 6]


@pytest.mark.parametrize("p", TRACED, ids=[p.name for p in TRACED])
def test_a_trace_changes_nothing_but_the_trace(p):
    reports = [analyze(p.source, AnalysisConfig(fmt=FORMATS[p.fmt],
                                                collect_trace=traced),
                       source_name=p.name).to_dict()
               for traced in (False, True)]
    plain, traced = (r.pop("trace") for r in reports)
    assert plain == [] and traced
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# The compiled form: each node compiled once, no cyclic garbage
# ---------------------------------------------------------------------------


def compiles_of(monkeypatch, program):
    """The nodes compiled while main of `program` runs on a fresh
    interpreter, in order."""
    built = []
    with monkeypatch.context() as m:
        for name in ("_expr", "_cond", "_stmt"):
            raw = getattr(Interp, name)

            def counted(self, node, *args, raw=raw):
                built.append(node)
                return raw(self, node, *args)
            m.setattr(Interp, name, counted)
        Interp(program, AnalysisConfig(fmt=BINARY32)).run("main")
    return built


def nodes_of(fn):
    """Every statement and expression of fn's body, as the tree holds
    them."""
    return [n for s in S.walk_stmts(fn.body)
            for n in [s] + [e for top in stmt_exprs(s)
                            for e in S.walk_exprs(top)]]


def test_patriot_compiles_each_node_once_however_long_its_loop(
        monkeypatch):
    counts = []
    for bound in ("1000", "10"):
        source = corpus_source("patriot.c").replace("i < 1000",
                                                    f"i < {bound}")
        program, _ = prepare(source, AnalysisConfig(fmt=BINARY32))
        built = compiles_of(monkeypatch, program)
        assert 0 < len(built) <= len(nodes_of(program.functions["main"]))
        assert len({id(n) for n in built}) == len(built)
        counts.append(len(built))
    # the loop's body, test and operands are compiled on its first round
    assert counts[0] == counts[1]


def test_an_analysis_leaves_no_fldx_object_to_the_cyclic_collector():
    """Closures take the interpreter as an argument: one that closed over
    it, cached on it, would keep every finished analysis in a cycle."""
    programs = W.corpus() + [p for p in W.branch_fanout(11)
                             if p.n_tests <= 6]

    def run_all():
        for p in programs:
            analyze(p.source, AnalysisConfig(fmt=FORMATS[p.fmt]),
                    source_name=p.name).to_json()

    def owner(o):
        return o if isinstance(o, FunctionType) else type(o)

    run_all()  # warm up
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_all()
        gc.collect()
        found = sorted({owner(o).__qualname__ for o in gc.garbage
                        if (owner(o).__module__ or "").split(".")[0]
                        == "fldx"})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == []
