"""Master soundness check: for every corpus program, the exact-rational
shadow interpreter is run on many random concrete inputs and its error
and real value at every assertion and print point must lie inside the
hulls the abstract analysis reported."""
import time
from fractions import Fraction

import pytest

from fldx.config import AnalysisConfig
from fldx.errors import FldxError, TypeErrorAt
from fldx.executor.interp import Interp, _literal_value
from fldx.executor.oracle import ShadowRun
from fldx.frontend import parse_program
from fldx.frontend import syntax as S
from fldx.numerics import FORMATS
from fldx.pipeline import pick_entry, prepare
from fldx.report import summarize_assertions
from tests.conftest import (all_corpus_names, corpus_source, rand_fraction,
                            rounded)
from tests.test_replay import section_program
from tests.test_reports import CALLEE_TEST, TERNARY_OPERAND

RUNS = 1000

WITH_INPUTS = [n for n in all_corpus_names()
               if "read_double(" in corpus_source(n)]


def read_specs(program, entry):
    """(variable, lo, hi, exact) for every read_double bound to a
    variable; exact when the read gives its error as [0, 0], so that its
    input must be a float of the format."""
    out = []
    for s in S.walk_stmts(program.functions[entry].body):
        target = init = None
        if isinstance(s, S.Decl) and isinstance(s.init, S.Call):
            target, init = s.name, s.init
        elif isinstance(s, S.Assign) and isinstance(s.expr, S.Call) \
                and isinstance(s.target, S.Var):
            target, init = s.target.name, s.expr
        if init is not None and init.name == "read_double":
            ends = [_literal_value(a) for a in init.args]
            out.append((target, ends[0], ends[1], ends[2:] == [0, 0]))
    return out


def input_ranges(program, entry):
    """(variable, lo, hi) for every read_double bound to a variable."""
    return [spec[:3] for spec in read_specs(program, entry)]


def analysis_hulls(program, config):
    interp = Interp(program, config)
    interp.run(pick_entry(program, config))
    hulls = {}
    for summ in summarize_assertions(interp.records):
        key = f"{summ.location}:{summ.builtin}:{summ.variable}"
        hulls[key] = summ
    prints = {}
    for rec in interp.records:
        if rec.kind != "print":
            continue
        key = f"{rec.loc}:{rec.builtin}:{rec.variable}"
        if key in prints:
            prev = prints[key]
            prints[key] = (prev[0].join(rec.err_hull),
                           prev[1].join(rec.real_hull))
        else:
            prints[key] = (rec.err_hull, rec.real_hull)
    return hulls, prints


@pytest.mark.parametrize("name", WITH_INPUTS)
def test_shadow_runs_stay_inside_reported_hulls(name, rng):
    config = AnalysisConfig()
    program, _ = prepare(corpus_source(name), config)
    entry = pick_entry(program, config)
    ranges = input_ranges(program, entry)
    assert ranges, "corpus program without inputs selected"
    hulls, prints = analysis_hulls(program, config)
    assert hulls or prints

    violations = []
    for _ in range(RUNS):
        inputs = {v: rand_fraction(rng, lo, hi) for v, lo, hi in ranges}
        shadow = ShadowRun(program, config.fmt, inputs=inputs)
        shadow.run(entry)
        for rec in shadow.records:
            key = f"{rec.loc}:{rec.builtin}:{rec.variable}"
            if rec.holds is None:  # print record
                hull = prints.get(key)
                if hull is None:
                    continue
                err_h, real_h = hull
            else:
                summ = hulls.get(key)
                assert summ is not None, f"unreported assertion {key}"
                err_h, real_h = summ.err_hull, summ.real_hull
            if err_h is not None and not (err_h.lo <= rec.err <= err_h.hi):
                violations.append((key, "err", rec.err, err_h, inputs))
            if real_h is not None and \
                    not (real_h.lo <= rec.real_val <= real_h.hi):
                violations.append((key, "real", rec.real_val, real_h, inputs))
    assert violations == []


def test_corpus_is_large_enough_for_the_soundness_sweep():
    assert len(WITH_INPUTS) >= 10


def test_sweep_touches_every_assertion_at_least_once(rng):
    """Sanity: the shadow actually reaches the assertion points."""
    for name in WITH_INPUTS[:3]:
        config = AnalysisConfig()
        program, _ = prepare(corpus_source(name), config)
        entry = pick_entry(program, config)
        ranges = input_ranges(program, entry)
        inputs = {v: rand_fraction(rng, lo, hi) for v, lo, hi in ranges}
        shadow = ShadowRun(program, config.fmt, inputs=inputs)
        shadow.run(entry)
        assert shadow.records


EARLY_RETURN = """
double f(double x) {
  if (x > 0.5) { return x * 2.0; }
  return x + 1.0;
}
int main() {
  double x = read_double(0.0, 1.0);
  double y = f(x);
  /*@ assert dprint(y); */
  return 0;
}
"""


def test_shadow_runs_through_an_early_return_stay_inside_reported_hulls(rng):
    config = AnalysisConfig()
    program, _ = prepare(EARLY_RETURN, config)
    entry = pick_entry(program, config)
    _, prints = analysis_hulls(program, config)
    [(err_h, real_h)] = prints.values()
    near = [Fraction(1, 2) + d for d in (0, Fraction(1, 2 ** 54),
                                         -Fraction(1, 2 ** 55))]
    for x in near + [rand_fraction(rng, Fraction(0), Fraction(1))
                     for _ in range(200)]:
        shadow = ShadowRun(program, config.fmt, inputs={"x": x})
        shadow.run(entry)
        [rec] = shadow.records
        assert err_h.lo <= rec.err <= err_h.hi, x
        assert real_h.lo <= rec.real_val <= real_h.hi, x


def test_the_oracle_reads_a_real_value_as_the_analyzer_does():
    """accuracy_get_dreal binds the real value, 4.5 at x = 1.5, so the
    upper bound lo - 4.0 is 0.5 and the exact y = 4.5 meets it."""
    source = """
int main() {
  double x = read_double(1.0, 2.0);
  double y = x * 3.0;
  /*@ assert \\let (lo, hi) = accuracy_get_dreal(y);
        accuracy_assert_derr(y, hi - lo, lo - 4.0); */
  return 0;
}
"""
    config = AnalysisConfig()
    program, _ = prepare(source, config)
    shadow = ShadowRun(program, config.fmt, inputs={"x": Fraction(3, 2)})
    shadow.run("main")
    [rec] = shadow.records
    assert (rec.real_val, rec.err, rec.holds) == (Fraction(9, 2), 0, True)


@pytest.mark.parametrize("fmt,k", [("binary64", 2 ** 53 + 1),
                                   ("binary32", 2 ** 24 + 1)])
def test_a_promoted_int_rounds_to_the_format(fmt, k):
    """2**p + 1 is not a value of a p-bit format: C rounds it when it
    converts it to a float, so the oracle's error is -1, and the reported
    error hull must hold it."""
    source = (f"int main() {{ int k = {k}; double y = k;"
              f" /*@ assert dprint(y); */ return 0; }}")
    config = AnalysisConfig(fmt=FORMATS[fmt])
    program, _ = prepare(source, config)
    _, prints = analysis_hulls(program, config)
    [(err_h, real_h)] = prints.values()
    shadow = ShadowRun(program, config.fmt)
    shadow.run("main")
    [rec] = shadow.records
    assert rec.err == -1
    assert err_h.lo <= rec.err <= err_h.hi
    assert real_h.lo <= rec.real_val <= real_h.hi


CELL_PROBE = ("int main() {\n  double x = 0.5;\n"
              "  double a[2] = {1.0, 2.0};\n  /*@ assert %s; */\n"
              "  return 0;\n}\n")


@pytest.mark.parametrize("pred,message", [
    ("x[0] <= 1.0", "4:3: bad index 0 into x"),
    ("a[5] <= 1.0", "4:3: bad index 5 into a"),
    ("max_distance(a, 5) <= 1.0", "4:3: bad index 2 into a"),
    ("a[-1] <= 1.0", "4:3: bad index -1 into a"),
], ids=["scalar-indexed", "index-past-the-end", "max-distance-past-the-end",
        "negative-index"])
def test_the_oracle_reads_only_the_cells_of_an_array(pred, message):
    shadow = ShadowRun(parse_program(CELL_PROBE % pred), FORMATS["binary64"])
    with pytest.raises(FldxError, match=message):
        shadow.run("main")


@pytest.mark.parametrize("pred", ["a <= 2.5", "\\let b = a; b <= 2.5",
                                  "min(a, 1.0) <= 2.5"],
                         ids=["compared", "bound", "called"])
def test_the_oracle_reads_no_array_name_as_a_number(pred):
    """A bare array name in an annotation term is an error at the
    annotation, as it is in code."""
    shadow = ShadowRun(parse_program(CELL_PROBE % pred), FORMATS["binary64"])
    with pytest.raises(TypeErrorAt,
                       match="4:3: expected a number, got an array"):
        shadow.run("main")


#: the constants the programs below test their inputs against, and the
#: floats next to them; floats, since at a real input whose machine and
#: ideal runs part the oracle reads the real value along the machine
#: branch (ROADMAP item 2), which neither run computes
NEAR_CONSTANTS = sorted({rounded(Fraction(c, 4) + d, FORMATS["binary64"])
                         for c in range(5)
                         for d in (0, Fraction(1, 2 ** 53),
                                   -Fraction(1, 2 ** 53),
                                   Fraction(1, 2 ** 52),
                                   -Fraction(1, 2 ** 52))})


@pytest.mark.parametrize("source", [TERNARY_OPERAND, CALLEE_TEST,
                                    section_program(79),
                                    section_program(203),
                                    section_program(277)],
                         ids=["ternary_operand", "callee_test",
                              "section_program_79", "section_program_203",
                              "section_program_277"])
def test_shadow_runs_stay_inside_hulls_a_shared_snapshot_tightened(
        source, rng):
    """The hulls that every alternative of a decision starting from one
    snapshot tightened (the float and the real run of an unstable test
    then share their inputs' symbols) still hold every oracle value, on
    sampled inputs and on float inputs at and next to the test
    constants."""
    config = AnalysisConfig(path_budget=4096)
    program, _ = prepare(source, config)
    entry = pick_entry(program, config)
    specs = read_specs(program, entry)
    hulls, prints = analysis_hulls(program, config)
    violations = []
    for run in range(300):
        inputs = {}
        for v, lo, hi, exact in specs:
            near = [c for c in NEAR_CONSTANTS if lo <= c <= hi]
            x = rng.choice(near) if run % 2 else rand_fraction(rng, lo, hi)
            inputs[v] = rounded(x, config.fmt) if exact else x
        shadow = ShadowRun(program, config.fmt, inputs=inputs)
        shadow.run(entry)
        assert shadow.records
        for rec in shadow.records:
            key = f"{rec.loc}:{rec.builtin}:{rec.variable}"
            if rec.holds is None:
                err_h, real_h = prints[key]
            else:
                summ = hulls[key]
                err_h, real_h = summ.err_hull, summ.real_hull
            if not (err_h.lo <= rec.err <= err_h.hi
                    and real_h.lo <= rec.real_val <= real_h.hi):
                violations.append((key, rec.err, rec.real_val, inputs))
    assert violations == []
