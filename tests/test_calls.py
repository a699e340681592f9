"""Calls and returns: a return is a store into the frame's `__return__`
slot, converted to the function's return type, and an argument is bound
through the same conversion as a store to its parameter's type.

The report bytes of call and return programs whose types already match
are pinned; each conversion that an argument, a result, an entry int
array or an implicit store makes is checked against what C computes,
and the oracle's annotation division against the analyzer's.
"""
import hashlib
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fldx.cli import main
from fldx.config import AnalysisConfig
from fldx.executor.oracle import ShadowRun
from fldx.pipeline import analyze, pick_entry, prepare
from tests.conftest import rand_fraction
from tests.test_oracle_soundness import analysis_hulls, input_ranges

EARLY_RETURN = """\
void show(double x) {
  int i = 0;
  double s = x;
  while (i < 5) {
    if (i == 2) {
      return;
    }
    s = s * 1.5;
    i = i + 1;
    /*@ dprint(s); */
  }
}

int main() {
  double x = read_double(1.0, 2.0);
  show(x);
  return 0;
}
"""

BOTH_ARMS = """\
double pick(double x) {
  if (x < 1.5) {
    return x * 2.0;
  } else {
    return x + 1.0;
  }
}

int main() {
  double x = read_double(1.0, 2.0);
  double y = pick(x);
  /*@ dprint(y); */
  return 0;
}
"""

TAIL_SECTION = """\
int bucket(double x) {
  int k = (int) (x * 4.0);
  return k;
}

int main() {
  double x = read_double(0.0, 1.0);
  int k = bucket(x);
  double y = k * 0.5;
  /*@ dprint(y); */
  return 0;
}
"""

NESTED_CALL = """\
double g(double x) {
  return x * x;
}

double f(double y) {
  return y + 0.1;
}

int main() {
  double x = read_double(1.0, 2.0);
  double z = f(g(x));
  /*@ dprint(z); */
  return 0;
}
"""

CALL_IN_CONDITION = """\
double half(double x) {
  return x * 0.5;
}

int main() {
  double x = read_double(0.0, 4.0);
  double y = 0.0;
  if (half(x) < 1.0) {
    y = x;
  } else {
    y = x - 2.0;
  }
  /*@ dprint(y); */
  return 0;
}
"""

#: name: (source, SHA-256 of the binary64 JSON report without and with
#: the decision trace)
CALL_REPORT_SHA256 = {
    "early_return": (
        EARLY_RETURN,
        "a1c8530856ae46b22248f301c24efb128979eeca8a9d41fbb765d18bc37f8462",
        "fa53dac7be6a51513509c84e9b53b31db0c0909ebd3b1256fd8c1bcc6f66a893"),
    "both_arms": (
        BOTH_ARMS,
        "27285e0c5f7add74a7a6f8c46165e6a037d779d938b60960844da303d25acaf0",
        "0d1e8f16a83da0c96042c2e5dc51e55c30b8bec2c946ce2610d4a583642d8625"),
    "tail_section": (
        TAIL_SECTION,
        "87c1cc642b5f23c8fab163742d146b02532a3bdfb2bce53a21865717defd7330",
        "974a11fa44c090914dcdc5784d55884128a73b599cc27deeda84f619e80caa47"),
    "nested_call": (
        NESTED_CALL,
        "be9b6e8906bb4926a4128dbbe5b3f8ce24802d609a1d315d5785140a5f547e96",
        "7383b5e1fb1c6178388d8a9f6262254ac5dc75c33991bdb928c0011047673832"),
    "call_in_condition": (
        CALL_IN_CONDITION,
        "265d7c9639a0faba643ccb21caaf315e43be39f613917f988c3350f4f8a68ba9",
        "f11612637fffa03a829de7dc9bc6fc391dafa9824c7790723bd6a50cf67da8f1"),
}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(CALL_REPORT_SHA256))
def test_call_report_bytes_are_unchanged(name, trace):
    source, plain, traced = CALL_REPORT_SHA256[name]
    text = analyze(source, AnalysisConfig(collect_trace=trace),
                   source_name=name + ".c").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        traced if trace else plain)


@pytest.mark.parametrize("name", sorted(CALL_REPORT_SHA256))
def test_shadow_runs_of_calls_stay_inside_reported_hulls(name, rng):
    config = AnalysisConfig()
    program, _ = prepare(CALL_REPORT_SHA256[name][0], config)
    entry = pick_entry(program, config)
    (x, lo, hi), = input_ranges(program, entry)
    _, prints = analysis_hulls(program, config)
    for value in [lo, hi] + [rand_fraction(rng, lo, hi) for _ in range(50)]:
        shadow = ShadowRun(program, config.fmt, inputs={x: value})
        shadow.run(entry)
        assert shadow.records
        for rec in shadow.records:
            err_h, real_h = prints[f"{rec.loc}:{rec.builtin}:{rec.variable}"]
            assert err_h.lo <= rec.err <= err_h.hi, (rec, value)
            assert real_h.lo <= rec.real_val <= real_h.hi, (rec, value)


# ---------------------------------------------------------------------------
# Conversions at a call, a return and an entry array
# ---------------------------------------------------------------------------


def float_hulls(report):
    return [(p.float_hull.lo, p.float_hull.hi) for p in report.prints]


def test_a_result_converts_to_the_return_type():
    """h returns (int) x, 2 or 3, so h(x) / 2 is an int division: 1."""
    source = """\
int h(double x) {
  return x;
}

int main() {
  double x = read_double(2.0, 3.0);
  double y = h(x) / 2;
  /*@ dprint(y); */
  return 0;
}
"""
    hulls = float_hulls(analyze(source, AnalysisConfig()))
    assert hulls and all(0 <= lo <= hi <= 1 for lo, hi in hulls), hulls


ARRAY_PARAMETER = """\
double g(int t[3]) {
  double y = t[0] / 2;
  /*@ dprint(y); */
  return y;
}
"""


def test_an_entry_int_array_holds_ints():
    config = AnalysisConfig(
        array_inputs={"t": (Fraction(3), Fraction(4), Fraction(5))})
    assert float_hulls(analyze(ARRAY_PARAMETER, config)) == [(1, 1)]


def test_a_non_integer_cell_of_an_entry_int_array_is_an_error(tmp_path):
    src = tmp_path / "g.c"
    src.write_text(ARRAY_PARAMETER)
    res = CliRunner().invoke(main, ["analyze", "--input", "t={3.5,4,5}",
                                    str(src)])
    assert res.exit_code == 6, res.output
    assert "'t'" in res.output


def test_an_argument_converts_to_the_parameter_type():
    """x in [0, 10] binds k to its truncation, so k % 3 is an int
    operation and r * 1.0 lies in [0, 2]."""
    source = """\
int h(int k) {
  int r = k % 3;
  double z = r * 1.0;
  /*@ dprint(z); */
  return r;
}

int main() {
  double x = read_double(0.0, 10.0);
  int m = h(x);
  return 0;
}
"""
    hulls = float_hulls(analyze(source, AnalysisConfig()))
    assert hulls and all(0 <= lo <= hi <= 2 for lo, hi in hulls), hulls


def test_an_implicit_conversion_is_split_like_a_cast():
    implicit = """\
int main() {
  double x = read_double(0.0, 3.0);
  int k = x;
  double y = k * 1.0;
  /*@ dprint(y); */
  return 0;
}
"""
    rep = analyze(implicit, AnalysisConfig())
    cast = analyze(implicit.replace("= x;", "= (int) x;"), AnalysisConfig())
    assert not rep.alarms
    assert len(rep.placements) == 1
    assert rep.prints == cast.prints
    y, = rep.prints
    assert (y.err_hull.lo, y.err_hull.hi) == (-1, 1)


def test_oracle_division_in_a_term_follows_the_operand_types():
    """x / 2 divides a double exactly, 3 / 2 truncates; both bounds are
    0, so each assertion holds, in the analyzer and in the oracle."""
    source = """\
int main() {
  double x = 3.0;
  double y = 1.5 - x / 2;
  /*@ assert accuracy_assert_derr(y, 1.5 - x / 2, 1.0); */
  /*@ assert accuracy_assert_derr(y, 3 / 2 - 1, 1.0); */
  return 0;
}
"""
    config = AnalysisConfig()
    assert [a.verdict for a in analyze(source, config).assertions] == [
        "valid", "valid"]
    program, _ = prepare(source, config)
    shadow = ShadowRun(program, config.fmt)
    shadow.run("main")
    assert [r.holds for r in shadow.records] == [True, True]
