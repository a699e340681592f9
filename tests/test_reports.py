"""Report serialization (exact rationals to JSON and back), schema
conformance, assertion aggregation, and the command-line interface."""
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fldx.annot.evaluate import AssertRecord
from fldx.cli import main
from fldx.config import AnalysisConfig
from fldx.frontend import parse_program, print_program
from fldx.frontend.syntax import Binary, FloatLit
from fldx.numerics import FORMATS, RInterval
from fldx.pipeline import analyze
from fldx.report import (REPORT_SCHEMA, SCHEMA_ID, rational_to_json,
                         summarize_assertions)
from tests.conftest import CORPUS, all_corpus_names, corpus_source


def from_json(v):
    """Inverse of rational_to_json, used as the round-trip oracle."""
    if isinstance(v, dict):
        return F(int(v["num"]), int(v["den"]))
    return F(v)


# ---------------------------------------------------------------------------
# Rational serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,expected", [
    (F(1, 8), "0.125"),
    (F(-7, 20), "-0.35"),
    (F(3), "3"),
    (F(0), "0"),
    (F(1, 10 ** 7), "0.0000001"),
    (F(1, 3), {"num": "1", "den": "3"}),
    (F(-22, 7), {"num": "-22", "den": "7"}),
    (F(1, 2 ** 41), {"num": "1", "den": str(2 ** 41)}),  # > 40 digits
])
def test_rational_to_json_forms(x, expected):
    assert rational_to_json(x) == expected


@settings(max_examples=300, deadline=None)
@given(st.fractions())
def test_rational_round_trips_exactly(x):
    assert from_json(rational_to_json(x)) == x


#: SHA-256 of `analyze(...).to_json()` for every corpus program, in the
#: format the benchmark runs it in
REPORT_SHA256 = {
    "absorption.c":
        "df29f36a907552556990c6360f75d9c85401335350f201a571bcb756b9392e1e",
    "associativity.c":
        "5dd243d6a6da56748083a4f0c83f86280ef6d67aed855ce370bec865a4eb8323",
    "comp_abs.c":
        "02f0184849b55e41eb459d38e2a9fcc8d8c0ef9f61c52c2b5f7bf2309fb1d4a6",
    "comp_cont.c":
        "9027d83bed26a3aa93c54c16ee60807cf5fc1479aec3700686f8c885f3eadc52",
    "comp_disc.c":
        "53af40bac4d6dcbe8586055f2e0156134af8676fc9f62f2da899df9d6da1a185",
    "comp_disc_nested.c":
        "3d0af74025b9030213f5bc2954c9d10e398c383b5a537c2043f34359be718643",
    "division.c":
        "eaff243d3df9e67aef1bdf020a25c3f5ddbfe5e5f6eec7c1d292e1ee50873e82",
    "filter.c":
        "88a805e55548d6792cefc1f33ff082f2d2961111b2222f923f05d54b984d21c1",
    "inter_loop.c":
        "e327abc55e7fde8dcdd2a254feb47d0f29919a026467d11efa95c149ee55191d",
    "motiv_example.c":
        "f1bec1e930165d1f9787015ac9f9e284b4de93f8407af272b8cc6b6f2c90a41a",
    "newton_sqrt.c":
        "16201622f2053b1168c8086bac55d405e77cf3e7e209ecc98df7f322ece1353b",
    "patriot.c":
        "43298c0b2105895ce686b5eb9af5332cd0fa679c2b19759079fd13e4c5200f37",
    "polynome.c":
        "bdf0fb0282901c7567cd21e0fb23a2218231ac3d589ee6839fa6b08f052bbaad",
    "relative.c":
        "8d6ca3d87f5974d491e241bc146a4f112a689fac053cfd9c54b84afbe45e11a4",
    "scanf.c":
        "038fcab60be657a635ac32ba9fc112b5d69ea784697218390af92c0be2e264d6",
}
CORPUS_FORMATS = {"patriot.c": "binary32"}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_corpus_report_bytes_are_unchanged(name):
    """Reports are byte-identical to the recorded table, so a speed-up can
    not loosen a hull unseen (ROADMAP aim 1). Regenerate the table only in
    a change that explains why the hulls changed."""
    config = AnalysisConfig(fmt=FORMATS[CORPUS_FORMATS.get(name, "binary64")])
    text = analyze(corpus_source(name), config, source_name=name).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


def test_report_table_covers_the_corpus():
    assert sorted(REPORT_SHA256) == all_corpus_names()


def test_comp_disc_nested_error_is_the_jump_plus_roundings():
    """z is x + y + 0.1 or x + y, with x within 1e-7 of 0.5 and y in
    [0, 1]. Machine and ideal take different arms only when x is within a
    representation error of 0.5, and the arms then differ by the 0.1
    added. Beside that jump, the error of z is that of the inputs x and
    y, of the literal 0.1 and of the two additions: five errors, each at
    most half an ulp of a value below 2, 2**-53 in binary64. So |err| <=
    0.1 + 5 * 2**-53 < 0.1 + 2**-50, and the bound leaves the hull 2**-48
    for its own slack. An unstable pair whose float and real runs hold
    unrelated narrowed copies of x would add the 2e-7 width of x's range.
    """
    name = "comp_disc_nested.c"
    hull, = [a.err_hull for a in analyze(corpus_source(name),
                                         AnalysisConfig()).assertions]
    bound = F(1, 10) + F(1, 2 ** 48)
    assert -bound <= hull.lo and hull.hi <= bound


#: section-heavy sources beyond the corpus, with the SHA-256 of their
#: binary64 reports: nested stable tests around shared symbols, then an
#: unstable test (sections of 28 and 6 paths, 4 and 2 unstable pairs)
NESTED_THEN_UNSTABLE = """\
int main() {
  double x = read_double(0.0, 1.0);
  double y = read_double(-1.0, 1.0);
  double w = x * y + 0.1;
  double v = y - 0.3;
  double s = 0.0;
  if (x < 0.5) {
    s = s + w;
    if (y < 0.25) { s = s - v; } else { s = s + x * 0.5; }
  } else {
    s = s - w;
    if (y + x < 0.75) { s = s + 1.0; } else { s = s * y; }
  }
  double u = read_double(0.4999999, 0.5000001);
  double t = 0.0;
  if (u < 0.5) { t = s + u; } else { t = s - u + 0.1; }
  /*@ accuracy_assert_derr(t, -1e-6, 1e-6); */
  /*@ dprint(s); */
  /*@ dprint(t); */
  /*@ dprint(w); */
  return 0;
}
"""

#: a float-to-int cast whose truncation is unstable at k = 2, and an int
#: test on its result (6 paths, 2 unstable pairs)
CAST_DECISION = """\
int main() {
  double x = read_double(1.9, 4.1);
  double y = x * 0.7 + 0.05;
  int k = (int) y;
  double z = 0.0;
  if (k < 2) { z = y - 1.0; } else { z = y * 0.5 + 0.25; }
  /*@ accuracy_assert_derr(z, -1e-9, 1e-9); */
  /*@ dprint(z); */
  /*@ dprint(y); */
  return 0;
}
"""

#: a float test in a ternary operand after a single-flow test, replayed
#: once the later test on z advances; y is built on x, whose range the
#: operand's test narrows. The float and the real run of the unstable test
#: on z start from that test's one snapshot and so share z's input
#: symbol: the err hull of s is ±(3 + 11 * 2**-53), the ideal-flow bound
#: of 3 (1 from the operand's test, 2 from the test on z) plus roundings,
#: where runs that each read z afresh gave ±(3.5 + 2**-50)
TERNARY_OPERAND = """\
int main() {
  double s = 0.0;
  /*@ split(1, s); */
  double x = read_double(0.0, 1.0);
  double y = x * 3.0;
  if (y < 4.0) { s = 1.0; }
  s = y + (x < 0.5 ? 1.0 : 2.0);
  double z = read_double(0.0, 1.0);
  if (z < 0.5) { s = s + 1.0; } else { s = s - 1.0; }
  /*@ merge(1, s); */
  /*@ accuracy_assert_derr(s, -1e-9, 1e-9); */
  /*@ dprint(s); */
  return 0;
}
"""

#: a float test inside a function the section calls; with the float and
#: the real run of the test on z starting from one snapshot, the low end
#: of the err hull of s is -4 - 10 * 2**-53 (was -4 - 11 * 2**-53)
CALLEE_TEST = """\
double step(double v) {
  double r = v - 1.0;
  if (v < 0.5) { r = v + 1.0; }
  return r;
}
int main() {
  double s = 0.0;
  /*@ split(1, s); */
  double x = read_double(0.0, 1.0);
  double y = x * 3.0;
  s = y + step(x);
  double z = read_double(0.0, 1.0);
  if (z < 0.5) { s = s + 1.0; } else { s = s - 1.0; }
  /*@ merge(1, s); */
  /*@ accuracy_assert_derr(s, -1e-9, 1e-9); */
  /*@ dprint(s); */
  return 0;
}
"""

#: array elements updated in place after each decision, each update
#: reading what the one before it wrote; with three decisions, the state
#: a decision saved is restored more than once
ARRAY_WRITE = """\
int main() {
  double a[2];
  double s = 0.0;
  /*@ split(1, s, a); */
  double x = read_double(0.0, 1.0, 0.0, 0.0);
  a[0] = x;
  if (x < 0.5) { a[0] = a[0] + 1.0; } else { a[1] = a[1] + 2.0; }
  double z = read_double(0.0, 1.0, 0.0, 0.0);
  if (z < 0.5) { a[0] = a[0] + z; } else { a[1] = a[1] + 1.0; }
  double w = read_double(0.0, 1.0, 0.0, 0.0);
  if (w < 0.5) { a[1] = a[1] + w; } else { a[0] = a[0] + 4.0; }
  s = a[0] + a[1];
  /*@ merge(1, s, a); */
  /*@ accuracy_assert_derr(s, -1e-9, 1e-9); */
  /*@ dprint(s); */
  return 0;
}
"""

#: a dprint and an assert between float tests, so that a replay walks
#: the stretches after them and skips the ones before
PREFIX_ANNOTATIONS = """\
int main() {
  double s = 0.0;
  /*@ split(1, s); */
  double x = read_double(0.0, 1.0);
  if (x < 0.5) { s = s + x; } else { s = s - 1.0; }
  /*@ dprint(s); */
  /*@ accuracy_assert_derr(s, -1e-9, 1e-9); */
  double z = read_double(0.0, 1.0);
  double y = z * 3.0 + s;
  if (z < 0.25) { s = s + y; } else { s = s * 2.0; }
  double w = read_double(0.0, 1.0, 0.0, 0.0);
  if (w >= 0.5) { s = s - w; } else { s = s + y * w; }
  /*@ merge(1, s); */
  /*@ accuracy_assert_derr(s, -1e-6, 1e-6); */
  /*@ dprint(s); */
  return 0;
}
"""

#: a loop whose condition is a float test, met once per iteration
FLOAT_LOOP = """\
int main() {
  double s = 0.0;
  /*@ split(1, s); */
  double x = read_double(0.0, 1.0, 0.0, 0.0);
  double y = x + 0.25;
  while (y < 2.0) { y = y * 2.0 + 0.125; s = s + 1.0; }
  double z = read_double(0.0, 1.0);
  if (z < 0.5) { s = s + y; } else { s = s - z; }
  /*@ merge(1, s); */
  /*@ accuracy_assert_derr(s, -1e-9, 1e-9); */
  /*@ dprint(s); */
  return 0;
}
"""

SECTION_REPORT_SHA256 = {
    "nested_then_unstable": (
        NESTED_THEN_UNSTABLE,
        "e17f3fcddcc9be53aa158b609940a15378673f8a0b63cdec1393f16931276f71"),
    "cast_decision": (
        CAST_DECISION,
        "451a20f509818ec747239d5246c624ef5e85ab4a4da19cfe318e09ec135432bc"),
    "ternary_operand": (
        TERNARY_OPERAND,
        "a3ee5083b5b76db54bc78f9b07f19cee19414e1dd39b2d34dcb0bc8de895cbcb"),
    "callee_test": (
        CALLEE_TEST,
        "2bf6c25c6a35cb6106f9d2f8a4ca051b38072521ee70eb9cdf20e6756a5c4f86"),
    "array_write": (
        ARRAY_WRITE,
        "714d534fb6ad15291741548955bd94e1018379ac6a1bada40d3d7f3c28b9713a"),
    "prefix_annotations": (
        PREFIX_ANNOTATIONS,
        "f3484940a9637863b15a9e443d66470fa3b6ac8a4d023344ab23316d217cb9c6"),
    "float_loop": (
        FLOAT_LOOP,
        "49158a2db80be4a5c6f46738a935ae86e49d1da6584919f315771e674509f54c"),
}


@pytest.mark.parametrize("name", sorted(SECTION_REPORT_SHA256))
def test_section_report_bytes_are_unchanged(name):
    source, digest = SECTION_REPORT_SHA256[name]
    text = analyze(source, AnalysisConfig(), source_name=name + ".c").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def rec(verdict, err, loc_line=1):
    from fldx.frontend.syntax import Loc
    return AssertRecord("assert", "accuracy_assert_derr", "z", verdict,
                        err_hull=err, real_hull=RInterval(F(0), F(1)),
                        loc=Loc(loc_line, 1))


def test_summaries_join_hulls_and_keep_the_worst_verdict():
    records = [rec("valid", RInterval(F(0), F(1))),
               rec("indeterminate", RInterval(F(-2), F(0))),
               rec("valid", RInterval(F(1), F(3)))]
    summs = summarize_assertions(records)
    assert len(summs) == 1
    s = summs[0]
    assert s.verdict == "indeterminate"
    assert s.err_hull == RInterval(F(-2), F(3))
    assert s.evaluations == 3


def test_summaries_split_by_location():
    records = [rec("valid", RInterval(F(0), F(1)), loc_line=1),
               rec("violated", RInterval(F(0), F(1)), loc_line=2)]
    summs = summarize_assertions(records)
    assert len(summs) == 2
    assert {s.verdict for s in summs} == {"valid", "violated"}


# ---------------------------------------------------------------------------
# Schema conformance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["absorption.c", "comp_disc.c",
                                  "inter_loop.c", "motiv_example.c"])
def test_report_dict_validates_against_the_schema(name):
    rep = analyze(corpus_source(name), AnalysisConfig(collect_trace=True))
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)
    # and the JSON text parses back to the same dict
    assert json.loads(rep.to_json()) == rep.to_dict()


def test_packaged_schema_file_matches_the_code():
    """The code loads its schema from the packaged file; the file names
    the schema id that reports carry."""
    assert REPORT_SCHEMA["title"] == SCHEMA_ID
    assert REPORT_SCHEMA["properties"]["schema"]["const"] == SCHEMA_ID


def test_text_report_mentions_verdicts_and_sections():
    rep = analyze(corpus_source("comp_disc.c"), AnalysisConfig())
    text = rep.to_text()
    assert "[section 1]" in text
    assert "[alarm]" in text
    assert "err=" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_analyze_clean_program_exits_zero():
    runner = CliRunner()
    res = runner.invoke(main, ["analyze", str(CORPUS / "absorption.c")])
    assert res.exit_code == 0, res.output
    assert "[valid]" in res.output


def test_cli_analyze_alarming_program_exits_one():
    runner = CliRunner()
    res = runner.invoke(main, ["analyze", str(CORPUS / "comp_disc.c")])
    assert res.exit_code == 1
    assert "[alarm]" in res.output


def test_cli_json_report_is_schema_valid():
    runner = CliRunner()
    res = runner.invoke(main, ["analyze", "--report", "json",
                               str(CORPUS / "division.c")])
    assert res.exit_code == 0, res.output
    jsonschema.validate(json.loads(res.output), REPORT_SCHEMA)


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( { return 0; }")
    runner = CliRunner()
    res = runner.invoke(main, ["analyze", str(bad)])
    assert res.exit_code == 2  # first pipeline stage


@pytest.mark.parametrize("opening,message", [
    ("/* unterminated", "3:3: unterminated comment"),
    ("/*@ assert accuracy_assert_derr(x, -1.0, 1.0);",
     "3:3: unterminated annotation"),
])
def test_cli_unterminated_comment_is_a_parse_error(tmp_path, opening,
                                                   message):
    src = tmp_path / "open.c"
    src.write_text("int main() {\n  double x = 1.0;\n  " + opening
                   + "\n  return 0;\n}\n")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 2, res.output
    assert f"parse: {message}" in res.output


@pytest.mark.parametrize("command", ["analyze", "instrument"])
def test_cli_deep_nesting_is_a_parse_error(tmp_path, command):
    src = tmp_path / "deep.c"
    src.write_text("int main() { double x = " + "(" * 400 + "1.0"
                   + ")" * 400 + "; return 0; }")
    res = CliRunner().invoke(main, [command, str(src)])
    assert res.exit_code == 2, res.output
    assert type(res.exception) is SystemExit
    assert "nested too deeply" in res.output


def test_cli_150_nested_parentheses_analyze(tmp_path):
    # precedence climbing spends four parser frames per parenthesis level
    src = tmp_path / "nested.c"
    src.write_text("int main() { double x = " + "(" * 150 + "1.0"
                   + ")" * 150 + "; return 0; }")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 0, res.output


LONG_SUM = ("int main() { double x = 1.0" + " + 1.0" * 2999
            + "; /*@ assert accuracy_assert_derr(x, 0, 0); */ return 0; }")


def test_cli_3000_term_sum_instruments(tmp_path):
    # the printer walks the left spine of the sum with a loop
    src = tmp_path / "long.c"
    src.write_text(LONG_SUM)
    res = CliRunner().invoke(main, ["instrument", str(src)])
    assert res.exit_code == 0, res.output[-500:]
    again = parse_program(res.output)
    assert print_program(again) == res.output
    e = again.functions["main"].body.stmts[0].init
    terms = 1
    while isinstance(e, Binary):
        assert e.op == "+" and isinstance(e.right, FloatLit)
        terms, e = terms + 1, e.left
    assert terms == 3000


def test_cli_3000_term_sum_analyzes(tmp_path):
    # the executor walks the left spine of the sum with a loop
    src = tmp_path / "long.c"
    src.write_text(LONG_SUM)
    res = CliRunner().invoke(main, ["analyze", "--report", "json",
                                    str(src)])
    assert res.exit_code == 0, res.output[-500:]
    (rec,) = json.loads(res.output)["assertions"]
    assert [from_json(v) for v in rec["real"]] == [3000, 3000]
    assert [from_json(v) for v in rec["err"]] == [0, 0]


SRC = Path(__file__).resolve().parent.parent / "src"

#: nests about as deep as the parser takes, each with the print line it
#: reports: the code after `double y =` in main
DEEP = {
    "950-unary-minuses": ("- " * 950 + "x;", "1:1962", "float=[1, 2] real=[1,"
                          " 2] err=[-2.22045e-16, 2.22045e-16]"),
    "200-cast-pairs": ("(double) (int) " * 200 + "x;", "1:3062",
                       "float=[0, 2] real=[0, 2] err=[0, 0] rel=?"),
    "300-chained-ternaries": ("".join(f"x < {1 + i / 400:.4f} ? {i}.0 : "
                                      for i in range(1, 301)) + "2.0;",
                              "1:6256", "float=[1, 256] real=[1, 256]"),
    "400-nested-blocks": ("x; " + "{ " * 400 + "y = -y; " + "} " * 400,
                          "1:1671", "float=[-2, -1] real=[-2, -1]"),
}


@pytest.mark.parametrize("code,at,hull", DEEP.values(), ids=DEEP.keys())
def test_cli_deep_nests_analyze(tmp_path, code, at, hull):
    # in a process of its own, with the stack the `fldx` command has
    src = tmp_path / "deep.c"
    src.write_text("int main() { double x = read_double(1.0, 2.0); double y ="
                   f" {code} /*@ assert dprint(y); */ return 0; }}")
    res = subprocess.run(
        [sys.executable, "-c", "from fldx.cli import main; main()",
         "analyze", str(src)], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 0, res.stdout[-500:] + res.stderr[-500:]
    assert f"[print] {at} y: {hull}" in res.stdout


@pytest.mark.parametrize("test,code", [("x > 2.0", 0), ("x < 2.0", 1)],
                         ids=["branch-not-taken", "branch-taken"])
def test_cli_literal_past_the_double_range_alarms_only_when_reached(
        tmp_path, test, code):
    """A literal is compiled when its branch first runs: one in a branch
    no path takes raises nothing."""
    src = tmp_path / "p.c"
    src.write_text("int main() {\n  double x = read_double(0.0, 1.0);\n"
                   f"  double y = 0.0;\n  if ({test}) {{\n    y = 1e400;\n"
                   "  }\n  /*@ assert accuracy_assert_derr(y, 0, 0); */\n"
                   "  return 0;\n}\n")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == code, res.output
    overflow = "[alarm] overflow: 5:9: 1e+400 rounds beyond the largest"
    assert (overflow in res.output) == (code == 1)
    assert ("[valid]" in res.output) == (code == 0)


LONG_TERMS = " + ".join(["1.0"] * 2999)


@pytest.mark.parametrize("stmt", [
    f"int r = 0; if (x + {LONG_TERMS} > 2.0) {{ r = 1; }}",
    f"int k = x + {LONG_TERMS};"], ids=["comparison", "int-conversion"])
def test_cli_3000_term_sum_is_typed_without_recursion(tmp_path, stmt):
    # placement types the sum walking its left spine with a loop
    src = tmp_path / "long.c"
    src.write_text("int main() { double x = read_double(0.0, 1.0); "
                   + stmt + " return 0; }")
    res = CliRunner().invoke(main, ["instrument", str(src)])
    assert res.exit_code == 0, res.output[-500:]
    assert res.output.count("split(") == 1
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 0, res.output[-500:]


def test_cli_cast_over_the_fan_limit_raises_an_alarm(tmp_path):
    # (int) x is not split over 1001 integers, so its ideal truncation
    # may differ from the machine one by 1: the error of y is not known
    src = tmp_path / "cast.c"
    src.write_text("int main() { double x = read_double(0.0, 1000.0);"
                   " int k = (int) x; double y = k * 1.0;"
                   " /*@ assert dprint(y); */ return 0; }")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 1, res.output
    assert "[alarm] analysis-incomplete" in res.output
    assert "cast not split over 1001 integers" in res.output


@pytest.mark.parametrize("command", ["analyze", "instrument"])
def test_cli_early_return_under_an_unstable_test(tmp_path, command):
    # the section around the test ends in the normalized tail return
    src = tmp_path / "early.c"
    src.write_text("int main() { double x = read_double(0.0, 1.0);"
                   " if (x > 0.5) { return 1; } return 0; }")
    res = CliRunner().invoke(main, [command, str(src)])
    assert res.exit_code == 0, res.output
    if command == "instrument":
        assert res.output.index("return __retval;") \
            < res.output.index("merge(1")


#: programs whose operations all have exact operands, with the exit
#: code, the alarm and the SHA-256 of the binary64 report each gives
EXACT_OPERAND_ALARMS = {
    "overflow": (
        "int main() { double a = 1e308; double y = a * 10.0; return 0; }",
        "[alarm] overflow: 1:43: 1e+309 rounds beyond the largest finite"
        " value",
        "8cd7ff1267db408958996d843eaa154e3a824335597ffa47c361b1151369dd14"),
    # the operand's promotion overflows: located once, at the operand
    "promoted_operand": (
        "int main() { int k = 1" + "0" * 309 + "; double y = k * 1.0;"
        " return 0; }",
        "[alarm] overflow: 1:345: 1e+309 rounds beyond the largest finite"
        " value",
        "2d3fd50ace689a5a2ab8f50691ef8ef75c5d7fb32aad5582880aaf1da24927cc"),
    "zero_divisor": (
        "int main() { double a = 1.0; double y = a / 0.0; return 0; }",
        "[alarm] division-by-zero: 1:45: abstract division by"
        " zero-containing float",
        "e523365a6b63d5ec542f80f0cca06ebe32a8a493d2ce2454c94771d3fd18bc27"),
    "real_zero_divisor": (
        "int main() { double y = 1.0 / ((0.1 + 0.2) - 0.3); return 0; }",
        "[alarm] division-by-zero: 1:33: abstract division: real divisor"
        " may be zero",
        "fce6199f7d69f51b799b42890fc931d331b32a7b306e5f1f06df7399634cae8a"),
}


@pytest.mark.parametrize("name", sorted(EXACT_OPERAND_ALARMS))
def test_cli_alarm_on_exact_operands(tmp_path, name):
    source, alarm, digest = EXACT_OPERAND_ALARMS[name]
    src = tmp_path / (name + ".c")
    src.write_text(source + "\n")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 1, res.output
    assert alarm in res.output.splitlines()[1]
    text = analyze(source + "\n", AnalysisConfig(),
                   source_name=name + ".c").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cli_instrument_prints_sections():
    runner = CliRunner()
    res = runner.invoke(main, ["instrument", str(CORPUS / "comp_disc.c")])
    assert res.exit_code == 0
    assert "split(1" in res.output and "merge(1, z)" in res.output


def test_cli_schema_command_prints_the_schema():
    runner = CliRunner()
    res = runner.invoke(main, ["schema"])
    assert res.exit_code == 0
    assert json.loads(res.output) == REPORT_SCHEMA


def test_cli_input_binding_overrides_source_range(tmp_path):
    src = tmp_path / "p.c"
    src.write_text("""
int main() {
  double x = read_double(0.0, 1.0);
  double y = x + 1.0;
  /*@ assert accuracy_assert_derr(y, -1e-12, 1e-12); */
  /*@ assert dprint(y); */
  return 0;
}
""")
    runner = CliRunner()
    res = runner.invoke(main, ["analyze", "--report", "json",
                               "--input", "x=[2.0,3.0]", str(src)])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    ys = [p for p in rep["prints"] if p["variable"] == "y"]
    assert ys and from_json(ys[0]["float"][0]) >= 3


READ_X = ("int main() {\n  double x = read_double(%s);\n"
          "  double y = x * 2.0;\n  return 0;\n}\n")
ARRAY_PARAM = ("double g(double t[3]) { double y = t[1];"
               " /*@ assert dprint(y); */ return y; }\n")
CALL_G = ("double g(double v) { return v * 2.0; }\nint main() {\n"
          "  double y = g(%s);\n  return 0;\n}\n")
VOID_F = "void f() { return; }\nint main() {\n  %s;\n  return 0;\n}\n"
ARRAY_A = "int main() {\n  double a[2];\n  %s;\n  return 0;\n}\n"
IF_X = ("int main() {\n  double x = read_double(0.0, 1.0);\n"
        "  if (x > 2.0) { %s }\n  return 0;\n}\n")
ASSERT_Y = ("int main() {\n  double x = read_double(0.0, 1.0);\n"
            "  double y = x * 2.0;\n  /*@ assert %s; */\n  return 0;\n}\n")
#: t is an int in one branch and a double in the other; with one type per
#: name per function, y = t would read 1.5 where C reads 1
REDECLARED_T = ("int main() {\n  double x = read_double(0.0, 1.0);\n"
                "  double y = 0.0;\n  if (x > 0.5) {\n    int t = 0;\n"
                "    t = 1.5;\n    y = t;\n  } else {\n"
                "    double t = 0.0;\n  }\n  /*@ assert dprint(y); */\n"
                "  return 0;\n}\n")


@pytest.mark.parametrize("command,source,args,code,message", [
    ("analyze", READ_X % "0.0, 1.0", ["--input", "x=[1,0]"], 2,
     "Invalid value for '--input': invalid interval [1, 0]"),
    ("analyze", READ_X % "0.0, 1.0", ["--input", "x=abc"], 2,
     "Invalid value for '--input'"),
    ("analyze", READ_X % "0.0, 1.0", ["--input", "x=[1]"], 2,
     "Invalid value for '--input': bad interval '[1]'"),
    ("analyze", READ_X % "0.0, 1.0", ["--input", "x=[a,b]"], 2,
     "Invalid value for '--input'"),
    ("analyze", READ_X % "0.0, 1.0", ["--input", "x=[0,1]~[1]"], 2,
     "Invalid value for '--input': bad interval '[1]'"),
    ("analyze", ARRAY_PARAM, ["--input", "t={0.1,abc,2}"], 2,
     "Invalid value for '--input'"),
    ("analyze", READ_X % "", ["--input", "x=[0,1e400]"], 2,
     "Invalid value for '--input': x: 1e+400 rounds beyond the largest"
     " finite value"),
    ("analyze", READ_X % "", ["--format", "binary32", "--input",
                              "x=[-1e39,0]"], 2,
     "Invalid value for '--input': x: -1e+39 rounds beyond the largest"
     " finite value"),
    ("analyze", READ_X % "0.0, 1.0", ["--threshold", "abc"], 2,
     "Invalid value for '--threshold'"),
    ("analyze", READ_X % "0.0, 1.0", ["--max-noise", "0"], 2,
     "Invalid value for '--max-noise'"),
    ("analyze", READ_X % "0.0, 1.0", ["--path-budget", "0"], 2,
     "Invalid value for '--path-budget'"),
    ("analyze", READ_X % "0.0, 1.0", ["--path-budget", "-1"], 2,
     "Invalid value for '--path-budget'"),
    ("analyze", READ_X % "1.0, 0.0", [], 6,
     "execute: 2:14: read_double: invalid interval [1, 0]"),
    ("analyze", READ_X % "0.0, 1.0, 1e-3, -1e-3", [], 6,
     "execute: 2:14: read_double: invalid interval [1/1000, -1/1000]"),
    ("analyze", READ_X % "0.0, 1.0, 0.5", [], 6,
     "error: 2:14: read_double takes 0, 2 or 4 arguments, not 3"),
    ("analyze", READ_X % "0.0, 1.0, 0.0, 0.0, 1.0", [], 6,
     "error: 2:14: read_double takes 0, 2 or 4 arguments, not 5"),
    ("analyze", CALL_G % "1.0, 2.0", [], 6,
     "error: 3:14: g takes 1 argument, not 2"),
    ("analyze", CALL_G % "", [], 6, "error: 3:14: g takes 1 argument, not 0"),
    ("analyze", VOID_F % "int k = (int) f()", [], 6,
     "error: execute: 3:17: expected a number, got the result of a void"
     " function"),
    ("analyze", VOID_F % "double y = -f()", [], 6,
     "error: execute: 3:15: expected a number, got the result of a void"
     " function"),
    ("analyze", "void g() { return; }\nvoid f() { return g(); }\n"
     + VOID_F.split("\n", 1)[1] % "f()", [], 6,
     "error: execute: 2:12: expected a number, got the result of a void"
     " function"),
    ("analyze", VOID_F.replace("return;", "double a[2]; return a;") % "f()",
     [], 6, "error: execute: 1:25: expected a number, got an array"),
    ("analyze", ARRAY_A % "double y = -a", [], 6,
     "error: execute: 3:15: expected a number, got an array"),
    ("analyze", ARRAY_A % "int k = (int) a", [], 6,
     "error: execute: 3:17: expected a number, got an array"),
    ("analyze", ARRAY_A % "double x = 1.0; x[0] = a[1]", [], 6,
     "error: execute: 3:19: x is not an array"),
    ("analyze", IF_X % "/*@ assert accuracy_assert_derr(zz, -1.0, 1.0); */",
     [], 6, "error: 3:18: use of undeclared variable 'zz'"),
    ("instrument", IF_X % "x = x + 1.0; /*@ assert"
     " accuracy_enlarge_dval_err(zz, 0.0, 1.0, -1.0, 1.0); */", [], 6,
     "error: 3:31: use of undeclared variable 'zz'"),
    ("analyze", IF_X % "zz = x;", [], 6,
     "error: 3:18: use of undeclared variable 'zz'"),
    ("analyze", b"int main() { /* \xff */ return 0; }\n", [], 2,
     "error: parse: source is not UTF-8 text"),
    ("instrument", b"int main() { /* \xff */ return 0; }\n", [], 2,
     "error: parse: source is not UTF-8 text"),
    ("analyze", ASSERT_Y % "\\let (lo, hi) = accuracy_get_derr(y, x);"
     " lo <= hi", [], 2,
     "error: parse: 4:3: accuracy_get_derr expects 1 arguments"),
    ("analyze", "int main() {\n  zz = 1.0;\n  return 0;\n}\n"
     "int g( {\n}\n", [], 2,
     "error: parse: 5:8: expected a parameter type, found '{'"),
    ("analyze", "int main() {\n  double y = g(1.0, 2.0);\n  return 0;\n}\n"
     "double g(double v) { return v; }\n", [], 6,
     "error: 2:14: g takes 1 argument, not 2"),
    ("analyze", ASSERT_Y % "\\let zz = 1.0; zz[0] <= 2.0", [], 6,
     "error: 4:3: use of undeclared variable 'zz'"),
    ("analyze", "int main() {\n  double x = x + 1.0;\n  return 0;\n}\n",
     [], 6, "error: 2:14: use of undeclared variable 'x'"),
    ("analyze", REDECLARED_T, [], 6,
     "error: 9:5: t redeclared with another type"),
    ("analyze", "int main() {\n  double x = read_double(1.0, 2.0);\n"
     "  double y = read_double(-1.0, 1.0);\n  double z = x / y;\n"
     "  return 0;\n}\n", [], 1,
     "[alarm] division-by-zero: 4:18: abstract division by zero-containing"
     " float"),
], ids=["input-reversed", "input-not-a-number", "input-one-end",
        "input-ends-not-numbers", "input-error-one-end", "input-array-element",
        "input-past-the-double-range", "input-past-the-binary32-range",
        "threshold", "max-noise", "path-budget-zero", "path-budget-negative",
        "read-double-reversed",
        "read-double-error-reversed", "read-double-three-arguments",
        "read-double-five-arguments", "call-extra-argument",
        "call-missing-argument", "void-result-cast", "void-result-negated",
        "void-result-returned", "array-returned-from-void",
        "array-negated", "array-cast", "scalar-indexed",
        "assert-name-on-a-dead-path", "enlarge-target-in-an-if",
        "assignment-target", "analyze-not-utf8",
        "instrument-not-utf8", "pair-built-in-arity",
        "syntax-error-after-an-undeclared-name", "call-of-a-later-function",
        "let-binder-indexed", "declaration-reads-itself",
        "redeclared-with-another-type", "abstract-division-located"])
def test_cli_bad_input_ends_in_its_exit_code(tmp_path, command, source, args,
                                             code, message):
    src = tmp_path / "p.c"
    if isinstance(source, bytes):
        src.write_bytes(source)
    else:
        src.write_text(source)
    res = CliRunner().invoke(main, [command, *args, str(src)])
    assert res.exit_code == code, res.output
    assert type(res.exception) is SystemExit
    assert message in res.output
    assert "Traceback" not in res.output


def test_cli_a_void_function_returns_an_int_as_a_double(tmp_path):
    """`return e;` in a void function converts e as a double return does,
    so the int caller casts the result back: a cast decision, no pair."""
    src = tmp_path / "p.c"
    src.write_text("void f(int i) { return i + 1; }\nint main() {\n"
                   "  int n = (int) read_double(0.0, 2.5);\n  int k = f(n);\n"
                   "  return 0;\n}\n")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 0, res.output
    assert "[section 1] paths=11/11 pairs=0" in res.output


def test_cli_a_let_binder_needs_no_program_variable(tmp_path):
    src = tmp_path / "p.c"
    src.write_text(ASSERT_Y % "\\let zz = 1.0; zz <= 2.0")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 0, res.output


HALVE_X = ("int main() {\n  double x = read_double(%s);\n"
           "  double y = x * 0.5;\n  /*@ dprint(y); */\n  return 0;\n}\n")


@pytest.mark.parametrize("bounds,code,message", [
    ("1e400, 2e400", 1,
     "[alarm] overflow: 2:14: 1e+400 rounds beyond the largest finite"
     " value"),
    # the bound as written, before its representation error widens it
    ("0.0, 1e400", 1,
     "[alarm] overflow: 2:14: 1e+400 rounds beyond the largest finite"
     " value"),
    ("0.0, 1.7976931348623157e308", 0, "[print] 4:3 y: float=[-4.9896e+291,"
     " 8.98847e+307]"),
], ids=["both-ends-past-the-range", "upper-end-past-the-range", "dbl-max"])
def test_cli_input_past_the_double_range_raises_overflow(tmp_path, bounds,
                                                         code, message):
    """An input bound no double can hold alarms where the input is read,
    as a literal does; DBL_MAX with its representation error does not."""
    src = tmp_path / "p.c"
    src.write_text(HALVE_X % bounds)
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == code, res.output
    assert message in res.output
    assert ("overflow" in res.output) == (code == 1)


def test_cli_input_error_past_the_range_is_a_usage_error(tmp_path):
    """The float an input can take is its value plus its error: an error
    bound past the double range fails the usage check, as a value bound
    does."""
    src = tmp_path / "p.c"
    src.write_text(READ_X % "0.0, 1.0")
    res = CliRunner().invoke(main, ["analyze", "--input",
                                    "x=[0,1]~[0,1e400]", str(src)])
    assert res.exit_code == 2, res.output
    assert ("Invalid value for '--input': x: 1e+400 rounds beyond the"
            " largest finite value") in res.output


def test_cli_read_double_error_past_the_range_alarms_at_the_call(tmp_path):
    src = tmp_path / "p.c"
    src.write_text(HALVE_X % "0.0, 1.0, 0.0, 1e400")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 1, res.output
    assert ("[alarm] overflow: 2:14: 1e+400 rounds beyond the largest"
            " finite value") in res.output


@pytest.mark.parametrize("body,at", [
    ("double x = 1e400;", "1:25"),
    ("double x = 0.0; x = 1e400;", "1:34"),
    ("double x = 0.0; double y = x + 1e400;", "1:45"),
    ("double y = f(1e400);", "1:27"),
], ids=["declaration", "assignment", "operand", "argument"])
def test_cli_literal_past_the_double_range_alarms_where_it_is_read(
        tmp_path, body, at):
    """A literal no double can hold alarms at the literal, as an input
    bound does."""
    src = tmp_path / "p.c"
    src.write_text(f"int main() {{ {body} return 0; }}\n"
                   "double f(double a) { return a; }\n")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 1, res.output
    assert (f"[alarm] overflow: {at}: 1e+400 rounds beyond the largest"
            " finite value") in res.output


@pytest.mark.parametrize("read,at", [
    ("double y = z + 1.0;", "7:14"),
    ("/*@ assert (z <= 2.0); */", "7:3"),
], ids=["code", "annotation"])
def test_cli_read_of_an_unset_variable_alarms_where_it_is_read(
        tmp_path, read, at):
    """z is set on one side of a split test only, so the merge drops it
    and the read after it finds it unset."""
    src = tmp_path / "p.c"
    src.write_text("int main(double x) {\n  double z;\n  if (x < 0.5) {\n"
                   "    z = 1.0;\n  }\n  /*@ assert (x <= 1.0); */\n"
                   f"  {read}\n  return 0;\n}}\n")
    res = CliRunner().invoke(main, ["analyze", "--input", "x=[0,1]",
                                    str(src)])
    assert res.exit_code == 1, res.output
    assert f"[alarm] out-of-bounds: {at}: read of unset variable z" \
        in res.output


def test_cli_int_past_the_float_range_raises_overflow(tmp_path):
    """An int no float of the format can hold alarms where it converts."""
    src = tmp_path / "p.c"
    src.write_text(f"int main() {{\n  int k = {10 ** 39};\n  double y = k;\n"
                   f"  return 0;\n}}\n")
    res = CliRunner().invoke(main, ["analyze", "--format", "binary32",
                                    str(src)])
    assert res.exit_code == 1, res.output
    assert ("[alarm] overflow: 3:3: 1e+39 rounds beyond the largest finite"
            " value") in res.output


def test_cli_array_input_elements_are_parsed_before_the_run(tmp_path):
    src = tmp_path / "p.c"
    src.write_text(ARRAY_PARAM)
    res = CliRunner().invoke(main, ["analyze", "--input", "t={0.5,0.25,2}",
                                    "--report", "json", str(src)])
    assert res.exit_code == 0, res.output
    y, = [p for p in json.loads(res.output)["prints"] if p["variable"] == "y"]
    assert [from_json(v) for v in y["float"]] == [F(1, 4), F(1, 4)]


def rounds_program(n):
    """A value squared and pushed through a division n times: the exact
    denominators of its error hull about double in length each round."""
    return ("double h(double a) { return a / (a + 1.0); }\n"
            "int main() {\n  double x = read_double(0.1, 0.9);\n"
            "  double y = x;\n" + "  y = y * y + h(y);\n" * n
            + "  /*@ assert accuracy_assert_derr(y, -1.0, 1.0); */\n"
            "  return 0;\n}\n")


def rationals_in(v):
    """Every {num, den} pair anywhere in a JSON value."""
    if isinstance(v, dict):
        if set(v) == {"num", "den"}:
            yield v
        else:
            for x in v.values():
                yield from rationals_in(x)
    elif isinstance(v, list):
        for x in v:
            yield from rationals_in(x)


@pytest.mark.parametrize("rounds", [4, 5])
def test_cli_json_report_writes_integers_past_4300_digits(tmp_path, rounds):
    # str() of an int that long raises under the interpreter's default
    # limit; the writer converts it in chunks, and changes no setting
    src = tmp_path / "rounds.c"
    src.write_text(rounds_program(rounds))
    limit = sys.get_int_max_str_digits()
    res = CliRunner().invoke(main, ["analyze", "--report", "json", str(src)])
    assert res.exit_code == 0, res.output[-500:]
    assert sys.get_int_max_str_digits() == limit
    report = json.loads(res.output)
    jsonschema.validate(report, REPORT_SCHEMA)
    pairs = list(rationals_in(report))
    assert pairs and all(re.fullmatch(r"-?\d+", p["num"])
                         and re.fullmatch(r"\d+", p["den"]) for p in pairs)
    assert max(len(p["den"]) for p in pairs) > 4300


def test_rational_to_json_past_the_digit_limit_round_trips():
    x = F(-(3 ** 12_000) - 1, 7 ** 6_000)
    v = rational_to_json(x)
    num, den = v["num"], v["den"]
    assert len(num) > 4300 and len(den) > 4300 and num[0] == "-"
    assert F(-undecimal(num[1:]), undecimal(den)) == x


def undecimal(s):
    """int(s) in 500-digit pieces, as int() of all of s would raise."""
    n = 0
    for i in range(0, len(s), 500):
        n = n * 10 ** len(s[i:i + 500]) + int(s[i:i + 500])
    return n
