"""A do-while loop and an array indexed by an interval: their report
bytes are pinned, and shadow runs stay inside the hulls they report.

The do-while body runs before its first test, with an int counter and a
float exit test. The array program writes one cell of a float and of an
int array through an index that is an interval (a weak update of every
cell it may name) and reads them back through it (the join of those
cells). `(int) x` over [0, 1000] spans more integers than a cast is
split over, so `k % 3` is the interval [0, 2].
"""
import hashlib
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fldx.cli import main
from fldx.config import AnalysisConfig, InputSpec
from fldx.executor.oracle import ShadowRun
from fldx.numerics import RInterval
from fldx.pipeline import analyze, pick_entry, prepare
from tests.conftest import rand_fraction
from tests.test_oracle_soundness import analysis_hulls, input_ranges

DO_WHILE = """\
int main() {
  double x = read_double(0.0, 1.0);
  double y = x + 0.5;
  int n = 0;
  do {
    y = y * 1.5;
    n = n + 1;
  } while (y < 2.0);
  double z = y + n;
  /*@ dprint(y); */
  /*@ dprint(z); */
  return 0;
}
"""

INTERVAL_INDEX = """\
int main() {
  double x = read_double(0.0, 1000.0);
  int k = (int) x;
  int i = k % 3;
  double a[3] = {0.5, 1.5, 2.5};
  int b[3] = {1, 2, 3};
  double u = read_double(0.0, 1.0);
  a[i] = u * 3.0;
  b[i] = 7;
  double y = a[i];
  int m = b[i];
  double z = y + m;
  /*@ dprint(y); */
  /*@ dprint(z); */
  return 0;
}
"""

#: name: (source, SHA-256 of the binary64 JSON report without and with
#: the decision trace)
REPORT_SHA256 = {
    "do_while": (
        DO_WHILE,
        "20f518f3f1a21c2962a1df80f2aad5165b9e88e16d85f448d9f3e245ae4ea887",
        "26e14d1943a5b0c3440fe516a42eaf8ff8d59bf124d5ef96cfa8a3a2c265c19a"),
    "interval_index": (
        INTERVAL_INDEX,
        "8b4e2080a975fa30b9dca235946a0f4e6b5b80235da40e481c11de7aa21e2aca",
        "fbfc3ba981587c3aa00f8ecfc78faf426f2b4f0f512bd64551e903d4fbb0f870"),
}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_unchanged(name, trace):
    source, plain, traced = REPORT_SHA256[name]
    text = analyze(source, AnalysisConfig(collect_trace=trace),
                   source_name=name + ".c").to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        traced if trace else plain)


def test_the_array_program_joins_and_weakly_updates():
    rep = analyze(INTERVAL_INDEX, AnalysisConfig())
    assert "8:3: weak update of a[0..2]" in rep.warnings
    assert "9:3: weak update of b[0..2]" in rep.warnings
    y, z = rep.prints
    # a cell holds its initial value or u * 3.0; m is 1, 2, 3 or 7
    assert y.real_hull.lo == 0 and y.real_hull.hi == 3
    assert z.real_hull.lo == 1 and z.real_hull.hi == 10


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_shadow_runs_stay_inside_reported_hulls(name, rng):
    config = AnalysisConfig()
    program, _ = prepare(REPORT_SHA256[name][0], config)
    entry = pick_entry(program, config)
    ranges = input_ranges(program, entry)
    _, prints = analysis_hulls(program, config)
    assert len(prints) == 2
    edges = [{v: lo for v, lo, _ in ranges}, {v: hi for v, _, hi in ranges}]
    seen = 0
    for inputs in edges + [
            {v: rand_fraction(rng, lo, hi) for v, lo, hi in ranges}
            for _ in range(300)]:
        shadow = ShadowRun(program, config.fmt, inputs=inputs)
        shadow.run(entry)
        for rec in shadow.records:
            err_h, real_h = prints[f"{rec.loc}:{rec.builtin}:{rec.variable}"]
            assert err_h.lo <= rec.err <= err_h.hi, (rec, inputs)
            assert real_h.lo <= rec.real_val <= real_h.hi, (rec, inputs)
            seen += 1
    assert seen == 2 * (len(edges) + 300)


#: k ranges over [0, 100] and i over [0, 2], an index range each
INDEXED = """\
int main() {
  double a[3] = {1.0, 2.0, 3.0};
  double x = read_double(0.0, 100.0);
  int k = (int) x;
  int i = k % 3;
  STMT
  return 0;
}
"""


@pytest.mark.parametrize("stmt,alarm", [
    ("/*@ assert a[k] <= 5.0; */",
     "6:3: index of a in [0, 100] outside [0, 2]"),
    ("double y = a[k];", "6:14: index of a in [0, 100] outside [0, 2]"),
    ("/*@ assert a[i] <= 5.0; */", None),
], ids=["annotation-past-the-end", "read-past-the-end", "annotation-inside"])
def test_an_annotation_index_range_is_bounds_checked_as_a_read(stmt, alarm):
    rep = analyze(INDEXED.replace("STMT", stmt), AnalysisConfig())
    found = [a["message"] for a in rep.alarms if a["kind"] == "out-of-bounds"]
    assert found == ([alarm] if alarm else [])


def test_an_annotation_index_that_is_not_an_int_is_a_type_error(tmp_path):
    """An annotation indexes an array with an int, as a program read
    does: a float index is an execute error (exit 6), not truncated to
    the cell of its integer part."""
    src = tmp_path / "p.c"
    src.write_text(INDEXED.replace("(0.0, 100.0)", "(-0.9, 0.5)")
                   .replace("STMT", "/*@ assert a[x] <= 5.0; */"))
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 6, res.output
    assert "error: execute: 6:3: index of a is not an integer" in res.output


def test_the_do_while_body_runs_before_the_first_test():
    """With x in [2, 3], y = x + 0.5 already fails the test; the body
    still runs once, giving y = 1.5 (x + 0.5) and n = 1."""
    config = AnalysisConfig(inputs={"x": InputSpec(RInterval(2, 3), None)})
    y, z = analyze(DO_WHILE, config).prints
    assert (y.real_hull.lo, y.real_hull.hi) == (Fraction(15, 4),
                                                Fraction(21, 4))
    assert (z.real_hull.lo, z.real_hull.hi) == (Fraction(19, 4),
                                                Fraction(25, 4))
