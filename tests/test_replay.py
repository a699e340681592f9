"""Replays that skip a plain prefix: a seeded generator of section
programs whose reports must not change when no stretch counts as plain,
and the work a replay still does on n independent stable tests."""
import random

import pytest

from fldx.config import AnalysisConfig
from fldx.executor import interp as I
from fldx.executor.explorer import PathExplorer
from fldx.pipeline import analyze
from tests.test_executor import stable_program

#: conditions on a fresh input `x` in [0, 1] (`v` is a second one), each
#: met with both outcomes
CONDITIONS = ("x < 0.5", "x <= 0.25", "x > 0.75", "x >= 0.5", "x == 0.5",
              "x != 0.25", "x", "!(x < 0.5)", "x < 0.5 && v > 0.25",
              "x > 0.75 || v < 0.5")

#: statements that end a plain stretch; `{i}` is the block's number, `{j}`
#: an array index and `{sec}` a fresh section id
EVENTS = (
    "/*@ dprint(s); */",
    "/*@ accuracy_assert_derr(s, -1e-6, 1e-6); */",
    "int k{i} = 2; if (k{i} < 3) {{ s = s + 0.5; }}",
    "s = show(s);",
    "/*@ split({sec}, s); */"
    " double q{i} = read_double(0.0, 1.0, 0.0, 0.0);"
    " if (q{i} < 0.5) {{ s = s + q{i}; }} else {{ s = s - q{i}; }}"
    " /*@ merge({sec}, s); */",
    "int c{i} = (int) x{i}; if (c{i} < 1) {{ s = s + 1.0; }}",
    "a[{j}] = a[{j}] + x{i};",
)

#: plain statements that feed later tests
PLAIN = ("double y{i} = x{i} * 3.0 + s;", "s = s + x{i} * 0.5;",
         "a[{j}] = s;", "s = s * 0.5 + a[{j}];")


def _read(rng):
    """An exact input, or one with a representation error, whose tests
    can be unstable."""
    if rng.random() < 0.15:
        return "read_double(0.0, 1.0)"
    return "read_double(0.0, 1.0, 0.0, 0.0)"


def section_program(seed: int) -> str:
    """A section of three blocks; each reads fresh inputs, may
    run plain statements and an event, then tests the input in an if or
    a float-condition while."""
    rng = random.Random(seed)
    lines = ["double show(double v) { /*@ dprint(v); */ return v; }",
             "int main() {", "  double s = 0.0;", "  double a[2];",
             "  /*@ split(1, s, a); */"]
    sec = 2
    for i in range(3):
        fill = dict(i=i, j=rng.randint(0, 1), sec=sec)
        lines.append(f"  double x{i} = {_read(rng)};")
        lines.append(f"  double v{i} = {_read(rng)};")
        for plain in rng.sample(PLAIN, rng.randint(0, 2)):
            lines.append("  " + plain.format(**fill))
        if rng.random() < 0.6:
            event = rng.choice(EVENTS)
            sec += "split" in event
            lines.append("  " + event.format(**fill))
        if rng.random() < 0.15:
            lines.append(f"  double w{i} = x{i};")
            lines.append(f"  while (w{i} < 1.0) {{ w{i} = w{i} + 0.75;"
                         f" s = s + 1.0; }}")
        else:
            cond = rng.choice(CONDITIONS).replace("x", f"x{i}") \
                .replace("v", f"v{i}")
            lines.append(f"  if ({cond}) {{ s = s + x{i}; }}"
                         f" else {{ s = s - v{i}; }}")
    lines += ["  /*@ merge(1, s, a); */",
              "  /*@ accuracy_assert_derr(s, -1e-6, 1e-6); */",
              "  /*@ dprint(s); */", "  return 0;", "}"]
    return "\n".join(lines) + "\n"


def _report(source: str) -> str:
    """The JSON report with its trace; the path budget keeps each program
    small and cuts both runs of a comparison at the same path."""
    return analyze(source, AnalysisConfig(collect_trace=True,
                                          path_budget=32)).to_json()


def test_a_skipped_prefix_leaves_every_report_byte(monkeypatch):
    """The report, trace included, equals the one of a run in which no
    stretch counts as plain, so that every replay walks its whole prefix
    and restores the state of each saved decision it meets."""
    sources = [section_program(seed) for seed in range(40)]
    skips, fired = PathExplorer.skips, []

    def counted_skips(self):
        fired.append(skips(self))
        return fired[-1]

    monkeypatch.setattr(PathExplorer, "skips", counted_skips)
    reports, skipping = [], 0
    for source in sources:
        fired.clear()
        reports.append(_report(source))
        skipping += any(fired)
    save = PathExplorer.save
    monkeypatch.setattr(PathExplorer, "save",
                        lambda self, state, plain: save(self, state, False))
    for source, report in zip(sources, reports):
        assert _report(source) == report, source
    assert skipping >= len(sources) // 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_replay_recomputes_no_plain_prefix(monkeypatch, n):
    """On n independent stable tests after n inputs, each of the 2**n
    paths still meets all n decisions, but the inputs and the tests are
    computed only on their first visit: at most 2**(n+1) operations."""
    calls = {"choose": 0, "abs_op": 0}
    choose, abs_op = PathExplorer.choose, I.abs_op

    def counted_choose(self, k):
        calls["choose"] += 1
        return choose(self, k)

    def counted_abs_op(*args):
        calls["abs_op"] += 1
        return abs_op(*args)

    monkeypatch.setattr(PathExplorer, "choose", counted_choose)
    monkeypatch.setattr(I, "abs_op", counted_abs_op)
    analyze(stable_program(n), AnalysisConfig())
    assert calls["choose"] == n * 2 ** n
    assert calls["abs_op"] <= 2 ** (n + 1)
