"""Replays that skip a plain prefix: a seeded generator of section
programs whose reports must not change when no stretch counts as plain,
and the work a replay still does on n independent stable tests: each
node of the decision tree is computed once, and every alternative of a
decision starts from the one snapshot that decision saved."""
import random

import pytest

from fldx.config import AnalysisConfig
from fldx.domain import AbstractFloat
from fldx.executor import interp as I
from fldx.executor.explorer import PathExplorer
from fldx.frontend import syntax as S
from fldx.pipeline import analyze
from tests.test_executor import stable_program
from tests.test_reports import TERNARY_OPERAND

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
                        lambda self, snapshot, plain: save(self, snapshot,
                                                           False))
    for source, report in zip(sources, reports):
        assert _report(source) == report, source
    assert skipping >= len(sources) // 2


def _counting(monkeypatch, owner, name, calls, static=False):
    """Count in calls[name] the calls of owner.name."""
    real = getattr(owner, name)
    calls[name] = 0

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, staticmethod(counted) if static
                        else counted)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_replay_recomputes_no_plain_prefix(monkeypatch, n):
    """On n independent stable tests after n inputs, each of the 2**n
    paths still meets all n decisions, but each `acc = acc + 1.0` runs
    once per node of the decision tree that takes its then branch: every
    alternative of a decision starts from that decision's snapshot, and
    no replay runs the stretch before it again."""
    calls = {}
    _counting(monkeypatch, PathExplorer, "choose", calls)
    _counting(monkeypatch, I, "abs_op", calls)
    analyze(stable_program(n), AnalysisConfig())
    assert calls == {"choose": n * 2 ** n, "abs_op": 2 ** n - 1}


def read_then_test_program(n: int) -> str:
    """A section of n blocks, each reading x afresh and testing it."""
    block = ("  x = read_double(0.0, 1.0, 0.0, 0.0);"
             " if (x < 0.5) { acc = acc + 1.0; }\n")
    return ("int main() {\n  double x = 0.0;\n  double acc = 0.0;\n"
            "  /*@ split(1, x, acc); */\n" + block * n +
            "  /*@ merge(1, x, acc); */\n  /*@ dprint(acc); */\n"
            "  return 0;\n}\n")


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_replay_reads_no_input_again(monkeypatch, n):
    """The read of block k runs once per node of depth k of the decision
    tree, 2**n - 1 reads in all: the alternatives of a decision start
    from the snapshot it saved after the read, where re-running the
    stretch before it read 2**(n+1) - 2 times."""
    calls = {}
    _counting(monkeypatch, PathExplorer, "choose", calls)
    _counting(monkeypatch, AbstractFloat, "from_input", calls, static=True)
    rep = analyze(read_then_test_program(n), AnalysisConfig())
    assert [s["feasible_paths"] for s in rep.sections if s["id"] == 1] \
        == [2 ** n]
    assert calls == {"choose": n * 2 ** n, "from_input": 2 ** n - 1}


def test_the_float_and_the_real_run_of_a_decision_share_its_inputs(
        monkeypatch):
    """The test on z in TERNARY_OPERAND is unstable. Its float and its
    real run start from the one snapshot that decision saved, so the
    input symbol of z, which both flows narrow, is the same symbol in the
    end envs of the pair; were the stretch before the test run again,
    each run would hold a symbol of its own read of z."""
    z_inputs, pairs = set(), []
    flow, merge = I.Interp._flow, I.Interp._merge_unstable

    def spy_flow(self, loc, site, noun, candidates, lhs, rhs, l, r,
                 branch=False):
        if isinstance(lhs, S.Var) and lhs.name == "z":
            z_inputs.update(l.real.ns)
        return flow(self, loc, site, noun, candidates, lhs, rhs, l, r,
                    branch)

    def spy_merge(self, finished):
        for sig, group in finished.items():
            tags = [tag[0] for _, tag in sig]
            if len(group) == 2 and tags[-1] == "u" \
                    and set(tags[:-1]) == {"s"}:
                pairs.append((group["float"][1], group["real"][1]))
        return merge(self, finished)

    monkeypatch.setattr(I.Interp, "_flow", spy_flow)
    monkeypatch.setattr(I.Interp, "_merge_unstable", spy_merge)
    analyze(TERNARY_OPERAND, AnalysisConfig())
    assert len(pairs) == 4
    for env_f, env_r in pairs:
        shared = env_f.keys() & z_inputs
        assert len(shared) == 1 and shared == env_r.keys() & z_inputs
