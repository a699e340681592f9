"""Correctness gate: every program's output checked against references that
do not come from the analyzer, outside the timed region.

- corpus: a hand-written table of expected verdicts;
- corpus and branch_fanout: exact-rational ShadowRun executions on seeded
  sample inputs must lie inside every reported err and real hull;
- branch_fanout: the values and verdicts the generator derived by
  enumerating the program's executions;
- wide_instrument: every float test of the generated source sits inside a
  section, and the printed source parses again and validates.

A problem names what was wrong with a program's output. A problem that a
known defect of the analyzer explains is recorded as such, not hidden;
every other problem is unexpected.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .workloads import Program

#: the analyzer defect the gate is expected to catch at the baseline, and
#: the warning the analyzer prints when it hits it
PATH_BUDGET_WARNING = "path budget"
PATH_BUDGET_DEFECT = ("path-budget truncation merges only the explored paths"
                      " (ROADMAP open item 1)")


class Problem(NamedTuple):
    """One thing wrong with an output. `outside` marks a reachable or
    executed value that lies outside its reported hull; `var` is the
    variable concerned, if any."""
    text: str
    var: Optional[str] = None
    outside: bool = False

#: ShadowRun executions per program with inputs
SHADOW_SAMPLES = 24

#: floor for a zero-width error hull in the precision metric (the smallest
#: positive binary64 subnormal); widths are measured in bits above it
WIDTH_FLOOR_LOG2 = -1074


def _rat(x) -> Fraction:
    if isinstance(x, dict):
        return Fraction(int(x["num"]), int(x["den"]))
    return Fraction(x)


def _hull(pair) -> Optional[Tuple[Fraction, Fraction]]:
    return None if pair is None else (_rat(pair[0]), _rat(pair[1]))


def _join(a, b):
    if a is None or b is None:
        return a if b is None else b
    return (min(a[0], b[0]), max(a[1], b[1]))


def report_hulls(report: dict) -> Dict[str, Dict[str, tuple]]:
    """Per "location:builtin:variable" key: err, real and float hulls of the
    report's assertions and prints, prints joined over evaluations."""
    out: Dict[str, Dict[str, tuple]] = {}
    for rec in report["assertions"] + report["prints"]:
        key = f"{rec['location']}:{rec['builtin']}:{rec['variable']}"
        cur = out.setdefault(key, {})
        for field in ("err", "real", "float"):
            cur[field] = _join(cur.get(field), _hull(rec[field]))
    return out


def err_width_bits(reports: List[dict]) -> float:
    """Mean over reported assertion error hulls of log2 of the hull width,
    in bits above 2**-1074, which zero widths map to."""
    bits = []
    for rep in reports:
        for a in rep["assertions"]:
            h = _hull(a["err"])
            if h is None:
                continue
            w = h[1] - h[0]
            if w <= 0:
                bits.append(0.0)
            else:
                lg = math.log2(w.numerator) - math.log2(w.denominator)
                bits.append(max(lg, WIDTH_FLOOR_LOG2) - WIDTH_FLOOR_LOG2)
    return sum(bits) / len(bits) if bits else 0.0


def known_defect(prog: Program, report: dict, problem: Problem
                 ) -> Optional[str]:
    """The known defect that explains a problem, if any. A truncated
    exploration only leaves paths out of the merge, so it explains values
    of the variables its section accumulates lying outside their hulls,
    and nothing else."""
    truncated = any(PATH_BUDGET_WARNING in w
                    for w in report.get("warnings", []))
    if truncated and problem.outside and problem.var in prog.truncatable:
        return PATH_BUDGET_DEFECT
    return None


# ---------------------------------------------------------------------------
# analysis workloads
# ---------------------------------------------------------------------------

def _input_ranges(program, entry: str):
    """(variable, lo, hi) for every read_double call assigned to a variable,
    from the literal bounds written in the source."""
    from fldx.frontend import syntax as S

    def lit(e) -> Fraction:
        if isinstance(e, S.Unary) and e.op == "-":
            return -lit(e.expr)
        return Fraction(e.value)

    out = {}
    for s in S.walk_stmts(program.functions[entry].body):
        target = call = None
        if isinstance(s, S.Decl) and isinstance(s.init, S.Call):
            target, call = s.name, s.init
        elif isinstance(s, S.Assign) and isinstance(s.expr, S.Call) \
                and isinstance(s.target, S.Var):
            target, call = s.target.name, s.expr
        if call is not None and call.name == "read_double":
            # ShadowRun binds one value per variable name; every read of it
            # sees that value, which is one of the executions allowed
            out.setdefault(target, (lit(call.args[0]), lit(call.args[1])))
    return out


def _sample(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange((1 << 20) + 1), 1 << 20)


def shadow_check(prog: Program, report: dict, rng: random.Random
                 ) -> List[Problem]:
    from fldx.config import AnalysisConfig
    from fldx.executor.oracle import ShadowRun
    from fldx.numerics import FORMATS
    from fldx.pipeline import pick_entry, prepare

    config = AnalysisConfig(fmt=FORMATS[prog.fmt])
    program, _ = prepare(prog.source, config)
    entry = pick_entry(program, config)
    ranges = _input_ranges(program, entry)
    hulls = report_hulls(report)
    runs = SHADOW_SAMPLES if ranges else 1
    problems: List[Problem] = []
    for _ in range(runs):
        inputs = {v: _sample(rng, lo, hi) for v, (lo, hi) in ranges.items()}
        shadow = ShadowRun(program, config.fmt, inputs=inputs)
        shadow.run(entry)
        for rec in shadow.records:
            key = f"{rec.loc}:{rec.builtin}:{rec.variable}"
            h = hulls.get(key)
            if h is None:
                problems.append(Problem(f"{key} executed but not reported",
                                        rec.variable))
                continue
            for field, value in (("err", rec.err), ("real", rec.real_val)):
                iv = h.get(field)
                if iv is not None and not iv[0] <= value <= iv[1]:
                    problems.append(Problem(
                        f"{key}: shadow {field} {value} outside"
                        f" [{iv[0]}, {iv[1]}]", rec.variable, True))
        if problems:
            break
    return problems


def corpus_check(prog: Program, report: dict) -> List[Problem]:
    alarm = bool(report["alarms"]) or any(
        a["verdict"] != "valid" for a in report["assertions"])
    got = "alarm" if alarm else "clean"
    if got != prog.expect_verdict:
        return [Problem(f"verdict {got}, expected {prog.expect_verdict}")]
    return []


def fanout_check(prog: Program, report: dict) -> List[Problem]:
    problems: List[Problem] = []
    by_var = {a["variable"]: a for a in report["assertions"]}
    for var, want in prog.expect_assert.items():
        a = by_var.get(var)
        if a is None:
            problems.append(Problem(f"assertion on {var} not reported", var))
            continue
        if a["verdict"] != want:
            problems.append(Problem(
                f"{var}: verdict {a['verdict']}, expected {want}", var))
        reach = prog.reach[var]
        for field, vals in (("float", reach.float_vals),
                            ("real", reach.real_vals),
                            ("err", reach.err_vals)):
            iv = _hull(a[field])
            if iv is None:
                continue
            for v in (vals[0], vals[-1]):
                if not iv[0] <= v <= iv[1]:
                    problems.append(Problem(
                        f"{var}: reachable {field} {v} outside"
                        f" reported [{iv[0]}, {iv[1]}]", var, True))
    return problems


# ---------------------------------------------------------------------------
# wide_instrument
# ---------------------------------------------------------------------------

def instrument_check(prog: Program, printed: str) -> List[Problem]:
    from fldx.compiler.validator import validate
    from fldx.frontend import parse_program
    from fldx.frontend import syntax as S

    try:
        program = parse_program(printed)
    except Exception as exn:  # the printed source must parse
        return [Problem(f"printed source does not parse: {exn}")]
    problems = [Problem(f"printed source: {p}") for p in validate(program)]
    floats = set(prog.float_vars)

    def is_float_test(e) -> bool:
        return any(isinstance(x, S.Binary) and x.op in S.COMPARISONS
                   and any(isinstance(y, S.Var) and y.name in floats
                           for y in (x.left, x.right))
                   for x in S.walk_exprs(e))

    found = outside = 0

    def visit(stmts, depth: int) -> None:
        nonlocal found, outside
        for s in stmts:
            if isinstance(s, S.SectionStmt):
                visit(s.body, depth + 1)
                continue
            if isinstance(s, (S.If, S.While, S.DoWhile)) \
                    and is_float_test(s.cond):
                found += 1
                if depth == 0:
                    outside += 1
            if isinstance(s, S.Block):
                visit(s.stmts, depth)
            elif isinstance(s, S.If):
                visit(s.then.stmts, depth)
                if s.els is not None:
                    visit(s.els.stmts, depth)
            elif isinstance(s, (S.While, S.DoWhile)):
                visit(s.body.stmts, depth)

    for fn in program.functions.values():
        visit(fn.body.stmts, 0)
    if found != prog.float_tests:
        problems.append(Problem(f"{found} float tests printed,"
                                f" {prog.float_tests} generated"))
    if outside:
        problems.append(Problem(f"{outside} float tests outside any section"))
    return problems


# ---------------------------------------------------------------------------

def gate(workload: str, programs: List[Program], outputs: List[str],
         seed: int) -> Dict[str, List[Tuple[str, Optional[str]]]]:
    """Check each program's output; returns, per failing program, each of
    its problems with the known defect that explains it, or None."""
    rng = random.Random(f"gate/{workload}/{seed}")
    failures: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for prog, out in zip(programs, outputs):
        report: dict = {}
        try:
            if prog.kind == "instrument":
                problems = instrument_check(prog, out)
            else:
                report = json.loads(out)
                problems = []
                if prog.expect_verdict is not None:
                    problems += corpus_check(prog, report)
                if prog.expect_assert:
                    problems += fanout_check(prog, report)
                problems += shadow_check(prog, report, rng)
        except Exception as exn:  # a check that cannot run rejects
            problems = [Problem(f"check raised {type(exn).__name__}: {exn}")]
        if problems:
            failures[prog.name] = [(p.text, known_defect(prog, report, p))
                                   for p in problems]
    return failures
