"""The annotation checker: its comparisons against the per-operator
reference they replaced, the table of built-ins, the exit codes of
annotations that divide by zero, index a scalar or widen to a reversed
interval, and a seeded fuzz of random predicates that must each end in a
report or an `FldxError`."""
import random
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fldx.annot.typecheck import type_pred
from fldx.cli import main
from fldx.config import AnalysisConfig
from fldx.errors import FldxError, SyntaxErrorAt, TypeErrorAt
from fldx.executor.oracle import ShadowRun
from fldx.frontend import parse_pred
from fldx.frontend import syntax as S
from fldx.numerics import RInterval, compare
from fldx.pipeline import analyze, prepare

# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def ref_cmp(op, a, b):
    """The per-operator comparison the checker had before it read the
    region table, kept as the reference."""
    if op == "<":
        if a.hi < b.lo:
            return True
        if a.lo >= b.hi:
            return False
        return None
    if op == "<=":
        if a.hi <= b.lo:
            return True
        if a.lo > b.hi:
            return False
        return None
    if op == ">":
        return ref_cmp("<", b, a)
    if op == ">=":
        return ref_cmp("<=", b, a)
    if op == "==":
        if a.is_point() and b.is_point() and a.lo == b.lo:
            return True
        if a.hi < b.lo or b.hi < a.lo:
            return False
        return None
    known = ref_cmp("==", a, b)
    return None if known is None else not known


def ref_window(lo, q, hi):
    """The hand-written `lo <= q <= hi` of the assertion built-ins."""
    if lo.hi <= q.lo and q.hi <= hi.lo:
        return True
    if q.hi < lo.lo or hi.hi < q.lo:
        return False
    return None


#: endpoints drawn from a small pool, so points and touching ends are
#: common; thirds and sevenths are not dyadic
ENDS = st.sampled_from([F(-2), F(-1), F(-1, 3), F(0), F(1, 7), F(1, 2), F(1),
                        F(5, 3)]) | st.fractions(min_value=-3, max_value=3,
                                                 max_denominator=12)


@st.composite
def intervals(draw):
    a, b = draw(ENDS), draw(ENDS)
    if draw(st.booleans()):
        b = a
    return RInterval(min(a, b), max(a, b))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(S.COMPARISONS)), intervals(), intervals())
def test_compare_matches_the_per_operator_reference(op, a, b):
    assert compare(op, a, b) == ref_cmp(op, a, b)


@settings(max_examples=600, deadline=None)
@given(intervals(), intervals(), intervals())
def test_window_is_the_and_of_two_comparisons(lo, q, hi):
    left, right = compare("<=", lo, q), compare("<=", q, hi)
    both = False if False in (left, right) \
        else None if None in (left, right) else True
    assert both == ref_window(lo, q, hi)


# ---------------------------------------------------------------------------
# The table of built-ins
# ---------------------------------------------------------------------------

VAR_TYPES = {"f": ("float", False), "d": ("double", False),
             "a": ("double", True), "i": ("int", False)}


@pytest.mark.parametrize("name", sorted(S.BUILTINS))
def test_every_builtin_parses_with_its_arity_and_types_its_variable(name):
    """A call with the declared number of arguments, in a place where the
    built-in's action may stand, parses and type-checks when its variable
    has the declared type; one argument more or less is a syntax error,
    and a variable of the wrong type a type error."""
    spec = S.BUILTINS[name]

    def typed(var, arity=spec.arity):
        call = f"{name}({', '.join(([var] + ['1.0'] * arity)[:arity])})"
        text = {"term": f"{call} <= 1.0",
                "get": f"\\let (lo, hi) = {call}; lo <= hi"
                }.get(spec.action, call)
        return type_pred(parse_pred(text), VAR_TYPES)

    var = "a" if spec.ctype is None else spec.ctype[0]
    typed(var)
    for arity in (spec.arity - 1, spec.arity + 1):
        with pytest.raises(SyntaxErrorAt,
                           match=f"{name} expects {spec.arity} arguments"):
            typed(var, arity)
    if spec.ctype is None:
        return
    with pytest.raises(TypeErrorAt, match="expects a floating-point"):
        typed("i")
    if spec.ctype == "float":
        with pytest.raises(TypeErrorAt, match="expects a float variable"):
            typed("d")
    else:
        typed("f")  # a float converts to a double


# ---------------------------------------------------------------------------
# Exit codes of annotation probes
# ---------------------------------------------------------------------------

PROBE = ("int main() {\n  double x = read_double(0.0, 1.0);\n  int i = 3;\n"
         "  int j = 0;\n  double a[2] = {1.0, 2.0};\n"
         "  /*@ assert %s; */\n  return 0;\n}\n")


@pytest.mark.parametrize("pred,code,message", [
    ("x[0] <= 1.0", 6, "error: execute: 6:3: x is not an array"),
    ("i / 0 <= 1", 1,
     "[alarm] division-by-zero: 6:3: integer division by zero"),
    ("i / j <= 1", 1,
     "[alarm] division-by-zero: 6:3: integer division by zero"),
    ("accuracy_enlarge_dval_err(x, 2.0, 1.0, 0.0, 0.0)", 6,
     "error: execute: 6:3: accuracy_enlarge_dval_err: invalid interval"
     " [2, 1]"),
    ("accuracy_enlarge_dval_err(x, 0.0, 1.0, 1e-3, -1e-3)", 6,
     "error: execute: 6:3: accuracy_enlarge_dval_err: invalid interval"
     " [1/1000, -1/1000]"),
    ("x / 0.0 <= 1.0", 1, "[alarm] division-by-zero: 6:3: interval division"
     " by zero-containing interval"),
    ("max_distance(j, 2) <= 1.0", 6, "error: execute: 6:3: j is not an array"),
    ("max_distance(a, 3) <= 1.0", 1,
     "[alarm] out-of-bounds: 6:3: index of a in [0, 2] outside [0, 1]"),
    ("a[i] <= 1.0", 1,
     "[alarm] out-of-bounds: 6:3: index of a in [3, 3] outside [0, 1]"),
    ("\\let (lo, hi) = accuracy_get_drelerr(x); lo <= hi", 1,
     "[alarm] relerr-undefined: 6:3: relative error of x undefined"),
    ("accuracy_enlarge_dval_err(x, 0.0, 1.0, 0.0, 1e400)", 1,
     "[alarm] overflow: 6:3: 1e+400 rounds beyond the largest finite"
     " value"),
    ("a <= 2.5", 6, "error: execute: 6:3: expected a number, got an array"),
], ids=["scalar-indexed", "int-division-by-zero",
        "int-division-by-a-zero-variable", "enlarge-value-reversed",
        "enlarge-error-reversed", "rational-division-by-zero",
        "max-distance-of-a-scalar", "max-distance-past-the-end",
        "index-past-the-end", "relative-error-of-a-real-that-may-be-0",
        "enlarge-past-the-range", "array-name-as-a-number"])
def test_cli_annotation_probe_ends_in_its_exit_code(tmp_path, pred, code,
                                                    message):
    src = tmp_path / "p.c"
    src.write_text(PROBE % pred)
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == code, res.output
    assert message in res.output
    assert "Traceback" not in res.output


def test_cli_literal_past_the_format_in_a_float_comparison_alarms_there(
        tmp_path):
    """2**128 is a double but past binary32's range: a comparison decided
    on the float domains rounds it to the format, and the overflow alarm
    names the annotation, as it names a literal in code."""
    src = tmp_path / "p.c"
    src.write_text("int main() {\n  double x = read_double(0.0, 1.0);\n"
                   "  /*@ assert x <= 3402823669209384634633746074317682"
                   "11456.0; */\n  return 0;\n}\n")
    res = CliRunner().invoke(main, ["analyze", "--format", "binary32",
                                    str(src)])
    assert res.exit_code == 1, res.output
    assert ("[alarm] overflow: 3:3: 3.40282e+38 rounds beyond the largest"
            " finite value") in res.output


# ---------------------------------------------------------------------------
# Integer terms against the oracle
# ---------------------------------------------------------------------------

INT_TERMS = ("int main() {\n  int i = %d;\n  int j = %d;\n  int k = %d;\n"
             "  /*@ assert %s == %d; */\n  return 0;\n}\n")


def test_cli_abs_of_an_unbounded_int_term_divides_as_an_int(tmp_path):
    """i / abs(j) has no bounds the typing knows, but abs of it is still an
    int, so the division around it truncates, as in C: 7 / 2 is 3."""
    src = tmp_path / "p.c"
    src.write_text(INT_TERMS % (7, 1, 0, "abs(i / abs(j)) / 2", 3))
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 0, res.output


def c_div(a, b):
    """a / b as C truncates it, b != 0."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def int_node(parts):
    """(text, value) of an operator or a call over drawn operands; a
    divisor that is 0 becomes one plus itself."""
    op, (ta, a), (tb, b) = parts
    if op == "abs":
        return f"abs({ta})", abs(a)
    if op in ("min", "max"):
        return f"{op}({ta}, {tb})", (min if op == "min" else max)(a, b)
    if op == "/" and b == 0:
        tb, b = f"({tb} + 1)", 1
    value = {"+": a + b, "-": a - b, "*": a * b}.get(op)
    return f"({ta} {op} {tb})", c_div(a, b) if value is None else value


@st.composite
def int_terms(draw):
    """The values of i, j and k, and (text, value) of an int term over
    them and small literals, nested, with every divisor nonzero."""
    env = {n: draw(st.integers(-20, 20)) for n in "ijk"}
    leaves = st.one_of(st.sampled_from(sorted(env.items())),
                       st.integers(0, 9).map(lambda c: (str(c), c)))
    term = draw(st.recursive(leaves, lambda kids: st.tuples(
        st.sampled_from(["+", "-", "*", "/", "abs", "min", "max"]),
        kids, kids).map(int_node), max_leaves=6))
    return env, term


class TruthRun(ShadowRun):
    """The oracle, keeping the truth of each assertion it runs."""

    def _assert(self, s):
        self.truths.append(self._pred(s.pred, {}, s.loc))


@settings(max_examples=200, deadline=None)
@given(int_terms(), st.integers(-1, 1))
@example(({"i": 7, "j": 1, "k": 0}, ("abs(i / abs(j)) / 2", 3)), 0)
def test_int_term_verdicts_match_the_oracle(drawn, offset):
    """The analyzer proves `term == v` exactly when the concrete run finds
    it true, and refutes it exactly when the run finds it false."""
    env, (term, value) = drawn
    source = INT_TERMS % (env["i"], env["j"], env["k"], term, value + offset)
    config = AnalysisConfig()
    alarms = tuple(a["message"] for a in analyze(source, config).alarms)
    verdict = {(): True, ("5:3: assertion violated",): False}.get(alarms)
    oracle = TruthRun(prepare(source, config)[0], config.fmt)
    oracle.truths = []
    oracle.run("main")
    assert oracle.truths == [verdict], (term, alarms)


# ---------------------------------------------------------------------------
# Fuzz
# ---------------------------------------------------------------------------

FUZZ_PROGRAM = """int main() {
  int i = 3;
  int j = 0;
  int k[2] = {1, 2};
  float f = 0.5;
  double x = read_double(0.5, 2.0);
  double y = read_double(-1.0, 1.0);
  double a[3] = {1.0, 2.5, 4.0};
  /*@ assert %s; */
  return 0;
}
"""

NUMBERS = ["0", "1", "2", "3", "-1", "0.0", "0.5", "1.5", "0.1", "1e-3",
           "-2.5"]
NAMES = ["i", "j", "k", "f", "x", "y", "a"]
VARIABLES = ["x", "y", "f", "i", "a", "a[0]", "a[i]", "k[1]", "x[0]"]


class PredGen:
    """Random predicate sources over the names of FUZZ_PROGRAM."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.fresh = 0

    def term(self, depth: int, bound) -> str:
        r = self.rng
        roll = r.random() if depth > 0 else r.random() * 0.5
        if roll < 0.2:
            return r.choice(NUMBERS)
        if roll < 0.45:
            return r.choice(NAMES + bound)
        if roll < 0.5:
            index = self.term(depth - 1, bound)
            return f"{r.choice(['a', 'k', 'x'])}[{index}]"
        if roll < 0.75:
            return (f"({self.term(depth - 1, bound)}"
                    f" {r.choice('+-*/')} {self.term(depth - 1, bound)})")
        name = r.choice(["min", "max", "abs", "max_distance"])
        if name == "abs":
            return f"abs({self.term(depth - 1, bound)})"
        if name == "max_distance":
            return (f"max_distance({r.choice(['a', 'k', 'j', 'x'])},"
                    f" {r.choice(['1', '2', '3', '4', 'i', 'j'])})")
        return (f"{name}({self.term(depth - 1, bound)},"
                f" {self.term(depth - 1, bound)})")

    def pred(self, depth: int, bound) -> str:
        r = self.rng
        roll = r.random() if depth > 0 else r.random() * 0.45
        if roll < 0.3:
            return (f"{self.term(2, bound)} {r.choice(sorted(S.COMPARISONS))}"
                    f" {self.term(2, bound)}")
        if roll < 0.45:
            return self.builtin(r.choice([n for n, b in S.BUILTINS.items()
                                          if b.action not in ("get", "term")]),
                                bound)
        if roll < 0.55:
            return f"!({self.pred(depth - 1, bound)})"
        if roll < 0.75:
            return (f"({self.pred(depth - 1, bound)}"
                    f" {r.choice(['&&', '||', '==>'])}"
                    f" {self.pred(depth - 1, bound)})")
        self.fresh += 1
        if roll < 0.87:
            n = f"b{self.fresh}"
            return (f"\\let {n} = {self.term(2, bound)};"
                    f" {self.pred(depth - 1, bound + [n])}")
        lo, hi = f"lo{self.fresh}", f"hi{self.fresh}"
        get = r.choice([n for n, b in S.BUILTINS.items()
                        if b.action == "get"])
        return (f"\\let ({lo}, {hi}) = {get}({r.choice(VARIABLES)});"
                f" {self.pred(depth - 1, bound + [lo, hi])}")

    def builtin(self, name: str, bound) -> str:
        args = [self.rng.choice(VARIABLES)]
        args += [self.term(1, bound)
                 for _ in range(S.BUILTINS[name].arity - 1)]
        return f"{name}({', '.join(args)})"


def test_random_annotations_end_in_a_report_or_an_fldx_error():
    """1000 random predicates, mixing int, float and array names,
    the term built-ins, both kinds of `\\let` and every predicate
    built-in: each analysis ends in a report or an `FldxError`."""
    gen = PredGen(random.Random(20261019))
    config = AnalysisConfig()
    outcomes = {"report": 0, "error": 0}
    for _ in range(1000):
        pred = gen.pred(3, [])
        try:
            analyze(FUZZ_PROGRAM % pred, config).to_json()
            outcomes["report"] += 1
        except FldxError:
            outcomes["error"] += 1
        except Exception as exn:  # any other exception is the failure
            pytest.fail(f"{pred}: {type(exn).__name__}: {exn}")
    # both outcomes are common, so the predicates reach evaluation
    assert min(outcomes.values()) > 100, outcomes
