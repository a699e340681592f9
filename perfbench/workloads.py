"""Workload inputs: the bundled corpus and two seeded program generators.

Nothing here imports fldx. A generator is a pure function of its seed, so
one seed always yields byte-identical sources, and each generated program
carries the facts the correctness gate checks it against: the values its
variables can reach and the verdicts its assertions must get. Those facts
come from the generator's own enumeration of the program's executions,
never from the analyzer.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "fldx" / "corpus"

#: corpus programs that are meant to be analyzed in another format
CORPUS_FORMATS = {"patriot.c": "binary32"}

#: expected verdict of every corpus program under its default inputs,
#: written by hand from the program comments: the two discontinuous
#: conditionals alarm, everything else is clean
CORPUS_VERDICTS = {
    "absorption.c": "clean",
    "associativity.c": "clean",
    "comp_abs.c": "clean",
    "comp_cont.c": "clean",
    "comp_disc.c": "alarm",
    "comp_disc_nested.c": "alarm",
    "division.c": "clean",
    "filter.c": "clean",
    "inter_loop.c": "clean",
    "motiv_example.c": "clean",
    "newton_sqrt.c": "clean",
    "patriot.c": "clean",
    "polynome.c": "clean",
    "relative.c": "clean",
    "scanf.c": "clean",
}

#: stable-test counts of the branch_fanout programs, one program each: n
#: stable float tests are met on every path of the outer section, so it has
#: 2**n paths and n*2**n replayed decisions. n = 9 is past the analyzer's
#: default path budget of 256 paths.
FANOUT_SIZES = (4, 5, 6, 7, 8, 9)

#: approximate sizes in KB of the wide_instrument sources, one program each
WIDE_SIZES_KB = (10, 14, 20, 28, 40, 56, 70)


@dataclass(frozen=True)
class Reach:
    """Values a variable reaches at the end of the program, over all
    executions: machine float, ideal real and their difference."""
    float_vals: Tuple[Fraction, ...]
    real_vals: Tuple[Fraction, ...]
    err_vals: Tuple[Fraction, ...]


@dataclass
class Program:
    """One input of a workload and the facts known about it."""
    name: str
    source: str
    kind: str  # "analyze" | "instrument"
    fmt: str = "binary64"
    #: corpus: "clean" or "alarm"
    expect_verdict: Optional[str] = None
    #: branch_fanout: verdict per asserted variable, reachable values per
    #: printed variable, and the stable-test count n
    expect_assert: Dict[str, str] = field(default_factory=dict)
    reach: Dict[str, Reach] = field(default_factory=dict)
    n_tests: int = 0
    #: wide_instrument: names of the float variables and the number of
    #: float tests the source contains
    float_vars: Tuple[str, ...] = ()
    float_tests: int = 0
    #: variables whose values a path-budget truncation of the program's
    #: section can leave out of the reported hulls
    truncatable: Tuple[str, ...] = ()


def corpus() -> List[Program]:
    out = []
    for path in sorted(CORPUS_DIR.glob("*.c")):
        out.append(Program(path.name, path.read_text(), "analyze",
                           CORPUS_FORMATS.get(path.name, "binary64"),
                           expect_verdict=CORPUS_VERDICTS[path.name]))
    if sorted(p.name for p in out) != sorted(CORPUS_VERDICTS):
        raise RuntimeError("corpus programs and the verdict table differ")
    return out


def _lit(x: Fraction) -> str:
    """Exact decimal literal of a rational whose denominator divides a
    power of ten."""
    digits = 0
    while (x * 10 ** digits).denominator != 1:
        digits += 1
        if digits > 40:
            raise ValueError(f"{x} has no short exact decimal")
    scaled = abs(x.numerator * 10 ** digits // x.denominator)
    text = str(scaled).rjust(digits + 1, "0")
    body = f"{text[:len(text) - digits]}.{text[len(text) - digits:] or '0'}"
    return ("-" if x < 0 else "") + body


# ---------------------------------------------------------------------------
# branch_fanout
# ---------------------------------------------------------------------------

def _fanout_program(n: int, rng: random.Random, name: str) -> Program:
    """n stable float tests in one user section, some nested, then one
    unstable test in a section of its own.

    Every stable test reads a fresh exact input x in [0, 1] and compares it
    with a representable threshold, so both outcomes are feasible and the
    section has 2**n paths, each meeting n decisions. The arms add distinct
    exact dyadic constants to s, so machine and ideal sums agree, and an
    exploration that never takes some arm misses the extreme values of s.

    The unstable test compares u, whose ideal value lies within a rounding
    of the threshold c on both sides, with c: the machine value is always
    c, so the machine takes the else arm while the ideal run takes either.
    That adds a jump of b_u - a_u, or nothing, to the error of s. It runs
    once after the stable section rather than on each of its paths, which
    would multiply the cost without loading another layer.
    """
    quarter = Fraction(1, 4)

    def step() -> Fraction:
        return quarter * rng.randint(1, 12)

    def distinct_pair() -> Tuple[Fraction, Fraction]:
        a, b = step(), step()
        while b == a:
            b = step()
        return a, b

    # per test: what the then arm and the else arm add to s; a nested test
    # i + 1 is written in both arms of test i, so it is still met once on
    # every path
    arms = [distinct_pair() for _ in range(n)]
    nested = {i for i in range(0, n - 1, 2) if rng.random() < 0.5}
    c_u = Fraction(rng.randint(9, 15), 16)
    a_u, b_u = distinct_pair()
    # well inside half an ulp of c (2**-54 for c in [1/2, 1))
    tiny = Fraction(1, 10 ** 17)
    eps = quarter / 8

    lines: List[str] = []
    emit = lines.append

    def test(i: int, ind: str) -> None:
        emit(f"{ind}x = read_double(0.0, 1.0, 0.0, 0.0);")
        emit(f"{ind}if (x < {_lit(Fraction(rng.randint(3, 13), 16))}) {{")
        emit(f"{ind}  s = s + {_lit(arms[i][0])};")
        if i in nested:
            test(i + 1, ind + "  ")
        emit(f"{ind}}} else {{")
        emit(f"{ind}  s = s + {_lit(arms[i][1])};")
        if i in nested:
            test(i + 1, ind + "  ")
        emit(f"{ind}}}")

    emit("int main() {")
    emit("  double x = 0.0;")
    emit("  double s = 0.0;")
    emit("  /*@ split(1, s, x); */")
    for i in range(n):
        if i - 1 not in nested:
            test(i, "  ")
    emit("  /*@ merge(1, s, x); */")
    emit(f"  double u = read_double({_lit(c_u - tiny)}, {_lit(c_u + tiny)});")
    emit("  /*@ split(2, s); */")
    emit(f"  if (u < {_lit(c_u)}) {{")
    emit(f"    s = s + {_lit(a_u)};")
    emit("  } else {")
    emit(f"    s = s + {_lit(b_u)};")
    emit("  }")
    emit("  /*@ merge(2, s); */")
    emit(f"  /*@ accuracy_assert_derr(s, {_lit(-eps)}, {_lit(eps)}); */")
    emit(f"  /*@ accuracy_assert_derr(x, {_lit(-eps)}, {_lit(eps)}); */")
    emit("  /*@ dprint(s); */")
    emit("  /*@ dprint(x); */")
    emit("  return 0;")
    emit("}")

    # every combination of arms is reachable, since each test reads a fresh
    # input
    sums = {Fraction(0)}
    for a, b in arms:
        sums = {v + a for v in sums} | {v + b for v in sums}
    s_float = tuple(sorted(v + b_u for v in sums))
    s_real = tuple(sorted({v + a_u for v in sums} | set(s_float)))
    zero = (Fraction(0),)
    reach = {
        "s": Reach(s_float, s_real, tuple(sorted({Fraction(0), b_u - a_u}))),
        "x": Reach((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)),
                   zero),
    }
    # the error of s is 0 or the jump, and |jump| >= 1/4 > eps, so its
    # assertion holds on some executions and fails on others; x is exact
    expect = {"s": "indeterminate", "x": "valid"}
    return Program(name, "\n".join(lines) + "\n", "analyze",
                   expect_assert=expect, reach=reach, n_tests=n,
                   truncatable=("s",))


def branch_fanout(seed: int) -> List[Program]:
    rng = random.Random(f"branch_fanout/{seed}")
    return [_fanout_program(n, rng, f"fanout_n{n}") for n in FANOUT_SIZES]


# ---------------------------------------------------------------------------
# wide_instrument
# ---------------------------------------------------------------------------

_FLOAT_VARS = ("d0", "d1", "d2", "d3", "d4", "d5")
#: statement-group kinds per window: 0 loop with a float test, 1 int test,
#: 2 float test, 3 arithmetic, 4 int-bounded do-while
_BLOCK_MIX = (0, 1, 1, 3, 3, 3, 3, 4, 1, 3, 2, 1, 1, 3, 3, 3, 3, 4, 1, 3)
#: average bytes of one statement group
_BLOCK_BYTES = 50


def _wide_function(name: str, n_blocks: int, rng: random.Random,
                   counts: List[int]) -> List[str]:
    """One function of n_blocks statement groups mixing int-bounded loops,
    int tests, float tests and straight-line float arithmetic. Float tests
    write only float variables, so placement never has to let an integer
    escape a section; every loop is bounded by an int counter."""
    out = [f"double {name}(double a, double b, int m) {{",
           "  int i = 0;", "  int k = 0;"]
    for j, v in enumerate(_FLOAT_VARS):
        out.append(f"  double {v} = {_lit(Fraction(j + 1, 4))};")

    def fv() -> str:
        return rng.choice(_FLOAT_VARS)

    def const() -> str:
        return _lit(Fraction(rng.randint(1, 63), 16))

    def arith(ind: str) -> str:
        op = rng.choice("+-*")
        return f"{ind}{fv()} = {fv()} {op} {rng.choice(('a', 'b', const()))};"

    def float_test(ind: str) -> List[str]:
        counts[0] += 1
        op = rng.choice(("<", "<=", ">", ">="))
        cond = f"{fv()} {op} {rng.choice(('a', 'b', const()))}"
        if rng.random() < 0.3:
            cond = f"k < {rng.randint(1, 9)} && {cond}"
        return [f"{ind}if ({cond}) {{", arith(ind + "  "),
                f"{ind}}} else {{", arith(ind + "  "), f"{ind}}}"]

    # kinds come in windows of a fixed mix, shuffled by the seed, so the
    # amount of each kind of work does not depend on the seed
    kinds: List[int] = []
    while len(kinds) < n_blocks:
        window = list(_BLOCK_MIX)
        rng.shuffle(window)
        kinds += window
    for kind in kinds[:n_blocks]:
        if kind == 0:
            out += ["  i = 0;", "  while (i < m) {", arith("    ")]
            out += float_test("    ")
            out += [arith("    "), "    i = i + 1;", "  }"]
        elif kind == 1:
            out += [f"  if (k < {rng.randint(1, 9)}) {{", "    k = k + 1;",
                    "  } else {", "    k = k - 2;", "  }"]
        elif kind == 2:
            out += float_test("  ")
        elif kind == 3:
            out += [arith("  "), arith("  ")]
        else:
            out += ["  i = 0;", "  do {", arith("    "), "    i = i + 1;",
                    f"  }} while (i < {rng.randint(2, 5)});"]
    out += [f"  return {fv()} + {fv()};", "}"]
    return out


def _wide_program(size_kb: int, rng: random.Random, name: str) -> Program:
    """A source of about size_kb KB: many small functions, a main calling a
    few of them, and one large function whose share of the source grows
    with its size (half of it at 70 KB). The validator's cost is quadratic
    in function size, so it shows on the large sources."""
    counts = [0]
    lines: List[str] = []
    total = size_kb * 1024
    big_bytes = total * min(size_kb, 70) // 140
    small_blocks = 40
    n_small = max(1, (total - big_bytes) // (small_blocks * _BLOCK_BYTES))
    lines += _wide_function("f_big", max(1, big_bytes // _BLOCK_BYTES), rng,
                            counts)
    for j in range(n_small):
        lines += _wide_function(f"f_{j}", small_blocks, rng, counts)
    lines += ["int main() {",
              "  double r = f_big(0.5, 1.5, 3);"]
    for j in range(min(n_small, 4)):
        lines.append(f"  r = r + f_{j}(0.25, 2.0, {j + 2});")
    lines += ["  /*@ dprint(r); */", "  return 0;", "}"]
    return Program(name, "\n".join(lines) + "\n", "instrument",
                   float_vars=_FLOAT_VARS + ("a", "b"),
                   float_tests=counts[0])


def wide_instrument(seed: int) -> List[Program]:
    rng = random.Random(f"wide_instrument/{seed}")
    return [_wide_program(kb, rng, f"wide_{kb}kb") for kb in WIDE_SIZES_KB]


WORKLOADS = {
    "corpus": lambda seed: corpus(),
    "branch_fanout": branch_fanout,
    "wide_instrument": wide_instrument,
}

