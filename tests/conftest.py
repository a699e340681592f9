import random
from fractions import Fraction
from pathlib import Path

import pytest

from fldx.frontend import syntax as S
from fldx.numerics import rat, round_directed, round_nearest

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fldx" / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def corpus_source(name: str) -> str:
    return corpus_path(name).read_text()


def all_corpus_names():
    return sorted(p.name for p in CORPUS.glob("*.c"))


def stmt_exprs(s):
    """Expressions evaluated directly by this statement (not
    sub-statements)."""
    if isinstance(s, S.Decl):
        return ([s.init] if s.init is not None else []) \
            + (s.array_init or [])
    if isinstance(s, S.Assign):
        return [s.expr] + ([s.target.index]
                           if isinstance(s.target, S.Index) else [])
    if isinstance(s, (S.If, S.While, S.DoWhile, S.AssumeStmt)):
        return [s.cond]
    if isinstance(s, (S.Return, S.ExprStmt)):
        return [s.expr] if s.expr is not None else []
    return []


@pytest.fixture
def rng():
    return random.Random(20260823)


def rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction,
                  denom: int = 10**9) -> Fraction:
    """A random rational in [lo, hi] with a moderate denominator."""
    span = hi - lo
    return lo + span * Fraction(rng.randint(0, denom), denom)


def rounded(x, fmt, up=None) -> Fraction:
    """x rounded into fmt, to nearest or, when up is given, up or down."""
    x = rat(x)
    n, d = x.numerator, x.denominator
    if up is None:
        return Fraction(*round_nearest(n, d, fmt))
    return Fraction(*round_directed(n, d, fmt, up))


#: hand-written functions for the CFG and dependency kernels, parsed as
#: they are: do-whiles of every shape (empty, nested, closing a while
#: body), empty arms, tests and int conversions nested in expressions,
#: returns in mid-function with dead code after them, and sections a user
#: wrote, one left by a return, one ending in the return
KERNEL_SOURCES = [
    """
    int main() {
      double x = read_double(0.0, 1.0);
      int i = 0;
      int k = 0;
      do { } while (k > 5);
      do { x = x * 0.5; i = i + 1; } while (i < 3);
      while (k < 4) {
        k = k + 1;
        do { x = x + 1.0; do { i = i - 1; } while (i > 0); } while (x < 2.0);
      }
      do { if (x > 1.0) { x = x - 1.0; } } while (x > 1.5);
      while (k > 9) { }
      if (x > 3.0) { }
      if (k > 3) { } else { }
      return k;
    }
    """,
    """
    int g(int n, double t[2]) { return n + 1; }
    double h(double a) { return a * 0.5; }
    int main() {
      double x = read_double(0.0, 1.0);
      double t[2] = {0.5, x};
      int k = (int) (x * 4.0);
      double y = (x < 0.5) * 2.0 + (k > 1 ? x : -x);
      int m = g(x * 2.0, t) + g(k, t);
      double z = !x ? (double) (int) y : x < 0.25 ? 1.0 : t[x > 0.5];
      k = x;
      t[k] = h(y) - -(x);
      h(z > y);
      return y > z;
    }
    """,
    """
    double f(double a, int n) {
      int i = 0;
      while (i < n) {
        if (a > 1.0) { return a; }
        a = a * 2.0;
        i = i + 1;
      }
      if (a < 0.5) { return 0.0; } else { return 1.0; }
      a = a + 1.0;
      while (i > 0) { i = i - 1; }
      return a;
    }
    int main() { double y = f(0.25, 3); return 0; }
    """,
    """
    int main() {
      double x = read_double(0.0, 1.0);
      double y = 0.0;
      int k = 0;
      /*@ split(1); */
      if (x < 0.5) { return 1; }
      y = x + 1.0;
      /*@ merge(1, y); */
      /*@ split(2, y); */
      if (y < 1.75) { y = y + 1.0; k = 1; }
      y = y * 2.0;
      return k;
      /*@ merge(2); */
    }
    """,
]


def kernel_functions():
    """(program, function) for every function of the corpus programs and
    of wide_10kb (seed 11), normalized, both before and after placement,
    and of the KERNEL_SOURCES as parsed."""
    from fldx.config import AnalysisConfig
    from fldx.frontend import parse_program
    from fldx.pipeline import prepare
    from perfbench.workloads import wide_instrument

    sources = [corpus_source(n) for n in all_corpus_names()]
    sources += [p.source for p in wide_instrument(11)
                if p.name == "wide_10kb"]
    programs = [prepare(src, AnalysisConfig(auto_instrument=auto))[0]
                for src in sources for auto in (False, True)]
    programs += [parse_program(src) for src in KERNEL_SOURCES]
    return [(program, fn) for program in programs
            for fn in program.functions.values()]
