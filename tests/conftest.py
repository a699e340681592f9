import random
from fractions import Fraction
from pathlib import Path

import pytest

from fldx.numerics import rat, round_directed, round_nearest

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fldx" / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def corpus_source(name: str) -> str:
    return corpus_path(name).read_text()


def all_corpus_names():
    return sorted(p.name for p in CORPUS.glob("*.c"))


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
