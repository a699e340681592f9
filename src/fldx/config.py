"""Analysis configuration."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .numerics import FORMATS, FloatFormat, RInterval, rat, round_nearest


@dataclass
class InputSpec:
    """Declared range of one input: real value interval and error interval
    (None error = representation error of the value interval)."""
    value: RInterval
    err: Optional[RInterval] = None

    def check_finite(self, fmt: FloatFormat) -> None:
        """Raise OverflowAlarm, naming the endpoint, when an endpoint of
        the value, or of the float interval value + err that
        `AbstractFloat.from_input` rounds, rounds past the largest finite
        value of fmt."""
        ivs = [self.value]
        if self.err is not None:
            ivs.append(self.value + self.err)
        for iv in ivs:
            round_nearest(iv.lo_n, iv.den, fmt)
            round_nearest(iv.hi_n, iv.den, fmt)


@dataclass
class AnalysisConfig:
    fmt: FloatFormat = FORMATS["binary64"]
    inputs: Dict[str, InputSpec] = field(default_factory=dict)
    int_inputs: Dict[str, int] = field(default_factory=dict)
    array_inputs: Dict[str, Tuple[Fraction, ...]] = field(default_factory=dict)
    entry: Optional[str] = None
    max_syms: int = 64
    path_budget: int = 256
    #: minimum relative width improvement for adopting a constraint
    #: substitution on a form
    threshold: Fraction = Fraction(1, 20)
    collect_trace: bool = False
    auto_instrument: bool = True


def parse_input_spec(text: str) -> Tuple[str, object]:
    """Parse one --input binding; ValueError when it is malformed.

    Forms: name=[lo,hi]            float input, representation error
           name=[lo,hi]~[elo,ehi]  float input with error interval
           name=5                  int input
           name={v1,v2,...}        array of float literals
    """
    name, _, rhs = text.partition("=")
    name = name.strip()
    rhs = rhs.strip()
    if not name or not rhs:
        raise ValueError(f"bad input spec {text!r}")
    if rhs.startswith("{"):
        return name, tuple(map(rat, rhs.strip("{}").split(",")))
    if rhs.startswith("["):
        main, _, errpart = rhs.partition("~")
        err = _interval(errpart) if errpart else None
        return name, InputSpec(_interval(main), err)
    return name, int(rhs)


def _interval(text: str) -> RInterval:
    """[lo,hi] with lo <= hi."""
    ends = text.strip().strip("[]").split(",")
    if len(ends) != 2:
        raise ValueError(f"bad interval {text.strip()!r}")
    return RInterval(*map(rat, ends))
