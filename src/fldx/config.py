"""Analysis configuration."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .numerics import FORMATS, FloatFormat, RInterval


@dataclass
class InputSpec:
    """Declared range of one input: real value interval and error interval
    (None error = representation error of the value interval)."""
    value: RInterval
    err: Optional[RInterval] = None


@dataclass
class AnalysisConfig:
    fmt: FloatFormat = FORMATS["binary64"]
    inputs: Dict[str, InputSpec] = field(default_factory=dict)
    int_inputs: Dict[str, int] = field(default_factory=dict)
    array_inputs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    entry: Optional[str] = None
    max_syms: int = 64
    path_budget: int = 256
    #: minimum relative width improvement for adopting a constraint
    #: substitution on a form
    threshold: Fraction = Fraction(1, 20)
    collect_trace: bool = False
    auto_instrument: bool = True


def parse_input_spec(text: str) -> Tuple[str, object]:
    """Parse one --input binding.

    Forms: name=[lo,hi]            float input, representation error
           name=[lo,hi]~[elo,ehi]  float input with error interval
           name=5                  int input
           name={v1,v2,...}        array of representable float literals
    """
    from .numerics import rat

    name, _, rhs = text.partition("=")
    name = name.strip()
    rhs = rhs.strip()
    if not name or not rhs:
        raise ValueError(f"bad input spec {text!r}")
    if rhs.startswith("{"):
        vals = tuple(v.strip() for v in rhs.strip("{}").split(","))
        return name, vals
    if rhs.startswith("["):
        main, _, errpart = rhs.partition("~")
        lo, hi = (rat(x.strip()) for x in main.strip("[]").split(","))
        err = None
        if errpart:
            elo, ehi = (rat(x.strip()) for x in errpart.strip().strip("[]").split(","))
            err = RInterval(elo, ehi)
        return name, InputSpec(RInterval(lo, hi), err)
    return name, int(rhs)
