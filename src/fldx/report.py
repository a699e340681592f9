"""Analysis report model and JSON serialization.

Rationals are serialized as exact decimal strings whenever the
denominator is of the form 2^a * 5^b and the expansion stays short;
otherwise as {"num": ..., "den": ...} pairs, so no precision is ever
lost in a report.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from .annot.evaluate import AssertRecord
from .numerics import RInterval, short

SCHEMA_ID = "fldx-report/1"
_MAX_DECIMAL_DIGITS = 40


def rational_to_json(x: Fraction):
    den = x.denominator
    a = (den & -den).bit_length() - 1  # the power of 2 dividing den
    d = den >> a
    b = 0
    while d % 5 == 0:
        d //= 5
        b += 1
    if d == 1 and max(a, b) <= _MAX_DECIMAL_DIGITS:
        scale = max(a, b)
        digits = abs(x.numerator) * 5 ** (scale - b) << (scale - a)
        s = str(digits).rjust(scale + 1, "0")
        if scale:
            s = s[:-scale] + "." + s[-scale:]
        return ("-" if x < 0 else "") + s
    return {"num": _decimal(x.numerator), "den": _decimal(x.denominator)}


def _decimal(n: int) -> str:
    """n in decimal, past the limit on int-to-str conversion 500 digits
    at a time, fewer than any limit the interpreter may set."""
    try:
        return str(n)
    except ValueError:
        chunks, rest = [], abs(n)
        while rest:
            rest, low = divmod(rest, 10 ** 500)
            chunks.append(f"{low:0500d}")
        digits = "".join(reversed(chunks)).lstrip("0")
        return "-" + digits if n < 0 else digits


def interval_to_json(iv: Optional[RInterval]):
    if iv is None:
        return None
    return [rational_to_json(iv.lo), rational_to_json(iv.hi)]


@dataclass
class AssertionSummary:
    location: str
    builtin: Optional[str]
    variable: Optional[str]
    verdict: str  # valid | violated | indeterminate
    err_hull: Optional[RInterval] = None
    real_hull: Optional[RInterval] = None
    rel_hull: Optional[RInterval] = None
    float_hull: Optional[RInterval] = None
    evaluations: int = 0


_BADNESS = {"valid": 0, "indeterminate": 1, "violated": 2}


def summarize_assertions(records: List[AssertRecord]) -> List[AssertionSummary]:
    by_loc: Dict[str, AssertionSummary] = {}
    for r in records:
        if r.kind != "assert":
            continue
        key = f"{r.loc}:{r.builtin}:{r.variable}"
        s = by_loc.get(key)
        if s is None:
            s = AssertionSummary(str(r.loc), r.builtin, r.variable, r.verdict,
                                 r.err_hull, r.real_hull, r.rel_hull,
                                 r.float_hull, 1)
            by_loc[key] = s
            continue
        if _BADNESS[r.verdict] > _BADNESS[s.verdict]:
            s.verdict = r.verdict
        s.evaluations += 1
        for attr in ("err_hull", "real_hull", "rel_hull", "float_hull"):
            old = getattr(s, attr)
            new = getattr(r, attr)
            if old is None or new is None:
                setattr(s, attr, old if new is None else new)
            else:
                setattr(s, attr, old.join(new))
    return list(by_loc.values())


@dataclass
class RunReport:
    schema: str = SCHEMA_ID
    source: str = ""
    entry: str = ""
    fmt: str = ""
    assertions: List[AssertionSummary] = field(default_factory=list)
    prints: List[AssertRecord] = field(default_factory=list)
    alarms: List[Dict[str, str]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    sections: List[Dict[str, object]] = field(default_factory=list)
    placements: List[str] = field(default_factory=list)
    trace: List[str] = field(default_factory=list)

    @property
    def has_alarms(self) -> bool:
        return bool(self.alarms) or any(a.verdict != "valid"
                                        for a in self.assertions)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "source": self.source,
            "entry": self.entry,
            "format": self.fmt,
            "assertions": [
                {
                    "location": a.location,
                    "builtin": a.builtin,
                    "variable": a.variable,
                    "verdict": a.verdict,
                    "err": interval_to_json(a.err_hull),
                    "real": interval_to_json(a.real_hull),
                    "rel": interval_to_json(a.rel_hull),
                    "float": interval_to_json(a.float_hull),
                    "evaluations": a.evaluations,
                }
                for a in self.assertions
            ],
            "prints": [
                {
                    "location": str(p.loc),
                    "builtin": p.builtin,
                    "variable": p.variable,
                    "err": interval_to_json(p.err_hull),
                    "real": interval_to_json(p.real_hull),
                    "rel": interval_to_json(p.rel_hull),
                    "float": interval_to_json(p.float_hull),
                }
                for p in self.prints
            ],
            "alarms": self.alarms,
            "warnings": self.warnings,
            "sections": self.sections,
            "placements": self.placements,
            "trace": self.trace,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        out = [f"analysis of {self.source} (entry {self.entry},"
               f" format {self.fmt})"]
        for a in self.assertions:
            out.append(f"  [{a.verdict}] {a.location} {a.builtin}({a.variable})"
                       f" err={_ivs(a.err_hull)} real={_ivs(a.real_hull)}")
        for p in self.prints:
            out.append(f"  [print] {p.loc} {p.variable}:"
                       f" float={_ivs(p.float_hull)} real={_ivs(p.real_hull)}"
                       f" err={_ivs(p.err_hull)} rel={_ivs(p.rel_hull)}")
        for al in self.alarms:
            out.append(f"  [alarm] {al['kind']}: {al['message']}")
        for w in self.warnings:
            out.append(f"  [warning] {w}")
        for sec in self.sections:
            out.append(f"  [section {sec['id']}] paths={sec['feasible_paths']}"
                       f"/{sec['started_paths']}"
                       f" pairs={sec['merged_pairs']}"
                       + (" infeasible" if sec.get("infeasible") else ""))
        return "\n".join(out)


def _ivs(iv: Optional[RInterval]) -> str:
    if iv is None:
        return "?"
    return f"[{short(iv.lo)}, {short(iv.hi)}]"


#: the JSON schema of a report, packaged next to this module
REPORT_SCHEMA: Dict[str, object] = json.loads(
    Path(__file__).with_name("report_schema.json").read_text())
