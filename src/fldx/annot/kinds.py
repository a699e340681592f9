"""Kind lattice for annotation typing.

A kind classifies the values a term may take: Z(I) for integers within
interval I, F(tau) for values of a machine floating-point type, Q for
arbitrary rationals. The join of two kinds is the least kind holding the
values of both: integers stay in F(tau) while tau holds each of them
exactly, and fall to Q beyond.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..numerics import BINARY32, BINARY64, RING_OPS


@dataclass(frozen=True)
class IntInterval:
    """Integer interval; None endpoint means unbounded on that side."""

    lo: Optional[int]
    hi: Optional[int]

    @staticmethod
    def point(v: int) -> "IntInterval":
        return IntInterval(v, v)

    @staticmethod
    def top() -> "IntInterval":
        return IntInterval(None, None)

    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def join(self, other: "IntInterval") -> "IntInterval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return IntInterval(lo, hi)

    def hull_with_zero(self) -> "IntInterval":
        lo = None if self.lo is None else min(self.lo, 0)
        hi = None if self.hi is None else max(self.hi, 0)
        return IntInterval(lo, hi)


def _corners(a: IntInterval, b: IntInterval, op) -> IntInterval:
    if not (a.is_bounded() and b.is_bounded()):
        return IntInterval.top()
    vals = [op(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return IntInterval(min(vals), max(vals))


def int_interval_arith(op: str, a: IntInterval, b: IntInterval) -> IntInterval:
    if op in RING_OPS:
        return _corners(a, b, RING_OPS[op])
    if op == "/":
        # C truncating division. With a nonzero divisor the quotient lies
        # between 0 and the dividend (positive divisor) or its negation
        # (negative divisor); a divisor of mixed sign allows both.
        pos = a.hull_with_zero()
        neg = IntInterval(None if a.hi is None else -a.hi,
                          None if a.lo is None else -a.lo).hull_with_zero()
        if b.lo is not None and b.lo > 0:
            return pos
        if b.hi is not None and b.hi < 0:
            return neg
        if (b.lo is None or b.lo < 0) and (b.hi is None or b.hi > 0):
            return pos.join(neg)
        return IntInterval.top()
    raise ValueError(f"unknown integer operator {op!r}")


# -- kinds -------------------------------------------------------------------


@dataclass(frozen=True)
class ZKind:
    iv: IntInterval


@dataclass(frozen=True)
class FKind:
    tau: str  # 'float' or 'double'


@dataclass(frozen=True)
class QKind:
    pass


Kind = Union[ZKind, FKind, QKind]

Q = QKind()


def kind_join(a: Kind, b: Kind) -> Kind:
    if isinstance(a, ZKind) and isinstance(b, ZKind):
        return ZKind(a.iv.join(b.iv))
    if isinstance(a, FKind) and isinstance(b, FKind):
        return FKind("double" if "double" in (a.tau, b.tau) else "float")
    if isinstance(a, ZKind) and isinstance(b, FKind):
        return _int_float_join(a, b)
    if isinstance(a, FKind) and isinstance(b, ZKind):
        return _int_float_join(b, a)
    return Q


def _int_float_join(z: ZKind, f: FKind) -> Kind:
    """Integers exactly representable in the float type stay in F."""
    fmt = BINARY64 if f.tau == "double" else BINARY32
    if z.iv.is_bounded():
        # every integer in I fits tau iff |endpoints| <= beta^p
        limit = fmt.beta**fmt.p
        if -limit <= z.iv.lo and z.iv.hi <= limit:
            return FKind(f.tau)
    return Q
