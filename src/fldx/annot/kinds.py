"""Kind lattice for annotation typing.

A kind classifies the values a term may take: Z(I) for integers within
interval I, F(tau) for values of a machine floating-point type, Q for
arbitrary rationals. theta maps a kind to the cheapest execution type
that can hold it: the smallest machine integer type containing I, a
float type, or exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..numerics import BINARY32, BINARY64, RING_OPS

#: Machine integer types ordered smallest-first for T(I).
INT_TYPES: Tuple[Tuple[str, int, int], ...] = (
    ("int8", -(2**7), 2**7 - 1),
    ("uint8", 0, 2**8 - 1),
    ("int16", -(2**15), 2**15 - 1),
    ("uint16", 0, 2**16 - 1),
    ("int32", -(2**31), 2**31 - 1),
    ("uint32", 0, 2**32 - 1),
    ("int64", -(2**63), 2**63 - 1),
    ("uint64", 0, 2**64 - 1),
)

INT_RANGE = {name: (lo, hi) for name, lo, hi in INT_TYPES}

#: Execution types, cheapest first; 'Z' is arbitrary-precision integers,
#: 'Q' exact rationals.
EXEC_TYPES = tuple(n for n, _, _ in INT_TYPES) + ("Z", "float", "double", "Q")


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

    def __str__(self) -> str:
        a = "-inf" if self.lo is None else str(self.lo)
        b = "+inf" if self.hi is None else str(self.hi)
        return f"[{a}, {b}]"


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


def smallest_int_type(iv: IntInterval) -> str:
    """T(I): the smallest machine integer type containing I, else 'Z'."""
    if iv.is_bounded():
        for name, lo, hi in INT_TYPES:
            if lo <= iv.lo and iv.hi <= hi:
                return name
    return "Z"


def theta(k: Kind) -> str:
    """Cheapest execution type able to hold all values of the kind."""
    if isinstance(k, ZKind):
        return smallest_int_type(k.iv)
    if isinstance(k, FKind):
        return k.tau
    return "Q"


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


# -- type subsumption --------------------------------------------------------

_FLOAT_INT_LIMIT = {"float": 2**24, "double": 2**53}


def type_le(a: str, b: str) -> bool:
    """Every value of execution type a is exactly a value of type b."""
    if a == b:
        return True
    if b == "Q":
        return True
    if a in INT_RANGE:
        if b in INT_RANGE:
            alo, ahi = INT_RANGE[a]
            blo, bhi = INT_RANGE[b]
            return blo <= alo and ahi <= bhi
        if b == "Z":
            return True
        if b in _FLOAT_INT_LIMIT:
            alo, ahi = INT_RANGE[a]
            lim = _FLOAT_INT_LIMIT[b]
            return -lim <= alo and ahi <= lim
        return False
    if a == "Z":
        return b == "Q"
    if a == "float":
        return b in ("double", "Q")
    if a == "double":
        return b == "Q"
    return False


def type_join(a: str, b: str) -> str:
    """Smallest execution type above both (falls back to Q)."""
    for t in EXEC_TYPES:
        if type_le(a, t) and type_le(b, t):
            return t
    return "Q"
