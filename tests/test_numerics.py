"""Rounding and interval arithmetic, checked against brute-force
oracles on the small base-10 format and against random sampling; the
integer rounding path, trusted interval results and report encoding,
checked against the Fraction-only code they replaced."""
import math
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fldx.cli import main
from fldx.errors import OverflowAlarm
from fldx.numerics import (FORMATS, TOY, FloatFormat, RInterval, _ilog,
                           is_representable, rat, representation_error_bound,
                           short)
from fldx.report import rational_to_json
from tests.conftest import rounded

# ---------------------------------------------------------------------------
# Brute-force model of the toy format (base 10, two digits), built from
# the format definition only -- the oracle for round_nearest.
# ---------------------------------------------------------------------------


def toy_values():
    """(value, significand) pairs of every finite toy-format number."""
    out = {}
    for e in range(TOY.e_min, TOY.e_max + 1):
        lo_m = 0 if e == TOY.e_min else 10 ** (TOY.p - 1)
        for m in range(lo_m, 10 ** TOY.p):
            v = Fraction(m) * Fraction(10) ** (e - TOY.p + 1)
            if v not in out:  # keep the first (smallest-exponent) form
                out[v] = m
    return out


def brute_round(x: Fraction, table):
    """Nearest value; ties go to the even significand."""
    best = None
    for v, m in table.items():
        d = abs(x - v)
        if best is None or d < best[0] or (d == best[0] and m % 2 == 0):
            best = (d, v, m)
    return best[1]


def enumerate_floats(fmt: FloatFormat):
    """All finite values of a (small) format, ascending, from its
    subnormal step and quanta."""
    nonneg = []
    eta = fmt.subnormal_step
    for m in range(0, fmt.beta ** (fmt.p - 1)):
        nonneg.append(m * eta)
    for e in range(fmt.e_min, fmt.e_max + 1):
        q = fmt.quantum(e)
        for m in range(fmt.beta ** (fmt.p - 1), fmt.beta**fmt.p):
            nonneg.append(m * q)
    for v in reversed(nonneg[1:]):
        yield -v
    yield from nonneg


TABLE = {v: m for v, m in toy_values().items()}
TABLE.update({-v: m for v, m in toy_values().items()})
SORTED_VALS = sorted(TABLE)


def test_enumerate_floats_matches_brute_force_set():
    got = sorted(set(enumerate_floats(TOY)))
    assert got == sorted(set(TABLE))


def test_round_identity_on_representables():
    for v in SORTED_VALS:
        assert rounded(v, TOY) == v


def test_round_every_midpoint_ties_to_even():
    for a, b in zip(SORTED_VALS, SORTED_VALS[1:]):
        mid = (a + b) / 2
        if mid in TABLE:
            continue  # not a tie, mid itself representable
        expected = brute_round(mid, TABLE)
        assert rounded(mid, TOY) == expected, (a, b)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=Fraction(-990), max_value=Fraction(990)))
def test_round_matches_brute_force_everywhere(x):
    assert rounded(x, TOY) == brute_round(x, TABLE)


def test_ten_pi_rounds_to_31():
    ten_pi = Fraction(10) * Fraction(math.pi).limit_denominator(10 ** 12)
    assert rounded(ten_pi, TOY) == 31


def test_third_rounds_to_three_tenths():
    assert rounded(Fraction(1, 3), TOY) == Fraction(3, 10)


def test_round_overflow_raises():
    with pytest.raises(OverflowAlarm):
        rounded(Fraction(10000), TOY)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(), st.builds(
    lambda m, e: Fraction(m) * Fraction(2) ** e,
    st.integers(-2**53, 2**53), st.integers(-1100, 970))).filter(
        lambda x: x == 0 or abs(x) >= Fraction(1, 2**1022)))
def test_short_prints_as_percent_g_of_the_float(x):
    assert short(x) == f"{float(x):.6g}"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**7), st.integers(1, 10**7), st.integers(303, 5000),
       st.booleans())
@example(9999995, 1, 303, False)  # rounds up to the next decade
@example(10**5 * 10 + 5, 10, 309, True)  # a tie, to even
def test_short_past_the_double_range(n, d, e, neg):
    x = Fraction(n, d) * 10**e * (-1 if neg else 1)
    if abs(x) < 2**1024:
        return
    s = short(x)
    mant, exp = s.lstrip("-").split("e+")
    assert s.startswith("-") == neg
    assert 1 <= Fraction(mant) < 10 and len(mant.replace(".", "")) <= 6
    assert not mant.endswith("0") and not mant.endswith(".")
    # the six digits are x rounded to nearest
    assert abs(Fraction(s) - x) <= Fraction(5, 10**6) * 10**int(exp)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**7), st.integers(1, 10**7), st.integers(300, 5000),
       st.booleans())
@example(9999995, 1, 336, False)  # rounds up to the next decade
@example(10**5 * 10 + 5, 10, 330, True)  # a tie, to even
@example(1, 2**1075, 0, False)  # half the least subnormal
@example(1, 1, 400, True)  # -1e-400, which float() makes -0
def test_short_below_the_normal_range(n, d, e, neg):
    x = Fraction(n, d) / 10**e * (-1 if neg else 1)
    if abs(x) >= Fraction(1, 2**1022):
        return
    s = short(x)
    mant, exp = s.lstrip("-").split("e-")
    assert s.startswith("-") == neg
    assert 1 <= Fraction(mant) < 10 and len(mant.replace(".", "")) <= 6
    assert not mant.endswith("0") and not mant.endswith(".")
    # the six digits are x rounded to nearest
    assert abs(Fraction(s) - x) <= Fraction(5, 10**6) / 10**int(exp)


def test_cli_overflow_alarm_prints_the_value_short(tmp_path):
    src = tmp_path / "ovf.c"
    src.write_text("int main() { double x = read_double(1.0e300, 1.0e308);"
                   " double y = x * 10.0; return 0; }")
    res = CliRunner().invoke(main, ["analyze", str(src)])
    assert res.exit_code == 1, res.output
    line, = [ln for ln in res.output.splitlines() if "[alarm] overflow" in ln]
    assert len(line) < 120
    assert "1e+309 rounds beyond the largest finite value" in line


def test_round_directed_brackets_nearest():
    for a, b in zip(SORTED_VALS, SORTED_VALS[1:]):
        x = a + (b - a) / 3
        assert rounded(x, TOY, up=False) == a
        assert rounded(x, TOY, up=True) == b


def test_unit_roundoff():
    assert TOY.unit_roundoff == Fraction(1, 10) / 2
    assert FORMATS["binary64"].unit_roundoff == Fraction(1, 2 ** 53)


def test_relative_error_bounded_by_unit_roundoff():
    u = TOY.unit_roundoff
    smallest_normal = Fraction(10) ** (TOY.e_min)
    for v in SORTED_VALS:
        x = v + Fraction(1, 7)
        if abs(x) > TOY.max_finite:
            continue
        r = rounded(x, TOY)
        if abs(x) >= smallest_normal:
            assert abs(r - x) <= u * abs(x)


def test_representation_error_bound_is_sound(rng):
    iv = RInterval(rat("0.5"), rat("9.5"))
    bound = representation_error_bound(iv, TOY)
    for _ in range(200):
        x = rat("0.5") + Fraction(rng.randint(0, 9 * 10 ** 6), 10 ** 6)
        r = rounded(x, TOY)
        assert bound.lo <= r - x <= bound.hi


def test_is_representable():
    assert is_representable(Fraction(31), TOY)
    assert not is_representable(Fraction(1, 3), TOY)
    assert is_representable(Fraction(1, 4), FORMATS["binary64"])
    assert not is_representable(Fraction(1, 10), FORMATS["binary64"])


# ---------------------------------------------------------------------------
# Interval arithmetic: containment under random sampling
# ---------------------------------------------------------------------------

finite_fracs = st.fractions(min_value=Fraction(-100), max_value=Fraction(100))


@st.composite
def intervals(draw):
    a = draw(finite_fracs)
    b = draw(finite_fracs)
    return RInterval(min(a, b), max(a, b))


def _sample(iv: RInterval, t: Fraction) -> Fraction:
    return iv.lo + (iv.hi - iv.lo) * t


@settings(max_examples=200, deadline=None)
@given(intervals(), intervals(),
       st.sampled_from("+-*"),
       st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_interval_arith_contains_pointwise_results(a, b, op, t1, t2):
    r = {"+": a + b, "-": a - b, "*": a * b}[op]
    x = _sample(a, t1)
    y = _sample(b, t2)
    z = {"+": x + y, "-": x - y, "*": x * y}[op]
    assert r.lo <= z <= r.hi


@settings(max_examples=200, deadline=None)
@given(intervals(), intervals())
def test_join_meet_lattice_laws(a, b):
    j = a.join(b)
    assert j.lo <= a.lo and j.hi >= a.hi
    assert j.lo <= b.lo and j.hi >= b.hi
    m = a.meet(b)
    if m is not None:
        assert a.lo <= m.lo <= m.hi <= a.hi
        assert b.lo <= m.lo <= m.hi <= b.hi
    else:
        assert a.hi < b.lo or b.hi < a.lo
    assert a.join(a) == a
    assert a.meet(a) == a
    assert a.join(b) == b.join(a)


@settings(max_examples=200, deadline=None)
@given(intervals(), st.fractions(min_value=0, max_value=1))
def test_interval_square_contains_samples(a, t):
    sq = a.square()
    x = _sample(a, t)
    assert sq.lo <= x * x <= sq.hi
    assert sq.lo >= 0


@settings(max_examples=100, deadline=None)
@given(intervals(), intervals(), st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_interval_divide_contains_samples(a, b, t1, t2):
    if b.contains(Fraction(0)):
        return
    r = a.divide(b)
    x = _sample(a, t1)
    y = _sample(b, t2)
    assert r.lo <= x / y <= r.hi


# ---------------------------------------------------------------------------
# The integer and bit-level rounding path against Fraction-only references
# ---------------------------------------------------------------------------


def ilog_reference(x: Fraction, beta: int) -> int:
    """Largest e with beta^e <= x, by powers of beta."""
    approx = (math.log2(x.numerator) - math.log2(x.denominator)) / math.log2(beta)
    e = math.floor(approx)
    b = Fraction(beta)
    while b**e > x:
        e -= 1
    while b ** (e + 1) <= x:
        e += 1
    return e


def round_reference(x: Fraction, fmt: FloatFormat, mode: str) -> Fraction:
    """Round by Fraction arithmetic: "nearest" (ties to even), "up" or
    "down"; raises OverflowAlarm past the largest finite value."""
    if x == 0:
        return Fraction(0)
    s = -1 if x < 0 else 1
    a = abs(x)
    e = max(ilog_reference(a, fmt.beta), fmt.e_min)
    q = Fraction(fmt.beta) ** (e - fmt.p + 1)
    m = a / q
    if mode == "nearest":
        mi = round(m)  # Fraction rounds half to even
    elif (mode == "up") == (s > 0):
        mi = math.ceil(m)
    else:
        mi = math.floor(m)
    if mi >= fmt.beta**fmt.p:
        e += 1
        mi = fmt.beta ** (fmt.p - 1)
        q = Fraction(fmt.beta) ** (e - fmt.p + 1)
    if e > fmt.e_max:
        raise OverflowAlarm("overflow")
    return s * mi * q


def wide_positive(beta: int):
    """Positive rationals from about 2^-1100 to 2^1100, exact powers of
    beta and their neighbours included."""
    top = 1100 if beta == 2 else 331
    scaled = st.builds(lambda n, d, k: Fraction(n, d) * Fraction(beta) ** k,
                       st.integers(1, 2**64), st.integers(1, 2**64),
                       st.integers(-top + 20, top - 20))
    powers = st.builds(lambda k, t: Fraction(beta) ** k + t,
                       st.integers(-top, top),
                       st.sampled_from([Fraction(0), Fraction(1, 2**1200),
                                        Fraction(-1, 2**1200)]))
    return st.one_of(scaled, powers)


def signed(positive):
    return st.builds(lambda x, neg: -x if neg else x, positive, st.booleans())


def ties(fmt: FloatFormat):
    """Midpoints between neighbouring values of fmt, where rounding to
    nearest goes to the even significand."""
    b = Fraction(fmt.beta)
    return st.builds(lambda m, e: (m + Fraction(1, 2)) * b ** (e - fmt.p + 1),
                     st.integers(0, fmt.beta**fmt.p - 1),
                     st.integers(fmt.e_min, fmt.e_max))


@settings(max_examples=400, deadline=None)
@given(wide_positive(2))
@example(Fraction(1, 2**1100))
@example(Fraction(2**1100))
@example(Fraction(2**1100 - 1))
def test_ilog_base_2_matches_power_loop(x):
    assert _ilog(x.numerator, x.denominator, 2) == ilog_reference(x, 2)


@settings(max_examples=200, deadline=None)
@given(wide_positive(10))
@example(Fraction(1, 10**331))
@example(Fraction(10**331))
def test_ilog_base_10_matches_power_loop(x):
    assert _ilog(x.numerator, x.denominator, 10) == ilog_reference(x, 10)


FORMAT_CASES = [FORMATS["binary32"], FORMATS["binary64"], TOY]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FORMAT_CASES), st.data())
def test_rounding_gives_representable_reference_values(fmt, data):
    x = data.draw(st.one_of(signed(wide_positive(fmt.beta)),
                            signed(ties(fmt)),
                            st.fractions(max_denominator=10**6)))
    for mode, up in (("nearest", None), ("up", True), ("down", False)):
        try:
            want = round_reference(x, fmt, mode)
        except OverflowAlarm:
            with pytest.raises(OverflowAlarm):
                rounded(x, fmt, up)
            continue
        got = rounded(x, fmt, up)
        assert got == want
        assert is_representable(got, fmt)
        if mode == "up":
            assert got >= x
        elif mode == "down":
            assert got <= x


@pytest.mark.parametrize("fmt", FORMAT_CASES)
def test_format_constants_match_their_definitions(fmt):
    b = Fraction(fmt.beta)
    assert fmt.max_finite == (fmt.beta**fmt.p - 1) * b ** (fmt.e_max - fmt.p + 1)
    assert fmt.unit_roundoff == b ** (1 - fmt.p) / 2
    assert fmt.subnormal_step == b ** (fmt.e_min - fmt.p + 1)
    for e in range(fmt.e_min - 2, fmt.e_max + 3):
        assert fmt.quantum(e) == b ** (e - fmt.p + 1)


# ---------------------------------------------------------------------------
# Trusted interval construction: results stay ordered Fraction pairs
# ---------------------------------------------------------------------------


def assert_trusted_shape(iv: RInterval):
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert iv.lo <= iv.hi
    assert RInterval(iv.lo, iv.hi) == iv


@settings(max_examples=150, deadline=None)
@given(intervals(), intervals(), finite_fracs)
def test_interval_operations_return_ordered_fraction_endpoints(a, b, k):
    results = [a + b, a - b, -a, a * b, a.scale(k), a.scale(-k), a.shift(k),
               a.join(b), a.square(), RInterval.point(k)]
    m = a.meet(b)
    if m is not None:
        results.append(m)
    if not b.contains(Fraction(0)):
        results.append(a.divide(b))
    for r in results:
        assert_trusted_shape(r)


@pytest.mark.parametrize("x", [3, "0.1", "-2.5e-3", Fraction(1, 3)])
def test_point_coerces_to_fraction(x):
    iv = RInterval.point(x)
    assert_trusted_shape(iv)
    assert iv.lo == rat(x)


def test_public_constructor_still_coerces_and_checks():
    iv = RInterval(1, "2.5")
    assert_trusted_shape(iv)
    with pytest.raises(ValueError):
        RInterval(2, 1)


# ---------------------------------------------------------------------------
# Report encoding against the division loop it replaced
# ---------------------------------------------------------------------------


def rational_to_json_reference(x: Fraction):
    d = x.denominator
    a = b = 0
    while d % 2 == 0:
        d //= 2
        a += 1
    while d % 5 == 0:
        d //= 5
        b += 1
    if d == 1 and max(a, b) <= 40:
        scale = max(a, b)
        digits = abs(x.numerator) * (5 ** (scale - b)) * (2 ** (scale - a))
        s = str(digits).rjust(scale + 1, "0")
        if scale:
            s = s[:-scale] + "." + s[-scale:]
        return ("-" if x < 0 else "") + s
    return {"num": str(x.numerator), "den": str(x.denominator)}


decimal_like = st.builds(lambda n, j, k: Fraction(n, 2**j * 5**k),
                         st.integers(-10**30, 10**30), st.integers(0, 1100),
                         st.integers(0, 60))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.fractions(), decimal_like))
@example(Fraction(1, 2**1074))
@example(Fraction(-3, 2**1074))
@example(Fraction(7, 2**40 * 5**3))
@example(Fraction(-7, 2**3 * 5**40))
@example(Fraction(1, 2**41))
@example(Fraction(0))
def test_rational_to_json_matches_division_loop(x):
    assert rational_to_json(x) == rational_to_json_reference(x)
