"""End-to-end acceptance suite. Each test checks one headline guarantee
of the toolchain and prints a single PASS/FAIL line for it."""
import random
import time
from fractions import Fraction as F

from fldx.config import AnalysisConfig, InputSpec
from fldx.domain import AbstractFloat
from fldx.executor.oracle import ShadowRun
from fldx.frontend import parse_pred, parse_program
from fldx.numerics import FORMATS, TOY, RInterval, rat
from fldx.pipeline import analyze, instrumented_source, pick_entry, prepare
from fldx.zonotope import AffineForm, Origin, SymbolPool, af_mul
from tests.conftest import corpus_source, rand_fraction, rounded
from tests.test_executor import EMPTY_INNER, run_flow, stable_program
from tests.test_numerics import SORTED_VALS, TABLE, brute_round
from tests.test_oracle_soundness import (WITH_INPUTS, analysis_hulls,
                                         input_ranges)


def report_line(n, title, ok):
    print(f"criterion {n} ({title}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_dependent_ranges_exact():
    t0 = time.perf_counter()
    ix = RInterval(F(0), F(1))
    pool, env = SymbolPool(), {}
    x = AffineForm(F(1, 2), {pool.fresh(Origin.INPUT): F(1, 2)})
    x2 = af_mul(x, x, pool, env)
    ok = (ix * ix == RInterval(F(0), F(1))
          and ix - ix * ix == RInterval(F(-1), F(1))
          and x2.concretize(env) == RInterval(F(-1, 4), F(1))
          and (x - x2).concretize(env) == RInterval(F(0), F(1, 4))
          and time.perf_counter() - t0 < 1.0)
    assert report_line(1, "exact interval vs zonotope square", ok)


def test_criterion_2_constrained_flows_exact():
    _, x_st, _ = run_flow(0)   # stable-true
    _, x_ut, _ = run_flow(2)   # unstable, guard true under floats
    one = lambda f: next(iter(f.terms.values()))
    c = F(1, 2 * 10 ** 7)
    ok = (x_st.real.center == F(1, 2) and one(x_st.real) == F(1, 2)
          and x_st.float_iv == RInterval(F(0), F(1))
          and len(x_st.real.terms) == 1
          and x_ut.real.center == -c and one(x_ut.real) == c
          and x_ut.err.center == c and one(x_ut.err) == c
          and x_ut.float_iv == RInterval(F(0), F(1, 10 ** 7)))
    assert report_line(2, "unstable-test constraint propagation exact", ok)


def test_criterion_3_typing_judgements():
    from fldx.annot.kinds import Q, ZKind
    from fldx.annot.typecheck import type_pred

    ints = {"x": ("int", False), "y": ("int", False)}
    div_cmp = type_pred(parse_pred(
        "x / (y + 79228162514264337593543950335) == 0"), ints)
    floats = {"f": ("float", False), "g": ("float", False)}
    sub_cmp = type_pred(parse_pred("f - 0.1 <= g"), floats)
    dbl = {"f": ("double", False)}
    eq_cmp = type_pred(parse_pred("f == 0.0"), dbl)
    ok = (isinstance(div_cmp.left.kind, ZKind) and not div_cmp.on_floats
          and sub_cmp.left.kind == Q and not sub_cmp.on_floats
          and eq_cmp.on_floats)
    assert report_line(3, "machine/exact typing of annotation terms", ok)


def test_criterion_4_section_placements():
    cfg = AnalysisConfig()
    interp_text = instrumented_source(corpus_source("motiv_example.c"), cfg)
    loop_text = instrumented_source(corpus_source("inter_loop.c"), cfg)
    branch_text = instrumented_source(corpus_source("comp_disc.c"), cfg)
    interp_prog, _ = prepare(corpus_source("motiv_example.c"), cfg)
    sections = [s for fn in interp_prog.functions.values()
                for s in _walk_sections(fn)]
    from fldx.compiler.validator import validate
    all_valid = all(
        validate(prepare(corpus_source(n), cfg)[0]) == []
        for n in ("motiv_example.c", "inter_loop.c", "comp_disc.c"))
    ok = (  # split right before the cast, merge joining exactly {out}
        "split(1); */\n  int index = (int) in;" in interp_text
        and any(sec.merge_list == ["out"] for sec in sections)
        # loop scenario: the merge lands after the while loop
        and loop_text.index("merge(1") > loop_text.index("while (")
        and "split(1, i);" in loop_text
        # branch scenario: split right before the if
        and "split(1); */\n  if (x < 1.0)" in branch_text
        and all_valid)
    assert report_line(4, "split/merge placement on reference shapes", ok)


def _walk_sections(fn):
    from fldx.frontend import syntax as S
    return [s for s in S.walk_stmts(fn.body) if isinstance(s, S.SectionStmt)]


def test_criterion_5_shadow_soundness_sweep():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    violations = 0
    checked = 0
    for name in WITH_INPUTS:
        cfg = AnalysisConfig()
        program, _ = prepare(corpus_source(name), cfg)
        entry = pick_entry(program, cfg)
        ranges = input_ranges(program, entry)
        hulls, prints = analysis_hulls(program, cfg)
        for _ in range(1000):
            inputs = {v: rand_fraction(rng, lo, hi) for v, lo, hi in ranges}
            shadow = ShadowRun(program, cfg.fmt, inputs=inputs)
            shadow.run(entry)
            for r in shadow.records:
                key = f"{r.loc}:{r.builtin}:{r.variable}"
                summ = hulls.get(key)
                if r.holds is None:
                    hull = prints.get(key)
                    if hull is None:
                        continue
                    err_h, real_h = hull
                elif summ is not None:
                    err_h, real_h = summ.err_hull, summ.real_hull
                else:
                    continue
                checked += 1
                if err_h is not None and not (err_h.lo <= r.err <= err_h.hi):
                    violations += 1
                if real_h is not None and \
                        not (real_h.lo <= r.real_val <= real_h.hi):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = (len(WITH_INPUTS) >= 10 and violations == 0 and checked > 0
          and elapsed < 300)
    assert report_line(
        5, f"shadow-oracle containment ({len(WITH_INPUTS)} programs x 1000"
           f" runs, {checked} checks, {elapsed:.1f}s", ok)


def _bound(rep, variable):
    """Largest absolute endpoint of the reported error hull."""
    hulls = [a.err_hull for a in rep.assertions
             if a.variable == variable and a.err_hull is not None]
    assert hulls
    h = hulls[0]
    for x in hulls[1:]:
        h = h.join(x)
    return max(abs(h.lo), abs(h.hi))


def test_criterion_6_desk_scale_scenarios():
    checks = []

    t0 = time.perf_counter()
    rep = analyze(corpus_source("absorption.c"), AnalysisConfig())
    checks.append(rat("1e-9") <= _bound(rep, "z") <= rat("1e-7")
                  and not rep.has_alarms and time.perf_counter() - t0 < 30)

    t0 = time.perf_counter()
    rep = analyze(corpus_source("patriot.c"),
                  AnalysisConfig(fmt=FORMATS["binary32"]))
    checks.append(rat("1.9e-5") <= _bound(rep, "t") <= rat("1.9e-3")
                  and not rep.has_alarms and time.perf_counter() - t0 < 30)

    for name in ("comp_disc.c", "comp_disc_nested.c"):
        t0 = time.perf_counter()
        rep = analyze(corpus_source(name), AnalysisConfig())
        checks.append(any(a["kind"] == "assertion" for a in rep.alarms)
                      and time.perf_counter() - t0 < 30)

    # interpolation robustness: alarming near the discontinuity at -1,
    # quiet in the smooth region around 0.5
    t0 = time.perf_counter()
    near_disc = AnalysisConfig(inputs={"in": InputSpec(
        RInterval(rat("-1.0000001"), rat("-0.9999999")), None)})
    rep = analyze(corpus_source("motiv_example.c"), near_disc)
    checks.append(rep.has_alarms and time.perf_counter() - t0 < 30)

    t0 = time.perf_counter()
    rep = analyze(corpus_source("motiv_example.c"), AnalysisConfig())
    checks.append(not rep.has_alarms and time.perf_counter() - t0 < 30)

    assert report_line(6, "desk-scale error bounds and true alarms",
                       all(checks))


def test_criterion_7_protocol_conformance():
    checks = []
    for n in (1, 3, 6):
        rep = analyze(stable_program(n), AnalysisConfig())
        sec = [s for s in rep.sections if s["id"] == 1][0]
        checks.append(sec["feasible_paths"] == 2 ** n
                      and sec["started_paths"] == 2 ** n)
    rep = analyze(EMPTY_INNER, AnalysisConfig(collect_trace=True))
    checks.append(
        any("section 2: no feasible path, propagating emptiness" in t
            for t in rep.trace)
        and any("section 1: path abandoned, inner section 2 empty" in t
                for t in rep.trace)
        and any(a["kind"] == "no-feasible-path" for a in rep.alarms))
    assert report_line(7, "path enumeration and emptiness propagation",
                       all(checks))


def test_criterion_8_exhaustive_toy_rounding():
    ok = all(rounded(v, TOY) == v for v in SORTED_VALS)
    for a, b in zip(SORTED_VALS, SORTED_VALS[1:]):
        mid = (a + b) / 2
        if mid in TABLE:
            continue
        if rounded(mid, TOY) != brute_round(mid, TABLE):
            ok = False
            break
    import math
    ten_pi = F(10) * F(math.pi).limit_denominator(10 ** 12)
    ok = (ok and rounded(ten_pi, TOY) == 31
          and rounded(F(1, 3), TOY) == F(3, 10))
    assert report_line(8, "exhaustive small-format rounding", ok)
