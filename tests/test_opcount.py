"""`tools/opcount.py`: the bytecode count of one benchmark operation."""
import gc
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "opcount.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_loop_iteration_adds_the_same_count():
    count = load_tool().count_opcodes

    def loop(n):
        for _ in range(n):
            pass

    a, b, c = (count(lambda: loop(n)) for n in (10, 20, 30))
    assert 0 < a < b and b - a == c - b


def test_fanout_n4_prints_its_count_under_a_fixed_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="1")
    res = subprocess.run([sys.executable, str(TOOL), "--workload",
                          "branch_fanout", "--program", "fanout_n4",
                          "--seed", "11"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    m = re.fullmatch(r"fanout_n4 (\d+)", res.stdout.strip().splitlines()[-1])
    assert m and int(m[1]) > 100_000


def test_top_lists_the_busiest_code_objects_above_the_count():
    res = subprocess.run([sys.executable, str(TOOL), "--workload",
                          "branch_fanout", "--program", "fanout_n4",
                          "--seed", "11", "--top", "5"], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    *top, last = res.stdout.strip().splitlines()
    rows = [re.fullmatch(r" *(\d+)  (\S+):(\S+)", line) for line in top]
    assert len(rows) == 5 and all(rows)
    counts = [int(m[1]) for m in rows]
    assert counts == sorted(counts, reverse=True)
    m = re.fullmatch(r"fanout_n4 (\d+)", last)
    assert m and sum(counts) <= int(m[1])
    assert any(m[2].startswith("src/fldx/") for m in rows)


def test_a_collection_inside_the_window_adds_nothing_to_the_count():
    """A `gc.callbacks` hook, such as the one Hypothesis installs, runs
    Python bytecodes at each collection: none may fall inside a count."""
    count = load_tool().count_opcodes
    seen = []

    def hook(phase, info):
        seen.append(phase)

    def churn():
        kept = []
        for _ in range(200):
            kept.append([])  # a live container counts toward a collection

    plain = count(churn)
    threshold = gc.get_threshold()
    gc.callbacks.append(hook)
    gc.set_threshold(1)  # a collection at every container allocated
    try:
        churn()
        ran = len(seen)  # the hook does run outside a count
        hooked = count(churn)
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
    assert ran > 0 and hooked == plain
    assert gc.isenabled()
    gc.disable()
    try:
        count(churn)
        assert not gc.isenabled()  # the previous state is restored
    finally:
        gc.enable()


def opcount(*args):
    res = subprocess.run([sys.executable, str(TOOL), "--seed", "11", *args],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()


@pytest.mark.parametrize("workload,program,stages", [
    ("branch_fanout", "fanout_n4",
     ["parse", "normalize", "instrument", "validate", "execute", "report"]),
    ("wide_instrument", "wide_10kb",
     ["parse", "normalize", "instrument", "validate", "print"]),
])
def test_stages_count_each_stage_above_the_total(workload, program, stages):
    args = ["--workload", workload, "--program", program]
    *rows, last = opcount(*args, "--stages")
    rows = [re.fullmatch(r"(\w+) +(\d+)", line) for line in rows]
    assert all(rows) and [m[1] for m in rows] == stages
    counts = [int(m[2]) for m in rows]
    m = re.fullmatch(rf"{program} (\d+)", last)
    assert m and all(n > 0 for n in counts) and sum(counts) <= int(m[1])
    # counting by stage changes no count
    assert opcount(*args) == [last]


def test_all_counts_one_pass_as_the_sum_of_each_program(monkeypatch):
    from perfbench import workloads as W

    sources = {"a.c": "double f(void) {\n  double x = read_double(0.0, 1.0);\n"
                      "  double y = x * x + 1.0;\n  /*@ dprint(y); */\n"
                      "  return y;\n}\n",
               "b.c": "double g(void) {\n  double x = read_double(1.0, 2.0);\n"
                      "  double y = 0.0;\n"
                      "  if (x < 1.5) { y = x; } else { y = x / 2.0; }\n"
                      "  /*@ dprint(y); */\n  return y;\n}\n"}
    monkeypatch.setitem(W.WORKLOADS, "stub", lambda seed: [
        W.Program(name, src, "analyze") for name, src in sources.items()])
    count = load_tool().count_program
    a, b = count("stub", "a.c", 11), count("stub", "b.c", 11)
    assert a > 0 and b > 0
    assert count("stub", "all", 11) == a + b
