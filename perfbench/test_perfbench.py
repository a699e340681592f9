"""Tests of the benchmark itself: seeded generators, the printed metrics,
the result file, the tracer and the refusal to run without the sources.

The end-to-end tests shrink each workload to a few small programs so that
a run takes a second or two; the code paths are the full benchmark's.
"""
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import run as R
from perfbench import tracer as T
from perfbench import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["branch_fanout", "wide_instrument"])
def test_a_fixed_seed_gives_identical_sources(name):
    first = [p.source for p in W.WORKLOADS[name](7)]
    again = [p.source for p in W.WORKLOADS[name](7)]
    other = [p.source for p in W.WORKLOADS[name](8)]
    assert first == again
    assert first != other


def test_fanout_sizes_cross_the_default_path_budget():
    sizes = [p.n_tests for p in W.branch_fanout(1)]
    assert sizes == [4, 5, 6, 7, 8, 9]
    assert [2 ** n <= 256 for n in sizes] == [True] * 5 + [False]


def test_fanout_reachable_values_come_from_the_arms():
    p = W._fanout_program(4, random.Random(3), "p")
    reach = p.reach["s"]
    # machine and ideal agree except through the unstable test's jump
    assert set(reach.float_vals) <= set(reach.real_vals)
    assert Fraction(0) in reach.err_vals and len(reach.err_vals) == 2
    assert p.expect_assert == {"s": "indeterminate", "x": "valid"}


def test_wide_sources_span_about_10_to_70_kb():
    sizes = [len(p.source) / 1024 for p in W.wide_instrument(1)]
    assert 8 < min(sizes) and max(sizes) < 90
    assert all("while (x" not in p.source for p in W.wide_instrument(1))


def test_corpus_verdict_table_covers_the_corpus():
    assert sorted(p.name for p in W.corpus()) == sorted(W.CORPUS_VERDICTS)


# ---------------------------------------------------------------------------
# end to end, on shrunken workloads
# ---------------------------------------------------------------------------

@pytest.fixture
def small(monkeypatch, tmp_path):
    def fanout(seed):
        rng = random.Random(seed)
        return [W._fanout_program(4, rng, "fanout_n4")]

    def wide(seed):
        return [W._wide_program(2, random.Random(seed), "wide_2kb")]

    def corpus(seed):
        return [p for p in W.corpus()
                if p.name in ("comp_disc.c", "division.c")]

    monkeypatch.setitem(W.WORKLOADS, "corpus", corpus)
    monkeypatch.setitem(W.WORKLOADS, "branch_fanout", fanout)
    monkeypatch.setitem(W.WORKLOADS, "wide_instrument", wide)
    monkeypatch.setattr(R, "SETUP_PROBES", 0)
    monkeypatch.setattr(R, "OUT_DIR", tmp_path)
    return tmp_path


def _last_line(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(
        small, capsys, workload, trace):
    assert R.main(["--workload", workload, "--seed", "3", "--seconds",
                   "0.05", "--trace", str(trace)]) == 0
    lines, result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # the readable report names every metric with its unit too
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


def test_an_operation_that_raises_fails_the_run(small, capsys, monkeypatch):
    def broken(self, i):
        raise RuntimeError("boom")

    monkeypatch.setattr(R.Runner, "op", broken)
    assert R.main(["--workload", "corpus", "--seed", "1", "--seconds",
                   "0.05", "--trace", "0"]) == 0
    _, result = _last_line(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_the_result_file_matches_the_declared_shape(small, capsys):
    R.main(["--workload", "branch_fanout", "--seed", "5", "--seconds",
            "0.05", "--trace", "0"])
    full = json.loads((small / "result-branch_fanout-s5-t0.json").read_text())
    assert isinstance(full["attempted"], int)
    assert isinstance(full["failed"], int)
    env = full["environment"]
    assert env["seed"] == 5 and env["workload"] == "branch_fanout"
    assert env["python"] and env["nproc"] >= 1 and env["platform"]
    assert set(full["extra"]) == {"failed_ratio", "err_width_log2_mean"}
    assert len(full["output_fingerprint"]) == 64
    assert set(full["program_fingerprints"]) == {"fanout_n4"}
    for name in ("op_ms_geomean", "op_ms_p90", "ops_per_s"):
        assert full["details"]["end_to_end"][name]["samples"] >= 1


def test_traced_run_accounts_for_every_span(small, capsys):
    R.main(["--workload", "branch_fanout", "--seed", "5", "--seconds",
            "0.05", "--trace", "1"])
    full = json.loads((small / "result-branch_fanout-s5-t1.json").read_text())
    acc = full["details"]["span_accounting"]
    assert acc["ok"] and acc["operations_checked"] >= 1
    assert full["details"]["decisions_by_program"]["fanout_n4"][
        "decisions"] >= 4 * 2 ** 4
    assert (small / "spans-branch_fanout-s5-t1.jsonl").is_file()


class DoubleCounting(T.Tracer):
    def _close(self, frame):
        frame[2] = 0  # forget the children's time
        super()._close(frame)


class Losing(T.Tracer):
    def _close(self, frame):
        before = self.self_ns[frame[0]]
        super()._close(frame)
        if frame[0] == "executor.self":  # fold the executor into no layer
            self.self_ns[frame[0]] = before


@pytest.mark.parametrize("broken", [DoubleCounting, Losing])
def test_span_accounting_catches_a_wrong_fold(
        small, capsys, monkeypatch, broken):
    monkeypatch.setattr(T, "Tracer", broken)
    R.main(["--workload", "branch_fanout", "--seed", "5", "--seconds",
            "0.05", "--trace", "1"])
    full = json.loads((small / "result-branch_fanout-s5-t1.json").read_text())
    assert not full["details"]["span_accounting"]["ok"]
    assert full["correct"] is False
    assert "span accounting" in full["unexpected_failures"]


def test_tracer_puts_the_originals_back():
    import fldx.domain
    import fldx.pipeline
    before = (fldx.pipeline.validate, fldx.domain.AbstractFloat.__dict__[
        "from_literal"], fldx.domain.AbstractFloat.refresh)
    restore = T.Tracer().install()
    assert fldx.pipeline.validate is not before[0]
    restore()
    after = (fldx.pipeline.validate, fldx.domain.AbstractFloat.__dict__[
        "from_literal"], fldx.domain.AbstractFloat.refresh)
    assert after == before


def test_the_gate_rejects_a_wrong_verdict():
    from perfbench import checks
    prog = [p for p in W.corpus() if p.name == "comp_disc.c"][0]
    report = {"alarms": [], "assertions": [{"verdict": "valid"}]}
    assert [p.text for p in checks.corpus_check(prog, report)] == [
        "verdict clean, expected alarm"]


def _truncated_fanout():
    from fldx.config import AnalysisConfig
    from fldx.pipeline import analyze
    prog = W._fanout_program(4, random.Random(1), "fanout_n4")
    full = json.loads(analyze(prog.source, AnalysisConfig()).to_json())
    cut = json.loads(analyze(prog.source,
                             AnalysisConfig(path_budget=4)).to_json())
    return prog, full, cut


def test_the_gate_catches_a_truncated_exploration_as_a_known_defect():
    from perfbench import checks
    prog, full, cut = _truncated_fanout()
    assert checks.fanout_check(prog, full) == []
    problems = checks.fanout_check(prog, cut)
    assert problems and all(p.outside and p.var == "s" for p in problems)
    assert {checks.known_defect(prog, cut, p) for p in problems} == {
        checks.PATH_BUDGET_DEFECT}
    # without the truncation warning the same problems are unexpected
    clean = dict(cut, warnings=[])
    assert {checks.known_defect(prog, clean, p) for p in problems} == {None}


def test_the_truncation_explains_no_other_problem():
    from perfbench import checks
    prog, _, cut = _truncated_fanout()
    for a in cut["assertions"]:
        if a["variable"] == "x":
            a["verdict"] = "invalid"
    wrong = [p for p in checks.fanout_check(prog, cut) if p.var == "x"]
    assert wrong and not wrong[0].outside
    assert checks.known_defect(prog, cut, wrong[0]) is None


def test_an_operation_error_is_unexpected_even_on_a_known_defect():
    from perfbench import checks
    progs = [W._fanout_program(9, random.Random(1), "fanout_n9")]
    gate = {"fanout_n9": [("s: reachable float 9 outside reported [0, 8]",
                           checks.PATH_BUDGET_DEFECT)]}
    ok = R.Sample(0, 1, 1.0, None)
    rows, unexpected = R.tally(progs, [ok, ok], {}, gate)
    assert unexpected == [] and rows[0]["operations"] == 2
    broken = R.Sample(0, 1, 1.0, "RuntimeError: boom")
    rows, unexpected = R.tally(progs, [ok, broken], {}, gate)
    assert unexpected == ["fanout_n9"]
    assert sorted(r["known_defect"] is None for r in rows) == [False, True]
    # one unexplained gate problem makes the program's failures unexpected
    gate["fanout_n9"].append(("x: verdict invalid, expected valid", None))
    assert R.tally(progs, [ok], {}, gate)[1] == ["fanout_n9"]


def test_it_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
