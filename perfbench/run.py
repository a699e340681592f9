"""Layered, correctness-checked benchmark of fldx.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Load: one single-process closed loop, one client and one operation at a
time. An operation is one user command: `pipeline.analyze` followed by
`RunReport.to_json` (as `fldx analyze --report json`) on the analysis
workloads, `pipeline.instrumented_source` (as `fldx instrument`) on
wide_instrument. The loop runs whole passes, each running every program of
the workload once, until the next pass would end after --seconds.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports per-layer metrics from spans recorded around each layer's public
functions (see tracer.py). Every operation's output is checked outside the
timed region (see checks.py). The last line of standard output is one JSON
object; the lines before it are a readable report, and the full result,
with the environment, the failing operations and the output fingerprints,
is written under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

#: fresh processes that each measure set-up once more, run concurrently
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 85


def _prepare_path() -> None:
    src = ROOT / "src"
    if not (src / "fldx" / "__init__.py").is_file():
        raise SystemExit(f"error: no fldx sources under {src}")
    for p in (str(src), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Runner:
    """The programs of one workload and the operation that runs them."""

    def __init__(self, workload: str, seed: int, speed) -> None:
        from perfbench import workloads as W
        from fldx.config import AnalysisConfig
        from fldx.numerics import FORMATS
        from fldx.pipeline import analyze, instrumented_source

        self.programs = W.WORKLOADS[workload](seed)
        self._configs = [AnalysisConfig(fmt=FORMATS[p.fmt])
                         for p in self.programs]
        self._analyze = analyze
        self._instrument = instrumented_source
        self.speed = speed

    def op(self, i: int):
        """Run program i's command; returns its output text and, for an
        analysis, the report object."""
        p = self.programs[i]
        if p.kind == "instrument":
            return self._instrument(p.source, self._configs[i]), None
        rep = self._analyze(p.source, self._configs[i], source_name=p.name)
        return rep.to_json(), rep

    def timed(self, i: int) -> Tuple[Optional[str], "Sample"]:
        """Output and sample of one operation."""
        def guarded() -> Tuple[Optional[str], Optional[str]]:
            try:
                return self.op(i)[0], None
            except Exception as exn:  # any stage error fails the operation
                return None, f"{type(exn).__name__}: {exn}"

        (out, err), raw, norm = self.speed.run(guarded)
        return out, Sample(i, raw * 1e9, norm * 1e9, err)


def set_up(workload: str, seed: int):
    """Import fldx, generate the workload and run one untimed warm-up pass
    over its programs. Returns the runner, the warm-up outputs and samples,
    and the set-up time in seconds, raw and normalized."""
    from perfbench.speed import Speed

    speed = Speed()

    def load() -> Runner:
        import fldx  # noqa: F401  (the import is part of set-up)
        return Runner(workload, seed, speed)

    runner, raw, norm = speed.run(load)
    warm = [runner.timed(i) for i in range(len(runner.programs))]
    raw += sum(s.raw_ns for _, s in warm) / 1e9
    norm += sum(s.norm_ns for _, s in warm) / 1e9
    return runner, warm, (raw, norm)


def setup_probe(workload: str, seed: int) -> None:
    _prepare_path()
    _, _, (raw, norm) = set_up(workload, seed)
    print(json.dumps({"setup_s": norm, "raw_setup_s": raw}))


def probe_setups(workload: str, seed: int) -> List[Tuple[float, float]]:
    """(raw, normalized) set-up times measured in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(SETUP_PROBES)]
    out: List[float] = []
    try:
        for p in procs:
            stdout, stderr = p.communicate(timeout=PROBE_TIMEOUT_S)
            if p.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {stderr.strip()}")
            got = json.loads(stdout.strip().splitlines()[-1])
            out.append((got["raw_setup_s"], got["setup_s"]))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def p90(values: List[float]) -> Tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    s = sorted(values)
    k = max(1, math.ceil(0.9 * len(s)))
    return s[k - 1], len(s) - k


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Sample(NamedTuple):
    """One operation of a run."""
    prog: int
    raw_ns: float
    norm_ns: float  # divided by the host's slowdown factor, see speed.py
    err: Optional[str]


def passes(runner: Runner, seconds: float,
           one: Callable[[int], Sample]) -> List[Sample]:
    """Whole passes, each running every program once, until the next pass
    would end after `seconds` (at least one)."""
    samples: List[Sample] = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        samples += [one(i) for i in range(len(runner.programs))]
        now = time.perf_counter()
        if (now - start) + (now - t_pass) > seconds:
            return samples


def closed_loop(runner: Runner, seconds: float,
                references: List[str]) -> List[Sample]:
    def one(i: int) -> Sample:
        out, sample = runner.timed(i)
        if sample.err is None and out != references[i]:
            sample = sample._replace(
                err="output differs from the first run's, byte for byte")
        return sample

    return passes(runner, seconds, one)


def timing_metrics(samples: List[Sample], field: str) -> Dict[str, dict]:
    """Throughput and operation-time metrics over the raw or normalized
    operation times."""
    per_prog: Dict[int, List[float]] = {}
    for sample in samples:
        per_prog.setdefault(sample.prog, []).append(
            getattr(sample, field) / 1e6)
    pooled = [getattr(sample, field) / 1e6 for sample in samples]
    tail, beyond = p90(pooled)
    return {
        "ops_per_s": {"value": 1e3 * len(pooled) / sum(pooled),
                      "unit": "1/s", "samples": len(pooled)},
        "op_ms_geomean": {"value": geomean([statistics.median(v)
                                            for v in per_prog.values()]),
                          "unit": "ms", "samples": len(pooled),
                          "programs": len(per_prog)},
        "op_ms_p90": {"value": tail, "unit": "ms", "samples": len(pooled),
                      "beyond": beyond},
    }


def end_to_end(samples: List[Sample], setups: List[Tuple[float, float]],
               rss_kb: int) -> Dict[str, dict]:
    out = timing_metrics(samples, "norm_ns")
    out["setup_s"] = {"value": statistics.median(n for _, n in setups),
                      "unit": "s", "samples": len(setups)}
    out["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    return out


def traced_run(runner: Runner, seconds: float, references: List[str]):
    """One untraced pass, then traced passes until the next would end after
    `seconds` (at least one). Returns per-layer metrics, the tracer, the
    traced operations, the span accounting check and the decisions made
    per program."""
    from perfbench.tracer import COUNT_SITES, TOKEN_SITE, Tracer

    base: Dict[int, float] = {}
    for i in range(len(runner.programs)):
        base[i] = runner.timed(i)[1].norm_ns

    tracer = Tracer()
    counters = {"paths_started": 0, "paths_feasible": 0, "merged_pairs": 0,
                "sections_placed": 0, "json_bytes": 0}
    traced: Dict[int, List[float]] = {}
    decisions: Dict[int, int] = {}

    def one(i: int) -> Sample:
        before = tracer.counts["executor.decisions"]
        try:
            (out, rep), raw, norm = runner.speed.run(
                lambda: tracer.operation(lambda: runner.op(i)), sample=False)
        except Exception as exn:  # any stage error fails the operation
            return Sample(i, 0.0, 0.0, f"{type(exn).__name__}: {exn}")
        decisions[i] = tracer.counts["executor.decisions"] - before
        if rep is not None:
            counters["json_bytes"] += len(out)
            counters["sections_placed"] += len(rep.placements)
            for sec in rep.sections:
                counters["paths_started"] += sec["started_paths"]
                counters["paths_feasible"] += sec["feasible_paths"]
                counters["merged_pairs"] += sec["merged_pairs"]
        else:
            counters["sections_placed"] += out.count("/*@ split(")
        traced.setdefault(i, []).append(norm * 1e9)
        err = None if out == references[i] else \
            "traced output differs from the untraced one"
        return Sample(i, raw * 1e9, norm * 1e9, err)

    restore = tracer.install()
    try:
        samples = passes(runner, seconds, one)
    finally:
        restore()

    n_ops = len(samples)
    ratio = geomean([statistics.median(traced[i]) / base[i]
                     for i in traced])
    layer: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        layer[name] = {"value": value, "unit": unit}

    for name in tracer.names[1:]:
        put(f"{name}_ms", tracer.self_ns[name] / 1e6 / n_ops, "ms")
        put(f"{name}_calls", tracer.calls[name] / n_ops, "count")
    put("pipeline.glue_ms", tracer.self_ns["op"] / 1e6 / n_ops, "ms")
    for name in [site[2] for site in COUNT_SITES] + [TOKEN_SITE[2]]:
        put(name, tracer.counts[name] / n_ops, "count")
    parse_s = tracer.self_ns["frontend.parse"] / 1e9
    put("frontend.tokens_per_s",
        tracer.counts["frontend.tokens"] / parse_s if parse_s else 0.0,
        "tokens/s")
    for key in ("paths_started", "paths_feasible", "merged_pairs"):
        put(f"executor.{key}", counters[key] / n_ops, "count")
    started = counters["paths_started"]
    put("executor.path_yield",
        counters["paths_feasible"] / started if started else 0.0, "ratio")
    put("compiler.sections_placed", counters["sections_placed"] / n_ops,
        "count")
    put("report.json_bytes", counters["json_bytes"] / n_ops, "bytes")
    put("trace.overhead_ratio", ratio, "ratio")
    put("trace.spans", sum(tracer.calls.values()) / n_ops, "count")
    accounting = tracer.accounting()
    by_program = {}
    for i, d in decisions.items():
        p = runner.programs[i]
        row = {"decisions": d}
        if p.n_tests:
            row["n_times_2_to_n"] = p.n_tests * 2 ** p.n_tests
        by_program[p.name] = row
    return layer, tracer, samples, accounting, by_program


# ---------------------------------------------------------------------------

def _environment(workload: str, seed: int, seconds: float, trace: int):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}


def _declared(kind: str) -> List[str]:
    spec = json.loads(SPEC.read_text())
    return [m["name"] for m in spec[kind]]


def tally(programs, samples: List[Sample], warm_errors: Dict[str, str],
          gate: Dict[str, List[Tuple[str, Optional[str]]]]):
    """Failed operations, grouped by program and reason, and the names of
    the programs with a failure no known defect explains. An operation
    fails on an error, on output that differs from the checked reference,
    or when the gate rejected its program's output. Only gate problems can
    be explained by a known defect, and only when all of them are."""
    failures: Dict[Tuple[str, str], dict] = {}
    for i, _, _, err in samples:
        name = programs[i].name
        why, known = err or warm_errors.get(name), None
        if why is None and name in gate:
            why = "; ".join(text for text, _ in gate[name])
            explained = [k for _, k in gate[name]]
            if None not in explained:
                known = explained[0]
        if why is None:
            continue
        f = failures.setdefault((name, why), {
            "program": name, "operations": 0, "why": why,
            "known_defect": known})
        f["operations"] += 1
    rows = list(failures.values())
    unexpected = sorted({f["program"] for f in rows
                         if f["known_defect"] is None})
    return rows, unexpected


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    _prepare_path()
    from perfbench import checks

    runner, warm, setup_main = set_up(workload, seed)
    setups = [setup_main]
    if not trace:
        setups += probe_setups(workload, seed)
    references = [out for out, _ in warm]
    warm_errors = {runner.programs[i].name: sample.err
                   for i, (_, sample) in enumerate(warm) if sample.err}

    gc.collect()
    accounting = None
    if trace:
        layer, tracer, samples, accounting, by_program = traced_run(
            runner, seconds, references)
    else:
        samples = closed_loop(runner, seconds, references)
    # read before the gate, so the peak is the operations', not the checks'
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # correctness gate, outside the timed region
    ok_idx = [i for i, out in enumerate(references) if out is not None]
    gate = checks.gate(workload, [runner.programs[i] for i in ok_idx],
                       [references[i] for i in ok_idx], seed)
    reports = [json.loads(references[i]) for i in ok_idx
               if runner.programs[i].kind == "analyze"]
    fingerprints = {runner.programs[i].name: _digest(references[i])
                    for i in ok_idx}
    fingerprint = _digest("".join(f"{k}:{v}\n"
                                  for k, v in fingerprints.items()))
    failures, unexpected = tally(runner.programs, samples, warm_errors, gate)
    failed = sum(f["operations"] for f in failures)
    if accounting is not None and not accounting["ok"]:
        unexpected.append("span accounting")

    extra = {"failed_ratio": {"value": failed / len(samples), "unit": "ratio"}}
    if reports:
        extra["err_width_log2_mean"] = {
            "value": checks.err_width_bits(reports), "unit": "bits",
            "floor": "2**-1074"}
    if trace:
        layer["gate.failed_ratio"] = extra["failed_ratio"]
        layer["report.err_width_log2_mean"] = extra.get(
            "err_width_log2_mean", {"value": 0.0, "unit": "bits"})
        wanted = _declared("per_layer")
        metrics = {k: {"value": layer[k]["value"], "unit": layer[k]["unit"]}
                   for k in wanted}
        details = {"per_layer_all": layer, "span_accounting": accounting,
                   "decisions_by_program": by_program,
                   "spans_dropped": tracer.dropped}
    else:
        e2e = end_to_end(samples, setups, rss_kb)
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                   for k in _declared("end_to_end")}
        raw = timing_metrics(samples, "raw_ns")
        raw["setup_s"] = {"value": statistics.median(r for r, _ in setups),
                          "unit": "s", "samples": len(setups)}
        details = {"end_to_end": e2e, "raw_wall_time": raw,
                   "setup_samples_s": [{"raw": r, "normalized": n}
                                       for r, n in setups],
                   "speed_kernel_s": statistics.median(
                       runner.speed.kernels)}
    result = {
        "correct": not unexpected,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    full = dict(result)
    full.update({
        "environment": _environment(workload, seed, seconds, trace),
        "extra": extra,
        "failures": failures,
        "unexpected_failures": unexpected,
        "output_fingerprint": fingerprint,
        "program_fingerprints": fingerprints,
        "details": details,
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}-t{trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    if trace:
        tracer.write_spans(OUT_DIR / f"spans-{stem}.jsonl")
    return full


def print_report(full: dict) -> None:
    env = full["environment"]
    print(f"# fldx benchmark: {env['workload']} seed={env['seed']}"
          f" trace={env['trace']} python={env['python']}"
          f" nproc={env['nproc']} platform={env['platform']}")
    for name, m in full["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    for name, m in full["extra"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    for name, m in full["details"].get("raw_wall_time", {}).items():
        print(f"{'raw_wall_time.' + name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"operations attempted={full['attempted']} failed={full['failed']}"
          f" correct={full['correct']}")
    for f in full["failures"]:
        tag = f"known: {f['known_defect']}" if f["known_defect"] \
            else "UNEXPECTED"
        print(f"failed {f['program']} x{f['operations']} [{tag}]:"
              f" {f['why']}")
    by_program = full["details"].get("decisions_by_program") or {}
    for name, row in by_program.items():
        if "n_times_2_to_n" in row:
            print(f"decisions {name}: {row['decisions']}"
                  f" (n*2^n = {row['n_times_2_to_n']})")
    print(f"output fingerprint {full['output_fingerprint']}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "branch_fanout", "wide_instrument"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    full = run(args.workload, args.seed, args.seconds, args.trace)
    print_report(full)
    result = {k: full[k] for k in ("correct", "attempted", "failed",
                                   "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
