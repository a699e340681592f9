"""Count the Python bytecodes one benchmark operation executes.

Run from the root of a checkout:

    python3 tools/opcount.py --workload branch_fanout --program fanout_n8 \\
        --seed 11

The operation is the one `perfbench/run.py` times for the program: an
analysis followed by its JSON report on the analysis workloads, the
instrumented source on wide_instrument. It runs once untraced, to fill the
caches a first call fills, and then once under `sys.settrace` with opcode
events on, counting every bytecode executed in Python frames, with the
garbage collector off, so that no collection's callbacks are counted. The
process runs under a fixed PYTHONHASHSEED (it restarts itself under one
when the environment sets another), so the count repeats exactly from run
to run, while wall times on a shared host swing by a factor of two. The
last line of standard output is the program's name and the count. With
--program all, the operation is one pass over every program of the
workload, the unit the benchmark times: each program runs once untraced,
and then the count is the sum of each program's count, in order. With
--top N, the N code objects that executed the most bytecodes come before
it, one a line: the count and `file:function`. With --stages, the count of
each pipeline stage the operation runs comes just before it, one a line:
the stage and its count. A stage is what runs below the pipeline's call
of the stage's entry points (`STAGES`), so the validator's own
`build_cfg` counts under validate; glue between stages is in no stage.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"

#: (stage, module, attribute path) of each entry point of a pipeline stage
STAGES = (
    ("parse", "fldx.frontend.parser", "parse_program"),
    ("normalize", "fldx.frontend.cfg", "normalize_returns"),
    ("normalize", "fldx.frontend.cfg", "build_cfg"),
    ("normalize", "fldx.frontend.cfg", "check_exit_reachable"),
    ("instrument", "fldx.compiler.placement", "instrument"),
    ("validate", "fldx.compiler.validator", "validate"),
    ("print", "fldx.frontend.printer", "print_program"),
    ("execute", "fldx.executor.interp", "Interp.run"),
    ("report", "fldx.report", "summarize_assertions"),
    ("report", "fldx.report", "RunReport.to_json"),
)


def stage_entries() -> Dict[object, str]:
    """The code object of each entry point of `STAGES`, to its stage."""
    out = {}
    for stage, module, path in STAGES:
        obj = importlib.import_module(module)
        for name in path.split("."):
            obj = getattr(obj, name)
        out[obj.__code__] = stage
    return out


def count_opcodes(fn, by_code: Optional[Counter] = None,
                  by_stage: Optional[Counter] = None) -> int:
    """The bytecodes executed in Python frames while fn() runs; by_code,
    if given, gets the count of each code object added to it, and
    by_stage the count of each stage of `STAGES`: a frame is in the stage
    of the frame that called it, or else in the stage its code enters, if
    any. The garbage collector is emptied first and kept off while fn()
    runs, so that no collection, nor any `gc.callbacks` hook it calls,
    falls inside the count; its previous state is restored after."""
    n = 0

    def tracer(stage):
        def local(frame, event, arg):
            nonlocal n
            if event == "opcode":
                n += 1
                if by_code is not None:
                    by_code[frame.f_code] += 1
                if stage is not None:
                    by_stage[stage] += 1
            return local
        return local

    entries = stage_entries() if by_stage is not None else {}
    tracers = {stage: tracer(stage) for stage in {None, *entries.values()}}
    stage_of = {t: stage for stage, t in tracers.items()}

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        caller = frame.f_back
        stage = stage_of.get(caller.f_trace) if caller is not None else None
        return tracers[stage or entries.get(frame.f_code)]

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(start)
    try:
        fn()
    finally:
        sys.settrace(None)
        if enabled:
            gc.enable()
    return n


def operations(workload: str, name: str, seed: int) -> List[Callable]:
    """The zero-argument operation perfbench runs for the program named,
    or for each program of the workload, in order, when name is `all`."""
    from perfbench.workloads import WORKLOADS
    from fldx.config import AnalysisConfig
    from fldx.numerics import FORMATS
    from fldx.pipeline import analyze, instrumented_source

    programs = {p.name: p for p in WORKLOADS[workload](seed)}
    if name != "all" and name not in programs:
        raise SystemExit(f"error: {workload} has no program {name!r}; it has"
                         f" {', '.join(programs)}")

    def operation(p):
        config = AnalysisConfig(fmt=FORMATS[p.fmt])
        if p.kind == "instrument":
            return lambda: instrumented_source(p.source, config)
        return lambda: analyze(p.source, config, source_name=p.name).to_json()
    return [operation(p) for p in programs.values()
            if name in ("all", p.name)]


def count_program(workload: str, name: str, seed: int,
                  by_code: Optional[Counter] = None,
                  by_stage: Optional[Counter] = None) -> int:
    """The count `main` prints: each operation of `operations` runs once
    untraced, and then the counts of one more run of each are summed."""
    ops = operations(workload, name, seed)
    for op in ops:
        op()
    return sum(count_opcodes(op, by_code, by_stage) for op in ops)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="branch_fanout",
                    choices=("corpus", "branch_fanout", "wide_instrument"))
    ap.add_argument("--program", default="fanout_n8",
                    help="program name, e.g. fanout_n8, wide_70kb, filter.c,"
                    " or all for one pass over every program")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--top", type=int, default=0, metavar="N",
                    help="also print the N code objects that executed the"
                    " most bytecodes")
    ap.add_argument("--stages", action="store_true",
                    help="also print the count of each pipeline stage")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]], env)
    for p in (str(ROOT / "src"), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)
    by_code = Counter() if args.top > 0 else None
    by_stage = Counter() if args.stages else None
    total = count_program(args.workload, args.program, args.seed, by_code,
                          by_stage)
    for code, n in (by_code.most_common(args.top) if by_code else ()):
        print(f"{n:>10}  {where(code)}")
    if by_stage is not None:
        for stage in dict.fromkeys(stage for stage, _, _ in STAGES):
            if by_stage[stage]:
                print(f"{stage:<10} {by_stage[stage]:>10}")
    print(f"{args.program} {total}")


def where(code) -> str:
    """`file:function` of a code object, the file relative to the
    checkout when it lies inside it."""
    path = Path(code.co_filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


if __name__ == "__main__":
    main()
