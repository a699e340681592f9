"""End-to-end analysis pipeline: parse, normalize, instrument, validate,
execute, report."""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple, Type

from .compiler.placement import instrument
from .compiler.validator import validate
from .config import AnalysisConfig
from .errors import (AnalysisAlarm, FldxError, PlacementError, SyntaxErrorAt,
                     TypeErrorAt)
from .executor.interp import Interp
from .frontend import parse_program, print_program
from .frontend import syntax as S
from .frontend.cfg import build_cfg, check_exit_reachable, normalize_returns
from .report import RunReport, summarize_assertions

#: pipeline stages, in order; each maps to a distinct CLI exit code
STAGES = ("parse", "normalize", "instrument", "validate", "execute")


class StageError(FldxError):
    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def pick_entry(program: S.Program, config: AnalysisConfig) -> str:
    if config.entry:
        if config.entry not in program.functions:
            raise TypeErrorAt(f"no function named {config.entry!r}")
        return config.entry
    if "main" in program.functions:
        return "main"
    if len(program.functions) == 1:
        return next(iter(program.functions))
    raise TypeErrorAt("no entry function: define main or pass --entry")


@contextmanager
def _stage(stage: str, *errors: Type[Exception]) -> Iterator[None]:
    """Re-raise the stage's own errors, and recursion too deep for the
    interpreter's stack, as that stage's StageError."""
    try:
        yield
    except errors as exn:
        raise StageError(stage, exn)
    except RecursionError:
        raise StageError(stage, FldxError("program nested too deeply"))


def prepare(source: str, config: AnalysisConfig
            ) -> Tuple[S.Program, List[str]]:
    """Parse and instrument a program, returning it analysis-ready. The
    normalize stage builds the CFGs placement uses; the fact tables that
    placement and the validator share live only during this call."""
    warnings: List[str] = []
    with _stage("parse", SyntaxErrorAt):
        program = parse_program(source)
    cfgs = {}
    with _stage("normalize", FldxError):
        for name, fn in program.functions.items():
            program.functions[name] = normal = normalize_returns(fn)
            cfgs[name] = build_cfg(normal)
            check_exit_reachable(cfgs[name])
    tables = {}
    if config.auto_instrument:
        with _stage("instrument", PlacementError):
            program, w = instrument(program, cfgs, tables)
            warnings.extend(w)
    with _stage("validate"):
        problems = validate(program, tables)
    if problems:
        raise StageError("validate",
                         FldxError("; ".join(problems)))
    return program, warnings


def analyze(source: str, config: AnalysisConfig,
            source_name: str = "<input>") -> RunReport:
    program, warnings = prepare(source, config)
    entry = pick_entry(program, config)
    interp = Interp(program, config)
    with _stage("execute", FldxError):
        try:
            interp.run(entry)
        except AnalysisAlarm as exn:
            interp.alarms.append(exn)
    report = RunReport(
        source=source_name,
        entry=entry,
        fmt=_format_name(config.fmt),
        assertions=summarize_assertions(interp.records),
        prints=[r for r in interp.records if r.kind == "print"],
        alarms=[{"kind": a.kind, "message": str(a)} for a in interp.alarms],
        warnings=warnings + interp.warnings,
        sections=[{"id": sr.section_id,
                   "feasible_paths": sr.feasible_paths,
                   "started_paths": sr.started_paths,
                   "merged_pairs": sr.merged_pairs,
                   "infeasible": sr.infeasible}
                  for sr in interp.section_reports],
        placements=_placement_lines(program),
        trace=interp.trace,
    )
    return report


def instrumented_source(source: str, config: AnalysisConfig) -> str:
    program, _ = prepare(source, config)
    with _stage("instrument"):
        return print_program(program)


def _format_name(fmt) -> str:
    from .numerics import FORMATS
    for name, f in FORMATS.items():
        if f == fmt:
            return name
    return f"beta{fmt.beta}p{fmt.p}"


def _placement_lines(program: S.Program) -> List[str]:
    out: List[str] = []
    for fn in program.functions.values():
        for s in S.walk_stmts(fn.body):
            if isinstance(s, S.SectionStmt) and s.section_id != 0:
                out.append(f"{fn.name}: section {s.section_id}"
                           f" save=[{', '.join(sorted(s.save_list))}]"
                           f" merge=[{', '.join(sorted(s.merge_list))}]")
    return out
