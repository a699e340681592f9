"""Span tracing of fldx's layers, installed from outside the package.

`install` replaces public functions of each layer at the places they are
imported from (module attributes, or class attributes for methods) with
wrappers that open a span or bump a counter, and returns a function that
puts the originals back. No file of fldx changes.

A span records its name, start, end, parent and operation id. Self time is
a span's duration minus the time its child spans cover. Spans are kept in
memory, up to a cap, and written out when the run ends; self times and
counts are also folded into per-layer totals as each span closes, so the
totals stay exact however many spans the cap drops.

Span accounting: each operation is also timed outside the tracer, around
its root span. The per-layer self times folded during the operation must
add up to that time, short of it only by what opening and closing the root
span costs outside its own clock readings, plus any garbage collection
that falls there. A fold that counts a child's time in its parent too
shows as self time beyond the operation's time; time folded into no layer
shows as a gap beyond that cost.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter_ns
from statistics import median
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name). Each span name is one per-layer
#: self-time metric; "<name>_ms" and "<name>_calls" are derived from it.
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("fldx.pipeline", "parse_program", "frontend.parse"),
    ("fldx.pipeline", "build_cfg", "frontend.normalize"),
    ("fldx.pipeline", "check_exit_reachable", "frontend.normalize"),
    ("fldx.pipeline", "normalize_returns", "frontend.normalize"),
    ("fldx.pipeline", "print_program", "frontend.print"),
    ("fldx.pipeline", "instrument", "compiler.instrument"),
    ("fldx.pipeline", "validate", "compiler.validate"),
    ("fldx.executor.interp", "Interp.run", "executor.self"),
    ("fldx.executor.interp", "abs_op", "domain.abs_op"),
    ("fldx.domain", "AbstractFloat.refresh", "domain.refresh"),
    ("fldx.executor.interp", "project_onto_symbols", "domain.project"),
    ("fldx.executor.interp", "union", "domain.union"),
    ("fldx.executor.interp", "make_substitution", "domain.substitute"),
    ("fldx.executor.interp", "apply_substitution", "domain.substitute"),
    ("fldx.domain", "af_mul", "zonotope.af_mul"),
    ("fldx.zonotope", "af_mul", "zonotope.af_mul"),
    ("fldx.zonotope", "AffineForm.concretize", "zonotope.concretize"),
    ("fldx.domain", "condense", "zonotope.condense"),
    ("fldx.domain", "round_nearest", "numerics.round_nearest"),
    ("fldx.annot.evaluate", "round_nearest", "numerics.round_nearest"),
    ("fldx.executor.interp", "type_pred", "annot.type_pred"),
    ("fldx.executor.interp", "eval_pred", "annot.eval_pred"),
    ("fldx.pipeline", "summarize_assertions", "report.summarize"),
    ("fldx.report", "RunReport.to_json", "report.to_json"),
)

#: (module, attribute path, counter name, static): calls counted, no span
COUNT_SITES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("fldx.numerics", "RInterval.__post_init__", "numerics.rinterval_new",
     False),
    ("fldx.zonotope", "SymbolPool.fresh", "zonotope.symbols_fresh", False),
    ("fldx.domain", "AbstractFloat.from_literal", "domain.from_literal_calls",
     True),
    ("fldx.executor.explorer", "PathExplorer.choose", "executor.decisions",
     False),
    ("fldx.executor.interp", "Interp.exec_stmt", "executor.stmts", False),
    ("fldx.executor.interp", "Interp.exec_section",
     "executor.sections_entered", False),
)

#: the tokenizer's output length is counted as tokens lexed
TOKEN_SITE = ("fldx.frontend.parser", "tokenize", "frontend.tokens")

ROOT = "op"  # the root span of one operation; its self time is glue

#: raw spans kept for the span file
MAX_SPANS = 200_000

#: accounting gap an operation may have: the larger of a floor and a share
#: of its time. The gap is about 1 us on empty operations and 3 to 17 us on
#: real ones, more after long operations on large heaps (2-vCPU x86-64,
#: CPython 3.11.7); the self time of a layer that does real work is above
#: both.
GAP_FLOOR_NS = 20_000
GAP_SHARE = 1e-3


def span_names() -> List[str]:
    return sorted({name for _, _, name in SPAN_SITES})


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [ROOT] + span_names()
        self._name_idx = {n: i for i, n in enumerate(self.names)}
        #: raw spans: [op, parent index or -1, name index, start, end]
        self.spans: List[List[int]] = []
        self.dropped = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        #: per operation: its time measured around the root span, and that
        #: time minus the self times folded during it, in ns
        self.gaps: List[Tuple[int, int]] = []
        # open spans: [name, start, child ns, raw index or -1]
        self._stack: List[list] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        start = perf_counter_ns()
        idx = -1
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([self.op_id, parent, self._name_idx[name],
                               start, 0])
        else:
            self.dropped += 1
        frame = [name, start, 0, idx]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        own = dur - frame[2]
        name = frame[0]
        self.self_ns[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][4] = end

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def count_len(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def measured(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += len(out)
            return out
        measured.__wrapped__ = fn
        return measured

    def operation(self, fn: Callable[[], object]):
        """Run one operation under a root span; returns its result, and
        records its accounting gap."""
        self.op_id += 1
        folded = sum(self.self_ns.values())
        t0 = perf_counter_ns()
        frame = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(frame)
            wall = perf_counter_ns() - t0
            self.gaps.append(
                (wall, wall - (sum(self.self_ns.values()) - folded)))

    # -- installation ------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap every site; returns the function that restores them."""
        undo: List[Tuple[object, str, object]] = []

        def patch(module: str, path: str, make: Callable[[Callable], Callable],
                  static: bool = False) -> None:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(fn)
            setattr(owner, attr, staticmethod(new) if static else new)
            undo.append((owner, attr, raw))

        try:
            for module, path, name in SPAN_SITES:
                patch(module, path, lambda f, n=name: self.wrap(n, f))
            for module, path, name, static in COUNT_SITES:
                patch(module, path, lambda f, n=name: self.count(n, f), static)
            module, path, name = TOKEN_SITE
            patch(module, path, lambda f, n=name: self.count_len(n, f))
        except BaseException:
            _restore(undo)
            raise
        return lambda: _restore(undo)

    # -- results -----------------------------------------------------------

    def accounting(self) -> dict:
        """The span accounting check over the operations run so far: no
        operation's folded self times may exceed its time, and at least
        half of the operations must have a gap within their tolerance."""
        gaps = [gap for _, gap in self.gaps]
        within = sum(gap <= max(GAP_FLOOR_NS, GAP_SHARE * wall)
                     for wall, gap in self.gaps)
        return {"operations_checked": len(gaps), "min_gap_ns": min(gaps),
                "median_gap_ns": median(gaps), "max_gap_ns": max(gaps),
                "operations_within_tolerance": within,
                "ok": min(gaps) >= 0 and 2 * within >= len(gaps)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["op", "parent", "name", "start_ns",
                                            "end_ns"],
                                 "dropped": self.dropped}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def _restore(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
    undo.clear()
