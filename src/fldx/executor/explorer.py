"""Depth-first enumeration of the feasible flows of a section.

A path is a sequence of choices, one per decision point met while walking
the section body. The explorer replays the recorded prefix and extends it
with first alternatives; next_path() advances the last non-exhausted
decision, giving plain DFS over the decision tree.

Next to its trace of choices the explorer keeps one entry per branch
point of the current path (`saved`, aligned with `trace`, None where
nothing was saved). An entry holds three things: the snapshot of what
the decision saw before its flow was applied, saved at its first visit
(`save`); the state the chosen flow left (`save_post`); and whether the
stretch of the walk that led to it, from the choice before it or from
the path start, was plain. A stretch is plain when it ran no assert,
assume, dprint or nested section, called no user function and settled
no int test without a choice; the interpreter clears `plain` on each of
these, and every choice sets it again. `next_path` keeps the entry of
the decision it advances but drops its post-flow state, and drops every
deeper entry: so a post-flow state is read back (`entry`) only on a
replay of the prefix that made it, the snapshot by every alternative of
its decision, and at most one entry per decision of the current path is
held. While the decision at the cursor saved an entry after a plain
stretch (`skips`), a replay runs nothing up to it.
"""
from __future__ import annotations

from typing import List, Optional


class PathExplorer:
    def __init__(self, budget: int = 256) -> None:
        self.trace: List[int] = []
        self.limits: List[int] = []
        #: [snapshot, post-flow state or None, plain] per decision
        self.saved: List[Optional[list]] = []
        self.plain = True
        self.pos = 0
        self.budget = budget
        self.paths_started = 1
        self.budget_hit = False

    def choose(self, n: int) -> int:
        """Return the alternative to take at the current decision point."""
        if n < 1:
            raise ValueError("decision point with no alternatives")
        if self.pos < len(self.trace):
            i = self.trace[self.pos]
            self.limits[self.pos] = n
        else:
            self.trace.append(0)
            self.limits.append(n)
            i = 0
        self.pos += 1
        self.plain = True
        return i

    def save(self, snapshot: object, plain: bool) -> None:
        """Keep snapshot as what the decision at the cursor, not yet
        chosen, saw after a stretch that was plain or not."""
        self.saved.extend([None] * (self.pos + 1 - len(self.saved)))
        self.saved[self.pos] = [snapshot, None, plain]

    def save_post(self, state: object) -> None:
        """Keep state as what the decision just chosen left."""
        self.saved[self.pos - 1][1] = state

    def entry(self) -> Optional[list]:
        """The entry of the decision at the cursor, or None."""
        return self.saved[self.pos] if self.pos < len(self.saved) else None

    def skips(self) -> bool:
        """True when the decision at the cursor saved an entry after a
        plain stretch, which a replay may then skip."""
        entry = self.entry()
        return entry is not None and entry[2]

    def next_path(self) -> bool:
        """Advance to the next path; False when the tree is exhausted or
        the budget is spent."""
        while self.trace and self.trace[-1] + 1 >= self.limits[-1]:
            self.trace.pop()
            self.limits.pop()
        if not self.trace:
            return False
        if self.paths_started >= self.budget:
            self.budget_hit = True
            return False
        self.trace[-1] += 1
        del self.saved[len(self.trace):]
        if len(self.saved) == len(self.trace) and self.saved[-1] is not None:
            self.saved[-1][1] = None
        self.pos = 0
        self.plain = True
        self.paths_started += 1
        return True
