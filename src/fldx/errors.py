"""Analysis-level error and alarm types shared across the toolchain."""


class FldxError(Exception):
    """Base class for all analysis errors."""


class SyntaxErrorAt(FldxError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypeErrorAt(FldxError):
    pass


class PlacementError(FldxError):
    pass


class AnalysisAlarm(FldxError):
    """A runtime alarm raised during abstract execution.

    kind is a short machine-readable tag: division-by-zero, overflow,
    out-of-bounds, no-feasible-path, relerr-undefined, instrumentation-gap,
    assertion (an assertion not proved valid), loop-limit and
    analysis-incomplete (a resource limit cut the analysis short).
    """

    def __init__(self, kind, message, location=None):
        super().__init__(message)
        self.kind = kind
        self.location = location


class DivisionByZero(AnalysisAlarm):
    def __init__(self, message="division by zero", location=None):
        super().__init__("division-by-zero", message, location)


class OverflowAlarm(AnalysisAlarm):
    def __init__(self, message="overflow beyond largest finite value", location=None):
        super().__init__("overflow", message, location)


class InfeasiblePath(Exception):
    """Control signal: the current abstract path is infeasible.

    Not an error; caught by the enclosing split-merge loop which then
    moves on to the next path.
    """


class SectionInfeasible(Exception):
    """Control signal: a whole section found no feasible path.

    Propagates to the enclosing section, abandoning its current path.
    """

    def __init__(self, section_id):
        super().__init__(f"section {section_id} has no feasible path")
        self.section_id = section_id
