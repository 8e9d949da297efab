"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: parse/usage problems exit 1,
infeasible knowledge bases exit 2, total evidential conflict exits 3.
"""


class CpiboundsError(Exception):
    """Base class for all package-specific errors."""


class SentenceParseError(CpiboundsError):
    """Malformed sentence text; carries the offset and what was expected."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"at position {position}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class KbParseError(CpiboundsError):
    """Malformed knowledge-base statement; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownAtomError(CpiboundsError):
    """A sentence referenced an atom that is not declared."""


class InvalidBoundError(CpiboundsError):
    """A probability bound fell outside [0, 1] or lower exceeded upper."""


class EmptyWorldSpaceError(CpiboundsError):
    """The background theory is unsatisfiable: no world survives."""


class AtomCapError(CpiboundsError):
    """The atom count exceeds the enumeration cap; raise the cap explicitly."""


class InfeasibleError(CpiboundsError):
    """No probability distribution satisfies the axioms and assumptions."""


class NotInfeasibleError(CpiboundsError):
    """Inconsistency diagnosis was requested on a feasible system."""


class TotalConflictError(CpiboundsError):
    """Dempster combination hit conflict mass 1 (flatly contradictory evidence)."""


class FrameMappingError(CpiboundsError):
    """Frame singletons are not mutually exclusive and exhaustive in the world space."""


class InconsistencySignal(CpiboundsError):
    """An interval-propagation rule emptied an interval.

    Carries the rule name and the sentences involved so the offending
    application can be reported.
    """

    def __init__(self, rule: str, sentences, detail: str = ""):
        text = f"rule {rule} emptied an interval on {', '.join(map(str, sentences))}"
        if detail:
            text += f": {detail}"
        super().__init__(text)
        self.rule = rule
        self.sentences = tuple(sentences)


class CoverageMismatchError(CpiboundsError):
    """Soundness judging requires both tables to cover the same sentences."""
