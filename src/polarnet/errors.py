"""Exception types shared across the toolkit."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .domination import DominationResult


class PolarnetError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(PolarnetError):
    """A delimited input stream contained a malformed record (strict mode)."""

    def __init__(self, message: str, line_number: int | None = None, line: str | None = None):
        super().__init__(message)
        self.line_number = line_number
        self.line = line


class FormatError(PolarnetError):
    """A structured file (e.g. a partition file) violates its format contract."""


class UndefinedModularityError(PolarnetError):
    """Modularity is undefined because the graph has no edges."""


class DegenerateModularityError(PolarnetError):
    """A group-contribution ratio was requested while |Q| is below tolerance."""


class InfeasibleCoverageError(PolarnetError):
    """The requested coverage target exceeds what the candidate set can reach.

    ``result`` is the infeasible domination result: the picks made until the
    candidates ran out of new coverage, so callers can report the partial
    run instead of just failing. ``max_coverable`` is its ``covered``.
    """

    def __init__(self, result: DominationResult):
        self.result = result
        self.n_target = result.n_target
        self.max_coverable = result.covered
        super().__init__(
            f"coverage target {result.target} of {result.n_target} is unreachable: "
            f"candidate set covers at most {result.covered} ({result.fraction:.1%})"
        )
