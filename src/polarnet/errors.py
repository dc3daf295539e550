"""Exception types shared across the toolkit."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .domination import DominationResult


class PolarnetError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(PolarnetError):
    """A delimited input stream contained a malformed record (strict mode)."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class FormatError(PolarnetError):
    """A structured file (e.g. a partition file) violates its format contract."""


class UndefinedModularityError(PolarnetError):
    """Modularity is undefined because the graph has no edges."""


class DegenerateModularityError(PolarnetError):
    """A group-contribution ratio was requested while |Q| is below tolerance."""


class InfeasibleCoverageError(PolarnetError):
    """A one-rho solver's coverage target exceeds what its candidates reach.

    ``result`` is the infeasible result, its picks until the candidates ran
    out of new coverage; the message is its ``reason``, ``max_coverable``
    its ``covered``. ``domination.solve_task`` returns such results instead.
    """

    def __init__(self, result: DominationResult):
        self.result = result
        self.n_target = result.n_target
        self.max_coverable = result.covered
        super().__init__(result.reason)
