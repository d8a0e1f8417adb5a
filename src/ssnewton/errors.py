"""Exception types shared across the package."""


class SSNewtonError(Exception):
    """Base class for all errors raised by ssnewton."""


class DimensionError(SSNewtonError):
    """Inputs have inconsistent or invalid shapes."""


class InvalidOptionError(SSNewtonError):
    """A solver option lies outside its domain, e.g. a tolerance that is NaN."""


class RankDeficiencyError(SSNewtonError):
    """A matrix required to have full row rank does not.

    ``index`` is the offending diagonal position of the triangular factor,
    or the column count n when the matrix has more than n rows.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularMatrixError(SSNewtonError):
    """A square system is singular within the pivot tolerance."""


class InfeasiblePointError(SSNewtonError):
    """A point lies outside the box beyond the activity tolerance."""

    def __init__(self, message, coord=None):
        super().__init__(message)
        self.coord = coord


class InvalidMultiplierError(SSNewtonError):
    """A multiplier is not in the normal cone at the given point."""


class InvalidElementError(SSNewtonError):
    """A candidate pair is not in the graph of the coderivative."""


class CombinatorialBlowupError(SSNewtonError):
    """An enumeration of faces or patterns would exceed its desk-scale guard."""


class EvaluationError(SSNewtonError):
    """A problem callback returned non-finite or mis-shaped output, or
    finite output whose use in a step overflows."""


class ProblemFormatError(SSNewtonError):
    """A problem document violates the JSON schema or its dimensions."""


class QPInfeasibleError(SSNewtonError):
    """The QP constraint system admits no feasible point.

    ``constraint`` identifies the row whose dual step was unbounded, or the
    zero row of Jg whose interval excludes b_i - (Jg c)_i (or None when
    detected by enumeration).
    """

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class UnsolvableSubproblemError(SSNewtonError):
    """A linearized subproblem provably has no solution."""


class NonconvergenceError(SSNewtonError):
    """An iteration cap was exceeded without reaching a verdict."""


class DegeneracyError(SSNewtonError):
    """The point is degenerate: the active-constraint Jacobian lost rank."""
