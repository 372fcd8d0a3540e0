"""Exception types shared across the package.

Every error raised by the library derives from :class:`NcError`, so callers
(and the CLI) can catch one base class.  The subclasses are deliberately
fine-grained: each names the contract it guards.
"""


class NcError(Exception):
    """Base class for all library errors."""


class AmbientMismatch(NcError):
    """Two values built over different ambient variable counts were combined."""


class MissingDirection(NcError):
    """Evaluation needed direction matrices H but none were supplied."""


class SizeMismatch(NcError):
    """Matrix tuples of incompatible sizes were combined."""


class AlreadyDirectional(NcError):
    """A derivative was requested of a polynomial that already contains h-letters."""


class WrongBidegree(NcError):
    """Input does not have the required degree pattern in the direction letters."""


class MixedLetters(NcError):
    """Input mixes transposed and untransposed letters where a pure form is required."""


class NotADerivative(NcError):
    """Antiderivative requested for a polynomial that is not a directional derivative."""


class NotQuadraticInDirections(NcError):
    """A middle-matrix representation needs degree exactly two in the direction letters."""


class UnsplittableMonomial(NcError):
    """A quadratic monomial admitted no border split.  Unreachable for valid input;
    kept as a guard against internal corruption."""


class NotSymmetric(NcError):
    """A symmetric polynomial or matrix was required."""


class OutsideFloatRange(NcError):
    """A coefficient or an evaluated value does not fit a float."""


class DirectionLettersPresent(NcError):
    """Middle-matrix entries must be free of direction letters."""


class InternalInconsistency(NcError):
    """A certified invariant failed mid-pipeline.  Indicates a bug, not a math outcome."""


class ParseError(NcError):
    """Parse failure, carrying 1-based line/column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
