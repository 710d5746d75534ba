"""Exception types shared across the package.

Every error raised by the library proper derives from SeqHeightError, so
callers (the CLI in particular) can distinguish malformed input and violated
contracts from genuine bugs.
"""

from __future__ import annotations


class SeqHeightError(Exception):
    """Base class for all library errors."""


class AllZero(SeqHeightError):
    """A projective point was given with every coordinate zero."""


class MapsToZero(SeqHeightError):
    """Evaluating forms at a point produced the zero vector.

    This cannot happen for a validated morphism; it signals that the forms
    share a projective zero through which the point passed.
    """


class DimensionMismatch(SeqHeightError):
    """Inconsistent variable counts, degrees, or coordinate lengths."""


class DegreeTooSmall(SeqHeightError):
    """A morphism of degree < 2 was offered where contraction is required."""


class Degenerate(SeqHeightError):
    """The forms share a common projective zero and define no morphism."""


class CertificateNotFound(SeqHeightError):
    """No ideal-membership certificate exists at the requested degree.

    Carries the degree that was tried; the search may still succeed at a
    higher degree, up to the completeness cap.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"no certificate of degree {degree}")


class BudgetExceeded(SeqHeightError):
    """A configured resource cap (bit size, word count, cloud size) was hit."""


class EnumerationTooLarge(SeqHeightError):
    """The bounded-height point set is too large to enumerate under the cap."""


class RootFindingFailed(SeqHeightError):
    """Polynomial root residuals stayed above tolerance after polishing."""


class NonzeroRequired(SeqHeightError):
    """A nonzero vector was required (Green functions of the zero vector)."""


class DegenerateNearZero(SeqHeightError):
    """A lift drove a unit vector numerically to zero in the Green step loop.

    A certified lift keeps |F(v)| >= exp(-d c_bar) on unit vectors, and
    green_values refuses a lift whose range e^(+-d c_bar) leaves the float
    range before any step, so this is a safety check: it fires on a map that
    is not a morphism (a CheckedMap built without validate), or where the
    rounding of a float evaluation cancels a value below 1e-280."""


class UnsupportedDimension(SeqHeightError):
    """The operation is implemented only for specific dimensions."""


class NoRecurringPhase(SeqHeightError):
    """The sequence has no recurring phase, so cycle detection is refused."""
