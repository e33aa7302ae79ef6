"""Exception hierarchy shared across the package."""


class RamseyBookError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RamseyBookError):
    """A precondition on caller-supplied input was violated."""


class InvalidPair(InvalidInput):
    """Self-loop or out-of-range vertex pair."""


class InvalidVertex(InvalidInput):
    """Vertex index out of range (or outside the required set)."""


class InvalidColour(InvalidInput):
    """Colour index out of range."""


class InvalidBook(InvalidInput):
    """Spine and pages of a book overlap."""


class EmptySet(InvalidInput):
    """An operation that needs a non-empty vertex set received an empty one."""


class ParseError(RamseyBookError):
    """Malformed colouring or trace text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateDensity(RamseyBookError):
    """A minimum density hit zero, so the embedding normalisation is undefined.

    When raised by the engine mid-run, ``trace`` carries the partial trace
    accumulated so far.
    """

    def __init__(self, message: str, colour: int | None = None, trace=None):
        super().__init__(message)
        self.colour = colour
        self.trace = trace


class LemmaViolation(RamseyBookError):
    """A monitored inequality that is a theorem failed: implementation bug."""


class BudgetExceeded(RamseyBookError):
    """A brute-force search ran past its node or size budget."""


class ScaleError(InvalidInput):
    """Requested instance is beyond desk-scale reach: past the oracle's cap, or
    with a report value beyond float range, which strict JSON cannot print."""


class PrecisionExhausted(RamseyBookError):
    """An interval comparison could not be decided at the working precision."""


class NonFiniteEndpoint(PrecisionExhausted):
    """An interval endpoint is infinite or NaN, so it has no rational value and
    no comparison may be decided from it."""
