"""Exception types shared across the package, and how their messages show a value."""


def _shown(value) -> str:
    """The repr of a value for an error message: at most its first 40
    characters, then its length when it is longer."""
    text = repr(value)
    if len(text) > 40:
        text = f"{text[:40]}... ({len(text)} characters)"
    return text


class TropmodError(Exception):
    """Base class for all tropmod errors."""


class ZeroVector(TropmodError):
    """A primitive direction was requested for the zero vector."""


class DimensionMismatch(TropmodError):
    """Vector / matrix dimensions do not agree."""


class RankDeficient(TropmodError):
    """Matrix rows are linearly dependent where independence is required."""


class SplitAbsent(TropmodError):
    """The split is not part of the combinatorial type."""


class NotCodimensionOne(TropmodError):
    """The type does not have exactly one 4-valent vertex with all others 3-valent."""


class IncompatibleSplit(TropmodError):
    """Two splits cannot coexist in one tree."""


class NotInImage(TropmodError):
    """The vector is not the image of any moduli point under the embedding."""


class NotPure(TropmodError):
    """Fan cones do not all have the same dimension."""


class TooFewLeaves(TropmodError):
    """The operation would leave fewer than three marked leaves."""


class MalformedInput(TropmodError, ValueError):
    """A JSON input does not have the documented shape or types."""
