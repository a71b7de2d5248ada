"""Exception types shared across the package."""


class HyperwalkError(Exception):
    """Base class for every error raised by this package."""


class EmptyEdgeError(HyperwalkError):
    """A hyperedge contains no vertices."""


class IndexOutOfRangeError(HyperwalkError):
    """A vertex index falls outside [0, n)."""


class IsolatedVertexError(HyperwalkError):
    """Some vertex appears in no hyperedge."""


class InfeasibleParametersError(HyperwalkError):
    """Requested regular/uniform degree parameters admit no hypergraph."""


class GenerationFailedError(HyperwalkError):
    """Random generation exhausted its retry budget."""


class HgSyntaxError(HyperwalkError):
    """Malformed .hg text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimensionMismatchError(HyperwalkError):
    """Vector or matrix dimensions do not agree."""


class DimensionTooLargeError(HyperwalkError):
    """A dense walk matrix was requested above the dense cap."""


class InvalidToleranceError(HyperwalkError):
    """Tolerance outside the accepted range (0, 1e-3]."""


class CountMismatchError(HyperwalkError):
    """Predicted and actual eigenvalue multisets have different sizes."""
