"""Exception types shared across the package."""


class HyperwalkError(ValueError):
    """Every input, parameter or state this package rejects."""


class HgSyntaxError(HyperwalkError):
    """Malformed .hg text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
