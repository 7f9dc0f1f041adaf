"""Package-wide error types."""


class InternalConsistencyError(RuntimeError):
    """Two independently computed paths disagreed: a kernel sign bug. Where
    two routes are compared, ``check`` names the cross-check and ``values``
    holds both results, which also end the message; elsewhere both are None."""

    def __init__(self, message: str, check: str | None = None, values: tuple | None = None):
        super().__init__(message if values is None else f"{message}: {values[0]} against {values[1]}")
        self.check, self.values = check, values


def cross_check(first, second, message: str, check: str) -> None:
    """Compare the results of a cross-check's two routes; raise when they differ."""
    if first != second:
        raise InternalConsistencyError(message, check, (first, second))


class DiracClosureError(ValueError):
    """A frame is not bracket-closed; carries the offending residual."""

    def __init__(self, message: str, pair: tuple, residual):
        super().__init__(message)
        self.pair = pair
        self.residual = residual
