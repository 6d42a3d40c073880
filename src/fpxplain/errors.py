"""Exception types shared across the package."""


class FpxError(Exception):
    """Base class for all errors raised by this package."""

    problems: tuple[str, ...] = ()  # an invalid model's broken invariants, one text each


class InputShapeError(FpxError):
    """An instance, subset or index does not fit the model's feature count."""


class UnsupportedModelError(FpxError):
    """The requested operation is not defined for this model class."""


class ResourceCapError(FpxError):
    """An exhaustive routine refused to run because the input exceeds its cap.

    Caps are configurable through environment variables, see fpxplain._config.
    """


class InvalidInstanceError(FpxError):
    """A problem instance (model, gadget input, graph, formula) violates its invariants."""


class InfeasibleError(FpxError):
    """The combinatorial subproblem has no solution (e.g. hitting an empty set)."""


class ParseError(FpxError):
    """A document could not be parsed. Carries a line number when known."""

    def __init__(self, message: str, line: int | None = None, problems: tuple[str, ...] = ()):
        self.line, self.problems = line, problems
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
