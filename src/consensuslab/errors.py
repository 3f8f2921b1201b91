"""Exception types shared across the package."""


class ConsensusLabError(Exception):
    """Base class for errors raised by consensuslab."""


class InvalidWeightError(ConsensusLabError, ValueError):
    """A weight vector entry is nonpositive where positivity is required."""


class ScheduleError(ConsensusLabError, RuntimeError):
    """A schedule could not produce a valid value for the requested step."""

    def __init__(self, t: int, message: str | None = None):
        self.t = t
        super().__init__(message or f"schedule failed at t={t}")


class TableExhaustedError(ScheduleError):
    """A table-backed schedule or noise table was queried past its last entry."""


class InsufficientSampleError(ConsensusLabError, ValueError):
    """An estimator was asked for more than the sample can support."""


class InconsistentDeclarationError(ConsensusLabError, ValueError):
    """Declared derivative bounds are contradicted by sampled values."""


class StructureError(ConsensusLabError, ValueError):
    """An input matrix lacks the structure an operation requires."""


class ScenarioFormatError(ConsensusLabError, ValueError):
    """A scenario or summary document failed schema validation, or a scenario failed compilation.

    ``pointer`` holds a JSON-pointer-style path to the offending field when
    one is known.
    """

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        if pointer:
            message = f"{message} (at {pointer})"
        super().__init__(message)
