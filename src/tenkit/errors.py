"""Exception hierarchy shared by all tenkit modules."""

__all__ = [
    "TenkitError", "ArgumentError", "BoundsError", "ShapeError", "DivisionError",
    "ParseError", "PlanError", "ModelError", "NumericError",
]


class TenkitError(Exception):
    """Base class for all tenkit errors."""


class ArgumentError(TenkitError):
    """An argument is invalid (bad mode number, bad rank, bad permutation, ...)."""


class BoundsError(TenkitError):
    """A 1-based index falls outside its mode's extent."""


class ShapeError(TenkitError):
    """Operand shapes are incompatible for the requested operation."""


class DivisionError(TenkitError):
    """Entry-wise division hit an exactly-zero divisor entry."""


class ParseError(TenkitError):
    """A .ten or .tn file is malformed; carries the offending line (and column)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.col = col


class PlanError(TenkitError):
    """A contraction plan does not fit the network it is applied to."""


class ModelError(TenkitError):
    """A factored model (CP/Tucker/TT/TR) violates its structural invariants."""


class NumericError(TenkitError):
    """A numerical procedure failed (non-convergence, non-finite values, overflow)."""
