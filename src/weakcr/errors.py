"""Exception hierarchy.

Separate classes (rather than bare ValueError) so callers and the CLI can
distinguish argument mistakes from computations whose assumptions turned
out not to hold.
"""


class WeakCRError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(WeakCRError):
    """Raised when a matrix dimension is too small or inconsistent."""


class TruncationError(WeakCRError):
    """Raised when a truncated model is too small for the requested check.

    Carries ``tail_mass``, the offending leaked mass, when available.
    """

    def __init__(self, msg, tail_mass=None):
        super().__init__(msg)
        self.tail_mass = tail_mass


class DomainParameterError(WeakCRError):
    """Raised when a parameter lies outside its admissible range."""


class PreconditionError(WeakCRError):
    """Raised when an input violates a documented precondition."""


class NonNormalizableError(WeakCRError):
    """Raised when a vacuum is not in l^2, or two base vectors cannot be scaled to pairing 1."""


class ConditioningError(WeakCRError):
    """Raised when float64 cannot support a verdict: a numerically singular
    vector family, or a Weyl block that cancels past its limit."""


class NotInL2Error(WeakCRError):
    """Raised when a pairing needs a divergent moment.

    ``power`` names the first offending moment order.
    """

    def __init__(self, msg, power=None):
        super().__init__(msg)
        self.power = power


class NotAdmissibleError(WeakCRError):
    """Raised when a function pair is outside the operator domain."""


class ClosedFormInconsistencyError(WeakCRError):
    """Raised when a closed-form variance comes out negative beyond roundoff."""


class ExprSyntaxError(WeakCRError):
    """Syntax error in an operator expression; carries line and column."""

    def __init__(self, msg, line=1, column=1):
        super().__init__(f"{msg} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier other than S, T, S', T', i appeared in an expression."""


class ExprEvalError(WeakCRError):
    """Raised when a syntactically valid expression cannot be evaluated."""
