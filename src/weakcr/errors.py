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


class NoKernelError(WeakCRError):
    """Raised when no numerical kernel vector exists below tolerance.

    ``sigma_min`` holds |A v| for the unit vector v that inverse iteration
    settled on: an upper bound on the smallest singular value of A, and equal
    to it up to rounding once the iteration has converged.  The message says
    when it has not (nearly equal smallest singular values).
    """

    def __init__(self, msg, sigma_min=None):
        super().__init__(msg)
        self.sigma_min = sigma_min


class NonNormalizableError(WeakCRError):
    """Raised when two base vectors cannot be scaled to pairing 1."""


class ConditioningError(WeakCRError):
    """Raised when a vector family is numerically singular."""


class NotInL2Error(WeakCRError):
    """Raised when a pairing needs a divergent moment.

    ``power`` names the first offending moment order.
    """

    def __init__(self, msg, power=None):
        super().__init__(msg)
        self.power = power


class NotAdmissibleError(WeakCRError):
    """Raised when a function pair is outside the operator domain."""


class InconsistentOracleError(WeakCRError):
    """Raised when a membership oracle yields a non-monotone power profile."""


class ClosedFormInconsistencyError(WeakCRError):
    """Raised when a closed-form variance comes out negative beyond roundoff."""


class NonRegularLeafError(WeakCRError):
    """Raised when a box-product tree has a leaf outside the regular part."""


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
