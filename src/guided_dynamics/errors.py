"""Exception types shared across the package.

Verdict-style outcomes (NotMinimal, Inconsistent, NotSolvable, ...) are not
exceptions; they are returned as report records. Exceptions are reserved for
violated preconditions and numeric failures.
"""

REJECTED = (1, "rejected")
NUMERIC_FAILURE = (3, "numeric failure")


class GuidedDynamicsError(Exception):
    """Base class for all package errors. The CLI exits with `exit_code`
    and writes `label: message` to stderr."""
    exit_code, label = 3, "error"


class ExprSyntaxError(GuidedDynamicsError, ValueError):
    """Malformed expression source.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class DomainError(GuidedDynamicsError, ArithmeticError):
    """Evaluation hit a real-arithmetic domain violation (log/sqrt of a
    negative number, division by zero). Carries the offending subexpression."""
    exit_code, label = NUMERIC_FAILURE

    def __init__(self, message, subexpression=None, x=None):
        super().__init__(message)
        self.subexpression = subexpression
        self.x = x


class MapEscape(GuidedDynamicsError, ValueError):
    """A generator map left the state space beyond tolerance."""
    exit_code, label = NUMERIC_FAILURE

    def __init__(self, message, generator=None, point=None, image=None):
        super().__init__(message)
        self.generator = generator
        self.point = point
        self.image = image


class NotCertified(GuidedDynamicsError, RuntimeError):
    """Neumann solve refused: no contraction certificate exists up to m_max."""
    exit_code, label = NUMERIC_FAILURE


class NoConvergence(GuidedDynamicsError, RuntimeError):
    """Fixed-point iteration did not converge within max_iter."""
    exit_code, label = NUMERIC_FAILURE


class HypothesisFailure(GuidedDynamicsError, ValueError):
    """A theorem hypothesis gate failed. Names the condition and witness."""
    exit_code, label = REJECTED

    def __init__(self, condition, witness=None, detail=""):
        msg = f"hypothesis failed: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.condition = condition
        self.witness = witness


class PConfigViolation(GuidedDynamicsError, ValueError):
    """A map family is not a valid generalized P-configuration."""
    exit_code, label = REJECTED

    def __init__(self, condition, witness=None, detail=""):
        msg = f"P-configuration violation: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.condition = condition
        self.witness = witness


class DataMismatch(GuidedDynamicsError, ValueError):
    """Problem data violates the compatibility constraint h(a0) = h(aN)."""
    exit_code, label = REJECTED


class IllConditioned(GuidedDynamicsError, RuntimeError):
    """A condition number, bounded or estimated, exceeds the cap."""
    exit_code, label = NUMERIC_FAILURE

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class CornerMismatch(GuidedDynamicsError, ValueError):
    """Boundary data parts disagree at a shared corner."""
    exit_code, label = REJECTED


class DegenerateParametrization(GuidedDynamicsError, ValueError):
    """The curve conjugation is not strictly monotone; omega is not
    invertible at the requested tolerance."""
    exit_code, label = REJECTED


class ResolutionTooCoarse(GuidedDynamicsError, ValueError):
    """The cell width eps puts both endpoint seeds in one eps/2-cell."""


class NotInvertible(GuidedDynamicsError, ValueError):
    """phi_inv fails to invert phi at a sample point."""
    exit_code, label = NUMERIC_FAILURE

    def __init__(self, message, point=None, defect=None):
        super().__init__(message)
        self.point = point
        self.defect = defect


class NotSolvableError(GuidedDynamicsError, ValueError):
    """solve_bvp refused: solvability analysis returned NotSolvable.

    Carries the analysis report including any cycle witness.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SchemaError(GuidedDynamicsError, ValueError):
    """Config document violates the schema. Carries a JSON pointer."""
    exit_code, label = 2, "config error"

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer
