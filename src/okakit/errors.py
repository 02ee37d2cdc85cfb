"""Exception types shared across the package."""


class OkakitError(Exception):
    """Base class for all errors raised by okakit."""


class IncompatibleOperands(OkakitError):
    """Series operands differ in dimension, center, or backend."""


class RequiresExactPolynomial(OkakitError):
    """Operation needs an untruncated polynomial input."""


class CenterNotOnAxis(OkakitError):
    """Series center has a nonzero coordinate along the split axis."""


class InvalidArity(OkakitError):
    """Arity parameter out of range."""


class NotARelation(OkakitError):
    """Vector fails the relation identity; carries the residual series."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidPartition(OkakitError):
    """Breakpoints unsorted or outside the sliced interval."""


class OnContour(OkakitError):
    """Evaluation point lies on the integration segment."""


class PoleTooCloseToSeam(OkakitError):
    """A pole locus sits within the seam margin."""


class NotHolomorphicDifference(OkakitError):
    """Seam difference failed the holomorphy residual check."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotInIdeal(OkakitError):
    """Function does not belong to the coordinate ideal."""


class SchemaError(OkakitError):
    """CLI input does not match the expected schema."""
