"""Exception types shared across the package."""


class SchemaError(ValueError):
    """Input document does not match the descriptor JSON schema."""


class DomainError(ValueError):
    """A value violates a domain invariant (positivity, ratio range, ...)."""


class RangeError(ValueError):
    """An argument lies outside its admissible range."""


class PreconditionError(RuntimeError):
    """An operation was invoked on inputs that violate its precondition."""


class CapacityError(RuntimeError):
    """A finite eigenspace cannot supply the requested number of eigenvectors,
    or floating point cannot hold the requested eigenvalues or quadrature
    nodes as distinct values."""

