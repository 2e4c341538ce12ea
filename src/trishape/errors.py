"""Exception types, and the tolerance of input validation, shared across the package."""

INPUT_TOL = 1e-9    # validation of user-supplied values


class DomainError(ValueError):
    """A value is outside its geometric domain (distinct from a malformed argument)."""


class NotATriangleError(DomainError):
    """Squared side lengths violate the triangle inequality."""
