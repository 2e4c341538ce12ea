"""Exception types, the validation and degeneracy tolerances, and the integer and simplex
checks."""

import operator

INPUT_TOL = 1e-9    # validation of user-supplied values
DEGENERATE_TOL = 1e-12     # an area or an angle cosine this close to 0 is 0


class DomainError(ValueError):
    """A value is outside its geometric domain (distinct from a malformed argument)."""


class NotATriangleError(DomainError):
    """Squared side lengths violate the triangle inequality."""


def integer(name: str, value, least: int) -> int:
    """value as an int if it is a Python or NumPy integer, not a bool, and >= least; else
    ValueError.  The one rule for every count, size, dimension, seed and stream."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def simplex_point(values, what: str) -> tuple:
    """Three values, each >= -INPUT_TOL and summing to 1 within INPUT_TOL, as floats clamped
    to >= +0.0, the largest set to 1 minus the rest if the clamp raised one; what names them."""
    vals = [float(v) for v in values]
    if not min(vals) >= -INPUT_TOL:
        raise DomainError(f"{what} must be nonnegative, got {vals}")
    if not abs(sum(vals) - 1.0) <= INPUT_TOL:
        raise DomainError(f"{what} must sum to 1, got sum {sum(vals)}")
    out = [max(v, 0.0) + 0.0 for v in vals]
    if min(vals) < 0.0:     # the largest gives back what the clamp added: sum 1
        out[out.index(max(out))] = 1.0 - sum(sorted(out)[:2])
    return tuple(out)
