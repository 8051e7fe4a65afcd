"""Exception types shared across the package, and its one check of a
caller's number (``_finite``)."""

import math

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class OrthoTrajError(Exception):
    """Base class for all library errors."""


class DomainError(OrthoTrajError, ValueError):
    """Input lies outside the mathematical domain of an operation
    (non-finite value, p = 0 singularity, ...)."""


class DegeneratePointError(OrthoTrajError, ValueError):
    """Both velocity components vanish at the requested curve parameter."""


class DegenerateFootError(OrthoTrajError, ValueError):
    """The orthogonal foot of a line coincides with a cusp of the curve."""


class NoBracketError(OrthoTrajError, ValueError):
    """f(lo) and f(hi) have the same sign; no root is bracketed."""


class NoBranchError(OrthoTrajError, ValueError):
    """No admissible slope branch exists at the trace start point."""


class DegenerateInputError(OrthoTrajError, ValueError):
    """Input point set is too small or collinear for a conic fit."""


class ConfigError(OrthoTrajError, ValueError):
    """Invalid CLI / plot configuration; the message names the field."""


def _finite(value, name: str) -> float:
    """``float(value)``, or ``DomainError`` where it is not finite, an int
    past the float range included.  A value ``float`` rejects, such as a
    complex step or None, raises its ``TypeError``."""
    try:
        x = float(value)
    except OverflowError:  # the int itself is not formatted: repr fails past 4,300 digits
        raise DomainError(f"{name} must be finite, got a number past the float range") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x
