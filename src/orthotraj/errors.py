"""Exception types shared across the package."""

__all__ = [
    "OrthoTrajError",
    "DomainError",
    "DegeneratePointError",
    "DegenerateFootError",
    "NoBracketError",
    "NoBranchError",
    "DegenerateInputError",
    "ConfigError",
]


class OrthoTrajError(Exception):
    """Base class for all library errors."""


class DomainError(OrthoTrajError, ValueError):
    """Input lies outside the mathematical domain of an operation
    (non-finite value, p = 0 singularity, stencil crossing p = 0, ...)."""


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
