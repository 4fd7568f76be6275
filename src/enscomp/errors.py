"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see ``enscomp.cli``):
parse errors -> 1, validation errors -> 2, bound violations -> 3,
resource-guard errors -> 4.
"""


class EnscompError(Exception):
    """Base class for all package-specific errors."""


class EnsembleParseError(EnscompError):
    """An ensemble file could not be parsed (bad JSON, missing fields)."""


class ValidationError(EnscompError):
    """Input violates a documented invariant (non-Hermitian, bad trace, ...)."""


class BoundViolationError(EnscompError):
    """A proven inequality came out violated; indicates an implementation bug."""


class DimensionGuardError(EnscompError):
    """A requested computation exceeds a resource limit of ``linalg.check_limit``."""
