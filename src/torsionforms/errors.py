"""Exception types shared across the package."""


class SingularCurveError(ValueError):
    """Raised when a curve with vanishing discriminant is constructed or required."""


class OffCurveError(ValueError):
    """Raised when a point fed to the group law does not satisfy the curve equation."""


class SideConditionError(ValueError):
    """Raised when witness parameters violate the per-order side conditions."""


class DegenerateParameterError(ValueError):
    """Raised for parameter values where a family formula degenerates
    (zero denominator, or a singular generated curve)."""


class IncompleteFactorizationError(ValueError):
    """Raised when a computation requires a complete factorization but trial
    division left a nontrivial cofactor."""


class FamilyDataError(RuntimeError):
    """Hard failure of an internal family identity (on-curve check, point order,
    or a transcription self-check).  Signals a data bug, not a user error."""
