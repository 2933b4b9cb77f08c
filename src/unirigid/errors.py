"""Exception types shared across the package."""


class UniRigidError(Exception):
    """Base class for all errors raised by this package."""


class AngleNearPiError(UniRigidError):
    """Rotation logarithm requested within tolerance of the pi-angle cut."""


class GimbalLockError(UniRigidError):
    """Euler-angle chart evaluated where sin(theta) is below the validity threshold."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NotPositiveDefiniteError(UniRigidError):
    """Inertia data fails a positive-definiteness requirement; names the scenario field."""

    def __init__(self, message: str, field: str = "inertia"):
        super().__init__(message)
        self.field = field


class FrameNotAtCoMError(UniRigidError):
    """Operation requires the body frame origin at the center of mass."""


class RankDeficientConstraintError(UniRigidError):
    """Constraint rows are linearly dependent at the working threshold."""


class NonFiniteStateError(UniRigidError):
    """Integration produced NaN or Inf; carries the abort context."""

    def __init__(self, message: str, time=None, last_sample_index: int = -1, samples=None):
        super().__init__(message)
        self.time = time
        self.last_sample_index = last_sample_index
        self.samples = samples if samples is not None else []


class ScenarioParseError(UniRigidError):
    """Scenario file is not syntactically valid JSON or misses required structure."""


class ScenarioValidationError(UniRigidError):
    """Scenario content violates a physical or schema invariant; names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
