"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point left the domain of a metric, schedule, or loss."""


class SingularLossError(DomainError):
    """Evaluation at a singular point of a loss (e.g. the origin of a
    scale-invariant objective)."""


class IntegrationError(RuntimeError):
    """Numerical integration aborted.  Carries the time of the abort."""

    def __init__(self, message, time=None):
        if time is not None:
            message = f"{message} (t={time:.6g})"
        super().__init__(message)
        self.time = time
