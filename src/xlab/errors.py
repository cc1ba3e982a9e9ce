"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """An operation precondition was violated."""


class NotFound(LookupError):
    """A named object (method, experiment, zero bracket) does not exist."""


class ConvergenceFailure(RuntimeError):
    """A numerical routine did not reach the requested tolerance.

    Carries the best available estimate so callers can decide whether to
    record it as data or abort.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class IndeterminateGrid(RuntimeError):
    """A grid-based certification could not decide a sign condition."""
