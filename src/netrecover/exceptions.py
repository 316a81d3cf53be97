"""Exception types shared across the recovery pipeline."""


class RecoveryError(Exception):
    """Base class for algorithmic failures (as opposed to bad inputs)."""


class ConfigError(ValueError):
    """Invalid configuration or precondition violation."""


class FDEvaluationError(RecoveryError):
    """A finite-difference stencil point produced a non-finite value."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SubspaceDeficientError(RecoveryError):
    """The Hessian column space has numerical rank below the requested one.

    Carries ``sigma_ratio`` = sigma_m / sigma_1 of the column matrix so the
    caller can distinguish a borderline instance from a hopeless one.
    """

    def __init__(self, message, sigma_ratio):
        super().__init__(message)
        self.sigma_ratio = sigma_ratio


class IncompleteRecoveryError(RecoveryError):
    """Fewer than m distinct maximizers were found within the restart budget.

    ``partial`` holds the (D, k) vectors found so far, which the SPM stage
    writes to its weights file, and ``stats`` the restart counts, which the
    failed row of a pipeline run or study reports.
    """

    def __init__(self, message, partial, stats):
        super().__init__(message)
        self.partial = partial
        self.stats = stats


class IllConditionedError(RecoveryError):
    """A Gram system is numerically singular (incoherence failure)."""

    def __init__(self, message, cond):
        super().__init__(message)
        self.cond = cond


class DivergenceError(RecoveryError):
    """Gradient descent diverged; carries a step-size diagnostic."""

    def __init__(self, message, lr, suggested_lr=None):
        super().__init__(message)
        self.lr = lr
        self.suggested_lr = suggested_lr


class StageError(RecoveryError):
    """Wraps a failure inside a named stage; ``result`` is the run's result so far."""

    def __init__(self, stage, cause, result):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.result = result
