"""Exception types shared across the package."""


class TomographyError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidStateError(TomographyError):
    """A Bloch vector or density matrix violates a physicality invariant."""


class RankDeficientStateError(TomographyError):
    """An operation requiring a strictly positive state received a
    (numerically) rank-deficient one."""


class InsufficientDataError(TomographyError):
    """A dataset is missing counts required by the estimator."""


class UnderdeterminedError(TomographyError):
    """The measurement axes of a dataset do not span Bloch space.

    ``null_direction`` is a unit 3-vector along which the data place no
    constraint on the estimate.
    """

    def __init__(self, message: str, null_direction):
        super().__init__(message)
        self.null_direction = null_direction


class BudgetError(TomographyError):
    """A protocol cannot allot at least one shot to every required setting,
    or would allot a setting more shots than the sampler can draw."""


class UsageError(TomographyError):
    """Invalid command-line or config-file input (CLI exit status 2)."""
