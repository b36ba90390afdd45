"""Exception types shared across the package."""


class SizeLimitError(ValueError):
    """A request exceeds the dense desk-scale caps."""


class InvalidProfileError(ValueError):
    """A coupling profile is structurally broken: lengths, non-finite entries or mirror symmetry."""


class ReconstructionInfeasibleError(ValueError):
    """No positive-coupling chain can realize the requested spectrum."""


class IllConditionedError(ValueError):
    """The inverse-design recurrence broke down numerically.

    `index` is the 1-based coupling index at which the breakdown occurred.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class UnsupportedConfigurationError(ValueError):
    """A program request falls outside the builder's supported shape."""


class InvalidCertificateError(ValueError):
    """An operation required a valid mirror certificate and none holds."""


class InsufficientDataError(ValueError):
    """A fit was requested with too few usable samples."""
