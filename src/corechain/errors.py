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
    """A program request outside its builder's supported shape, or a step dt or period tau that is not positive."""


class InvalidCertificateError(ValueError):
    """An operation required a valid mirror certificate and none holds."""


class InsufficientDataError(ValueError):
    """A fit was requested with too few usable samples."""


class InvalidStateError(ValueError):
    """An amplitude vector does not fit its layout or is not normalized (a NaN norm included)."""


class NonUnitaryError(ValueError):
    """A single-qubit operator is not a 2x2 unitary."""


class NonFiniteTimeError(ValueError):
    """An evolution time, a period or a phase is NaN or infinite, or overflows the phases of the chain's modes."""


class InvalidInstructionError(ValueError):
    """A site or qubit outside its layout, a target on the control site, a site swapped with itself, or an unknown op."""


class InvalidLayoutError(ValueError):
    """A register layout has a negative count or no core site, or two layouts (or a layout and a profile) do not match."""
