"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, PreconditionError and
PrecisionError -> 3.  No exception maps to 4: the CLI returns it itself when a
verify suite fails or a global height's discrepancy reaches --tolerance.
Everything else is a bug.
"""


class TropicalHeightsError(Exception):
    """Base class for all package errors."""


class InputError(TropicalHeightsError):
    """Malformed or mathematically invalid input data."""


class PreconditionError(TropicalHeightsError):
    """A documented precondition of an operation does not hold."""


class AdditiveReductionError(PreconditionError):
    """Local heights at additive places are out of scope."""


class InsufficientTermsError(TropicalHeightsError):
    """The finite Fourier term list cannot certify an evaluation.

    Carries the offending (reduced) point so callers can report it.
    """

    def __init__(self, point):
        self.point = list(point)
        super().__init__(f"term list too small to certify evaluation at {self.point}")


class NotPrincipallyPolarizedData(TropicalHeightsError):
    """Fourier data is inconsistent with a principal polarization."""


class OnDivisorError(TropicalHeightsError):
    """Evaluation requested at a point lying on the divisor."""


class PrecisionError(TropicalHeightsError):
    """Certified precision was exhausted; retry with more digits."""
