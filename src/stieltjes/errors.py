"""Exception types shared across the package."""


class StieltjesError(Exception):
    """Base class for all library-specific failures."""


class UnknownCatalogName(StieltjesError):
    """Requested catalog entry does not exist."""


class ParameterOutOfRange(StieltjesError):
    """A catalog parameter violates its constraint; message names the constraint."""


class NoDensityRoute(StieltjesError):
    """Distribution has a non-atomic part but no density evaluator."""


class QuadratureNonConvergence(StieltjesError):
    """Adaptive quadrature exhausted its budget above the requested tolerance."""


class DimensionTooLarge(StieltjesError):
    """The survival route, whose 2^d - 2 marginal transforms double with each
    axis, is limited to dimension 12."""


class MissingMarginal(StieltjesError):
    """A marginal evaluator required by inclusion-exclusion is unavailable."""


class NoClosedForm(StieltjesError):
    """Distribution has no closed-form transform."""


class DerivativeUnavailable(StieltjesError):
    """Transform derivative of the requested order cannot be produced."""


class PrecisionExhausted(StieltjesError):
    """Certified arithmetic error exceeds the tolerated fraction of the result."""


class QCollidesWithLambda(StieltjesError):
    """Target exponent q coincides with a sequence element."""


class GridDimensionMismatch(StieltjesError):
    """Number of grids does not match the distribution dimension."""


class GridMismatch(StieltjesError):
    """Fingerprints being compared were built on different grids."""


class SpecFormatError(StieltjesError):
    """Distribution spec document is malformed; carries the offending JSON path."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{message} (at {path})" if path else message)
