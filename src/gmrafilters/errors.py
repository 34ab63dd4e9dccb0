"""Exception types shared across the package."""


class GmraFilterError(Exception):
    """Base class for all errors raised by this package."""


class GridAlignmentError(GmraFilterError):
    """An interval set or breakpoint does not align with the requested grid."""


class ResolutionError(GmraFilterError):
    """The requested operation needs a finer grid than the one supplied."""


class DimensionCapError(GmraFilterError):
    """A block of K to solve densely exceeds the dimension cap ``ruelle.DIM_CAP``."""


class ParameterError(GmraFilterError):
    """A parameter lies outside its admissible range."""


class BundleFormatError(GmraFilterError):
    """A serialized bundle or report is malformed."""
