"""Exception hierarchy.

The CLI maps these onto exit codes: ConfigError (a bad config value or flag, or
a malformed input file) and OSError -> 2, numeric/grid errors -> 3,
FitConvergenceError -> 4.
"""


class TwinPdcError(Exception):
    """Base class for all package errors."""


class ConfigError(TwinPdcError):
    """Malformed or inconsistent configuration input."""


class ResolutionError(TwinPdcError):
    """Grid too coarse to resolve the requested structure."""


class GridShapeError(TwinPdcError):
    """Operation requires a square grid (equal point counts and spans)."""


class RangeError(TwinPdcError):
    """Requested feature (e.g. a half-maximum crossing) not on the grid."""


class ContractError(TwinPdcError):
    """Input violates an operation precondition (e.g. non-normalized amplitude)."""


class DegenerateDispersionError(TwinPdcError):
    """Dispersion data degenerate for the requested quantity (e.g. kappa_i = 0)."""


class NonPhysicalCorrelationError(TwinPdcError):
    """Count record implies cross-correlation at or below the uncorrelated level."""


class IllPosedError(TwinPdcError):
    """Fit problem is ill-posed (too few points or no abscissa spread)."""


class FitConvergenceError(TwinPdcError):
    """Optimizer failed to converge; carries a diagnostic trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []
