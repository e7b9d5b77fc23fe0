"""Exception types shared across the package."""


class SepwitError(Exception):
    """Base class for package-specific failures."""


class DimensionCapError(SepwitError):
    """A requested object exceeds the configured dense-size caps."""


class HermiticityError(SepwitError):
    """An operator that must be Hermitian is not, within tolerance."""


class SectorError(SepwitError):
    """A state is not supported on the required exchange-symmetry sector."""


class ZeroProjectionError(SepwitError):
    """A product vector projects to (numerically) zero."""


class ConvergenceError(SepwitError):
    """No optimization start reached the convergence thresholds."""


class EigensolveError(ConvergenceError):
    """No route decomposed a party step's matrix: the eigh or SVD of an
    overlap, or the SVD or eigh of the whitened terms."""


class InputFormatError(SepwitError):
    """An input file does not match the documented schema."""
