"""Exception types shared across the package."""


class LevyHeatError(Exception):
    """Base class for package-specific failures."""


class QuadratureUnderresolved(LevyHeatError):
    """A Fourier/time quadrature cannot reach the requested tolerance."""


class DivergentResolvent(LevyHeatError):
    """The resolvent integral of 1/(beta + 2*psi) does not converge."""


class NoRoot(LevyHeatError):
    """A root/threshold search failed to bracket a solution."""


class GridMismatch(LevyHeatError):
    """Two lattices that must share geometry do not."""


class AllocationLimit(LevyHeatError):
    """A requested lattice exceeds the configured memory budget."""


class HorizonExceeded(LevyHeatError):
    """A fixed-point lattice extends past the contraction horizon."""


class TruncationTooSmall(LevyHeatError):
    """The spatial window loses more mass than the configured tolerance."""


class InsufficientRange(LevyHeatError):
    """The data span is too short for the requested fit."""


class ConfigInvalid(LevyHeatError):
    """An experiment configuration failed schema or semantic validation."""
