"""Exception types shared across the package."""


class SpectraError(Exception):
    """Base class for all domain errors raised by sl2spectra."""


class InvalidSpec(SpectraError):
    """A potential specification violates its parameter constraints."""


class NoRegularBranch(SpectraError):
    """No admissible parameter branch survives the regularity conditions."""


class SingularPoint(SpectraError):
    """A realization function was evaluated too close to a contour singularity."""


class BranchCutCrossing(SpectraError):
    """The principal-branch argument of a complex power wrapped across +-pi."""


class GridTooCoarse(SpectraError):
    """A grid is too coarse (or non-uniform) for the requested finite differences."""


class NoConvergence(SpectraError):
    """An eigensolver failed to converge or violated its accuracy contract."""


class EmptyFunction(SpectraError):
    """An operation received an identically-zero grid function."""
