"""Exception types shared across the package: one subclass per CLI exit code."""


class SpectraError(Exception):
    """Base class for all domain errors raised by sl2spectra."""


class InvalidSpec(SpectraError):
    """The input (a specification, grid, profile, range or file) is unusable: exit 2."""


class NoRegularBranch(SpectraError):
    """No admissible parameter branch survives the regularity conditions: exit 3."""


class NoConvergence(SpectraError):
    """An eigensolver failed to converge or violated its accuracy contract: exit 5."""
