"""Bound-state spectra of complexified solvable potentials via an sl(2,C) potential algebra.

Closed-form solvers for the complexified Scarf II, generalized Poschl-Teller
and Morse families, their ladder-generated eigenfunctions, and an
independent finite-difference oracle that verifies every emitted level and
profile.
"""

from .algebra import (
    GridFunction,
    PotentialClass,
    RealizationParams,
    apply_ladder,
    energy_level,
    ground_state,
    tower_state,
)
from .errors import InvalidSpec, NoConvergence, NoRegularBranch, SpectraError
from .families import (
    AlgebraicSolution,
    BranchKind,
    MorseABSpec,
    MorseSpec,
    PoschlTellerSpec,
    ScarfSpec,
    morse_from_ab,
    solve,
)
from .oracle import (
    Eigendata,
    Grid,
    MatchReport,
    boundary_decay,
    default_grid,
    match_levels,
    residual,
    verify_spectrum,
)
from .spectrum import (
    Classification,
    EigenLevel,
    PhaseDiagramRow,
    SpectrumReport,
    analyze,
    classify,
    enumerate_levels,
    is_pt_symmetric,
    scan_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicSolution",
    "BranchKind",
    "Classification",
    "EigenLevel",
    "Eigendata",
    "Grid",
    "GridFunction",
    "InvalidSpec",
    "MatchReport",
    "MorseABSpec",
    "MorseSpec",
    "NoConvergence",
    "NoRegularBranch",
    "PhaseDiagramRow",
    "PoschlTellerSpec",
    "PotentialClass",
    "RealizationParams",
    "ScarfSpec",
    "SpectraError",
    "SpectrumReport",
    "analyze",
    "apply_ladder",
    "boundary_decay",
    "classify",
    "default_grid",
    "energy_level",
    "enumerate_levels",
    "ground_state",
    "is_pt_symmetric",
    "match_levels",
    "morse_from_ab",
    "residual",
    "scan_threshold",
    "solve",
    "tower_state",
    "verify_spectrum",
]
