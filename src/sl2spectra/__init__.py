"""Bound-state spectra of complexified solvable potentials via an sl(2,C) potential algebra.

Closed-form solvers for the complexified Scarf II, generalized Poschl-Teller
and Morse families, their ladder-generated eigenfunctions, and an
independent finite-difference oracle that verifies every emitted level and
profile.

Each public name is imported from its module the first time it is read
(PEP 562), so `import sl2spectra` loads neither numpy nor the oracle.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "algebra": ("GridFunction", "PotentialClass", "RealizationParams", "apply_ladder",
                "energy_level", "ground_state", "tower_state"),
    "errors": ("InvalidSpec", "NoConvergence", "NoRegularBranch", "SpectraError"),
    "families": ("AlgebraicSolution", "BranchKind", "MorseABSpec", "MorseSpec",
                 "PoschlTellerSpec", "ScarfSpec", "morse_from_ab", "solve"),
    "oracle": ("Eigendata", "Grid", "MatchReport", "boundary_decay", "default_grid",
               "match_levels", "residual", "verify_spectrum"),
    "spectrum": ("Classification", "EigenLevel", "PhaseDiagramRow", "SpectrumReport", "analyze",
                 "classify", "enumerate_levels", "is_pt_symmetric", "scan_threshold"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
