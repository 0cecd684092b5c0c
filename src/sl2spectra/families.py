"""Potential families and the inversion of their parameter-matching equations.

Each family (complexified Scarf II, generalized Poschl-Teller, complexified
Morse) is a closed-form member of one realization class.  The solvers invert
the matching between the family's couplings and the realization parameters
(b, m), apply the regularity conditions m_re > 1/2 (and b_re > 0 for class
III), and return every admissible branch together with its level range.

Each family is one FamilySpec class, and FAMILIES maps family names to
those classes; the rest of the package reads everything family-specific
from the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from .algebra import PotentialClass, RealizationParams
from .errors import InvalidSpec, NoRegularBranch

# Relative tolerance for the strict inequalities and threshold comparisons,
# so behavior at measure-zero parameter points is deterministic under
# floating-point noise.
REG_TOL = 1e-12


class BranchKind(Enum):
    REAL_SERIES = "RealSeries"
    COMPLEX_PAIR_MEMBER = "ComplexPairMember"
    COMPLEX_UNPAIRED = "ComplexUnpaired"


def _strictly_above(value: float, bound: float) -> bool:
    return value - bound > REG_TOL * max(1.0, abs(value), abs(bound))


class FamilySpec:
    """Base of the family specs: one frozen dataclass per family, listed in FAMILIES.

    The fields are the couplings in document order: the `parameters` keys
    and, with '_' written '-', the CLI flags.  A family sets `family`, `box`
    (default oracle domain) and `sweep_field` (the field `scan` sweeps, or
    None) and defines `potential` and `_solve`.  Non-finite couplings are
    rejected here, once for every family.
    """

    family: ClassVar[str]
    box: ClassVar[tuple[float, float]]
    sweep_field: ClassVar[str | None] = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidSpec(f"{self.family} requires a finite {name}, got {value}")

    def parameters(self) -> dict[str, float]:
        """The couplings by field name, in field order (the instance holds nothing else)."""
        return dict(vars(self))

    def threshold_distance(self) -> float | None:
        """|v2| - (v1 + 1/4) for families with a symmetry-breaking threshold."""
        return None

    def reality_residual(self) -> float | None:
        """Residual of the real-spectrum condition for families that have one."""
        return None


# The symmetric box is wide enough that the shallowest certified level
# (binding momentum ~0.5) decays below 1e-4 of its peak over the outer 5% of
# the grid; the Morse box puts a > 1e3 potential wall at the left edge.
SYMMETRIC_BOX = (-20.0, 20.0)
MORSE_BOX = (-4.0, 35.0)


@dataclass(frozen=True)
class ScarfSpec(FamilySpec):
    """V(x) = -v1 * sech(x)**2 - i * v2 * sech(x) * tanh(x),  v1 >= 0, v2 != 0.

    v1 = 0 (a purely imaginary potential) is admitted: the broken-coupling
    regime |v2| > v1 + 1/4 is reached there with small couplings.
    """

    v1: float
    v2: float

    family = "scarf2"
    box = SYMMETRIC_BOX
    sweep_field = "v2"

    def __post_init__(self):
        super().__post_init__()
        if not self.v1 >= 0:
            raise InvalidSpec(f"Scarf II requires v1 >= 0, got {self.v1}")
        if self.v2 == 0:
            raise InvalidSpec("Scarf II requires v2 != 0")

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        sech = 1.0 / np.cosh(x)
        return -self.v1 * sech**2 - 1j * self.v2 * sech * np.tanh(x)

    def _solve(self):
        return solve_scarf2(self)

    def threshold_distance(self) -> float:
        return abs(self.v2) - (self.v1 + 0.25)


@dataclass(frozen=True)
class PoschlTellerSpec(FamilySpec):
    """V(x) = v1 * cosech(tau)**2 - v2 * cosech(tau) * coth(tau), tau = x - c - i*contour_gamma.

    Requires v1 > -1/4 and v2 != 0.  The contour shift contour_gamma must be
    nonzero in (-pi/4, pi/4): on the real axis the unshifted potential is
    singular at x = c.  c and contour_gamma only move the contour; the
    spectrum depends on (v1, v2) alone.
    """

    v1: float
    v2: float
    c: float = 0.0
    contour_gamma: float = math.pi / 8

    family = "poschl-teller"
    box = SYMMETRIC_BOX
    sweep_field = "v2"

    def __post_init__(self):
        super().__post_init__()
        if not self.v1 > -0.25:
            raise InvalidSpec(f"generalized Poschl-Teller requires v1 > -1/4, got {self.v1}")
        if self.v2 == 0:
            raise InvalidSpec("generalized Poschl-Teller requires v2 != 0")
        gamma = self.contour_gamma
        if gamma == 0 or not (-math.pi / 4 < gamma < math.pi / 4):
            raise InvalidSpec(f"contour_gamma must be nonzero in (-pi/4, pi/4), got {gamma}")

    def potential(self, x):
        tau = np.asarray(x, dtype=complex) - self.c - 1j * self.contour_gamma
        csch2 = 1.0 / np.sinh(tau) ** 2
        return self.v1 * csch2 - self.v2 * csch2 * np.cosh(tau)

    def _solve(self):
        return solve_poschl_teller(self)

    threshold_distance = ScarfSpec.threshold_distance


@dataclass(frozen=True)
class MorseSpec(FamilySpec):
    """V(x) = (v1r + i*v1i) * exp(-2x) - (v2r + i*v2i) * exp(-x), with v1i != 0."""

    v1r: float
    v1i: float
    v2r: float
    v2i: float

    family = "morse"
    box = MORSE_BOX

    def __post_init__(self):
        super().__post_init__()
        if self.v1i == 0:
            raise InvalidSpec("complexified Morse requires v1i != 0")
        # Bounds the denominator 2*sqrt(2)*D and every numerator of
        # solve_morse and morse_reality_residual, so none of them overflows.
        delta, _, sp, sm = _morse_roots(self)
        v2_size = abs(self.v2r) + abs(self.v2i) + 1.0
        if not math.isfinite(max(1.0, 2 * math.sqrt(2) * delta) * max(1.0, sp + sm) * v2_size):
            raise InvalidSpec("Morse couplings too large: the matching equations overflow")

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return complex(self.v1r, self.v1i) * np.exp(-2 * x) - complex(
            self.v2r, self.v2i
        ) * np.exp(-x)

    def _solve(self):
        return solve_morse(self)

    def reality_residual(self) -> float:
        return morse_reality_residual(self)


@dataclass(frozen=True)
class MorseABSpec(FamilySpec):
    """Morse couplings parametrized as v1 = (A + iB)**2,  v2 = (gamma_p*A, delta_p*B).

    With C = ((gamma_p - 1) A + i (delta_p - 1) B) / (2 (A + iB)), the levels
    take the unified form E_n = -(C - n)**2 for n < Re C, and the regularity
    condition becomes (gamma_p - 1) A**2 + (delta_p - 1) B**2 > 0.  The level
    series is entirely real exactly when delta_p = gamma_p, which `scan`
    crosses by sweeping delta_p.
    """

    A: float
    B: float
    gamma_p: float
    delta_p: float

    family = "morse-ab"
    box = MORSE_BOX
    sweep_field = "delta_p"

    def __post_init__(self):
        super().__post_init__()
        if not self.A > 0:
            raise InvalidSpec(f"require A > 0, got {self.A}")
        if self.B == 0:
            raise InvalidSpec("require B != 0")

    @property
    def c_param(self) -> complex:
        num = complex((self.gamma_p - 1) * self.A, (self.delta_p - 1) * self.B)
        return num / (2 * complex(self.A, self.B))

    @property
    def regularity_margin(self) -> float:
        return (self.gamma_p - 1) * self.A * self.A + (self.delta_p - 1) * self.B * self.B

    def potential(self, x):
        return morse_from_ab(self).potential(x)

    def _solve(self):
        return solve_morse(morse_from_ab(self))

    def reality_residual(self) -> float:
        return morse_reality_residual(morse_from_ab(self))


FAMILIES: dict[str, type[FamilySpec]] = {
    cls.family: cls for cls in (ScarfSpec, PoschlTellerSpec, MorseSpec, MorseABSpec)
}


def morse_from_ab(ab: MorseABSpec) -> MorseSpec:
    """Exact coupling map v1r = A**2 - B**2, v1i = 2AB, v2r = gamma_p*A, v2i = delta_p*B.

    Products, not powers: an overflow becomes inf, which MorseSpec rejects.
    """
    return MorseSpec(
        v1r=ab.A * ab.A - ab.B * ab.B,
        v1i=2 * ab.A * ab.B,
        v2r=ab.gamma_p * ab.A,
        v2i=ab.delta_p * ab.B,
    )


@dataclass(frozen=True)
class AlgebraicSolution:
    """One admissible branch: realization, tower label m, and its level range.

    Levels are n = 0, 1, ... with n < n_max_exclusive = m_re - 1/2; the
    branch tag epsilon distinguishes the two solution sets of the Scarf and
    Poschl-Teller matching systems.
    """

    realization: RealizationParams
    m_re: float
    m_im: float
    epsilon: int
    n_max_exclusive: float
    branch_kind: BranchKind

    def __post_init__(self):
        if not _strictly_above(self.m_re, 0.5):
            raise ValueError(f"regularity m_re > 1/2 violated: m_re = {self.m_re}")
        cls = self.realization.potential_class
        if cls in (PotentialClass.III_UPPER, PotentialClass.III_LOWER):
            if not _strictly_above(self.realization.b_re, 0.0):
                raise ValueError(
                    f"class III regularity b_re > 0 violated: {self.realization.b_re}"
                )
        if (self.branch_kind is BranchKind.REAL_SERIES) != (self.m_im == 0.0):
            raise ValueError("RealSeries tag must coincide with m_im == 0")

    @property
    def m(self) -> complex:
        return complex(self.m_re, self.m_im)


def coupling_regime(v1: float, v2: float) -> tuple[str, float, float]:
    """Classify |v2| against the critical coupling v1 + 1/4.

    Returns (regime, sq_plus, sq_minus) with sq_plus = sqrt(v1 + 1/4 + |v2|)
    and sq_minus = sqrt(max(v1 + 1/4 - |v2|, 0)) below the threshold or
    sqrt(|v2| - v1 - 1/4) above it; regime is "real", "threshold" or
    "complex".  The threshold band has relative width REG_TOL so that a
    sweep sample landing on v1 + 1/4 is treated as the exact merge point.
    """
    s = v1 + 0.25
    a = abs(v2)
    diff = a - s
    if abs(diff) <= REG_TOL * max(1.0, a, s):
        return "threshold", math.sqrt(s + a), 0.0
    if diff < 0:
        return "real", math.sqrt(s + a), math.sqrt(-diff)
    return "complex", math.sqrt(s + a), math.sqrt(diff)


def _solve_scarf_pt(spec, realization_for_branch) -> list[AlgebraicSolution]:
    """Shared branch enumeration for the Scarf II / Poschl-Teller matching systems."""
    regime, sq_p, sq_m = coupling_regime(spec.v1, spec.v2)
    out = []
    if regime == "complex":
        m_re = 0.5 * sq_p
        if _strictly_above(m_re, 0.5):
            for eps in (1, -1):
                out.append(
                    AlgebraicSolution(
                        realization=realization_for_branch(regime, eps, sq_p, sq_m),
                        m_re=m_re,
                        m_im=0.5 * eps * sq_m,
                        epsilon=eps,
                        n_max_exclusive=m_re - 0.5,
                        branch_kind=BranchKind.COMPLEX_PAIR_MEMBER,
                    )
                )
    else:
        # At the exact threshold the eps = +-1 series coincide; keep one.
        for eps in (1,) if regime == "threshold" else (1, -1):
            m_re = 0.5 * (sq_p + eps * sq_m)
            if not _strictly_above(m_re, 0.5):
                continue
            out.append(
                AlgebraicSolution(
                    realization=realization_for_branch(regime, eps, sq_p, sq_m),
                    m_re=m_re,
                    m_im=0.0,
                    epsilon=eps,
                    n_max_exclusive=m_re - 0.5,
                    branch_kind=BranchKind.REAL_SERIES,
                )
            )
    if not out:
        raise NoRegularBranch(f"no branch satisfies m_re > 1/2 for {spec}")
    return out


def solve_scarf2(spec: ScarfSpec) -> list[AlgebraicSolution]:
    """All admissible class-I branches of the complexified Scarf II potential.

    Below the critical coupling |v2| <= v1 + 1/4 the two real series are

        b = i * nu * (sq_p - eps * sq_m) / 2,   m = (sq_p + eps * sq_m) / 2,

    with sq_p = sqrt(v1 + 1/4 + |v2|), sq_m = sqrt(v1 + 1/4 - |v2|) and
    nu = sign(v2); above it the branches pair into complex conjugates

        b = (nu*eps*sq_m + i*nu*sq_p) / 2,      m = (sq_p + i*eps*sq_m) / 2.

    Each candidate is kept only if m_re > 1/2.  At the exact threshold the
    two real series coincide and a single merged branch is returned.
    """
    nu = 1.0 if spec.v2 > 0 else -1.0

    def realization_for_branch(regime, eps, sq_p, sq_m):
        if regime == "complex":
            b_re, b_im = 0.5 * nu * eps * sq_m, 0.5 * nu * sq_p
        else:
            b_re, b_im = 0.0, 0.5 * nu * (sq_p - eps * sq_m)
        return RealizationParams(PotentialClass.I, c=0.0, gamma=0.0, b_re=b_re, b_im=b_im)

    return _solve_scarf_pt(spec, realization_for_branch)


def solve_poschl_teller(spec: PoschlTellerSpec) -> list[AlgebraicSolution]:
    """All admissible class-II branches of the generalized Poschl-Teller potential.

    Mirrors solve_scarf2 with the roles of b_re and b_im exchanged: the real
    series carry b = nu * (sq_p - eps * sq_m) / 2 (purely real) and the
    broken-coupling branches b = nu * (sq_p - i*eps*sq_m) / 2.  The contour
    parameters (c, gamma) pass through to the realization and leave the
    eigenvalue series untouched.
    """
    nu = 1.0 if spec.v2 > 0 else -1.0

    def realization_for_branch(regime, eps, sq_p, sq_m):
        if regime == "complex":
            b_re, b_im = 0.5 * nu * sq_p, -0.5 * nu * eps * sq_m
        else:
            b_re, b_im = 0.5 * nu * (sq_p - eps * sq_m), 0.0
        return RealizationParams(
            PotentialClass.II, c=spec.c, gamma=spec.contour_gamma, b_re=b_re, b_im=b_im
        )

    return _solve_scarf_pt(spec, realization_for_branch)


def _morse_roots(spec: MorseSpec) -> tuple[float, float, float, float]:
    """D = |v1r + i*v1i|, nu = sign(v1i), sqrt(v1r + D) and sqrt(-v1r + D)."""
    delta = math.hypot(spec.v1r, spec.v1i)
    nu = 1.0 if spec.v1i > 0 else -1.0
    return delta, nu, math.sqrt(delta + spec.v1r), math.sqrt(delta - spec.v1r)


def morse_reality_residual(spec: MorseSpec) -> float:
    """Relative residual of the real-spectrum condition for the Morse family.

    The single Morse branch has a purely real level series exactly when
    sqrt(v1r + D) * v2i = nu * sqrt(-v1r + D) * v2r, with D = |v1r + i*v1i|
    and nu = sign(v1i); this returns |lhs - rhs| / max(1, |lhs|, |rhs|).
    """
    _, nu, sp, sm = _morse_roots(spec)
    lhs = sp * spec.v2i
    rhs = nu * sm * spec.v2r
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def solve_morse(spec: MorseSpec) -> list[AlgebraicSolution]:
    """The single admissible class-III branch of the complexified Morse potential.

    With D = sqrt(v1r**2 + v1i**2) and nu = sign(v1i), regularity fixes

        b = [sqrt(v1r + D) + i * nu * sqrt(-v1r + D)] / sqrt(2),
        m = [sqrt(v1r + D) - i * nu * sqrt(-v1r + D)] * (v2r + i*v2i)
            / (2 * sqrt(2) * D),

    which gives b_re > 0, and the branch exists iff m_re > 1/2, i.e.
    sqrt(v1r + D)*v2r + nu*sqrt(-v1r + D)*v2i > sqrt(2)*D.  The level series
    is real exactly when the reality residual vanishes (tolerance REG_TOL);
    otherwise the complex levels come unpaired, the conjugate levels
    belonging to the conjugated potential.
    """
    delta, nu, sp, sm = _morse_roots(spec)
    b_re = sp / math.sqrt(2)
    b_im = nu * sm / math.sqrt(2)
    denom = 2 * math.sqrt(2) * delta
    m_re = (sp * spec.v2r + nu * sm * spec.v2i) / denom
    m_im = (sp * spec.v2i - nu * sm * spec.v2r) / denom
    if not _strictly_above(m_re, 0.5):
        raise NoRegularBranch(f"Morse regularity fails: m_re = {m_re:.6g} is not > 1/2")
    is_real = morse_reality_residual(spec) <= REG_TOL
    return [
        AlgebraicSolution(
            realization=RealizationParams(
                PotentialClass.III_UPPER, c=0.0, gamma=0.0, b_re=b_re, b_im=b_im
            ),
            m_re=m_re,
            m_im=0.0 if is_real else m_im,
            epsilon=1,
            n_max_exclusive=m_re - 0.5,
            branch_kind=BranchKind.REAL_SERIES if is_real else BranchKind.COMPLEX_UNPAIRED,
        )
    ]


def solve(spec: FamilySpec) -> list[AlgebraicSolution]:
    """Every admissible branch of the family's matching equations."""
    return spec._solve()


def with_swept_value(spec: FamilySpec, value: float) -> FamilySpec:
    """Return a copy of spec with its sweep field (`spec.sweep_field`) set to value."""
    if spec.sweep_field is None:
        raise InvalidSpec(f"family {spec.family!r} has no sweep parameter")
    return replace(spec, **{spec.sweep_field: value})
