"""Potential families and the inversion of their parameter-matching equations.

Each family (complexified Scarf II, generalized Poschl-Teller, complexified
Morse) is a closed-form member of one realization class.  Each family's
`branch_rows` inverts the matching between its couplings and the realization
parameters (b, m), applies the regularity conditions m_re > 1/2 (and b_re > 0
for class III), and returns every admissible branch as a plain row;
`solve` builds the branch objects from those rows.

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
# Largest accepted |coupling|.  Rounding to the 15 digits of the analyze
# document turns doubles above ~1.797693134862315e308 into inf; every coupling
# up to this bound is written as a finite number.
MAX_COUPLING = 1.79769313486231e308


class BranchKind(Enum):
    REAL_SERIES = "RealSeries"
    COMPLEX_PAIR_MEMBER = "ComplexPairMember"
    COMPLEX_UNPAIRED = "ComplexUnpaired"


def _strictly_above(value: float, bound: float) -> bool:
    return value - bound > REG_TOL * max(1.0, abs(value), abs(bound))


class FamilySpec:
    """Base of the family specs: one frozen dataclass per family, listed in FAMILIES.

    The fields are the couplings in document order: the `parameters` keys
    and, with '_' written '-', the CLI flags.  A family sets `family`,
    `potential_class` (its realization class), `box` (default oracle domain)
    and `sweep_field` (the field `scan` sweeps, or None) and defines
    `potential` and `branch_rows`, which returns a row (epsilon, kind, m_re,
    m_im, b) per admissible branch or raises NoRegularBranch, and overrides
    the closed-form hooks below where it differs from the base.  Couplings
    that are not finite or exceed MAX_COUPLING in magnitude are rejected
    here, once for every family.
    """

    family: ClassVar[str]
    potential_class: ClassVar[PotentialClass]
    box: ClassVar[tuple[float, float]]
    sweep_field: ClassVar[str | None] = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if not abs(value) <= MAX_COUPLING:  # also false for nan
                raise InvalidSpec(
                    f"{self.family} requires a finite {name} of magnitude at most "
                    f"{MAX_COUPLING:.15g}, got {value}"
                )

    def realization(self, b: complex) -> RealizationParams:
        """The realization of a branch with amplitude b (no contour shift)."""
        return RealizationParams(self.potential_class, b_re=b.real, b_im=b.imag)

    def parameters(self) -> dict[str, float]:
        """The couplings by field name, in field order (the instance holds nothing else)."""
        return dict(vars(self))

    def threshold_distance(self) -> float | None:
        """|v2| - (v1 + 1/4) for families with a symmetry-breaking threshold."""
        return None

    def reality_residual(self) -> float | None:
        """Residual of the real-spectrum condition for families that have one."""
        return None

    def pt_symmetric(self) -> bool:
        """Whether V(-x)* == V(x) exactly.  Never for Morse and Morse-AB: v1i != 0
        (2AB != 0), so conj(v1)*exp(2x) - conj(v2)*exp(x) never equals V(x)."""
        return False


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
    potential_class = PotentialClass.I
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

    def branch_rows(self):
        """All admissible class-I branches of the complexified Scarf II potential.

        Below the critical coupling |v2| <= v1 + 1/4 the two real series are

            b = i * nu * (sq_p - eps * sq_m) / 2,   m = (sq_p + eps * sq_m) / 2,

        with sq_p = sqrt(v1 + 1/4 + |v2|), sq_m = sqrt(v1 + 1/4 - |v2|) and
        nu = sign(v2); above it the branches pair into complex conjugates

            b = (nu*eps*sq_m + i*nu*sq_p) / 2,      m = (sq_p + i*eps*sq_m) / 2.

        Each candidate is kept only if m_re > 1/2.  At the exact threshold the
        two real series coincide and a single merged branch is returned.
        """
        return _scarf_pt_rows(self)

    def threshold_distance(self) -> float:
        return abs(self.v2) - (self.v1 + 0.25)

    def pt_symmetric(self) -> bool:
        """Always: sech is even, tanh odd and v1, v2 real, so V(-x)* == V(x)."""
        return True


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
    potential_class = PotentialClass.II
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

    def branch_rows(self):
        """All admissible class-II branches of the generalized Poschl-Teller potential.

        The Scarf II branches with b multiplied by -i: the real series carry
        b = nu * (sq_p - eps * sq_m) / 2 (purely real) and the broken-coupling
        branches b = nu * (sq_p - i*eps*sq_m) / 2.  The contour parameters
        (c, gamma) pass through to the realization and leave the eigenvalue
        series untouched.
        """
        return [
            (eps, kind, m_re, m_im, complex(b.imag, 0.0 - b.real))  # -i*b, no -0.0 part
            for eps, kind, m_re, m_im, b in _scarf_pt_rows(self)
        ]

    def realization(self, b: complex) -> RealizationParams:
        return RealizationParams(PotentialClass.II, self.c, self.contour_gamma, b.real, b.imag)

    threshold_distance = ScarfSpec.threshold_distance

    def pt_symmetric(self) -> bool:
        """Exactly when c == 0: V is an even, real-coefficient function of
        tau = x - c - i*gamma, so V(-x)* == V(x + 2c), and a decaying V is not periodic."""
        return self.c == 0


@dataclass(frozen=True)
class MorseSpec(FamilySpec):
    """V(x) = (v1r + i*v1i) * exp(-2x) - (v2r + i*v2i) * exp(-x), with v1i != 0."""

    v1r: float
    v1i: float
    v2r: float
    v2i: float

    family = "morse"
    potential_class = PotentialClass.III_UPPER
    box = MORSE_BOX

    def __post_init__(self):
        super().__post_init__()
        if self.v1i == 0:
            raise InvalidSpec("complexified Morse requires v1i != 0")
        # Bounds the denominator 2*sqrt(2)*D and every numerator of
        # branch_rows and morse_reality_residual, so none of them overflows.
        delta, _, sp, sm = _morse_roots(self)
        v2_size = abs(self.v2r) + abs(self.v2i) + 1.0
        if not math.isfinite(max(1.0, 2 * math.sqrt(2) * delta) * max(1.0, sp + sm) * v2_size):
            raise InvalidSpec("Morse couplings too large: the matching equations overflow")

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return complex(self.v1r, self.v1i) * np.exp(-2 * x) - complex(
            self.v2r, self.v2i
        ) * np.exp(-x)

    def branch_rows(self):
        """The single admissible class-III branch of the complexified Morse potential.

        With D = sqrt(v1r**2 + v1i**2) and nu = sign(v1i), regularity fixes

            b = [sqrt(v1r + D) + i * nu * sqrt(-v1r + D)] / sqrt(2),
            m = [sqrt(v1r + D) - i * nu * sqrt(-v1r + D)] * (v2r + i*v2i)
                / (2 * sqrt(2) * D),

        which gives b_re > 0, and the branch exists iff m_re > 1/2, i.e.
        sqrt(v1r + D)*v2r + nu*sqrt(-v1r + D)*v2i > sqrt(2)*D, and b_re clears
        the REG_TOL margin, which it misses when v1r + D is below ~2e-24 (a
        tiny |v1|, or v1r < 0 with a tiny v1i).  The level series
        is real exactly when the reality residual vanishes (tolerance REG_TOL);
        otherwise the complex levels come unpaired, the conjugate levels
        belonging to the conjugated potential.
        """
        delta, nu, sp, sm = _morse_roots(self)
        b_re = sp / math.sqrt(2)
        b_im = nu * sm / math.sqrt(2)
        denom = 2 * math.sqrt(2) * delta
        m_re = (sp * self.v2r + nu * sm * self.v2i) / denom
        m_im = (sp * self.v2i - nu * sm * self.v2r) / denom
        if not _strictly_above(m_re, 0.5):
            raise NoRegularBranch(f"Morse regularity fails: m_re = {m_re:.6g} is not > 1/2")
        if not _strictly_above(b_re, 0.0):
            raise NoRegularBranch(f"Morse regularity fails: b_re = {b_re:.6g} is not > 0")
        if morse_reality_residual(self) <= REG_TOL:
            return [(1, BranchKind.REAL_SERIES, m_re, 0.0, complex(b_re, b_im))]
        return [(1, BranchKind.COMPLEX_UNPAIRED, m_re, m_im, complex(b_re, b_im))]

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
    potential_class = PotentialClass.III_UPPER
    box = MORSE_BOX
    sweep_field = "delta_p"

    def __post_init__(self):
        super().__post_init__()
        if not self.A > 0:
            raise InvalidSpec(f"require A > 0, got {self.A}")
        if self.B == 0:
            raise InvalidSpec("require B != 0")

    def potential(self, x):
        return morse_from_ab(self).potential(x)

    def branch_rows(self):
        return morse_from_ab(self).branch_rows()

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
        r = self.realization
        if r.potential_class is PotentialClass.III_UPPER and not _strictly_above(r.b_re, 0.0):
            raise ValueError(f"class III regularity b_re > 0 violated: {r.b_re}")
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


def _scarf_pt_rows(spec) -> list[tuple[int, BranchKind, float, float, complex]]:
    """Branch rows of the Scarf II matching system, shared by Poschl-Teller.

    Both families share m; b is the Scarf II amplitude, which Poschl-Teller
    multiplies by -i.
    """
    regime, sq_p, sq_m = coupling_regime(spec.v1, spec.v2)
    nu = 1.0 if spec.v2 > 0 else -1.0
    if regime == "complex":
        kind = BranchKind.COMPLEX_PAIR_MEMBER
        rows = [
            (eps, kind, 0.5 * sq_p, 0.5 * eps * sq_m,
             complex(0.5 * nu * eps * sq_m, 0.5 * nu * sq_p))
            for eps in (1, -1)
        ]
    else:
        kind = BranchKind.REAL_SERIES
        # At the exact threshold the eps = +-1 series coincide; keep one.
        rows = [
            (eps, kind, 0.5 * (sq_p + eps * sq_m), 0.0,
             complex(0.0, 0.5 * nu * (sq_p - eps * sq_m)))
            for eps in ((1,) if regime == "threshold" else (1, -1))
        ]
    out = [row for row in rows if _strictly_above(row[2], 0.5)]
    if not out:
        raise NoRegularBranch(f"no branch satisfies m_re > 1/2 for {spec}")
    return out


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


def solve(spec: FamilySpec) -> list[AlgebraicSolution]:
    """Every admissible branch of the family's matching equations.

    The one place branch objects are built, from the spec's branch rows;
    NoRegularBranch propagates.
    """
    return [
        AlgebraicSolution(
            realization=spec.realization(b),
            m_re=m_re,
            m_im=m_im,
            epsilon=eps,
            n_max_exclusive=m_re - 0.5,
            branch_kind=kind,
        )
        for eps, kind, m_re, m_im, b in spec.branch_rows()
    ]


def with_swept_value(spec: FamilySpec, value: float) -> FamilySpec:
    """Return a copy of spec with its sweep field (`spec.sweep_field`) set to value."""
    if spec.sweep_field is None:
        raise InvalidSpec(f"family {spec.family!r} has no sweep parameter")
    return replace(spec, **{spec.sweep_field: value})
