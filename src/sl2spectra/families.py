"""Potential families and the inversion of their parameter-matching equations.

Each family (complexified Scarf II, generalized Poschl-Teller, complexified
Morse) is a closed-form member of one realization class.  Each family's
`branch_rows` inverts the matching between its couplings and the realization
parameters (b, m), applies the regularity conditions m_re > 1/2 (and b_re > 0
for class III), and returns every admissible branch as one AlgebraicSolution
record, which `solve` returns as it is.  Each family's branches
come from complex arithmetic on one principal square root: sqrt(v1 + 1/4 - |v2|)
for Scarf II and Poschl-Teller, whose branch point is the transition from
real to complex levels, and sqrt(2 * v1) for Morse.

Each family is one FamilySpec class, and FAMILIES maps family names to
those classes; the rest of the package reads everything family-specific
from the spec.  Scarf II and Poschl-Teller derive from `_ScarfMatching`,
which states their shared matching system once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple

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


class AlgebraicSolution(NamedTuple):
    """One admissible branch: its tag, kind, tower label m = m_re + i*m_im and amplitude b.

    Levels are n = 0, 1, ... with n < n_max_exclusive = m_re - 1/2; the
    branch tag epsilon distinguishes the two solution sets of the Scarf and
    Poschl-Teller matching systems.  The branch's realization is
    `spec.realization(b)`, built only where it is read.
    """

    epsilon: int
    branch_kind: BranchKind
    m_re: float
    m_im: float
    b: complex

    @property
    def m(self) -> complex:
        return complex(self.m_re, self.m_im)

    @property
    def n_max_exclusive(self) -> float:
        return self.m_re - 0.5


def _strictly_above(value: float, bound: float) -> bool:
    return value - bound > REG_TOL * max(1.0, abs(value), abs(bound))


class FamilySpec:
    """Base of the family specs: one frozen dataclass per family, listed in FAMILIES.

    The fields are the couplings in document order: the `parameters` keys
    and, with '_' written '-', the CLI flags.  A family sets `family`,
    `potential_class` (its realization class), `box` (default oracle domain)
    and `sweep_field` (the field `scan` sweeps, or None) and defines
    `potential` and `branch_rows`, which returns an AlgebraicSolution per
    admissible branch or raises NoRegularBranch, and overrides
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
class _ScarfMatching(FamilySpec):
    """The matching system m**2 - b**2 = v1 + 1/4, 2*m*b = i*v2 of Scarf II,
    which generalized Poschl-Teller shares with b multiplied by -i.

    With sq_p = sqrt(v1 + 1/4 + |v2|), the principal root
    r = sqrt(v1 + 1/4 - |v2|) and nu = sign(v2), the branches eps = +-1 are

        m = (sq_p + eps * r) / 2,    b = i * nu * (sq_p - eps * r) / 2

    for class I, and -i times that b for class II.  r is real below the
    critical coupling |v2| = v1 + 1/4, where both branches are real series,
    and imaginary above it, where they are a complex-conjugate pair: the
    transition is the branch point of r.  Within a relative band REG_TOL of
    the critical coupling r is 0, so that a sweep sample landing there is the
    exact merge point, and the two coinciding branches are kept once.  A
    branch is kept only if m_re > 1/2.
    """

    v1: float
    v2: float

    box = SYMMETRIC_BOX
    sweep_field = "v2"

    def threshold_distance(self) -> float:
        return abs(self.v2) - (self.v1 + 0.25)

    def branch_rows(self) -> list[AlgebraicSolution]:
        s, a = self.v1 + 0.25, abs(self.v2)
        diff = self.threshold_distance()
        r = 0j if abs(diff) <= REG_TOL * max(1.0, a, s) else cmath.sqrt(-diff)
        sq_p = 2.0 * math.sqrt(0.25 * s + 0.25 * a)  # sqrt(s + a), also where s + a overflows
        nu = 1.0 if self.v2 > 0 else -1.0
        kind = BranchKind.COMPLEX_PAIR_MEMBER if r.imag else BranchKind.REAL_SERIES
        class_two = self.potential_class is PotentialClass.II
        out = []
        for eps in ((1, -1) if r else (1,)):
            m = 0.5 * (sq_p + eps * r)
            if _strictly_above(m.real, 0.5):
                b = 0.5j * nu * (sq_p - eps * r)
                if class_two:
                    b = complex(b.imag, 0.0 - b.real)  # -i*b, with no -0.0 part
                out.append(AlgebraicSolution(eps, kind, m.real, m.imag, b))
        if not out:
            raise NoRegularBranch(f"no branch satisfies m_re > 1/2 for {self}")
        return out


@dataclass(frozen=True)
class ScarfSpec(_ScarfMatching):
    """V(x) = -v1 * sech(x)**2 - i * v2 * sech(x) * tanh(x),  v1 >= 0, v2 != 0.

    v1 = 0 (a purely imaginary potential) is admitted: the broken-coupling
    regime |v2| > v1 + 1/4 is reached there with small couplings.
    """

    family = "scarf2"
    potential_class = PotentialClass.I

    def __post_init__(self):
        super().__post_init__()
        if not self.v1 >= 0:
            raise InvalidSpec(f"Scarf II requires v1 >= 0, got {self.v1}")
        if self.v2 == 0:
            raise InvalidSpec("Scarf II requires v2 != 0")

    def potential(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        sech = 1.0 / np.cosh(x)
        return -self.v1 * sech**2 - 1j * self.v2 * sech * np.tanh(x)

    def pt_symmetric(self) -> bool:
        """Always: sech is even, tanh odd and v1, v2 real, so V(-x)* == V(x)."""
        return True


@dataclass(frozen=True)
class PoschlTellerSpec(_ScarfMatching):
    """V(x) = v1 * cosech(tau)**2 - v2 * cosech(tau) * coth(tau), tau = x - c - i*contour_gamma.

    Requires v1 > -1/4 and v2 != 0.  The contour shift contour_gamma must be
    nonzero in (-pi/4, pi/4): on the real axis the unshifted potential is
    singular at x = c.  c and contour_gamma only move the contour; the
    spectrum depends on (v1, v2) alone.
    """

    c: float = 0.0
    contour_gamma: float = math.pi / 8

    family = "poschl-teller"
    potential_class = PotentialClass.II

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
        import numpy as np

        tau = np.asarray(x, dtype=complex) - self.c - 1j * self.contour_gamma
        # sinh(tau)**2 overflows from |Re tau| ~ 355 on, although V -> 0 there.
        # Past 350 V takes the form (4 v1 q - 2 v2 e^{-s} (1 + q)) / (1 - q)^2
        # with s = +-tau, Re s > 0 (V is even in tau) and q = e^{-2s}; each
        # form gets a harmless stand-in argument where the other one is used.
        far = np.abs(tau.real) > 350.0
        near = np.where(far, 1.0, tau)
        csch2 = 1.0 / np.sinh(near) ** 2
        v_near = self.v1 * csch2 - self.v2 * csch2 * np.cosh(near)
        s = np.where(far, np.where(tau.real > 0, tau, -tau), 400.0)
        q = np.exp(-2.0 * s)
        v_far = (4.0 * self.v1 * q - 2.0 * self.v2 * np.exp(-s) * (1.0 + q)) / (1.0 - q) ** 2
        return np.where(far, v_far, v_near)

    def realization(self, b: complex) -> RealizationParams:
        return RealizationParams(PotentialClass.II, self.c, self.contour_gamma, b.real, b.imag)

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
        # branch_rows and reality_residual, so none of them overflows.
        delta, _, sp, sm = _morse_roots(self)
        v2_size = abs(self.v2r) + abs(self.v2i) + 1.0
        if not math.isfinite(max(1.0, 2 * math.sqrt(2) * delta) * max(1.0, sp + sm) * v2_size):
            raise InvalidSpec("Morse couplings too large: the matching equations overflow")

    def potential(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        return complex(self.v1r, self.v1i) * np.exp(-2 * x) - complex(
            self.v2r, self.v2i
        ) * np.exp(-x)

    def branch_rows(self):
        """The single admissible class-III branch of the complexified Morse potential.

        The matching equations are b**2 = v1 and 2*m*b = v2.  With
        D = sqrt(v1r**2 + v1i**2), nu = sign(v1i) and the principal root
        sqrt(2 * v1) = sqrt(v1r + D) + i * nu * sqrt(-v1r + D), regularity fixes

            b = sqrt(2 * v1) / sqrt(2),
            m = conj(sqrt(2 * v1)) * (v2r + i*v2i) / (2 * sqrt(2) * D),

        which gives b_re > 0, and the branch exists iff m_re > 1/2, i.e.
        sqrt(v1r + D)*v2r + nu*sqrt(-v1r + D)*v2i > sqrt(2)*D, and b_re clears
        the REG_TOL margin, which it misses when v1r + D is below ~2e-24 (a
        tiny |v1|, or v1r < 0 with a tiny v1i).  The level series
        is real exactly when the reality residual vanishes (tolerance REG_TOL);
        otherwise the complex levels come unpaired, the conjugate levels
        belonging to the conjugated potential.
        """
        roots = _morse_roots(self)
        delta, nu, sp, sm = roots
        root = complex(sp, nu * sm)  # sqrt(2 * v1), principal branch
        b = root / math.sqrt(2)
        numerator = root.conjugate() * complex(self.v2r, self.v2i)
        denom = 2 * math.sqrt(2) * delta
        # part by part: a complex / float division can turn an m_re of -0.0 into 0.0
        m_re, m_im = numerator.real / denom, numerator.imag / denom
        if not _strictly_above(m_re, 0.5):
            raise NoRegularBranch(f"Morse regularity fails: m_re = {m_re:.6g} is not > 1/2")
        if not _strictly_above(b.real, 0.0):
            raise NoRegularBranch(f"Morse regularity fails: b_re = {b.real:.6g} is not > 0")
        if _reality_residual(self, roots) <= REG_TOL:
            return [AlgebraicSolution(1, BranchKind.REAL_SERIES, m_re, 0.0, b)]
        return [AlgebraicSolution(1, BranchKind.COMPLEX_UNPAIRED, m_re, m_im, b)]

    def reality_residual(self) -> float:
        return _reality_residual(self, _morse_roots(self))


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
        return morse_from_ab(self).reality_residual()


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


def _morse_roots(spec: MorseSpec) -> tuple[float, float, float, float]:
    """D = |v1r + i*v1i|, nu = sign(v1i), sqrt(v1r + D) and sqrt(-v1r + D)."""
    delta = math.hypot(spec.v1r, spec.v1i)
    nu = 1.0 if spec.v1i > 0 else -1.0
    return delta, nu, math.sqrt(delta + spec.v1r), math.sqrt(delta - spec.v1r)


def _reality_residual(spec: MorseSpec, roots: tuple[float, float, float, float]) -> float:
    """Relative residual of the real-spectrum condition for the Morse family,
    from the spec's `_morse_roots`, which `branch_rows` holds already.

    The single Morse branch has a purely real level series exactly when
    sqrt(v1r + D) * v2i = nu * sqrt(-v1r + D) * v2r, with D = |v1r + i*v1i|
    and nu = sign(v1i); this returns |lhs - rhs| / max(1, |lhs|, |rhs|).
    """
    _, nu, sp, sm = roots
    lhs = sp * spec.v2i
    rhs = nu * sm * spec.v2r
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def solve(spec: FamilySpec) -> list[AlgebraicSolution]:
    """Every admissible branch of the family's matching equations; NoRegularBranch propagates."""
    return spec.branch_rows()


def with_swept_value(spec: FamilySpec, value: float) -> FamilySpec:
    """A spec of spec's family with its sweep field (`spec.sweep_field`) set to value.

    Built through the family's constructor, so each sample is validated.
    """
    if spec.sweep_field is None:
        raise InvalidSpec(f"family {spec.family!r} has no sweep parameter")
    return type(spec)(**{**vars(spec), spec.sweep_field: value})
