"""sl(2,C) realization functions, induced potential families, and ladder operators.

The three realizations are built from a pair of complex functions (f, g)
satisfying the coupled equations

    f' = 1 - f**2,        g' = -f * g,

whose solution classes, one per potential family, are

    I   (Scarf II):        f = tanh(tau),   g = b * sech(tau)
    II  (Poschl-Teller):   f = coth(tau),   g = b * cosech(tau)
    III (Morse):           f = +1,          g = b * exp(-x)

with tau = x - c - i*gamma and b = b_re + i*b_im.  (The equations also admit
f = -1, the mirror image x -> -x of class III; no family uses it.)  Every
member of the induced potential family

    V_m = (1/4 - m**2) f' + 2 m g' + g**2

shares its bound levels -(m - n - 1/2)**2 across the tower m, m+1, m+2, ...
connected by the first-order ladder operator  A_m+ = d/dx - (m + 1/2) f + g.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BranchCutCrossing, GridTooCoarse, SingularPoint

GAMMA_MIN = -np.pi / 4
GAMMA_MAX = np.pi / 4
SINGULAR_EPS = 1e-12
# Coarsest grid spacing the finite-difference stencils accept.
MAX_GRID_SPACING = 0.1


class PotentialClass(Enum):
    """Realization class: I for Scarf II, II for Poschl-Teller, III_UPPER (f = +1) for Morse."""

    I = "I"
    II = "II"
    III_UPPER = "III_upper"


@dataclass(frozen=True)
class RealizationParams:
    """Parameters (class, c, gamma, b) of one sl(2,C) realization.

    The contour shift gamma must satisfy -pi/4 <= gamma < pi/4.  Class II
    additionally needs gamma != 0 so the contour x - c - i*gamma avoids the
    cosech singularity for every real x.  Class III ignores c and gamma
    (both fixed to 0).
    """

    potential_class: PotentialClass
    c: float = 0.0
    gamma: float = 0.0
    b_re: float = 0.0
    b_im: float = 0.0

    def __post_init__(self):
        if not (GAMMA_MIN <= self.gamma < GAMMA_MAX):
            raise ValueError(f"gamma={self.gamma} outside [-pi/4, pi/4)")
        if self.potential_class is PotentialClass.II and self.gamma == 0.0:
            raise ValueError("class II needs gamma != 0 (contour must avoid x = c)")
        if self.potential_class is PotentialClass.III_UPPER and (self.c != 0.0 or self.gamma != 0.0):
            raise ValueError("class III uses no contour shift: require c = gamma = 0")

    @property
    def b(self) -> complex:
        return complex(self.b_re, self.b_im)

    def tau(self, x):
        return np.asarray(x, dtype=complex) - self.c - 1j * self.gamma

    def f(self, x):
        """First realization function; satisfies f' = 1 - f**2."""
        cls = self.potential_class
        if cls is PotentialClass.I:
            return np.tanh(self.tau(x))
        if cls is PotentialClass.II:
            s = np.sinh(self.tau(x))
            self._check_singular(s)
            return np.cosh(self.tau(x)) / s
        return np.ones_like(np.asarray(x, dtype=complex))

    def g(self, x):
        """Second realization function; satisfies g' = -f * g."""
        cls = self.potential_class
        if cls is PotentialClass.I:
            return self.b / np.cosh(self.tau(x))
        if cls is PotentialClass.II:
            s = np.sinh(self.tau(x))
            self._check_singular(s)
            return self.b / s
        return self.b * np.exp(-np.asarray(x, dtype=float))

    def potential(self, m: complex, x):
        """Family member V_m = (1/4 - m**2) f' + 2 m g' + g**2.

        The derivatives are taken in closed form (f' = 1 - f**2, g' = -f*g),
        so no finite differencing enters here.
        """
        f = self.f(x)
        g = self.g(x)
        fp = 1.0 - f * f
        gp = -f * g
        return (0.25 - m * m) * fp + 2.0 * m * gp + g * g

    def _check_singular(self, sinh_tau):
        bad = np.abs(sinh_tau) < SINGULAR_EPS
        if np.any(bad):
            raise SingularPoint(
                f"contour passes within {SINGULAR_EPS} of the class-II singularity"
            )


def energy_level(m: complex, n: int) -> complex:
    """Bound level -(m - n - 1/2)**2 of the n-th state in the tower of V_m."""
    d = m - n - 0.5
    return -(d * d)


@dataclass
class GridFunction:
    """Complex samples of a wavefunction on strictly increasing abscissae."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.xs.ndim != 1 or self.xs.shape != self.values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if self.xs.size >= 2 and not np.all(np.diff(self.xs) > 0):
            raise ValueError("xs must be strictly increasing")

    @property
    def spacing(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def require_uniform(self, min_points: int):
        """Raise GridTooCoarse unless xs is uniform, MAX_GRID_SPACING fine, min_points long."""
        dx = np.diff(self.xs)
        if self.xs.size < min_points:
            raise GridTooCoarse(f"need at least {min_points} points, got {self.xs.size}")
        if np.max(np.abs(dx - dx[0])) > 1e-9 * abs(dx[0]):
            raise GridTooCoarse("grid spacing is not uniform")
        if dx[0] > MAX_GRID_SPACING:
            raise GridTooCoarse(f"spacing {dx[0]:.4g} exceeds {MAX_GRID_SPACING}")


def _detect_branch_cut(w: np.ndarray, what: str):
    """Raise if the principal argument of w wraps across +-pi between samples.

    A genuine cut crossing shows up as a jump of ~2*pi in angle(w) between
    adjacent samples; smooth evolution on a reasonable grid stays well below
    pi.  Crossings are reported, never silently unwrapped.
    """
    if np.any(~np.isfinite(w)) or np.any(w == 0):
        raise BranchCutCrossing(f"{what} hit zero or overflowed on the sampled contour")
    jumps = np.abs(np.diff(np.angle(w)))
    if np.any(jumps > np.pi):
        raise BranchCutCrossing(f"principal-branch argument of {what} crossed +-pi")


def ground_state(r: RealizationParams, m: complex, xs) -> GridFunction:
    """Edge state of the tower of V_m, scaled to 1 at a reference point.

    Closed forms (principal branch for all complex powers):

        I:          sech(tau)**(m - 1/2) * exp(b * arctan(sinh(tau)))
        II:         sinh(tau/2)**(b - m + 1/2) * cosh(tau/2)**(-b - m + 1/2)
        III upper:  exp(-(m - 1/2) x - b exp(-x))

    Its energy is energy_level(m, 0).  The proportionality constant is fixed
    by value 1 at x = c (class III has c = 0).  Regularity of the result is the caller's business;
    this routine only refuses detectable branch-cut crossings.
    """
    xs = np.asarray(xs, dtype=float)
    m = complex(m)

    def raw(x):
        cls = r.potential_class
        if cls is PotentialClass.I:
            tau = r.tau(x)
            base = 1.0 / np.cosh(tau)
            if np.ndim(base):
                _detect_branch_cut(base, "sech(tau)")
            return base ** (m - 0.5) * np.exp(r.b * np.arctan(np.sinh(tau)))
        if cls is PotentialClass.II:
            half = r.tau(x) / 2.0
            sh, ch = np.sinh(half), np.cosh(half)
            if np.ndim(sh):
                _detect_branch_cut(sh, "sinh(tau/2)")
                _detect_branch_cut(ch, "cosh(tau/2)")
            return sh ** (r.b - m + 0.5) * ch ** (-r.b - m + 0.5)
        x = np.asarray(x, dtype=float)
        return np.exp(-(m - 0.5) * x - r.b * np.exp(-x))

    ref = complex(raw(np.array([r.c]))[0])
    if ref == 0 or not cmath.isfinite(ref):
        raise BranchCutCrossing(f"reference value at x={r.c} is {ref}")
    return GridFunction(xs, raw(xs) / ref)


def _diff1(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid, one-sided at edges."""
    v = values
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    return d


def apply_ladder(psi: GridFunction, m: complex, r: RealizationParams) -> GridFunction:
    """Apply A_m+ = d/dx - (m + 1/2) f + g; the result lives in the V_{m+1} family.

    The derivative is a centered fourth-order stencil (one-sided at the
    edges), so the output keeps the input's grid.  Raising an eigenfunction
    of (V_m, E) yields an (unnormalized) eigenfunction of (V_{m+1}, E).
    """
    psi.require_uniform(min_points=5)
    m = complex(m)
    dpsi = _diff1(psi.values, psi.spacing)
    out = dpsi - (m + 0.5) * r.f(psi.xs) * psi.values + r.g(psi.xs) * psi.values
    return GridFunction(psi.xs, out)


def tower_state(r: RealizationParams, m: complex, n: int, xs) -> GridFunction:
    """n-th bound profile of V_m: ladder the edge state of V_{m-n} up n times.

    The seed is ground_state(r, m - n, xs) (value 1 at the reference point);
    each raising step is applied on the same grid, so the result is
    unnormalized.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    m = complex(m)
    psi = ground_state(r, m - n, xs)
    for j in range(n):
        psi = apply_ladder(psi, m - n + j, r)
    return psi
