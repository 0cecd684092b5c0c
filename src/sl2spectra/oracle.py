"""Finite-difference verification oracle for the closed-form spectra.

The Schrodinger operator -d^2/dx^2 + V(x) is discretized on a uniform grid
with Dirichlet walls, its full complex spectrum is computed densely, and the
closed-form levels are matched against numeric eigenvalues whose
eigenvectors decay at the walls (the bound-state discriminator against box
continuum artifacts).  This path is deliberately independent of the algebra
module: nothing here knows about realizations or ladder operators.

PT-symmetric potentials (V(-x) = conj V(x): Scarf II, and generalized
Poschl-Teller with c = 0) on a box symmetric about 0 give a matrix with
P conj(H) P = H, where P reverses the grid order.  Such a matrix is
unitarily similar to the real matrix A = Re H - P Im H (the unitary is
Q = e^{-i pi/4} (I + iP) / sqrt(2)), so the dense eigensolve runs in real
arithmetic with the same spectrum and a backward error of the same size.
The choice is made from the operator alone: any other operator (Morse, gPT
with c != 0, an asymmetric box) takes the complex solver.

`banded_form` is the one place H is built, as its five bands: inverse
iteration solves with them, and the PT check reads them.  `Eigendata.from_bands`
expands them once into the Fortran-ordered N x N matrix, LAPACK's layout,
that is diagonalized in place: one complex N x N allocation holds H, or the
real form written into its front half.  A verify run holds that one N x N
matrix and no copy of it.  Only the dense solves need scipy, and they import
it when they first run, so the closed-form paths (analyze, scan,
wavefunction, verify --from-file) never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import families, spectrum
from .algebra import GridFunction
from .errors import EmptyFunction, InvalidSpec, NoConvergence

DENSE_CAP = 4096
BACKWARD_ERROR_TOL = 1e-10
DEFAULT_GRID_N = 3000
DEFAULT_MATCH_TOL = 1e-3
# Largest `residual` of an exported profile that `verify --from-file` accepts.
DEFAULT_RESIDUAL_TOL = 1e-5
# Bound/continuum separation gate on the eigenvector boundary decay.  At the
# default boxes, genuine bound vectors measure below ~2e-3 while box
# continuum vectors measure above ~5e-2, so 1e-2 splits the two populations
# with an order of magnitude to spare on either side.
DEFAULT_DECAY_GATE = 1e-2
EDGE_FRACTION = 0.05
# Largest defect max|H - P conj(H) P| / ||H||_F for which the dense eigensolve
# uses the real form of H: dropping a defect this small perturbs H by less
# than the dense solver's own rounding.  The FD matrices of PT-symmetric
# specs measure ~1e-17 here, Morse-AB ~1e-1.
PT_TOL = 1e-14
# LAPACK's xGEEV rescales a matrix whose largest entry is below
# sqrt(safe minimum) / eps (~6.72e-139), and the eigenvalues it returns after
# that rescale are wrong: the spectrum of Scarf(9.75, 6) at 100 points,
# against that of the same operator scaled by h^2, is off by 5.1e-15
# relative on a +-1e70 box, by 9.7e-2 at +-1e71 and by 1.1e14 at +-1e78.
# `banded_form` rejects such an H.
LAPACK_SCALE_FLOOR = math.sqrt(sys.float_info.min) / sys.float_info.epsilon
RESIDUAL_EDGE_SKIP = 5


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max]; the endpoints carry the Dirichlet walls."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"domain [{self.x_min}, {self.x_max}] is not finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"empty domain [{self.x_min}, {self.x_max}]")
        if self.n_points < 16:
            raise ValueError(f"need at least 16 points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]


def default_grid(spec, n_points: int | None = None) -> Grid:
    """The family's default box `spec.box` with n_points (default DEFAULT_GRID_N)."""
    return Grid(*spec.box, DEFAULT_GRID_N if n_points is None else n_points)


def _check_dense_cap(m: int) -> None:
    if m > DENSE_CAP:
        raise InvalidSpec(f"dense solver capped at N = {DENSE_CAP}, got {m}")


def banded_form(potential, grid: Grid) -> np.ndarray:
    """H = -D2 + diag(V) on the interior points as its five bands, Dirichlet at the walls.

    V is the callable potential evaluated on the interior points.  D2 is the
    fourth-order centered second-derivative stencil
    (-1, 16, -30, 16, -1)/(12 h^2); the two rows adjacent to each wall fall
    back to the second-order stencil, whose support fits the boundary.  The
    bands are complex, in scipy.linalg.solve_banded layout (u = l = 2):
    ab[2 + i - j, j] = H[i, j], with zeros in the corners that no row reaches.
    A grid with more than DENSE_CAP interior points, or whose h^2 or 1/h^4
    overflows or falls below the smallest normal double, raises InvalidSpec
    before anything is allocated or the potential is evaluated; a potential
    that is not finite on the interior raises InvalidSpec without a warning,
    and so does an H whose largest entry is below LAPACK_SCALE_FLOOR.
    """
    m = grid.n_points - 2
    _check_dense_cap(m)
    h = float(grid.spacing)
    h2 = h * h
    tiny = sys.float_info.min
    # Eigendata's Frobenius norm squares the stencil entries ~1/h^2
    if not (tiny <= h2 < math.inf and tiny <= (1.0 / h2) * (1.0 / h2) < math.inf):
        raise InvalidSpec(
            f"grid spacing {h:.6g} puts h^2 or 1/h^4 outside the normal double range"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects inf and nan
        vals = np.asarray(potential(grid.interior), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise InvalidSpec("potential is not finite on the grid interior")
    # row i of D2 holds weights[i] at columns i-2 .. i+2
    weights = np.tile((-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0), (m, 1))
    weights[[0, 1, m - 2, m - 1]] = (0.0, 1.0, -2.0, 1.0, 0.0)
    ab = np.zeros((5, m), dtype=complex)
    for k, lo, hi in _band_spans(m):
        ab[2 - k, lo:hi] = weights[lo - k : hi - k, 2 + k]
    ab /= h * h
    np.negative(ab, out=ab)
    ab[2] += vals
    peak = float(np.abs(ab).max())
    if peak < LAPACK_SCALE_FLOOR:
        raise InvalidSpec(
            f"largest operator entry {peak:.3g} is below {LAPACK_SCALE_FLOOR:.3g}, "
            "where the dense eigensolver rescales and loses the spectrum"
        )
    return ab


def _band_spans(m: int) -> list[tuple[int, int, int]]:
    """(k, lo, hi) per band: band k holds H[j - k, j] in ab[2 - k, j] for j in [lo, hi)."""
    return [(k, max(k, 0), m + min(k, 0)) for k in range(-2, 3)]


def _dense_form(ab: np.ndarray, real_form: bool) -> np.ndarray:
    """The N x N matrix with bands ab, Fortran-ordered, from one complex N x N allocation.

    Without real_form it is H itself.  With it, it is the real form
    A = Re H - P Im H of a PT-symmetric H, a real view of the allocation's
    first N^2 doubles: Re H on the five bands, less each band's imaginary
    part reflected by P onto its anti-band ((P Im H)[m-1-i, j] = Im H[i, j]).
    The rest of the allocation is never written.
    """
    m = ab.shape[1]
    h_mat = np.zeros((m, m), dtype=complex, order="F")
    flat = h_mat.reshape(-1, order="F")  # a view: H[i, j] is flat[i + j m]
    if real_form:
        flat = flat.view(np.float64)[: m * m]
    for k, lo, hi in _band_spans(m):
        band = ab[2 - k, lo:hi]
        flat[lo * (m + 1) - k :: m + 1][: hi - lo] = band.real if real_form else band
    if not real_form:
        return h_mat
    for k, lo, hi in _band_spans(m):
        flat[m - 1 + k + lo * (m - 1) :: m - 1][: hi - lo] -= ab[2 - k, lo:hi].imag
    return flat.reshape((m, m), order="F")


def discretize(potential, grid: Grid) -> np.ndarray:
    """Dense H = -D2 + diag(V): the bands of `banded_form`, which checks the grid
    and V, expanded into a complex, Fortran-ordered (column-major) N x N array."""
    return _dense_form(banded_form(potential, grid), real_form=False)


def banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = np.zeros_like(v)
    for k, lo, hi in _band_spans(v.size):  # y[j - k] += H[j - k, j] v[j]
        y[lo - k : hi - k] += ab[2 - k, lo:hi] * v[lo:hi]
    return y


def _sorted_by_value(w: np.ndarray) -> np.ndarray:
    return np.lexsort((w.imag, w.real))


def _pt_symmetric(ab: np.ndarray) -> bool:
    """Whether P conj(H) P = H to PT_TOL * ||H||_F, P the reversal of the grid order.

    (P conj(H) P)[i, j] = conj(H[m-1-i, m-1-j]), whose bands are
    ab[::-1, ::-1].conj(): the reversal maps each band onto its mirror and
    the zero corners of ab onto each other, and the entries off the bands are
    zero on both sides, so this is the check on the whole matrix.  A
    non-finite entry fails it.
    """
    defect = float(np.abs(ab - ab[::-1, ::-1].conj()).max())
    bound = PT_TOL * float(np.linalg.norm(ab))
    return math.isfinite(bound) and defect <= bound


def eigvals_complex(h_mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense real or complex matrix, sorted by (re, im); destroys h_mat.

    A Fortran-ordered h_mat, as `discretize` and `Eigendata.from_bands` build
    it, is diagonalized in its own buffer: the solve holds no second N x N
    matrix.
    """
    import scipy.linalg

    _check_dense_cap(h_mat.shape[0])
    try:
        w = scipy.linalg.eigvals(h_mat, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigenvalue iteration failed: {exc}") from exc
    return w[_sorted_by_value(w)]


class Eigendata:
    """Sorted eigenvalues plus on-demand eigenvectors of one discretized operator.

    Vectors come lazily from inverse iteration on the pentadiagonal bands
    (three banded solves per vector), which keeps full-spectrum verification
    runs inside the dense eigenvalue cost.  Each vector is checked against
    the backward-error contract ||H v - lambda v|| / (||H||_F ||v||) <
    BACKWARD_ERROR_TOL, and a violation raises NoConvergence.
    """

    def __init__(self, values: np.ndarray, bands: np.ndarray):
        self.values = values
        self._bands = bands
        self._cache: dict[int, np.ndarray] = {}
        self._h_norm = float(np.linalg.norm(bands))

    @classmethod
    def from_bands(cls, ab: np.ndarray) -> "Eigendata":
        """Eigendata of the operator whose bands `banded_form` returned.

        The dense eigensolve runs on the real form of H when the bands pass
        the PT check, with the same spectrum and its complex eigenvalues in
        exact conjugate pairs, and on H itself otherwise.
        """
        return cls(eigvals_complex(_dense_form(ab, real_form=_pt_symmetric(ab))), bands=ab)

    def vector(self, index: int) -> np.ndarray:
        if index not in self._cache:
            self._cache[index] = self._inverse_iteration(self.values[index])
        return self._cache[index]

    def _inverse_iteration(self, lam: complex) -> np.ndarray:
        import scipy.linalg

        m = self._bands.shape[1]
        shifted = self._bands.copy()
        shifted[2, :] -= lam
        rng = np.random.default_rng(0)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        for _ in range(3):
            try:
                v = scipy.linalg.solve_banded((2, 2), shifted, v)
            except scipy.linalg.LinAlgError as exc:
                raise NoConvergence(f"inverse iteration stalled at {lam}: {exc}") from exc
            v /= np.linalg.norm(v)
        resid = np.linalg.norm(banded_matvec(self._bands, v) - lam * v)
        if resid / self._h_norm >= BACKWARD_ERROR_TOL:
            raise NoConvergence(
                f"eigenvector residual {resid:.3e} at {lam} violates the contract"
            )
        return v


def boundary_decay(vec: np.ndarray) -> float:
    """Mean |v| over the outer EDGE_FRACTION of points at each wall, over peak |v|."""
    k = max(1, int(round(EDGE_FRACTION * vec.size)))
    edge = np.concatenate([np.abs(vec[:k]), np.abs(vec[-k:])])
    peak = float(np.abs(vec).max())
    if peak == 0.0:
        raise EmptyFunction("eigenvector is identically zero")
    return float(edge.mean() / peak)


@dataclass(frozen=True)
class LevelMatch:
    n: int
    epsilon: int
    e_closed: complex
    e_numeric: complex
    abs_error: float
    boundary_decay: float
    matched: bool


@dataclass
class MatchReport:
    rows: list[LevelMatch]

    @property
    def all_matched(self) -> bool:
        return all(r.matched for r in self.rows)


MAX_DECAY_PROBES = 24


def match_levels(
    closed: list[spectrum.EigenLevel],
    eigendata: Eigendata,
    tol: float = DEFAULT_MATCH_TOL,
) -> MatchReport:
    """Match each closed-form level to the nearest decaying numeric eigenvalue.

    Candidates are probed in order of distance in the complex plane; the
    first whose eigenvector passes the boundary-decay gate (DEFAULT_DECAY_GATE)
    is the match candidate, and the level counts as matched when that
    candidate lies within tol.  A wrong level therefore stays unmatched even
    if a box continuum eigenvalue happens to sit nearby, because continuum
    vectors fail the gate.  Candidates at equal distance (such as the two members of
    an exact conjugate pair seen from a real level) are probed in the
    (re, im) order of eigendata.values, so the member with negative
    imaginary part comes first.
    """
    rows = []
    for level in closed:
        order = np.argsort(np.abs(eigendata.values - level.energy), kind="stable")
        chosen = None
        for idx in order[:MAX_DECAY_PROBES]:
            decay = boundary_decay(eigendata.vector(int(idx)))
            if decay <= DEFAULT_DECAY_GATE:
                chosen = (int(idx), decay)
                break
        if chosen is None:
            idx = int(order[0])
            decay = boundary_decay(eigendata.vector(idx))
            chosen = (idx, decay)
            matched = False
        else:
            idx, decay = chosen
            matched = abs(eigendata.values[idx] - level.energy) <= tol
        e_num = complex(eigendata.values[chosen[0]])
        rows.append(
            LevelMatch(
                n=level.n,
                epsilon=level.epsilon,
                e_closed=complex(level.energy),
                e_numeric=e_num,
                abs_error=abs(e_num - level.energy),
                boundary_decay=chosen[1],
                matched=matched,
            )
        )
    return MatchReport(rows=rows)


def residual(psi: GridFunction, potential, energy: complex) -> float:
    """Max interior |(-d^2/dx^2 + V - E) psi| / max |psi| on a uniform grid.

    The second derivative is the fourth-order centered stencil; the outer
    RESIDUAL_EDGE_SKIP points at each end are excluded from the max, so
    one-sided stencils never enter.  psi is first scaled by the power of two
    that brings its largest component into [0.5, 1): the scaling is exact, so
    it leaves the ratio's bits alone, and a finite profile as large as ~1e308
    cannot overflow the stencil.
    """
    psi.require_uniform(min_points=16)
    top = float(max(np.abs(psi.values.real).max(), np.abs(psi.values.imag).max()))
    if top == 0.0:
        raise EmptyFunction("cannot form a relative residual of the zero function")
    shift = -math.frexp(top)[1]
    vals = np.empty_like(psi.values)
    vals.real = np.ldexp(psi.values.real, shift)
    vals.imag = np.ldexp(psi.values.imag, shift)
    peak = float(np.abs(vals).max())
    h = psi.spacing
    d2 = (
        -vals[:-4] + 16 * vals[1:-3] - 30 * vals[2:-2] + 16 * vals[3:-1] - vals[4:]
    ) / (12 * h * h)
    full = (np.asarray(potential(psi.xs[2:-2]), dtype=complex) - energy) * vals[2:-2] - d2
    lo = RESIDUAL_EDGE_SKIP - 2
    hi = full.size - lo
    return float(np.abs(full[lo:hi]).max() / peak)


def verify_spectrum(
    spec,
    grid: Grid | None = None,
    tol: float = DEFAULT_MATCH_TOL,
) -> MatchReport:
    """Full pipeline: solve, enumerate, build the bands, diagonalize, match.

    Closed-form levels appear in deterministic order (branches in solver
    order, n ascending).  NoRegularBranch propagates to the caller.
    """
    branches = families.solve(spec)
    closed = [lv for sol in branches for lv in spectrum.enumerate_levels(sol)]
    grid = grid or default_grid(spec)
    eigendata = Eigendata.from_bands(banded_form(spec.potential, grid))
    return match_levels(closed, eigendata, tol=tol)
