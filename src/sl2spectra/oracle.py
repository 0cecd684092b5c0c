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
The choice is made from the matrix alone: any other matrix (Morse, gPT with
c != 0, an asymmetric box) takes the complex solver.

Only the dense solves need scipy, and they import it when they first run, so
the closed-form paths (analyze, scan, wavefunction, verify --from-file) never
load it.  `discretize` returns H in Fortran order, LAPACK's layout, and
`eigvals_complex` diagonalizes it in its own buffer on either path (the real
form is written over the front half of H), so a verify run holds one N x N
matrix and no copy of it.
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
# Rows per block of the PT check.  Its two block temporaries, 2 x 8 x N
# complex, stay under 3 % of H from N = 600 up; 8 rows check as fast as 64.
PT_CHECK_ROWS = 8
# Columns per block when the real form is written into H's own buffer.  The
# one block temporary, N x 64 doubles, is 32/N of H: 5 % at N = 600.
REAL_FORM_COLS = 64
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


def _as_potential(potential):
    if callable(potential):
        return potential
    if hasattr(potential, "potential"):
        return potential.potential
    raise TypeError(f"cannot evaluate {type(potential).__name__} as a potential")


def _check_dense_cap(m: int) -> None:
    if m > DENSE_CAP:
        raise InvalidSpec(f"dense solver capped at N = {DENSE_CAP}, got {m}")


def discretize(potential, grid: Grid) -> np.ndarray:
    """Dense H = -D2 + diag(V) on the interior points, Dirichlet at the walls.

    D2 is the fourth-order centered second-derivative stencil
    (-1, 16, -30, 16, -1)/(12 h^2); the two rows adjacent to each wall fall
    back to the second-order stencil, whose support fits the boundary.
    H is a complex, Fortran-ordered (column-major) array built in one buffer,
    the layout in which `eigvals_complex` diagonalizes it without a copy.
    A grid with more than DENSE_CAP interior points, or whose h^2 or 1/h^4
    overflows or falls below the smallest normal double, raises InvalidSpec
    before anything is allocated or the potential is evaluated; a potential
    that is not finite on the interior raises InvalidSpec without a warning.
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
    v = _as_potential(potential)
    xi = grid.interior
    d2 = np.zeros((m, m), dtype=complex, order="F")
    idx = np.arange(m)
    d2[idx, idx] = -30.0 / 12.0
    d2[idx[:-1], idx[:-1] + 1] = 16.0 / 12.0
    d2[idx[1:], idx[1:] - 1] = 16.0 / 12.0
    d2[idx[:-2], idx[:-2] + 2] = -1.0 / 12.0
    d2[idx[2:], idx[2:] - 2] = -1.0 / 12.0
    for j in (0, 1, m - 2, m - 1):
        d2[j, :] = 0.0
        d2[j, j] = -2.0
        if j - 1 >= 0:
            d2[j, j - 1] = 1.0
        if j + 1 < m:
            d2[j, j + 1] = 1.0
    d2 /= h * h
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects inf and nan
        vals = np.asarray(v(xi), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise InvalidSpec("potential is not finite on the grid interior")
    h_mat = np.negative(d2, out=d2)
    h_mat[idx, idx] += vals
    return h_mat


def banded_form(h_mat: np.ndarray) -> np.ndarray:
    """Pentadiagonal bands of H in scipy.linalg.solve_banded layout (u = l = 2)."""
    m = h_mat.shape[0]
    ab = np.zeros((5, m), dtype=complex)
    for d in range(-2, 3):
        diag = np.diagonal(h_mat, d)
        ab[2 - d, max(d, 0) : max(d, 0) + diag.size] = diag
    return ab


def banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    m = v.size
    y = np.zeros_like(v)
    for d in range(-2, 3):
        row = 2 - d
        if d >= 0:
            y[: m - d] += ab[row, d:] * v[d:]
        else:
            y[-d:] += ab[row, : m + d] * v[: m + d]
    return y


def _sorted_by_value(w: np.ndarray) -> np.ndarray:
    return np.lexsort((w.imag, w.real))


def _pt_real_form(h_mat: np.ndarray) -> bool:
    """Whether P conj(H) P = H to PT_TOL * ||H||_F, P the reversal of the grid order.

    (P conj(H) P)[i, j] = conj(H[m-1-i, m-1-j]); the matrix is read in blocks
    of PT_CHECK_ROWS rows.  A non-finite entry fails the check.  A
    Fortran-ordered H is checked as its transpose, whose rows are contiguous:
    P conj(H^T) P = H^T exactly when P conj(H) P = H, entry for entry.
    """
    if h_mat.flags.f_contiguous:
        h_mat = h_mat.T
    m = h_mat.shape[0]
    flipped = h_mat[::-1, ::-1]
    defect = sq_norm = 0.0
    for lo in range(0, m, PT_CHECK_ROWS):
        block = h_mat[lo : lo + PT_CHECK_ROWS]
        defect = max(defect, float(np.abs(block - flipped[lo : lo + PT_CHECK_ROWS].conj()).max()))
        sq_norm += float(np.vdot(block, block).real)
    bound = PT_TOL * math.sqrt(sq_norm)
    return math.isfinite(bound) and defect <= bound


def _real_form_in_place(h_mat: np.ndarray) -> np.ndarray:
    """A = Re H - P Im H, written into the first N^2 doubles of h_mat's buffer.

    Returns A as a Fortran-ordered real N x N view of that buffer.  Column j of
    A needs only column j of H, and the doubles written for columns [lo, hi)
    end at hi N, while every later source column starts at 2 hi N or beyond,
    so no unread column is overwritten.  Each block of REAL_FORM_COLS columns
    goes through one small temporary.  A non-Fortran-ordered h_mat is first
    made Fortran-ordered (a copy).
    """
    h_mat = np.asfortranarray(h_mat)
    m = h_mat.shape[0]
    flat = h_mat.reshape(-1, order="F").view(h_mat.real.dtype)
    a = flat[: m * m].reshape((m, m), order="F")
    for lo in range(0, m, REAL_FORM_COLS):
        cols = h_mat[:, lo : lo + REAL_FORM_COLS]
        a[:, lo : lo + REAL_FORM_COLS] = cols.real - cols.imag[::-1, :]
    return a


def eigvals_complex(h_mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of the dense matrix, sorted by (re, im); destroys h_mat.

    A complex matrix that passes `_pt_real_form` is replaced by its real form
    A = Re H - P Im H, compacted into the front half of h_mat's own buffer
    (`_real_form_in_place`), and the real solver returns the same spectrum,
    with complex eigenvalues in exact conjugate pairs.  Any other matrix goes
    to the complex solver unchanged.  A Fortran-ordered h_mat, as `discretize`
    builds it, is diagonalized in place on either path: the solve holds no
    second N x N matrix.
    """
    import scipy.linalg

    _check_dense_cap(h_mat.shape[0])
    if np.iscomplexobj(h_mat) and _pt_real_form(h_mat):
        h_mat = _real_form_in_place(h_mat)
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
    def from_matrix(cls, h_mat: np.ndarray) -> "Eigendata":
        bands = banded_form(h_mat)
        return cls(eigvals_complex(h_mat), bands=bands)

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
    tol: float
    decay_gate: float

    @property
    def all_matched(self) -> bool:
        return all(r.matched for r in self.rows)

    def unmatched(self) -> list[LevelMatch]:
        return [r for r in self.rows if not r.matched]


MAX_DECAY_PROBES = 24


def match_levels(
    closed: list[spectrum.EigenLevel],
    eigendata: Eigendata,
    tol: float = DEFAULT_MATCH_TOL,
    decay_gate: float = DEFAULT_DECAY_GATE,
) -> MatchReport:
    """Match each closed-form level to the nearest decaying numeric eigenvalue.

    Candidates are probed in order of distance in the complex plane; the
    first whose eigenvector passes the boundary-decay gate is the match
    candidate, and the level counts as matched when that candidate lies
    within tol.  A wrong level therefore stays unmatched even if a box
    continuum eigenvalue happens to sit nearby, because continuum vectors
    fail the gate.  Candidates at equal distance (such as the two members of
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
            if decay <= decay_gate:
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
    return MatchReport(rows=rows, tol=tol, decay_gate=decay_gate)


def deeper_decaying_levels(
    eigendata: Eigendata,
    floor_re: float,
    tol: float = DEFAULT_MATCH_TOL,
    decay_gate: float = DEFAULT_DECAY_GATE,
) -> list[complex]:
    """Decaying numeric levels deeper than floor_re - tol (missed-state probe)."""
    out = []
    for idx in np.nonzero(eigendata.values.real < floor_re - tol)[0]:
        if boundary_decay(eigendata.vector(int(idx))) <= decay_gate:
            out.append(complex(eigendata.values[idx]))
    return out


def residual(psi: GridFunction, potential, energy: complex) -> float:
    """Max interior |(-d^2/dx^2 + V - E) psi| / max |psi| on a uniform grid.

    The second derivative is the fourth-order centered stencil; the outer
    RESIDUAL_EDGE_SKIP points at each end are excluded from the max, so
    one-sided stencils never enter.
    """
    psi.require_uniform(min_points=16)
    peak = float(np.abs(psi.values).max())
    if peak == 0.0:
        raise EmptyFunction("cannot form a relative residual of the zero function")
    v = _as_potential(potential)
    h = psi.spacing
    vals = psi.values
    d2 = (
        -vals[:-4] + 16 * vals[1:-3] - 30 * vals[2:-2] + 16 * vals[3:-1] - vals[4:]
    ) / (12 * h * h)
    full = (np.asarray(v(psi.xs[2:-2]), dtype=complex) - energy) * vals[2:-2] - d2
    lo = RESIDUAL_EDGE_SKIP - 2
    hi = full.size - lo
    return float(np.abs(full[lo:hi]).max() / peak)


def verify_spectrum(
    spec,
    grid: Grid | None = None,
    tol: float = DEFAULT_MATCH_TOL,
    decay_gate: float = DEFAULT_DECAY_GATE,
) -> MatchReport:
    """Full pipeline: solve, enumerate, discretize, diagonalize, match.

    Closed-form levels appear in deterministic order (branches in solver
    order, n ascending).  NoRegularBranch propagates to the caller.
    """
    branches = families.solve(spec)
    closed = [lv for sol in branches for lv in spectrum.enumerate_levels(sol)]
    grid = grid or default_grid(spec)
    eigendata = Eigendata.from_matrix(discretize(spec, grid))
    return match_levels(closed, eigendata, tol=tol, decay_gate=decay_gate)
