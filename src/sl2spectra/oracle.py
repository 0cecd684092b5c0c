"""Finite-difference verification oracle for the closed-form spectra.

The Schrodinger operator -d^2/dx^2 + V(x) is discretized on a uniform grid
with Dirichlet walls as the five bands of H (`banded_form`).  Each
closed-form level is checked in its own disc: the eigenvalues of H within
the match tolerance of the level are computed from banded solves alone, and
the level is matched against those whose eigenvectors decay at the walls
(the bound-state discriminator against box continuum artifacts).  This path
is deliberately independent of the algebra module: nothing here knows about
realizations or ladder operators.

`Eigendata.from_bands` merges the discs that meet into one circle each
(`_circles`) and solves inside each circle by Beyn's contour-integral method
(`_circle_eigpairs`; Beyn, Linear Algebra Appl. 436, 3839 (2012); Sakurai &
Sugiura, J. Comput. Appl. Math. 159, 119 (2003)): random probes filtered by
a trapezoidal rule on the circle, one banded LU per node, a Rayleigh-Ritz
step on the filtered subspace and a polish of each Ritz pair by inverse
iteration on the bands (`_polish`), which ends on the eigenvector that
matching reads (`Eigendata.vector`).  Its working set is O(N p) for p
probes, p a little above the number of eigenvalues at or near the circle;
no N x N array exists on this path.

The dense expansion `discretize` and the dense eigensolver `eigvals_complex`
are the reference the tests check the disc solve against; no command
reaches them.  Only the solves need scipy, and they import it when they
first run, so the closed-form paths (analyze, scan, wavefunction, verify
--from-file) never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import families, spectrum
from .algebra import GridFunction
from .errors import InvalidSpec, NoConvergence

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
# LAPACK's xGEEV rescales a matrix whose largest entry is below
# sqrt(safe minimum) / eps (~6.72e-139), and the eigenvalues it returns after
# that rescale are wrong.  The disc solve hands xGEEV only its projected
# matrix in the circle's own coordinates, U* (H - c) U / r, whose
# eigenvalues inside the circle have modulus below 1 whatever the scale of H.
# Scarf(9.75, 6) at 100 points, with a disc about each of the ten lowest box
# levels (read from the same operator scaled by h^2): the disc solve returns
# all ten to 1e-12 relative on boxes of +-1e70, 1e71 and 1e78, whose largest
# entries are 6.1e-137, 6.1e-139 and 6.1e-153, while the dense xGEEV is off
# by 3.4e-13, 9.7e-2 and 1.1e14.  Handed U* H U itself, the disc solve kept
# 5, 0 and 0 of the ten: those levels lie near 1e-140 on every such box.
# `banded_form` still rejects an H below the floor, so that the dense
# reference `eigvals_complex` holds on every H it returns.
LAPACK_SCALE_FLOOR = math.sqrt(sys.float_info.min) / sys.float_info.epsilon
RESIDUAL_EDGE_SKIP = 5
# Disc eigensolve: trapezoidal nodes on each circle, the first probe count,
# the relative rank cut of A0, and polish rounds per eigenvalue.
DISC_NODES = 16
DISC_PROBES = 8
# Largest probe count.  Rounding noise in A0 about the near-defective
# Scarf(9.75, 6) pair at E = -0.25 drives p to 256 on a default verify at a
# few N near 3700 (9 of 833 grids sampled from N = 1600 to 4098), and to 64
# in the tests; twice that bounds each N x p array, where a wide disc
# (--tol 1000) would otherwise double p toward N.
MAX_DISC_PROBES = 512
RANK_TOL = 1e-14
POLISH_ROUNDS = 2


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max]; the endpoints carry the Dirichlet walls."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.x_max - self.x_min):
            raise InvalidSpec(f"domain [{self.x_min}, {self.x_max}] is not finite")
        if not self.x_min < self.x_max:
            raise InvalidSpec(f"empty domain [{self.x_min}, {self.x_max}]")
        if self.n_points < 16:
            raise InvalidSpec(f"need at least 16 points, got {self.n_points}")

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
        raise InvalidSpec(f"grid interior capped at {DENSE_CAP} points, got {m}")


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
    and so does an H whose largest entry is below LAPACK_SCALE_FLOOR or whose
    Frobenius norm overflows (it scales Eigendata's backward error).
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
            "where LAPACK's xGEEV rescales a matrix and loses its spectrum"
        )
    with np.errstate(over="ignore"):  # the check below rejects inf
        norm = float(np.linalg.norm(ab))
    if not math.isfinite(norm):
        raise InvalidSpec(
            f"the Frobenius norm of the operator overflows (largest entry {peak:.3g})"
        )
    return ab


def _band_spans(m: int) -> list[tuple[int, int, int]]:
    """(k, lo, hi) per band: band k holds H[j - k, j] in ab[2 - k, j] for j in [lo, hi)."""
    return [(k, max(k, 0), m + min(k, 0)) for k in range(-2, 3)]


def _dense_form(ab: np.ndarray) -> np.ndarray:
    """The complex, Fortran-ordered N x N matrix H with bands ab."""
    m = ab.shape[1]
    h_mat = np.zeros((m, m), dtype=complex, order="F")
    flat = h_mat.reshape(-1, order="F")  # a view: H[i, j] is flat[i + j m]
    for k, lo, hi in _band_spans(m):
        flat[lo * (m + 1) - k :: m + 1][: hi - lo] = ab[2 - k, lo:hi]
    return h_mat


def discretize(potential, grid: Grid) -> np.ndarray:
    """Dense H = -D2 + diag(V): the bands of `banded_form`, which checks the grid
    and V, expanded into a complex, Fortran-ordered (column-major) N x N array."""
    return _dense_form(banded_form(potential, grid))


def banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v, for a vector v or for each column of a matrix v."""
    y = np.zeros(v.shape, dtype=np.result_type(ab, v))
    for k, lo, hi in _band_spans(v.shape[0]):  # y[j - k] += H[j - k, j] v[j]
        band = ab[2 - k, lo:hi]
        y[lo - k : hi - k] += band.reshape(band.shape + (1,) * (v.ndim - 1)) * v[lo:hi]
    return y


def _sorted_by_value(w: np.ndarray) -> np.ndarray:
    return np.lexsort((w.imag, w.real))


def eigvals_complex(h_mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense real or complex matrix, sorted by (re, im); destroys h_mat.

    A Fortran-ordered h_mat, as `discretize` builds it, is diagonalized in
    its own buffer: the solve holds no second N x N matrix.
    """
    import scipy.linalg

    _check_dense_cap(h_mat.shape[0])
    try:
        w = scipy.linalg.eigvals(h_mat, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigenvalue iteration failed: {exc}") from exc
    return w[_sorted_by_value(w)]


def _shifted_lu(ab: np.ndarray, z: complex):
    """LAPACK's banded LU factors of z - H, or None when z - H is exactly singular."""
    from scipy.linalg import lapack

    lu = np.zeros((7, ab.shape[1]), dtype=complex, order="F")
    np.negative(ab, out=lu[2:])
    lu[4] += z
    lu, piv, info = lapack.zgbtrf(lu, 2, 2, overwrite_ab=True)
    return None if info > 0 else (lu, piv)


def _scaled_to_unit(z: np.ndarray) -> np.ndarray:
    """z times the power of two that brings its largest real or imaginary part into [0.5, 1).

    The scaling is exact, so it moves no bit of a ratio of entries or of a
    vector over its norm; a zero z comes back as zero.
    """
    shift = -math.frexp(float(max(np.abs(z.real).max(), np.abs(z.imag).max())))[1]
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, shift)
    out.imag = np.ldexp(z.imag, shift)
    return out


def _polish(ab: np.ndarray, lam: complex, v: np.ndarray) -> tuple[complex, np.ndarray]:
    """The Ritz pair (lam, v) refined on the bands into an eigenpair.

    POLISH_ROUNDS rounds, each of two normalized inverse-iteration steps on
    one banded LU of lam - H (`_shifted_lu`), then lam = v^T H v / v^T v, a
    quotient that is stationary at the eigenvectors of the complex-symmetric
    H (the FD H is symmetric but for its wall rows, where a decaying vector
    is small).  The second round matters for the ill-conditioned box
    continuum, whose Ritz values can be off by ~1e-3 (condition ~1e5 on the
    complex Morse continuum).  v may be overwritten, and each solution is scaled
    to unit size (`_scaled_to_unit`), which moves no bit, before its norm is
    taken.  An exactly singular lam - H ends the polish there.
    """
    from scipy.linalg import lapack

    for _ in range(POLISH_ROUNDS):
        factors = _shifted_lu(ab, lam)
        if factors is None:
            break
        for _ in range(2):
            v, _ = lapack.zgbtrs(factors[0], 2, 2, v, factors[1], overwrite_b=True)
            v = _scaled_to_unit(v)
            v /= np.linalg.norm(v)
        lam = complex(v @ banded_matvec(ab, v) / (v @ v))
    return lam, v


def _hull(c1: complex, r1: float, c2: complex, r2: float) -> tuple[complex, float]:
    """The smallest circle that holds the circles (c1, r1) and (c2, r2)."""
    d = abs(c2 - c1)
    if d + min(r1, r2) <= max(r1, r2):
        return (c1, r1) if r1 >= r2 else (c2, r2)
    r = 0.5 * (d + r1 + r2)
    return c1 + (c2 - c1) * ((r - r1) / d), r


def _circles(centres, radius: float) -> list[tuple[complex, float]]:
    """One circle (centre, radius) per group of the discs |z - c| <= radius that meet.

    Each disc in turn absorbs every circle it meets into their `_hull`, so
    every disc lies in one of the circles returned, and no two of them meet.
    """
    circles: list[tuple[complex, float]] = []
    for c in centres:
        c, r = complex(c), radius
        while True:
            k = next((k for k, (c2, r2) in enumerate(circles) if abs(c - c2) <= r + r2), None)
            if k is None:
                break
            c, r = _hull(c, r, *circles.pop(k))
        circles.append((c, r))
    return circles


def _nodes(centre: complex, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The DISC_NODES trapezoidal nodes on |z - centre| = radius and their
    weights for (1 / 2 pi i) * integral dz."""
    step = radius * np.exp(2j * np.pi * (np.arange(DISC_NODES) + 0.5) / DISC_NODES)
    return centre + step, step / DISC_NODES


def _circle_eigpairs(ab: np.ndarray, centre: complex, radius: float) -> list[tuple]:
    """The eigenpairs (lam, v) of H with lam inside |z - centre| < radius, from banded solves.

    Beyn's method on p random probe columns: A0 = sum_j w_j (z_j - H)^-1
    probes over the nodes (`_nodes`) spans the eigenvectors whose
    eigenvalues lie inside the circle.  A pivoted QR A0 P = Q R reveals its
    numerical rank, the count of |R_ii| above RANK_TOL times max(|R_00|, 1)
    (one eigenvalue inside gives a column of size ~1); p starts at
    DISC_PROBES and doubles while the rank is p; a circle whose filtered
    block still has full rank at MAX_DISC_PROBES (and below N) raises
    InvalidSpec.  The first `rank` columns
    of Q are an orthonormal basis U of the filtered subspace.  The projected
    matrix U* H U is Beyn's U* A1 W S^-1 from the SVD A0 = U S W*, since the
    trapezoidal weights sum to zero and so A1 = sum_j w_j z_j (z_j - H)^-1
    probes = H A0.  It is diagonalized in the circle's own coordinates,
    U* (H - centre) U / radius, whose eigenvalues mu inside the circle have
    |mu| < 1 whatever the scale of H (see LAPACK_SCALE_FLOOR); each such
    centre + radius mu is polished on the bands (`_polish`) from its Ritz
    vector, and the pair the polish ends on is returned.
    """
    import scipy.linalg
    from scipy.linalg import lapack

    m = ab.shape[1]
    rng = np.random.default_rng(0)
    p = min(DISC_PROBES, m)
    while True:
        probes = rng.standard_normal((m, p)).astype(complex, order="F")
        a0 = np.zeros((m, p), dtype=complex, order="F")
        for z, w in zip(*_nodes(centre, radius)):
            factors = _shifted_lu(ab, z)
            if factors is None:
                raise NoConvergence(f"contour node {z} is an eigenvalue of H")
            a0 += w * lapack.zgbtrs(factors[0], 2, 2, probes, factors[1])[0]
        qr, _, tau, _, _ = lapack.zgeqp3(a0, overwrite_a=True)
        diag = np.abs(np.diagonal(qr))
        rank = int(np.count_nonzero(diag > RANK_TOL * max(diag[0], 1.0)))
        if rank < p or p == m:
            break
        if p >= MAX_DISC_PROBES:
            raise InvalidSpec(
                f"circle |z - ({centre:.6g})| < {radius:.6g} holds {p} or more eigenvalues, "
                "the most the disc solve takes (the match tolerance sets its radius)"
            )
        p = min(2 * p, m)
    if rank == 0:
        return []
    q, _, _ = lapack.zungqr(qr[:, :rank], tau[:rank], overwrite_a=True)
    projected = q.conj().T @ banded_matvec(ab, q)
    projected[np.diag_indices(rank)] -= centre
    try:
        mu, y = scipy.linalg.eig(projected / radius, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(f"projected eigenvalue iteration failed: {exc}") from exc
    inside = np.abs(mu) < 1.0
    return [_polish(ab, centre + radius * complex(mu_i), q @ y_i)
            for mu_i, y_i in zip(mu[inside], y[:, inside].T)]


class Eigendata:
    """The eigenpairs of one discretized operator, sorted by eigenvalue (re, im).

    values[i] is an eigenvalue and vectors[i] its unit eigenvector, the pair
    the polish of the disc solve ended on.  `vector` checks the vector that
    matching probes against the backward-error contract
    ||H v - lambda v|| / (||H||_F ||v||) < BACKWARD_ERROR_TOL, and a
    violation raises NoConvergence.
    """

    def __init__(self, values: np.ndarray, vectors: np.ndarray, bands: np.ndarray):
        self.values = values
        self.vectors = vectors
        self._bands = bands
        self._h_norm = float(np.linalg.norm(bands))

    @classmethod
    def from_bands(cls, ab: np.ndarray, centres, radius: float) -> "Eigendata":
        """Eigendata of the operator whose bands `banded_form` returned: the
        eigenpairs of H inside the circles that hold the discs of radius
        about the centres (`_circles`, `_circle_eigpairs`)."""
        pairs = [pair for c, r in _circles(centres, radius) for pair in _circle_eigpairs(ab, c, r)]
        w = np.array([lam for lam, _ in pairs], dtype=complex)
        vectors = np.array([v for _, v in pairs], dtype=complex).reshape(w.size, ab.shape[1])
        order = _sorted_by_value(w)
        return cls(w[order], vectors[order], bands=ab)

    def vector(self, index: int) -> np.ndarray:
        lam, v = self.values[index], self.vectors[index]
        resid = np.linalg.norm(banded_matvec(self._bands, v) - lam * v)
        if resid / self._h_norm >= BACKWARD_ERROR_TOL:
            raise NoConvergence(f"eigenvector residual {resid:.3e} at {lam} violates the contract")
        return v


def boundary_decay(vec: np.ndarray) -> float:
    """Mean |v| over the outer EDGE_FRACTION of points at each wall, over peak |v|."""
    k = max(1, int(round(EDGE_FRACTION * vec.size)))
    edge = np.concatenate([np.abs(vec[:k]), np.abs(vec[-k:])])
    peak = float(np.abs(vec).max())
    if peak == 0.0:
        raise NoConvergence("eigenvector is identically zero")
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
    """Match each closed-form level to the nearest decaying numeric eigenvalue in its disc.

    The candidates of a level are the numeric eigenvalues within tol of it,
    probed in order of distance in the complex plane; the first whose
    eigenvector passes the boundary-decay gate (DEFAULT_DECAY_GATE) is the
    match.  A wrong level therefore stays unmatched even if a box continuum
    eigenvalue happens to sit nearby, because continuum vectors fail the
    gate.  Candidates at equal distance (such as the two members of a
    conjugate pair seen from a real level) are probed in the (re, im) order
    of eigendata.values, so the member with negative imaginary part comes
    first.  When none of the MAX_DECAY_PROBES nearest decays, the row is
    unmatched and reports the nearest candidate.  A row with no candidate
    (an empty disc) is unmatched, with nan for e_numeric, abs_error and
    boundary_decay.
    """
    rows = []
    for level in closed:
        dist = np.abs(eigendata.values - level.energy)
        order = np.argsort(dist, kind="stable")
        chosen, decays = None, False  # (index, boundary decay) of the row's candidate
        for idx in map(int, order[dist[order] <= tol][:MAX_DECAY_PROBES]):
            decay = boundary_decay(eigendata.vector(idx))
            decays = decay <= DEFAULT_DECAY_GATE
            if chosen is None or decays:
                chosen = (idx, decay)
            if decays:
                break
        idx, decay = chosen or (None, math.nan)
        e_num = complex(math.nan, math.nan) if idx is None else complex(eigendata.values[idx])
        rows.append(
            LevelMatch(
                n=level.n,
                epsilon=level.epsilon,
                e_closed=complex(level.energy),
                e_numeric=e_num,
                abs_error=abs(e_num - level.energy),
                boundary_decay=decay,
                matched=decays,
            )
        )
    return MatchReport(rows=rows)


def residual(psi: GridFunction, potential, energy: complex) -> float:
    """Max interior |(-d^2/dx^2 + V - E) psi| / max |psi| on a uniform grid.

    The second derivative is the fourth-order centered stencil; the outer
    RESIDUAL_EDGE_SKIP points at each end are excluded from the max, so
    one-sided stencils never enter.  psi is first scaled to unit size
    (`_scaled_to_unit`), which leaves the ratio's bits alone, so a finite
    profile as large as ~1e308 cannot overflow the stencil.
    """
    psi.require_uniform(min_points=16)
    vals = _scaled_to_unit(psi.values)
    peak = float(np.abs(vals).max())
    if peak == 0.0:
        raise InvalidSpec("cannot form a relative residual of the zero function")
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
    """Full pipeline: solve, enumerate, build the bands, solve in each level's disc, match.

    Closed-form levels appear in deterministic order (branches in solver
    order, n ascending).  NoRegularBranch propagates to the caller.
    """
    branches = families.solve(spec)
    closed = [lv for sol in branches for lv in spectrum.enumerate_levels(sol)]
    grid = grid or default_grid(spec)
    ab = banded_form(spec.potential, grid)
    eigendata = Eigendata.from_bands(ab, [lv.energy for lv in closed], tol)
    return match_levels(closed, eigendata, tol=tol)
