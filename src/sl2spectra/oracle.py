"""Finite-difference verification oracle for the closed-form spectra.

The Schrodinger operator -d^2/dx^2 + V(x) is discretized on a uniform grid
with Dirichlet walls as the five bands of H (`banded_form`), the eigenvalues
of H inside a contour Gamma are computed from banded solves alone, and the
closed-form levels are matched against numeric eigenvalues whose
eigenvectors decay at the walls (the bound-state discriminator against box
continuum artifacts).  This path is deliberately independent of the algebra
module: nothing here knows about realizations or ladder operators.

Gamma comes from the operator, never from the closed form (`contour`): an
ellipse around the rectangle lo <= Re E <= hi, |Im E| <= M, read from the
potential on the interior points.  Re E >= lo and |Im E| <= M hold for every
eigenvalue whose vector keeps away from the walls (v* H v = lambda v* v, and
the kinetic term is nonnegative), and hi cuts the box continuum above the
bound levels.  `contour_eigvals` is Beyn's contour-integral method (Beyn,
Linear Algebra Appl. 436, 3839 (2012); Sakurai & Sugiura, J. Comput. Appl.
Math. 159, 119 (2003)): random probes filtered by a trapezoidal rule on
Gamma, one banded LU per node, a Rayleigh-Ritz step on the filtered
subspace and a polish of each eigenvalue by inverse iteration on the bands.
Its working set is O(N p) for p probes, p a little above the number of
eigenvalues inside Gamma; no N x N array exists on this path.  The few
eigenvectors the matching probes come lazily (`Eigendata`), each from one
banded LU and three solves of the same inverse iteration (`_inverse_steps`)
that polishes the eigenvalues.

PT-symmetric potentials (V(-x) = conj V(x): Scarf II, and generalized
Poschl-Teller with c = 0) on a box symmetric about 0 give bands with
P conj(H) P = H, where P reverses the grid order.  Such an H is unitarily
similar to the real matrix A = Q* H Q = Re H - (Im H) P, Q = (I + iP)/sqrt 2,
so the contour solve filters in the real form: conjugate nodes share one
banded solve, and the eigenvalues come out real or in exact conjugate
pairs.  The choice is made from the bands alone (`_pt_symmetric`): any other
operator (Morse, gPT with c != 0, an asymmetric box) is solved as it is.

The dense expansion `discretize` and the dense eigensolver `eigvals_complex`
are the reference the tests check the contour solve against; no command
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
# Largest defect max|H - P conj(H) P| / ||H||_F for which the contour solve
# works in the real form of H: dropping a defect this small perturbs H by
# less than the solver's own rounding.  The FD matrices of PT-symmetric
# specs measure ~1e-17 here, Morse-AB ~1e-1.
PT_TOL = 1e-14
# LAPACK's xGEEV rescales a matrix whose largest entry is below
# sqrt(safe minimum) / eps (~6.72e-139), and the eigenvalues it returns after
# that rescale are wrong.  The contour solve hands xGEEV the projected matrix
# U* H U, whose entries are on the scale of H's.  Scarf(9.75, 6) at 100
# points, against the same operator scaled by h^2, with Gamma around the ten
# lowest box levels: the contour eigenvalues agree to 2e-13 relative on a
# +-1e70 box; at +-1e71 xGEEV keeps 2 of the 10, and with the projected
# matrix scaled up first all 10 come back but the polish overflows (its
# inverse-iteration vectors grow to ~1 / (eps |H|) and their squared norm
# passes the largest double) and returns nan.  The dense xGEEV was off by
# 5.1e-15, 9.7e-2 and 1.1e14 at +-1e70, 1e71 and 1e78.  `banded_form` rejects
# such an H.
LAPACK_SCALE_FLOOR = math.sqrt(sys.float_info.min) / sys.float_info.epsilon
RESIDUAL_EDGE_SKIP = 5
# Contour eigensolve: trapezoidal nodes on the ellipse (PT-symmetric bands
# solve half of them), the first probe count, the relative rank cut of A0,
# the relative pad around [lo, hi] x [-M, M], and polish rounds per
# eigenvalue.
CONTOUR_NODES = 64
CONTOUR_PROBES = 48
PROBE_BLOCK = 32
RANK_TOL = 1e-14
CONTOUR_MARGIN = 0.05
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
            "where LAPACK's xGEEV rescales the projected matrix and loses the spectrum"
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


@dataclass(frozen=True)
class Ellipse:
    """The ellipse ((Re z - center) / a)^2 + (Im z / b)^2 = 1, symmetric about the real axis."""

    center: float
    a: float
    b: float

    def contains(self, z: np.ndarray) -> np.ndarray:
        return ((z.real - self.center) / self.a) ** 2 + (z.imag / self.b) ** 2 < 1.0

    def node(self, j: int) -> tuple[complex, complex]:
        """Trapezoidal node j of CONTOUR_NODES and its weight for (1 / 2 pi i) * integral dz."""
        theta = 2.0 * math.pi * (j + 0.5) / CONTOUR_NODES
        cos, sin = math.cos(theta), math.sin(theta)
        z = complex(self.center + self.a * cos, self.b * sin)
        return z, complex(self.b * cos, self.a * sin) / CONTOUR_NODES


def contour(ab: np.ndarray) -> Ellipse:
    """The contour Gamma of the eigensolve, read from the operator's bands alone.

    Each row of the stencil sums to zero, so away from the walls the row sums
    of H are V.  On the interior points less the outer EDGE_FRACTION at each
    wall, lo = min Re V and M = max |Im V|; hi = V_thr + M, with V_thr the
    real part of V at whichever inner end has the smaller |V|.  Gamma is the
    ellipse through the corners of [lo, hi] x [-M, M], each side padded by
    CONTOUR_MARGIN of max(hi - lo, M), plus CONTOUR_MARGIN of the largest
    entry of H times sqrt(eps) so that Gamma stays an ellipse when V vanishes.
    """
    m = ab.shape[1]
    k = max(1, int(round(EDGE_FRACTION * m)))
    v = banded_matvec(ab, np.ones(m, dtype=complex))[k : m - k]
    lo = float(v.real.min())
    top = float(np.abs(v.imag).max())
    hi = float(v[0].real if abs(v[0]) <= abs(v[-1]) else v[-1].real) + top
    pad = CONTOUR_MARGIN * (max(hi - lo, top) + math.sqrt(sys.float_info.epsilon) * float(np.abs(ab).max()))
    lo, hi, top = lo - pad, hi + pad, top + pad
    return Ellipse(0.5 * (lo + hi), math.sqrt(0.5) * (hi - lo), math.sqrt(2.0) * top)


def _shifted_lu(ab: np.ndarray, z: complex):
    """LAPACK's banded LU factors of z - H, or None when z - H is exactly singular."""
    from scipy.linalg import lapack

    lu = np.zeros((7, ab.shape[1]), dtype=complex, order="F")
    np.negative(ab, out=lu[2:])
    lu[4] += z
    lu, piv, info = lapack.zgbtrf(lu, 2, 2, overwrite_ab=True)
    return None if info > 0 else (lu, piv)


def _filtered_probes(ab: np.ndarray, gamma: Ellipse, probes: np.ndarray, real: bool) -> np.ndarray:
    """A0 = sum_j w_j (z_j - H)^-1 probes over the nodes of gamma: the probes
    filtered onto the eigenvectors whose eigenvalues lie inside gamma.

    The probes are solved PROBE_BLOCK columns at a time, so the working set is
    A0 and the probes.  With real, A0 is that of the real form A = Q* H Q,
    Q = (I + iP) / sqrt 2, whose resolvent is Q* (z - H)^-1 Q: an upper node
    z_j stands for the pair (z_j, conj z_j), whose terms are complex
    conjugates, so the pair costs one banded solve Y = (z_j - H)^-1 (I + iP)
    probes and adds 2 Re(w_j Q* Y) = Re(w_j Y) + P Im(w_j Y).
    """
    from scipy.linalg import lapack

    m, p = probes.shape
    a0 = np.zeros((m, p), dtype=float if real else complex, order="F")
    x = np.empty((m, min(PROBE_BLOCK, p)), dtype=complex, order="F")
    for j in range(CONTOUR_NODES // 2 if real else CONTOUR_NODES):
        z, w = gamma.node(j)
        factors = _shifted_lu(ab, z)
        if factors is None:
            raise NoConvergence(f"contour node {z} is an eigenvalue of H")
        for lo in range(0, p, PROBE_BLOCK):
            hi = min(lo + PROBE_BLOCK, p)
            xb = x[:, : hi - lo]
            xb.real = probes[:, lo:hi]
            xb.imag = probes[::-1, lo:hi] if real else 0.0
            lapack.zgbtrs(factors[0], 2, 2, xb, factors[1], overwrite_b=True)
            xb *= w
            if real:
                a0[:, lo:hi] += xb.real
                a0[:, lo:hi] += xb.imag[::-1]
            else:
                a0[:, lo:hi] += xb
    return a0


def _apply(ab: np.ndarray, x: np.ndarray, real: bool) -> np.ndarray:
    """H x, or with real A x for the real form A = Re H - (Im H) P."""
    if not real:
        return banded_matvec(ab, x)
    return banded_matvec(ab.real, x) - banded_matvec(ab.imag, x[::-1])


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


def _inverse_steps(ab: np.ndarray, z: complex, v: np.ndarray, steps: int) -> np.ndarray | None:
    """steps normalized inverse-iteration steps v <- (z - H)^-1 v / ||(z - H)^-1 v||
    on one banded LU of z - H (`_shifted_lu`), or None when z - H is exactly
    singular.  v is complex and is overwritten.  Each solution is scaled to
    unit size (`_scaled_to_unit`) before its norm is taken, so a solution as
    large as ~1e300 normalizes without overflow and without moving a bit."""
    from scipy.linalg import lapack

    factors = _shifted_lu(ab, z)
    if factors is None:
        return None
    for _ in range(steps):
        v, _ = lapack.zgbtrs(factors[0], 2, 2, v, factors[1], overwrite_b=True)
        v = _scaled_to_unit(v)
        v /= np.linalg.norm(v)
    return v


def _polish(ab: np.ndarray, lam: complex, v: np.ndarray) -> complex:
    """lam refined on the bands from its Ritz vector v.

    POLISH_ROUNDS rounds, each of two inverse-iteration steps at shift lam
    (`_inverse_steps`) followed by lam = v^T H v / v^T v, a quotient that is
    stationary at the eigenvectors of the complex-symmetric H (the FD H is
    symmetric but for its wall rows, where a decaying vector is small).  The
    second round matters for the ill-conditioned box continuum, whose Ritz
    values can be off by ~1e-3 (condition ~1e5 on the complex Morse
    continuum).
    """
    v = v.astype(complex)
    for _ in range(POLISH_ROUNDS):
        v = _inverse_steps(ab, lam, v, 2)
        if v is None:
            return lam
        lam = complex(v @ banded_matvec(ab, v) / (v @ v))
    return lam


def contour_eigvals(ab: np.ndarray, gamma: Ellipse) -> np.ndarray:
    """The eigenvalues of H inside gamma, sorted by (re, im), from banded solves only.

    Beyn's method on p random probe columns: A0 (`_filtered_probes`) spans
    the eigenvectors whose eigenvalues lie inside gamma.  A pivoted QR
    A0 P = Q R reveals its numerical rank, the count of |R_ii| above
    RANK_TOL times max(|R_00|, 1) (one eigenvalue inside gamma gives a
    column of size ~1); p starts at CONTOUR_PROBES and doubles while the
    rank is p.  The first `rank` columns of Q are an orthonormal basis U of
    the filtered subspace, and the eigenvalues of the projected matrix
    U* H U inside gamma are kept.  That matrix is Beyn's U* A1 W S^-1 from
    the SVD A0 = U S W*, since the trapezoidal weights sum to zero and so
    A1 = sum_j w_j z_j (z_j - H)^-1 probes = H A0; forming it from U,
    PROBE_BLOCK columns at a time, spares an N x p accumulator for A1.
    Each kept eigenvalue is polished on the bands (`_polish`) from its Ritz
    vector.  PT-symmetric bands work in the real form, so the projected
    matrix is real and its eigenvalues are real or exact conjugate pairs:
    only the member with Im >= 0 is polished, a real one stays real, and
    the other member of a pair is its conjugate.
    """
    import scipy.linalg
    from scipy.linalg import lapack

    real = _pt_symmetric(ab)
    m = ab.shape[1]
    rng = np.random.default_rng(0)
    geqp3, orgqr = lapack.get_lapack_funcs(
        ("geqp3", "orgqr" if real else "ungqr"), dtype=float if real else complex
    )
    p = min(CONTOUR_PROBES, m)
    while True:
        probes = rng.standard_normal((m, p), dtype=np.float32)
        qr, _, tau, _, _ = geqp3(_filtered_probes(ab, gamma, probes, real), overwrite_a=True)
        del probes
        diag = np.abs(np.diagonal(qr))
        rank = int(np.count_nonzero(diag > RANK_TOL * max(diag[0], 1.0)))
        if rank < p or p == m:
            break
        del qr, tau  # before the next, larger A0 is built
        p = min(2 * p, m)
    if rank == 0:
        return np.empty(0, dtype=complex)
    q, _, _ = orgqr(qr[:, :rank], tau[:rank], overwrite_a=True)
    projected = np.empty((rank, rank), dtype=q.dtype)
    for lo in range(0, rank, PROBE_BLOCK):
        hq = _apply(ab, q[:, lo : lo + PROBE_BLOCK], real)
        projected[:, lo : lo + PROBE_BLOCK] = (q.T @ hq.conj()).conj()
    try:
        lam, y = scipy.linalg.eig(projected, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(f"projected eigenvalue iteration failed: {exc}") from exc
    keep = gamma.contains(lam) & ((lam.imag >= 0) if real else True)
    values = []
    for lam_i, y_i in zip(lam[keep], y[:, keep].T):
        v = q @ y_i
        if real:
            v = v + 1j * v[::-1]
        polished = _polish(ab, complex(lam_i), v)
        if not real:
            values.append(polished)
        elif lam_i.imag == 0:
            values.append(complex(polished.real, 0.0))
        else:
            values += [polished, polished.conjugate()]
    w = np.array(values, dtype=complex)
    return w[_sorted_by_value(w)]


class Eigendata:
    """Sorted eigenvalues plus on-demand eigenvectors of one discretized operator.

    Vectors come lazily from inverse iteration on the pentadiagonal bands,
    for the few candidates matching probes: one banded LU of lambda - H and
    three solves per vector, through `_inverse_steps`, the helper the polish
    of `contour_eigvals` also uses.  Each vector is checked against
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
        """Eigendata of the operator whose bands `banded_form` returned: the
        eigenvalues of H inside `contour(ab)`, from `contour_eigvals`."""
        return cls(contour_eigvals(ab, contour(ab)), bands=ab)

    def vector(self, index: int) -> np.ndarray:
        if index not in self._cache:
            self._cache[index] = self._inverse_iteration(self.values[index])
        return self._cache[index]

    def _inverse_iteration(self, lam: complex) -> np.ndarray:
        m = self._bands.shape[1]
        rng = np.random.default_rng(0)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        v = _inverse_steps(self._bands, lam, v, 3)
        if v is None:
            raise NoConvergence(f"inverse iteration stalled at {lam}: the shift is an eigenvalue")
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
    """Match each closed-form level to the nearest decaying numeric eigenvalue.

    Candidates are probed in order of distance in the complex plane; the
    first whose eigenvector passes the boundary-decay gate (DEFAULT_DECAY_GATE)
    is the match candidate, and the level counts as matched when that
    candidate lies within tol.  A wrong level therefore stays unmatched even
    if a box continuum eigenvalue happens to sit nearby, because continuum
    vectors fail the gate.  Candidates at equal distance (such as the two members of
    an exact conjugate pair seen from a real level) are probed in the
    (re, im) order of eigendata.values, so the member with negative
    imaginary part comes first.  When none of the MAX_DECAY_PROBES nearest
    decays, the row is unmatched and reports the nearest candidate.  With no
    numeric eigenvalue at all (an operator whose contour holds none), every
    row is unmatched, with nan for e_numeric, abs_error and boundary_decay.
    """
    rows = []
    for level in closed:
        order = np.argsort(np.abs(eigendata.values - level.energy), kind="stable")
        chosen, decays = None, False  # (index, boundary decay) of the row's candidate
        for idx in map(int, order[:MAX_DECAY_PROBES]):
            decay = boundary_decay(eigendata.vector(idx))
            decays = decay <= DEFAULT_DECAY_GATE
            if chosen is None or decays:
                chosen = (idx, decay)
            if decays:
                break
        idx, decay = chosen or (None, math.nan)
        e_num = complex(math.nan, math.nan) if idx is None else complex(eigendata.values[idx])
        abs_error = abs(e_num - level.energy)
        rows.append(
            LevelMatch(
                n=level.n,
                epsilon=level.epsilon,
                e_closed=complex(level.energy),
                e_numeric=e_num,
                abs_error=abs_error,
                boundary_decay=decay,
                matched=decays and bool(abs_error <= tol),
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
    """Full pipeline: solve, enumerate, build the bands, solve inside the contour, match.

    Closed-form levels appear in deterministic order (branches in solver
    order, n ascending).  NoRegularBranch propagates to the caller.
    """
    branches = families.solve(spec)
    closed = [lv for sol in branches for lv in spectrum.enumerate_levels(sol)]
    grid = grid or default_grid(spec)
    eigendata = Eigendata.from_bands(banded_form(spec.potential, grid))
    return match_levels(closed, eigendata, tol=tol)
