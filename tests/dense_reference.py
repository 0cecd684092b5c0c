"""Dense references for the tests: full eigensolves and the matrix PT check.

The package computes the eigenvalues inside a contour from banded solves and
vectors lazily by inverse iteration; the tests compare both against the full
`scipy.linalg.eig` solve of `eig_complex`, checked against the same
backward-error contract, and against `dense_eigvals`, the dense eigensolve
`Eigendata.from_bands` ran before the contour solve replaced it: the real
form of a PT-symmetric H, written into the front half of one complex N x N
allocation (`real_form_matrix`), or H itself.  The package decides PT
symmetry on the five bands of H; `pt_real_form` makes the same decision on
the whole dense matrix, the way the package made it before it built the
bands directly.  `solve_banded_vector` is the inverse iteration `Eigendata`
ran before it shared the polish's banded LU, which the tests pin its vectors
to.
"""

import math

import numpy as np

from sl2spectra.errors import NoConvergence
from sl2spectra.oracle import (
    BACKWARD_ERROR_TOL,
    PT_TOL,
    _band_spans,
    _check_dense_cap,
    _dense_form,
    _pt_symmetric,
    _sorted_by_value,
    eigvals_complex,
)

# Rows per block of the PT check, which keeps its temporaries small.
PT_CHECK_ROWS = 8


def eig_complex(h_mat: np.ndarray):
    """All eigenpairs of the dense matrix, sorted by eigenvalue (re, im).

    Every returned pair is verified against the backward-error contract
    ||H v - lambda v|| / (||H||_F ||v||) < 1e-10; a violation (or a
    non-converging QR iteration) raises NoConvergence.
    """
    import scipy.linalg

    _check_dense_cap(h_mat.shape[0])
    try:
        w, vecs = scipy.linalg.eig(h_mat, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigenvalue iteration failed: {exc}") from exc
    resid = h_mat @ vecs - vecs * w
    scale = np.linalg.norm(h_mat) * np.linalg.norm(vecs, axis=0)
    backward = np.linalg.norm(resid, axis=0) / scale
    if np.any(backward >= BACKWARD_ERROR_TOL):
        raise NoConvergence(
            f"backward error {backward.max():.3e} exceeds {BACKWARD_ERROR_TOL}"
        )
    order = _sorted_by_value(w)
    return w[order], vecs[:, order]


def pt_real_form(h_mat: np.ndarray) -> bool:
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


def real_form_matrix(ab: np.ndarray) -> np.ndarray:
    """The real form A = Re H - P Im H of a PT-symmetric H with bands ab.

    A real, Fortran-ordered view of the first N^2 doubles of one complex
    N x N allocation: Re H on the five bands, less each band's imaginary part
    reflected by P onto its anti-band ((P Im H)[m-1-i, j] = Im H[i, j]).  The
    rest of the allocation is never written.
    """
    m = ab.shape[1]
    flat = np.zeros(m * m, dtype=complex).view(np.float64)[: m * m]
    for k, lo, hi in _band_spans(m):
        flat[lo * (m + 1) - k :: m + 1][: hi - lo] = ab[2 - k, lo:hi].real
    for k, lo, hi in _band_spans(m):
        flat[m - 1 + k + lo * (m - 1) :: m - 1][: hi - lo] -= ab[2 - k, lo:hi].imag
    return flat.reshape((m, m), order="F")


def dense_eigvals(ab: np.ndarray) -> np.ndarray:
    """All eigenvalues of H, sorted by (re, im): the dense eigensolve of the
    real form when the bands pass the PT check, with its complex eigenvalues
    in exact conjugate pairs, and of H itself otherwise."""
    return eigvals_complex(real_form_matrix(ab) if _pt_symmetric(ab) else _dense_form(ab))


def solve_banded_vector(ab: np.ndarray, lam: complex) -> np.ndarray:
    """Three normalized inverse-iteration steps with H - lam from the seeded
    start vector of `Eigendata`, each a `scipy.linalg.solve_banded` call that
    factors H - lam again."""
    import scipy.linalg

    m = ab.shape[1]
    shifted = ab.copy()
    shifted[2, :] -= lam
    rng = np.random.default_rng(0)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v /= np.linalg.norm(v)
    for _ in range(3):
        v = scipy.linalg.solve_banded((2, 2), shifted, v)
        v /= np.linalg.norm(v)
    return v
