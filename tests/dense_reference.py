"""Dense references for the tests: full eigensolves and a three-solve inverse iteration.

The package computes the eigenpairs in discs about the closed levels from
banded solves, each vector the one the polish of its eigenvalue ends on;
the tests compare both against the full `scipy.linalg.eig` solve of
`eig_complex`, checked against the same backward-error contract, and
against `dense_eigvals`, the whole spectrum of H from the dense `eigvals`
that the package's banded solves replaced.  `solve_banded_vector` gives a
dense eigenvalue, which comes without a vector, the tests' own eigenvector.
"""

import numpy as np

from sl2spectra.errors import NoConvergence
from sl2spectra.oracle import (
    BACKWARD_ERROR_TOL,
    _check_dense_cap,
    _dense_form,
    _sorted_by_value,
    eigvals_complex,
)


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


def dense_eigvals(ab: np.ndarray) -> np.ndarray:
    """All eigenvalues of the H with bands ab, sorted by (re, im)."""
    return eigvals_complex(_dense_form(ab))


def solve_banded_vector(ab: np.ndarray, lam: complex) -> np.ndarray:
    """The eigenvector of H at its eigenvalue lam: three normalized
    inverse-iteration steps with H - lam from a seeded random start, each a
    `scipy.linalg.solve_banded` call that factors H - lam again."""
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
