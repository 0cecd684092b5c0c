"""Dense reference eigensolver for the tests: eigenvalues and eigenvectors in one call.

The package diagonalizes with `oracle.eigvals_complex` and computes vectors
lazily by inverse iteration; the tests compare both against this full
`scipy.linalg.eig` solve, checked against the same backward-error contract.
"""

import numpy as np

from sl2spectra.errors import NoConvergence
from sl2spectra.oracle import BACKWARD_ERROR_TOL, _check_dense_cap, _sorted_by_value


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
