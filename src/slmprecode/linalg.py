"""Dense linear algebra for small square real matrices.

Thin validation layer over LAPACK (via numpy/scipy): partial-pivot LU
inversion with an explicit singularity check, symmetric
eigendecomposition returned in descending eigenvalue order, and Cholesky
factorization. Matrices are plain float64 ndarrays; every function copies
its input, so results never alias caller data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NoConvergenceError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
)

# Pivot smaller than this fraction of its row's largest entry counts as zero.
PIVOT_RTOL = 1e-12
# Symmetry tolerance on max |m_ij - m_ji|.
SYMMETRY_ATOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and copy ``a`` into a 2-D float64 array with finite entries."""
    m = np.array(a, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and copy ``a`` into a 1-D float64 array with finite entries."""
    v = np.array(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def _require_symmetric(m: np.ndarray) -> None:
    skew = np.max(np.abs(m - m.T)) if m.size else 0.0
    if skew > SYMMETRY_ATOL:
        raise NotSymmetricError(
            f"matrix is not symmetric: max |m_ij - m_ji| = {skew:.3e} > {SYMMETRY_ATOL:.1e}"
        )


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    ``eigenvectors`` holds orthonormal eigenvectors as columns, so the source
    matrix reconstructs as ``U @ diag(values) @ U.T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def invert(m) -> np.ndarray:
    """Invert a square matrix by partial-pivot LU.

    Raises SingularMatrixError when an LU pivot falls below ``PIVOT_RTOL``
    times its row scale or the inverse is not finite. Conditioning is not
    checked here: a channel's one limit is ``theory.build_channel``'s
    ``condition_limit``.
    """
    m = as_matrix(m)
    n = _require_square(m)
    row_scale = np.max(np.abs(m), axis=1)
    with warnings.catch_warnings():
        # We detect singularity ourselves via the pivot check below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.any(pivots < PIVOT_RTOL * np.max(row_scale)):
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.0e} of row scale"
        )
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(n), check_finite=False)
    if not np.all(np.isfinite(inv)):  # an all-zero matrix, or entries near the float minimum
        raise SingularMatrixError("inverse is not finite: the matrix is zero or too small")
    return inv


def sym_eigen(m) -> EigenSystem:
    """Eigendecompose a symmetric matrix, eigenvalues descending."""
    m = as_matrix(m)
    _require_square(m)
    _require_symmetric(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(values)[::-1]
    return EigenSystem(eigenvalues=values[order], eigenvectors=vectors[:, order])


def cholesky(m) -> np.ndarray:
    """Lower-triangular factor L with m = L @ L.T.

    Raises NotPositiveDefiniteError when a diagonal pivot is not positive.
    """
    m = as_matrix(m)
    _require_square(m)
    _require_symmetric(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
