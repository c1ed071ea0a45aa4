"""Dense symmetric eigendecomposition and correlation statistics.

The eigensolver is LAPACK's symmetric solver (``np.linalg.eigh``) behind
the package's conventions: descending eigenvalues, a deterministic sign
per eigenvector, read-only outputs, and ``NumericalError`` for every
failure.  The matrices in this package (bias covariances, centered Gram
matrices) are small dense symmetric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class SymmetricEigen:
    """Eigenvalues in descending order, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eig(a: np.ndarray) -> SymmetricEigen:
    """Eigendecomposition of a real symmetric matrix by LAPACK.

    The input must be square, finite and symmetric within 1e-9; the
    solver runs on its symmetrized copy (a + a^T) / 2.  Eigenvalues are
    returned in descending order; a stable sort keeps exactly tied
    eigenvalues in the order LAPACK returned them.  Each eigenvector is
    sign-fixed so its largest-magnitude component is positive.

    Raises:
        NumericalError: on a non-square, non-finite or asymmetric input,
            or when LAPACK reports a failure (``LinAlgError``).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    if np.max(np.abs(a - a.T)) > _SYMMETRY_TOL:
        raise NumericalError(
            f"matrix is not symmetric within {_SYMMETRY_TOL:g}"
        )

    try:
        values, vecs = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from None
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    fix_column_signs(vecs)

    values.setflags(write=False)
    vecs.setflags(write=False)
    return SymmetricEigen(eigenvalues=values, eigenvectors=vecs)


def fix_column_signs(vecs: np.ndarray) -> None:
    """Negate, in place, each column whose largest-magnitude entry is
    negative: the package's one sign convention for basis vectors."""
    peaks = np.argmax(np.abs(vecs), axis=0)
    vecs[:, vecs[peaks, np.arange(vecs.shape[1])] < 0.0] *= -1.0


def _check_corr_input(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise NumericalError("correlation inputs must be 1-D and equal length")
    if x.size < 2:
        raise NumericalError("correlation needs at least two observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericalError("correlation inputs must be finite")
    return x, y


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson linear correlation coefficient."""
    x, y = _check_corr_input(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.dot(xc, xc)))
    sy = float(np.sqrt(np.dot(yc, yc)))
    if sx == 0.0 or sy == 0.0:
        raise NumericalError("correlation is undefined for a constant input")
    r = float(np.dot(xc, yc) / (sx * sy))
    return min(1.0, max(-1.0, r))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values receive the average of their ranks."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation: Pearson of the average-tie rank vectors."""
    x, y = _check_corr_input(x, y)
    return pearson(average_ranks(x), average_ranks(y))
