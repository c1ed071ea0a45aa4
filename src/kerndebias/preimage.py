"""Mapping feature-space-neutralized words back to plain vectors.

The identity `neutral part = word - bias part` reduces the pre-image
problem to approximating only the bias part's pre-image, a linear map W
(K x d) from the bias coordinates beta(w), so for the rows w of a matrix

    preimage_neutralize_matrix(w) = w - beta(w) W.

The linear kernel's W is exact: its input directions alpha (A - B), with
which this is the projection off the linear subspace.  For nonlinear
kernels W is learned by ridge regression from beta(w) to sample words;
the prediction relative to beta = 0 is the bias part.
"""

from __future__ import annotations

import math

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, FormatError
from .rkhs import KernelBiasModel, beta_matrix

DEFAULT_RIDGE_LAMBDA = 1e-6
DEFAULT_EXTRA_SAMPLE = 500


def default_sample(
    table: EmbeddingTable,
    sets_pairs: tuple[tuple[int, int], ...],
    rng: np.random.Generator,
    extra: int = DEFAULT_EXTRA_SAMPLE,
) -> list[int]:
    """Defining-set words plus `extra` uniformly drawn vocabulary words.

    Raises:
        FormatError: if extra is negative.
    """
    if extra < 0:
        raise FormatError(f"pre-image sample size must be at least 0, got {extra}")
    base = [i for pair in sets_pairs for i in pair]
    taken = set(base)
    rest = [i for i in range(len(table)) if i not in taken]
    if rest and extra > 0:
        chosen = rng.choice(len(rest), size=min(extra, len(rest)), replace=False)
        base.extend(rest[int(i)] for i in np.sort(chosen))
    return base


def fit_preimage_map(
    model: KernelBiasModel,
    table: EmbeddingTable,
    sample: list[int],
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
) -> np.ndarray:
    """The (K, d) weights W of the ridge regression of sample words on
    their bias coordinates.

    Args:
        sample: Word indices used as regression rows; needs at least K + 1.
        ridge_lambda: Ridge strength, finite and at least 0; must be > 0
            unless the centered coordinate Gram is nonsingular.

    Raises:
        FormatError: unless ridge_lambda is finite and at least 0.
        DataError: on a too-small sample, singular normal equations at
            ridge_lambda = 0 (the message suggests a positive lambda), or
            weights that are not finite.
    """
    if not (math.isfinite(ridge_lambda) and ridge_lambda >= 0):
        raise FormatError(f"ridge_lambda must be finite and at least 0, got {ridge_lambda}")
    sample = [int(i) for i in sample]
    if len(sample) < model.k + 1:
        raise DataError(
            f"pre-image fit needs at least {model.k + 1} sample words, got {len(sample)}"
        )
    x = table.matrix[sample]
    coords = beta_matrix(model, x)  # (n, K)
    coords_c = coords - coords.mean(axis=0)
    targets_c = x - x.mean(axis=0)

    normal = coords_c.T @ coords_c + ridge_lambda * np.eye(model.k)
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(normal) < model.k:
        raise DataError(
            "singular normal equations for the pre-image fit; "
            "use ridge_lambda > 0"
        )
    weights = np.linalg.solve(normal, coords_c.T @ targets_c)
    if not np.all(np.isfinite(weights)):
        raise DataError("pre-image weights are not finite")
    return weights


def preimage_neutralize_matrix(
    model: KernelBiasModel, matrix: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Each row x minus its input-space bias part beta(x) W, for the
    (K, d) weights W: input_directions() or fit_preimage_map's."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix - beta_matrix(model, matrix) @ weights

