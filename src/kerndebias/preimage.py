"""Mapping feature-space-neutralized words back to plain vectors.

The identity `neutral part = word - bias part` reduces the pre-image
problem to approximating only the bias part's pre-image.  That map is
learned by ridge regression from the bias coordinates beta(w) to the
sample words; the prediction relative to beta = 0 is the bias part, so
for the rows w of a matrix

    preimage_neutralize_matrix(w) = w - beta(w) @ ridge_weights^T.

With a linear kernel and a pair-symmetric sample this reproduces the
exact linear projection (up to ridge shrinkage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError
from .rkhs import KernelBiasModel, beta_matrix

DEFAULT_RIDGE_LAMBDA = 1e-6
DEFAULT_EXTRA_SAMPLE = 500


@dataclass(frozen=True, eq=False)
class PreimageMap:
    """Learned map from bias coordinates to input-space bias components."""

    model: KernelBiasModel
    ridge_weights: np.ndarray  # (d, K)
    ridge_lambda: float
    training_words: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = np.asarray(self.ridge_weights, dtype=np.float64)
        if not np.all(np.isfinite(weights)):
            raise DataError("pre-image weights are not finite")
        weights.setflags(write=False)
        object.__setattr__(self, "ridge_weights", weights)
        object.__setattr__(self, "training_words", tuple(int(i) for i in self.training_words))


def default_sample(
    table: EmbeddingTable,
    sets_pairs: tuple[tuple[int, int], ...],
    rng: np.random.Generator,
    extra: int = DEFAULT_EXTRA_SAMPLE,
) -> list[int]:
    """Defining-set words plus `extra` uniformly drawn vocabulary words."""
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
) -> PreimageMap:
    """Ridge-regress sample words on their bias coordinates.

    Args:
        sample: Word indices used as regression rows; needs at least K + 1.
        ridge_lambda: Ridge strength; must be > 0 unless the centered
            coordinate Gram is nonsingular.

    Raises:
        DataError: on a too-small sample, or singular normal equations at
            ridge_lambda = 0 (the message suggests a positive lambda).
    """
    if ridge_lambda < 0:
        raise DataError("ridge_lambda must be nonnegative")
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
    weights = np.linalg.solve(normal, coords_c.T @ targets_c)  # (K, d)
    return PreimageMap(
        model=model,
        ridge_weights=weights.T,
        ridge_lambda=float(ridge_lambda),
        training_words=tuple(sample),
    )


def preimage_neutralize_matrix(pmap: PreimageMap, matrix: np.ndarray) -> np.ndarray:
    """Each row minus the input-space approximation of its bias part."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix - beta_matrix(pmap.model, matrix) @ pmap.ridge_weights.T


def preimage_to_dict(pmap: PreimageMap) -> dict:
    return {
        "ridge_weights": pmap.ridge_weights.tolist(),
        "ridge_lambda": pmap.ridge_lambda,
        "training_words": list(pmap.training_words),
    }
