"""Linear bias subspace: fit, neutralize, equalize, design matrix, covariance.

The bias subspace is spanned by the leading eigenvectors of the covariance
of word vectors centered within small counterpart pairs ("defining sets").
It is not fitted here: fit_linear_subspace reads it out of the package's
one bias fit, rkhs.fit_kernel_model, with the linear kernel
k(x, y) = x^T y, whose bias directions are vectors in input space.
build_design_matrix and bias_covariance give the same covariance in its
primal d x d form.

LinearBiasModel has the protocol of rkhs.KernelBiasModel: name "linear",
the linear KernelSpec and beta(x) = x B^T.  Neutralizing projects a vector
onto the orthogonal complement of the subspace; equalizing re-embeds the
members of an "equality set" so they share one neutral component and keep
unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, FormatError
from .kernels import KernelSpec
from .numerics import fix_column_signs
from .rkhs import fit_kernel_model


@dataclass(frozen=True)
class DefiningSets:
    """Index pairs of counterpart words; each pair is one defining set."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for a, b in self.pairs:
            for i in (a, b):
                if i in seen:
                    raise DataError(f"word index {i} appears in two defining pairs")
                seen.add(i)
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def validate_against(self, table: EmbeddingTable) -> None:
        n = len(table)
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise DataError(f"defining pair ({a}, {b}) out of range for |V|={n}")


@dataclass(frozen=True)
class EqualitySets:
    """Disjoint word-index sets, each of size >= 2, to be equalized."""

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for members in self.sets:
            if len(members) < 2:
                raise DataError("equality sets need at least two members")
            for i in members:
                if i in seen:
                    raise DataError(f"word index {i} appears in two equality sets")
                seen.add(i)
        object.__setattr__(
            self, "sets", tuple(tuple(int(i) for i in members) for members in self.sets)
        )


@dataclass(frozen=True, eq=False)
class LinearBiasModel:
    """Orthonormal basis (rows) of the bias subspace plus the bias
    covariance eigenvalues along it."""

    name: ClassVar[str] = "linear"
    spec: ClassVar[KernelSpec] = KernelSpec("linear")

    basis: np.ndarray  # (K, d)
    eigenvalues: np.ndarray  # (K,)

    def __post_init__(self) -> None:
        for name in ("basis", "eigenvalues"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return int(self.basis.shape[0])

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    def beta(self, x: np.ndarray) -> np.ndarray:
        """Bias coordinates of the rows of x: (n, K)."""
        return np.asarray(x, dtype=np.float64) @ self.basis.T

    def project(self, w: np.ndarray) -> np.ndarray:
        """Component of w inside the bias subspace."""
        w = np.asarray(w, dtype=np.float64)
        return self.basis.T @ (self.basis @ w)


def build_design_matrix(table: EmbeddingTable, sets: DefiningSets) -> np.ndarray:
    """Stack, for every word in every pair, its vector minus the pair mean.

    The result has 2N rows that sum to the zero vector.
    """
    if not sets.pairs:
        raise DataError("no defining pairs supplied")
    sets.validate_against(table)
    rows = []
    for a, b in sets.pairs:
        va = table.matrix[a]
        vb = table.matrix[b]
        mean = (va + vb) / 2.0
        rows.append(va - mean)
        rows.append(vb - mean)
    return np.vstack(rows)


def bias_covariance(design: np.ndarray) -> np.ndarray:
    """Bias covariance: half the cross-product of the centered design rows."""
    design = np.asarray(design, dtype=np.float64)
    return 0.5 * design.T @ design


def fit_linear_subspace(
    table: EmbeddingTable, sets: DefiningSets, k: int
) -> LinearBiasModel:
    """Top-k eigenvectors of the bias covariance, by descending eigenvalue,
    read out of fit_kernel_model with the linear kernel.

    Direction j of the kernel fit is feature_scale * alpha_j (W1 - W2)
    over the interleaved signed pair differences, to which pair i adds
    (alpha_j[2i] - alpha_j[2i + 1]) (a_i - b_i).  One QR orthonormalizes
    the directions, each signed so its largest-magnitude entry is
    positive.  The covariance eigenvalues are the dual ones over
    4 * gram_scale.

    Raises:
        DataError: if k is below 1 or above the numerical rank of the
            centered Gram (the message reports the available rank).
    """
    model = fit_kernel_model(LinearBiasModel.spec, table, sets, k=k)
    weights = model.alphas[:, 0::2] - model.alphas[:, 1::2]
    directions = model.feature_scale * weights @ (model.pairs_a - model.pairs_b)
    basis = np.linalg.qr(directions.T)[0]
    fix_column_signs(basis)
    return LinearBiasModel(
        basis=basis.T.copy(),
        eigenvalues=model.eigenvalues / (4.0 * model.gram_scale),
    )


def neutralize_matrix(model: LinearBiasModel, matrix: np.ndarray) -> np.ndarray:
    """Row-wise neutralization."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix - (matrix @ model.basis.T) @ model.basis


def equalize_set(
    model: LinearBiasModel,
    table: EmbeddingTable,
    members: tuple[int, ...] | list[int],
) -> list[np.ndarray]:
    """Re-embed one equality set: shared neutral component, unit norms.

    Each output is nu + Z * (w_B - mu_B), where mu is the set mean, nu its
    neutral part, w_B / mu_B the bias-subspace parts, and the normalizer
    Z = sqrt(1 - |nu|^2) / |w_B - mu_B| restores unit length.

    Raises:
        DataError: if a member's bias component coincides with the set
            mean's (nothing to scale), or if |nu| > 1.
    """
    members = [int(i) for i in members]
    if len(members) < 2:
        raise DataError("equality sets need at least two members")
    vectors = table.matrix[members]
    mu = vectors.mean(axis=0)
    mu_b = model.project(mu)
    nu = mu - mu_b
    nu_norm_sq = float(nu @ nu)
    if nu_norm_sq > 1.0 + 1e-12:
        raise DataError(
            "equality set mean has neutral norm > 1; cannot renormalize "
            "(are the input vectors unit length?)"
        )
    nu_norm_sq = min(nu_norm_sq, 1.0)
    out = []
    for idx, w in zip(members, vectors):
        w_b = model.project(w)
        diff = w_b - mu_b
        diff_norm = float(np.linalg.norm(diff))
        if diff_norm <= 1e-12:
            raise DataError(
                f"word {table.words[idx]!r} has no bias offset from its "
                "equality-set mean; cannot equalize"
            )
        z = np.sqrt(1.0 - nu_norm_sq) / diff_norm
        out.append(nu + z * diff)
    return out


def linear_model_to_dict(model: LinearBiasModel) -> dict:
    return {
        "type": "linear",
        "k": model.k,
        "dim": model.dim,
        "basis": model.basis.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
    }


def linear_model_from_dict(data: dict) -> LinearBiasModel:
    """Rebuild a model from its dict form, checking shapes and values.

    Raises:
        FormatError: on a missing field, a non-numeric or non-finite
            array, or shapes that disagree: basis must be (k, dim) and
            eigenvalues (k,).
    """
    if not isinstance(data, dict) or data.get("type") != "linear":
        raise FormatError("not a linear model file")
    try:
        basis = np.array(data["basis"], dtype=np.float64)
        eigenvalues = np.array(data["eigenvalues"], dtype=np.float64)
        dim = int(data["dim"])
        k = int(data["k"])
    except KeyError as exc:
        raise FormatError(f"linear model is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed linear model: {exc}") from None
    if basis.shape != (k, dim) or k < 1 or eigenvalues.shape != (k,):
        raise FormatError(
            f"linear model shapes disagree: basis {basis.shape}, eigenvalues "
            f"{eigenvalues.shape}, dim {dim}, k {k}; expected basis (k, dim), "
            "eigenvalues (k,)"
        )
    if not (np.all(np.isfinite(basis)) and np.all(np.isfinite(eigenvalues))):
        raise FormatError("linear model contains non-finite values")
    return LinearBiasModel(basis=basis, eigenvalues=eigenvalues)


def resolve_word_sets(
    table: EmbeddingTable,
    defining_pairs: list[list[str]],
    equality_sets: list[list[str]] | None = None,
) -> tuple[DefiningSets, EqualitySets, list[str]]:
    """Map word-level sets onto table indices.

    A defining pair with any missing word is dropped whole; an equality
    set keeps its present members and is dropped if fewer than two remain.
    Returns the resolved sets plus human-readable warnings about drops.
    """
    warnings: list[str] = []
    pairs: list[tuple[int, int]] = []
    for pair in defining_pairs:
        if len(pair) != 2:
            raise FormatError(f"defining sets must be pairs, got {pair!r}")
        a, b = pair
        if a in table and b in table:
            pairs.append((table.row_index(a), table.row_index(b)))
        else:
            missing = [w for w in pair if w not in table]
            warnings.append(f"dropping defining pair {pair!r}: missing {missing}")
    resolved_eq: list[tuple[int, ...]] = []
    for group in equality_sets or []:
        present = [w for w in group if w in table]
        absent = [w for w in group if w not in table]
        if absent:
            warnings.append(f"equality set {group!r}: missing {absent}")
        if len(present) >= 2:
            resolved_eq.append(tuple(table.row_index(w) for w in present))
        elif present:
            warnings.append(f"dropping equality set {group!r}: fewer than two present")
    if not pairs:
        raise DataError("no defining pairs remain after vocabulary filtering")
    return DefiningSets(tuple(pairs)), EqualitySets(tuple(resolved_eq)), warnings
