"""Linear bias subspace: fit and equalize.

The bias subspace is spanned by the leading eigenvectors of the covariance
of word vectors centered within small counterpart pairs ("defining sets").
It is not fitted here: fit_linear_subspace reads it out of the package's
one bias fit, rkhs.fit_kernel_model, with the linear kernel
k(x, y) = x^T y, whose bias directions are vectors in input space.

A linear model is the linear-kernel rkhs.KernelBiasModel in the canonical
form of KernelBiasModel.from_basis: pairs_a = B, the orthonormal basis,
pairs_b = 0 and alphas = I, so beta(x) = x B^T.  Neutralizing projects a
vector onto the orthogonal complement of the subspace; equalizing
re-embeds the members of an "equality set" so they share one neutral
component and keep unit norm.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import numerics
from .embeddings import EmbeddingTable
from .errors import DataError, FormatError
from .rkhs import _LINEAR_KERNEL, KernelBiasModel, fit_kernel_model


def _check_disjoint(
    groups: Iterable[Sequence[int]], kind: str, name: Callable[[int], str]
) -> None:
    """DataError on the first index that repeats, within one group or
    across two; name(i) names it in the message."""
    seen: set[int] = set()
    for group in groups:
        own: set[int] = set()
        for i in group:
            if i in own:
                raise DataError(f"{name(i)} appears twice in one {kind}")
            if i in seen:
                raise DataError(f"{name(i)} appears in two {kind}s")
            own.add(i)
        seen |= own


@dataclass(frozen=True)
class DefiningSets:
    """Index pairs of counterpart words; each pair is one defining set."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_disjoint(self.pairs, "defining pair", lambda i: f"word index {i}")
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
        if any(len(members) < 2 for members in self.sets):
            raise DataError("equality sets need at least two members")
        _check_disjoint(self.sets, "equality set", lambda i: f"word index {i}")
        object.__setattr__(
            self, "sets", tuple(tuple(int(i) for i in members) for members in self.sets)
        )


def fit_linear_subspace(
    table: EmbeddingTable, sets: DefiningSets, k: int
) -> KernelBiasModel:
    """Top-k eigenvectors of the bias covariance, by descending eigenvalue,
    read out of fit_kernel_model with the linear kernel.

    Direction j of the kernel fit is alpha_j (A - B), the dual
    coefficients over the pair differences a_i - b_i.  One QR
    orthonormalizes the directions, each signed so its largest-magnitude
    entry is positive.  The model is in canonical form, with the covariance
    eigenvalues: the dual ones over 4 * gram_scale.

    Raises:
        FormatError: if k is below 1.
        DataError: if k is above the numerical rank of the centered Gram
            (the message reports the available rank).
    """
    model = fit_kernel_model(_LINEAR_KERNEL, table, sets, k=k)
    basis = np.linalg.qr(model.input_directions().T)[0]
    numerics.fix_column_signs(basis)
    return KernelBiasModel.from_basis(
        basis.T.copy(), model.eigenvalues / (4.0 * model.gram_scale)
    )


def equalize_set(
    model: KernelBiasModel,
    table: EmbeddingTable,
    members: tuple[int, ...] | list[int],
) -> list[np.ndarray]:
    """Re-embed one equality set: shared neutral component, unit norms.

    Each output is nu + Z * (w_B - mu_B), where mu is the set mean, nu its
    neutral part, w_B / mu_B the bias-subspace parts, and the normalizer
    Z = sqrt(1 - |nu|^2) / |w_B - mu_B| restores unit length.  B is the
    model's input directions; all members take one matrix step.

    Raises:
        FormatError: unless the model's kernel is linear.
        DataError: if a member's bias component coincides with the set
            mean's (nothing to scale; the first such member in set order
            is named), or if |nu| > 1.
    """
    members = [int(i) for i in members]
    if len(members) < 2:
        raise DataError("equality sets need at least two members")
    basis = model.input_directions()
    vectors = table.matrix[members]
    mu = vectors.mean(axis=0)
    mu_b = basis.T @ (basis @ mu)
    nu = mu - mu_b
    nu_norm_sq = float(nu @ nu)
    if nu_norm_sq > 1.0 + 1e-12:
        raise DataError(
            "equality set mean has neutral norm > 1; cannot renormalize "
            "(are the input vectors unit length?)"
        )
    diff = (vectors @ basis.T) @ basis - mu_b
    diff_norm = np.linalg.norm(diff, axis=1)
    degenerate = np.flatnonzero(diff_norm <= 1e-12)
    if degenerate.size:
        raise DataError(
            f"word {table.words[members[degenerate[0]]]!r} has no bias offset from its "
            "equality-set mean; cannot equalize"
        )
    z = np.sqrt(1.0 - min(nu_norm_sq, 1.0)) / diff_norm
    return list(nu + z[:, None] * diff)


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

    def word(i: int) -> str:
        return f"word {table.words[i]!r}"

    _check_disjoint(pairs, "defining pair", word)
    _check_disjoint(resolved_eq, "equality set", word)
    return DefiningSets(tuple(pairs)), EqualitySets(tuple(resolved_eq)), warnings
