"""Kernelized bias model, the package's one bias fit, and the corrected
feature-space metric.

The bias directions are unit-norm feature-space vectors spanned by the
pairwise differences of the defining pairs; they are found by
eigendecomposing a pairwise-centered Gram matrix, so nothing is ever
computed in feature space explicitly.  fit_kernel_model is the package's
only bias fit: the linear subspace of `linear` is this fit with the
linear kernel k(x, y) = x^T y, read out in input space.  Rather than
producing corrected vectors, the model corrects the *metric*: inner
products are evaluated as if both arguments had their bias component
removed,

    corrected(z, w) = k(z, w) - sum_k beta_k(z) * beta_k(w),

where beta_k(w) is the coordinate of w's feature image along bias
direction k, computable from kernel evaluations against the training
pairs.

KernelBiasModel is the package's one bias-model type: a linear model is
its linear-kernel instance.  beta_matrix(model, x) gives the (n, K) bias
coordinates of the rows of x.  CorrectedMetric is the package's one copy
of the metric and the one object every evaluation and the CLI query: it
holds a table, the spec of its model (the linear kernel with K = 0, plain
cosine, when there is none) and a name ("raw", "linear" or "kernel").  It
has one query form: words of its table.  `in` tells whether a word is
there, and similarity_matrix(rows, cols), inner_product_matrix(rows, cols)
and squared_distance_matrix(rows, cols) score every row word against
every column word.  A similarity query rejects a fully neutralized word:
corrected self product at most 1e-12 k(w, w).  A word's beta is computed
the first time a query touches it, and kept: a query pays only for the
words it names, and each word once.
pair_similarities answers a list of word pairs through similarity_matrix,
in bounded chunks.

Scale convention: the eigenproblem is solved on gram_scale times M, the
N x N Gram of the pair differences phi(a_i) - phi(b_i).  The dual
coefficients absorb that factor, alpha = sqrt(gram_scale) U^T / sqrt(lambda),
so alpha M alpha^T = I and beta is a plain contraction of raw kernel
values; every corrected quantity is independent of gram_scale.  A fit
with gram_scale=2 must therefore reproduce the gram_scale=1 metric
exactly; tests enforce this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linear
from .embeddings import EmbeddingTable
from .errors import DataError, FormatError, warn
from .kernels import _BLOCK_ELEMENTS, KernelSpec, difference_distances, gram_matrix, kernel_diag
from .numerics import symmetric_eig

# Eigenvalues at or below this fraction of the largest are treated as
# numerically zero when ranking the bias directions.
RANK_RTOL = 1e-10

_LINEAR_KERNEL = KernelSpec("linear")


def build_centered_gram(
    spec: KernelSpec, pairs_a: np.ndarray, pairs_b: np.ndarray
) -> np.ndarray:
    """Gram M of the defining pairs' feature differences (N x N):

        M[i, j] = k(a_i, a_j) - k(a_i, b_j) - k(b_i, a_j) + k(b_i, b_j).

    Centering each pair on its mean leaves its members at
    +-(phi(a_i) - phi(b_i)) / 2, so the kernel-PCA Gram of the centered
    images of every member is 0.5 M (x) [[1, -1], [-1, 1]], whose nonzero
    spectrum is M's.  The linear kernel is formed as (A - B)(A - B)^T:
    the four-block sum subtracts O(1) kernel values and loses about
    eps / |a - b|^2 of relative precision on a pair a, b.
    """
    pairs_a = np.asarray(pairs_a, dtype=np.float64)
    pairs_b = np.asarray(pairs_b, dtype=np.float64)
    if pairs_a.shape != pairs_b.shape or pairs_a.ndim != 2 or pairs_a.shape[0] < 1:
        raise DataError("pair arrays must be matching (N, d) matrices with N >= 1")
    if spec.family == "linear":
        diff = pairs_a - pairs_b
        gram = diff @ diff.T
    else:
        kab = gram_matrix(spec, pairs_a, pairs_b)
        kaa = gram_matrix(spec, pairs_a, pairs_a)
        gram = kaa - kab - kab.T + gram_matrix(spec, pairs_b, pairs_b)
    return (gram + gram.T) / 2.0


@dataclass(frozen=True, eq=False)
class KernelBiasModel:
    """Fitted bias model.  A linear model is the linear-kernel one in the
    canonical form of from_basis: pairs_a = B, its (K, d) orthonormal
    basis, pairs_b = 0 and alphas = I, so beta(x) = x B^T.

    Attributes:
        spec: Kernel used for fitting and all corrected evaluations.
        pairs_a / pairs_b: (N, d) defining-pair vectors.
        alphas: (K, N) dual coefficients; row k expands bias direction k
            over the pair differences phi(a_i) - phi(b_i).  Normalized so
            alpha M alpha^T = I, M = build_centered_gram(spec, pairs_a,
            pairs_b).
        eigenvalues: (K,) positive, descending, of gram_scale * M; in the
            canonical linear form, the bias covariance's instead.
        gram_scale: the multiplier M was fitted with.
        discarded_negative: count of negative eigenvalues dropped at fit
            (nonzero only for indefinite kernels such as sigmoid).
    """

    spec: KernelSpec
    pairs_a: np.ndarray
    pairs_b: np.ndarray
    alphas: np.ndarray
    eigenvalues: np.ndarray
    gram_scale: float = 1.0
    discarded_negative: int = 0

    def __post_init__(self) -> None:
        for name in ("pairs_a", "pairs_b", "alphas", "eigenvalues"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return int(self.alphas.shape[0])

    @property
    def dim(self) -> int:
        return int(self.pairs_a.shape[1])

    def readout(self) -> np.ndarray:
        """The (K, d) input-space readout W = alpha (A - B): row k is
        sum_i alpha_ki (a_i - b_i), bias direction k's dual expansion with
        phi taken as the identity.  x - beta(x) W is every kernel's
        pre-image; for the linear kernel W is orthonormal and
        beta(x) = x W^T."""
        return self.alphas @ (self.pairs_a - self.pairs_b)

    def input_directions(self) -> np.ndarray:
        """The (K, d) orthonormal bias directions in input space, readout();
        FormatError unless the kernel is linear."""
        if self.spec.family != "linear":
            raise FormatError(
                f"the {self.spec.family} kernel has no input-space bias "
                "directions; this needs a linear-kernel model"
            )
        return self.readout()

    @classmethod
    def from_basis(cls, basis: np.ndarray, eigenvalues: np.ndarray) -> "KernelBiasModel":
        """The canonical linear-kernel model of a (K, d) orthonormal basis:
        pairs_a = basis, pairs_b = 0 and alphas = I."""
        basis = np.asarray(basis, dtype=np.float64)
        return cls(
            spec=_LINEAR_KERNEL,
            pairs_a=basis,
            pairs_b=np.zeros_like(basis),
            alphas=np.eye(basis.shape[0]),
            eigenvalues=eigenvalues,
        )


def fit_kernel_model(
    spec: KernelSpec,
    table: EmbeddingTable,
    sets: linear.DefiningSets,
    k: int | None = 1,
    gram_scale: float = 1.0,
) -> KernelBiasModel:
    """Fit the kernel bias model on the defining pairs of a table.

    Args:
        spec: Kernel to use.
        table: Embedding table the pair indices refer to.
        sets: Defining pairs.
        k: Number of bias directions to keep; None keeps every direction
            above the rank threshold.
        gram_scale: Multiplier applied to the centered Gram before the
            eigenproblem.  Corrected inner products are invariant to it.

    Raises:
        FormatError: if k is below 1.
        DataError: if fewer than k eigenvalues exceed the rank threshold
            (the message reports the available rank).
    """
    if k is not None and k < 1:
        raise FormatError(f"the number of bias directions must be at least 1, got {k}")
    sets.validate_against(table)
    if gram_scale <= 0:
        raise DataError("gram_scale must be positive")
    pairs_a = table.matrix[[a for a, _ in sets.pairs]]
    pairs_b = table.matrix[[b for _, b in sets.pairs]]
    # An overflowed kernel's inf - inf gives NaN, which symmetric_eig rejects.
    with np.errstate(invalid="ignore"):
        gram = gram_scale * build_centered_gram(spec, pairs_a, pairs_b)
    eig = symmetric_eig(gram)

    top = float(eig.eigenvalues[0]) if eig.eigenvalues.size else 0.0
    threshold = RANK_RTOL * max(top, 0.0)
    positive = eig.eigenvalues > threshold if top > 0 else np.zeros(len(eig.eigenvalues), bool)
    rank = int(np.sum(positive))
    n_negative = int(np.sum(eig.eigenvalues < -threshold))
    if n_negative:
        warn(
            __name__,
            "discarding %d negative eigenvalue(s) of the centered Gram "
            "(indefinite kernel)",
            n_negative,
        )
    if k is None:
        k = rank
    if k > rank:
        raise DataError(
            f"requested {k} bias directions but centered-Gram rank is {rank}"
        )

    values = eig.eigenvalues[:k].copy()
    alphas = np.sqrt(gram_scale) * eig.eigenvectors[:, :k].T / np.sqrt(values)[:, None]
    return KernelBiasModel(
        spec=spec,
        pairs_a=pairs_a,
        pairs_b=pairs_b,
        alphas=alphas,
        eigenvalues=values,
        gram_scale=float(gram_scale),
        discarded_negative=n_negative,
    )


def check_dimension(model_dim: int, table: EmbeddingTable) -> None:
    """DataError unless a model of this dimension fits the table's vectors."""
    if model_dim != table.dim:
        raise DataError(f"model dimension {model_dim} != table dimension {table.dim}")


def beta_matrix(model: KernelBiasModel, x: np.ndarray) -> np.ndarray:
    """Bias-direction coordinates of the feature images of rows of x: (n, K).

    They come from kernel evaluations against the pair differences.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise DataError(f"expected rows of dimension {model.dim}, got shape {x.shape}")
    psi = gram_matrix(model.spec, x, model.pairs_a) - gram_matrix(model.spec, x, model.pairs_b)
    return psi @ model.alphas.T


class CorrectedMetric:
    """k~(x, y) = k(x, y) - beta(x) . beta(y) over one table, with the spec
    and beta of a bias model, or of the linear kernel with K = 0 when there
    is none (see the module docstring).

    name is "raw" without a model, "linear" with a linear-kernel one and
    "kernel" with any other.  Construction computes no beta.  Every query
    takes words of the table.  It first computes, in one beta_matrix
    call, beta of those of its words no earlier query touched, and keeps
    it per word; then it costs one raw Gram block and one (rows x cols)
    bias term from the kept beta.

    Raises:
        DataError: if the model's dimension is not the table's.
    """

    def __init__(self, table: EmbeddingTable, model: KernelBiasModel | None = None):
        if model is not None:
            check_dimension(model.dim, table)
        self.table = table
        self.model = model
        self.spec = _LINEAR_KERNEL if model is None else model.spec
        self.name = (
            "raw" if model is None else "linear" if self.spec.family == "linear" else "kernel"
        )
        # Row i of _beta is word i's beta once _known[i] is set.
        self._beta = np.empty((len(table), 0 if model is None else model.k))
        self._known = np.full(len(table), model is None)

    def __contains__(self, word: str) -> bool:
        return word in self.table

    def _resolve(
        self, rows: Sequence[str], cols: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectors and beta of the row words and of the column words, (x,
        y, bx, by), after computing, in one beta_matrix call, beta of
        those no earlier query touched.

        Raises:
            DataError: naming the first word that is not in the table.
        """
        ri = [self.table.row_index(w) for w in rows]
        ci = [self.table.row_index(w) for w in cols]
        # A mask, not np.unique, which loads numpy.ma (see numerics).
        wanted = np.zeros(len(self._known), bool)
        wanted[ri + ci] = True
        new = np.flatnonzero(wanted & ~self._known)
        if new.size:
            self._beta[new] = beta_matrix(self.model, self.table.matrix[new])
            self._known[new] = True
        matrix = self.table.matrix
        return matrix[ri], matrix[ci], self._beta[ri], self._beta[ci]

    def _cross(self, x: np.ndarray, y: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """k(x, y) - bx by^T for every row pair of x and y."""
        return gram_matrix(self.spec, x, y) - bx @ by.T

    def inner_product_matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Corrected inner products of every row word with every column word."""
        return self._cross(*self._resolve(rows, cols))

    def similarity_matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Corrected cosines of every row word with every column word,
        clipped to [-1, 1].

        Raises:
            DataError: naming the first word that is not in the table, or
                the first row word, then column word, that is fully
                neutralized: its corrected self product is at most
                1e-12 k(w, w), so the correction leaves nothing of it and
                its cosine is undefined.
        """
        x, y, bx, by = self._resolve(rows, cols)
        products = []
        for words, vectors, beta in ((rows, x, bx), (cols, y, by)):
            diag = kernel_diag(self.spec, vectors)
            products.append(diag - np.sum(beta * beta, axis=1))
            bad = np.nonzero(products[-1] <= 1e-12 * diag)[0]
            if bad.size:
                raise DataError(
                    f"word {words[bad[0]]!r} is fully neutralized by the correction; "
                    "its cosine is undefined"
                )
        cross = self._cross(x, y, bx, by)
        return np.clip(cross / np.sqrt(products[0][:, None] * products[1][None, :]), -1.0, 1.0)

    def squared_distance_matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Corrected squared distances of every row word from every column
        word, clamped at zero.

        Computed as k(x, x) - 2 k(x, y) + k(y, y) - ||beta(x) - beta(y)||^2
        with the bias term from direct differences, so a word is exactly 0
        from itself whenever its kernel part is.
        """
        x, y, bx, by = self._resolve(rows, cols)
        dist = (
            kernel_diag(self.spec, x)[:, None]
            - 2.0 * gram_matrix(self.spec, x, y)
            + kernel_diag(self.spec, y)[None, :]
        )
        if self.model is not None:  # K = 0 has no bias term
            dist -= difference_distances(bx, by)
        return np.maximum(0.0, dist)


def pair_similarities(metric: CorrectedMetric, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Similarity of each (a, b) pair, from metric.similarity_matrix.

    Every word is resolved first, in one call over the distinct first
    words and then the distinct second words, so an unknown or fully
    neutralized word raises before any work.  The pairs are then taken
    in consecutive chunks of at most isqrt(_BLOCK_ELEMENTS), each one
    matrix over its distinct first and second words and a gather: work
    grows linearly with the pair count and memory stays bounded.  Any
    object with a similarity_matrix can stand in for the metric.
    """
    words = [*dict.fromkeys(a for a, _ in pairs), *dict.fromkeys(b for _, b in pairs)]
    metric.similarity_matrix(words, [])
    step = max(1, math.isqrt(_BLOCK_ELEMENTS))
    values = np.empty(len(pairs))
    for start in range(0, len(pairs), step):
        chunk = pairs[start : start + step]
        firsts = list(dict.fromkeys(a for a, _ in chunk))
        seconds = list(dict.fromkeys(b for _, b in chunk))
        sims = metric.similarity_matrix(firsts, seconds)
        row = {w: i for i, w in enumerate(firsts)}
        col = {w: j for j, w in enumerate(seconds)}
        values[start : start + len(chunk)] = sims[
            [row[a] for a, _ in chunk], [col[b] for _, b in chunk]
        ]
    return values
