"""Kernelized bias model and the corrected feature-space metric.

The linear pipeline generalizes by mapping words through a kernel feature
map.  The bias directions become unit-norm feature-space vectors spanned
by the pairwise differences of the defining pairs; they are found by
eigendecomposing a pairwise-centered Gram matrix, so nothing is ever
computed in feature space explicitly.  Rather than producing corrected
vectors, the model corrects the *metric*: inner products are evaluated as
if both arguments had their bias component removed,

    corrected(z, w) = k(z, w) - sum_k beta_k(z) * beta_k(w),

where beta_k(w) is the coordinate of w's feature image along bias
direction k, computable from kernel evaluations against the training
pairs.

CorrectedMetric is the package's one copy of that metric: the corrected
inner product, the cosine, the squared distance and the rule that rejects
a fully neutralized vector (corrected self product at most 1e-12 k(w, w)).
It is built over a (kernel spec, beta map) pair: a kernel model, a linear
model (the linear kernel, beta(x) = x B^T) or none (the linear kernel,
K = 0, plain cosine), and it has matrix methods only.  The similarity
backends in `evaluation` are word-indexed views of it.

Scale convention: the centered Gram built here is s times the Gram of the
raw feature differences (s = gram_scale / 2).  The dual coefficients are
normalized through that same matrix and the beta features carry a
matching sqrt(s) factor, so every corrected quantity is independent of s.
A fit with gram_scale=2 must therefore reproduce the gram_scale=1 metric
exactly; tests enforce this.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, FormatError
from .kernels import KernelSpec, difference_distances, gram_matrix, kernel_diag
from .linear import RANK_RTOL, DefiningSets, LinearBiasModel
from .numerics import symmetric_eig

logger = logging.getLogger(__name__)

_LINEAR_KERNEL = KernelSpec("linear")


def _interleaved(pairs_a: np.ndarray, pairs_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row layouts (a1, b1, a2, b2, ...) and the pair-swapped counterpart."""
    n, d = pairs_a.shape
    w1 = np.empty((2 * n, d))
    w2 = np.empty((2 * n, d))
    w1[0::2] = pairs_a
    w1[1::2] = pairs_b
    w2[0::2] = pairs_b
    w2[1::2] = pairs_a
    return w1, w2


def build_centered_gram(
    spec: KernelSpec, pairs_a: np.ndarray, pairs_b: np.ndarray
) -> np.ndarray:
    """Pairwise-centered Gram of the defining pairs (2N x 2N).

    With W1 the interleaved pair rows and W2 the same rows with each
    pair's members swapped, the centered Gram is

        K11 - K12 - K12^T + K22,   Kxy[i, j] = 0.5 * k(Wx_i, Wy_j).

    For a kernel with feature map phi this equals half the Gram of the
    signed feature differences phi(W1_i) - phi(W2_i).
    """
    pairs_a = np.asarray(pairs_a, dtype=np.float64)
    pairs_b = np.asarray(pairs_b, dtype=np.float64)
    if pairs_a.shape != pairs_b.shape or pairs_a.ndim != 2 or pairs_a.shape[0] < 1:
        raise DataError("pair arrays must be matching (N, d) matrices with N >= 1")
    w1, w2 = _interleaved(pairs_a, pairs_b)
    k11 = 0.5 * gram_matrix(spec, w1, w1)
    k12 = 0.5 * gram_matrix(spec, w1, w2)
    k22 = 0.5 * gram_matrix(spec, w2, w2)
    gram = k11 - k12 - k12.T + k22
    return (gram + gram.T) / 2.0


@dataclass(frozen=True, eq=False)
class KernelBiasModel:
    """Fitted kernel bias model.

    Attributes:
        spec: Kernel used for fitting and all corrected evaluations.
        pairs_a / pairs_b: (N, d) defining-pair vectors.
        alphas: (K, 2N) dual coefficients; row k expands bias direction k
            over the interleaved signed feature differences.  Normalized
            so alpha_k^T G alpha_k = 1, G the centered Gram used at fit.
        eigenvalues: (K,) positive, descending, of that centered Gram.
        feature_scale: sqrt(s) with G = s * (raw difference Gram); links
            the dual coefficients to raw kernel evaluations.
        discarded_negative: count of negative eigenvalues dropped at fit
            (nonzero only for indefinite kernels such as sigmoid).
    """

    spec: KernelSpec
    pairs_a: np.ndarray
    pairs_b: np.ndarray
    alphas: np.ndarray
    eigenvalues: np.ndarray
    feature_scale: float
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
    def n_pairs(self) -> int:
        return int(self.pairs_a.shape[0])

    @property
    def dim(self) -> int:
        return int(self.pairs_a.shape[1])

    def centered_gram(self) -> np.ndarray:
        return self.gram_scale * build_centered_gram(
            self.spec, self.pairs_a, self.pairs_b
        )


def fit_kernel_model(
    spec: KernelSpec,
    table: EmbeddingTable,
    sets: DefiningSets,
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
        DataError: if fewer than k eigenvalues exceed the rank threshold
            (the message reports the available rank).
    """
    sets.validate_against(table)
    if gram_scale <= 0:
        raise DataError("gram_scale must be positive")
    pairs_a = table.matrix[[a for a, _ in sets.pairs]]
    pairs_b = table.matrix[[b for _, b in sets.pairs]]
    gram = gram_scale * build_centered_gram(spec, pairs_a, pairs_b)
    eig = symmetric_eig(gram)

    top = float(eig.eigenvalues[0]) if eig.eigenvalues.size else 0.0
    threshold = RANK_RTOL * max(top, 0.0)
    positive = eig.eigenvalues > threshold if top > 0 else np.zeros(len(eig.eigenvalues), bool)
    rank = int(np.sum(positive))
    n_negative = int(np.sum(eig.eigenvalues < -threshold))
    if n_negative:
        logger.warning(
            "discarding %d negative eigenvalue(s) of the centered Gram "
            "(indefinite kernel)",
            n_negative,
        )
    if k is None:
        k = rank
    if k < 1 or k > rank:
        raise DataError(
            f"requested {k} bias directions but centered-Gram rank is {rank}"
        )

    values = eig.eigenvalues[:k].copy()
    alphas = eig.eigenvectors[:, :k].T / np.sqrt(values)[:, None]
    return KernelBiasModel(
        spec=spec,
        pairs_a=pairs_a,
        pairs_b=pairs_b,
        alphas=alphas,
        eigenvalues=values,
        feature_scale=float(np.sqrt(gram_scale * 0.5)),
        gram_scale=float(gram_scale),
        discarded_negative=n_negative,
    )


def beta_matrix(model: KernelBiasModel, x: np.ndarray) -> np.ndarray:
    """Bias-direction coordinates of the feature images of rows of x: (n, K).

    They come from kernel evaluations against the signed pair differences.
    A single d-vector gives a (K,) vector.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return beta_matrix(model, x[None, :])[0]
    if x.shape[1] != model.dim:
        raise DataError(f"expected dimension {model.dim}, got {x.shape[1]}")
    w1, w2 = _interleaved(model.pairs_a, model.pairs_b)
    psi = gram_matrix(model.spec, x, w1) - gram_matrix(model.spec, x, w2)
    return model.feature_scale * psi @ model.alphas.T


@dataclass(eq=False)
class CorrectedMetric:
    """k~(x, y) = k(x, y) - beta(x) . beta(y) over the (kernel spec, beta
    map) pair of a kernel model, a linear model or None (see the module
    docstring).  Methods take rows; bx and by are the rows' bias
    coordinates, computed here when not given.
    """

    model: KernelBiasModel | LinearBiasModel | None = None
    _direction_gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def spec(self) -> KernelSpec:
        return self.model.spec if isinstance(self.model, KernelBiasModel) else _LINEAR_KERNEL

    def beta(self, x: np.ndarray) -> np.ndarray:
        """Bias coordinates of the rows of x: (n, K)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.model is None:
            return np.zeros((x.shape[0], 0))
        if isinstance(self.model, LinearBiasModel):
            return x @ self.model.basis.T
        return beta_matrix(self.model, x)

    def direction_gram(self) -> np.ndarray:
        """Gram of a kernel model's bias directions (K x K, identity up to
        solver error)."""
        if self._direction_gram is None:
            gram = self.model.centered_gram()
            self._direction_gram = self.model.alphas @ gram @ self.model.alphas.T
        return self._direction_gram

    def self_inner_products(self, x: np.ndarray, bx: np.ndarray | None = None) -> np.ndarray:
        """Corrected k~(x_i, x_i) for every row of x."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        bx = self.beta(x) if bx is None else bx
        return kernel_diag(self.spec, x) - np.sum(bx * bx, axis=1)

    def inner_product_matrix(
        self, x: np.ndarray, y: np.ndarray,
        bx: np.ndarray | None = None, by: np.ndarray | None = None,
    ) -> np.ndarray:
        """Corrected inner products for all row pairs of x and y."""
        bx = self.beta(x) if bx is None else bx
        by = self.beta(y) if by is None else by
        return gram_matrix(self.spec, x, y) - bx @ by.T

    def cosine_matrix(
        self, x: np.ndarray, y: np.ndarray,
        bx: np.ndarray | None = None, by: np.ndarray | None = None,
        labels: tuple[Sequence, Sequence] | None = None,
    ) -> np.ndarray:
        """Corrected cosines of all row pairs of x and y, clipped to [-1, 1].

        Raises:
            DataError: naming the first row of x, then of y, that is fully
                neutralized: its corrected self product is at most
                1e-12 k(w, w), so the correction leaves nothing of it and
                its cosine is undefined.  labels name the rows of x and of
                y in the message (row numbers by default).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        bx = self.beta(x) if bx is None else bx
        by = self.beta(y) if by is None else by
        products = []
        for side, (rows, beta) in enumerate(((x, bx), (y, by))):
            products.append(self.self_inner_products(rows, beta))
            bad = np.nonzero(products[-1] <= 1e-12 * kernel_diag(self.spec, rows))[0]
            if bad.size:
                name = repr(labels[side][bad[0]]) if labels else f"row {bad[0]} of {'xy'[side]}"
                raise DataError(
                    f"word {name} is fully neutralized by the correction; "
                    "its cosine is undefined"
                )
        cross = self.inner_product_matrix(x, y, bx, by)
        return np.clip(cross / np.sqrt(products[0][:, None] * products[1][None, :]), -1.0, 1.0)

    def squared_distance_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pairwise corrected squared distances, clamped at zero.

        Computed as k(x, x) - 2 k(x, y) + k(y, y) - ||beta(x) - beta(y)||^2
        with the bias term from direct differences, so a row is exactly 0
        from itself whenever its kernel part is.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        dist = (
            kernel_diag(self.spec, x)[:, None]
            - 2.0 * gram_matrix(self.spec, x, y)
            + kernel_diag(self.spec, y)[None, :]
        )
        if self.model is not None:  # K = 0 has no bias term
            dist -= difference_distances(self.beta(x), self.beta(y))
        return np.maximum(0.0, dist)

    def equalized_inner_product(self, w: np.ndarray, members: np.ndarray) -> float:
        """Inner product of neutralized w with an equalized member of a set.

        The value is the same for every member: the mean over the set of
        the corrected inner products with w.
        """
        members = np.atleast_2d(np.asarray(members, dtype=np.float64))
        if members.shape[0] < 2:
            raise DataError("equality sets need at least two members")
        w = np.asarray(w, dtype=np.float64)
        values = self.inner_product_matrix(w[None, :], members)[0]
        return float(values.mean())

    def orthogonality_check(self, w: np.ndarray, z: np.ndarray) -> float:
        """Residual of <neutralized w, bias projection of z>, ideally 0.

        Computed as the difference between the projection-coordinate route
        (beta(w) . beta(z)) and the expansion route through the direction
        Gram; exposes eigensolver non-orthonormality.
        """
        bw = self.beta(w)[0]
        bz = self.beta(z)[0]
        coordinate_route = float(bw @ bz)
        expansion_route = float(bw @ self.direction_gram() @ bz)
        return coordinate_route - expansion_route


def kernel_model_to_dict(model: KernelBiasModel) -> dict:
    return {
        "type": "kernel",
        "kernel": model.spec.to_dict(),
        "k": model.k,
        "dim": model.dim,
        "eigenvalues": model.eigenvalues.tolist(),
        "alphas": model.alphas.tolist(),
        "pairs_a": model.pairs_a.tolist(),
        "pairs_b": model.pairs_b.tolist(),
        "feature_scale": model.feature_scale,
        "gram_scale": model.gram_scale,
        "discarded_negative": model.discarded_negative,
    }


def kernel_model_from_dict(data: dict) -> KernelBiasModel:
    """Rebuild a model from its dict form, checking the array shapes.

    Raises:
        FormatError: on a missing field, a non-numeric array, or shapes
            that disagree: alphas must be (k, 2N), pairs_a and pairs_b
            (N, dim) and eigenvalues (k,).
    """
    if not isinstance(data, dict) or data.get("type") != "kernel":
        raise FormatError("not a kernel model file")
    try:
        arrays = {
            name: np.array(data[name], dtype=np.float64)
            for name in ("pairs_a", "pairs_b", "alphas", "eigenvalues")
        }
        spec = KernelSpec.from_dict(data["kernel"])
        feature_scale = float(data["feature_scale"])
        gram_scale = float(data.get("gram_scale", 1.0))
        discarded_negative = int(data.get("discarded_negative", 0))
        dim = int(data["dim"])
        k = int(data["k"])
    except KeyError as exc:
        raise FormatError(f"kernel model is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed kernel model: {exc}") from None
    pairs_a, pairs_b = arrays["pairs_a"], arrays["pairs_b"]
    alphas, eigenvalues = arrays["alphas"], arrays["eigenvalues"]
    shapes = ", ".join(f"{name} {arr.shape}" for name, arr in arrays.items())
    if (
        pairs_a.ndim != 2
        or pairs_a.shape[0] < 1
        or pairs_b.shape != pairs_a.shape
        or alphas.ndim != 2
        or alphas.shape[1] != 2 * pairs_a.shape[0]
        or eigenvalues.shape != (alphas.shape[0],)
        or dim != pairs_a.shape[1]
        or k != alphas.shape[0]
    ):
        raise FormatError(
            f"kernel model shapes disagree: {shapes}, dim {dim}, k {k}; "
            "expected alphas (k, 2N), pairs (N, dim), eigenvalues (k,)"
        )
    return KernelBiasModel(
        spec=spec,
        pairs_a=pairs_a,
        pairs_b=pairs_b,
        alphas=alphas,
        eigenvalues=eigenvalues,
        feature_scale=feature_scale,
        gram_scale=gram_scale,
        discarded_negative=discarded_negative,
    )
