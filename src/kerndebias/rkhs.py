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

Scale convention: the centered Gram built here is s times the Gram of the
raw feature differences (s = gram_scale / 2).  The dual coefficients are
normalized through that same matrix and the beta features carry a
matching sqrt(s) factor, so every corrected quantity is independent of s.
A fit with gram_scale=2 must therefore reproduce the gram_scale=1 metric
exactly; tests enforce this.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, FormatError
from .kernels import KernelSpec, gram_matrix, kernel_diag
from .linear import RANK_RTOL, DefiningSets
from .numerics import symmetric_eig

logger = logging.getLogger(__name__)


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


def diff_feature_matrix(model: KernelBiasModel, x: np.ndarray) -> np.ndarray:
    """Kernel evaluations against the signed pair differences: (n, 2N)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != model.dim:
        raise DataError(f"expected dimension {model.dim}, got {x.shape[1]}")
    w1, w2 = _interleaved(model.pairs_a, model.pairs_b)
    psi = gram_matrix(model.spec, x, w1) - gram_matrix(model.spec, x, w2)
    return psi


def beta_matrix(model: KernelBiasModel, x: np.ndarray) -> np.ndarray:
    """Bias-direction coordinates of the feature images of rows of x: (n, K)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return beta_matrix(model, x[None, :])[0]
    psi = diff_feature_matrix(model, x)
    return model.feature_scale * psi @ model.alphas.T


def beta_projection(model: KernelBiasModel, w: np.ndarray) -> np.ndarray:
    """Coordinates of one word's feature image along the bias directions."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise DataError("beta_projection expects a single d-vector")
    return beta_matrix(model, w[None, :])[0]


def corrected_self_products(spec: KernelSpec, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Corrected k~(x_i, x_i) of the rows of x, given their bias coordinates."""
    return kernel_diag(spec, x) - np.sum(beta * beta, axis=1)


@dataclass(eq=False)
class CorrectedMetric:
    """Inner products, cosines and distances in the bias-removed metric."""

    model: KernelBiasModel
    _direction_gram: np.ndarray | None = field(default=None, repr=False)

    def direction_gram(self) -> np.ndarray:
        """Gram of the bias directions (K x K, identity up to solver error)."""
        if self._direction_gram is None:
            gram = self.model.centered_gram()
            self._direction_gram = self.model.alphas @ gram @ self.model.alphas.T
        return self._direction_gram

    def inner_product(self, z: np.ndarray, w: np.ndarray) -> float:
        """Corrected inner product k(z, w) - beta(z) . beta(w)."""
        z = np.asarray(z, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        raw = float(gram_matrix(self.model.spec, z[None, :], w[None, :])[0, 0])
        bz = beta_matrix(self.model, z[None, :])[0]
        bw = beta_matrix(self.model, w[None, :])[0]
        return raw - float(bz @ bw)

    def inner_product_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Corrected inner products for all row pairs of x and y."""
        raw = gram_matrix(self.model.spec, x, y)
        bx = beta_matrix(self.model, np.atleast_2d(x))
        by = beta_matrix(self.model, np.atleast_2d(y))
        return raw - bx @ by.T

    def self_inner_products(self, x: np.ndarray) -> np.ndarray:
        """Corrected k~(x_i, x_i) for every row of x."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return corrected_self_products(self.model.spec, x, beta_matrix(self.model, x))

    def cosine(self, z: np.ndarray, w: np.ndarray) -> float:
        """Corrected cosine similarity, clamped to [-1, 1].

        Raises:
            DataError: if either argument is fully neutralized (corrected
                self inner product <= 1e-12).
        """
        zz = self.inner_product(z, z)
        ww = self.inner_product(w, w)
        if zz <= 1e-12 or ww <= 1e-12:
            raise DataError(
                "corrected cosine undefined: a vector is fully neutralized "
                f"(self products {zz:.3e}, {ww:.3e})"
            )
        value = self.inner_product(z, w) / np.sqrt(zz * ww)
        return float(np.clip(value, -1.0, 1.0))

    def squared_distance(self, z: np.ndarray, w: np.ndarray) -> float:
        """Corrected squared distance, clamped at zero."""
        value = (
            self.inner_product(z, z)
            - 2.0 * self.inner_product(z, w)
            + self.inner_product(w, w)
        )
        return max(0.0, float(value))

    def squared_distance_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pairwise corrected squared distances, clamped at zero.

        The bias coordinates of each argument are computed once and feed
        both its self products and the cross products.
        """
        spec = self.model.spec
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        bx = beta_matrix(self.model, x)
        by = beta_matrix(self.model, y)
        sx = corrected_self_products(spec, x, bx)
        sy = corrected_self_products(spec, y, by)
        cross = gram_matrix(spec, x, y) - bx @ by.T
        return np.maximum(0.0, sx[:, None] - 2.0 * cross + sy[None, :])

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
        bw = beta_matrix(self.model, np.asarray(w, dtype=np.float64)[None, :])[0]
        bz = beta_matrix(self.model, np.asarray(z, dtype=np.float64)[None, :])[0]
        coordinate_route = float(bw @ bz)
        expansion_route = float(bw @ self.direction_gram() @ bz)
        return coordinate_route - expansion_route


def save_kernel_model(model: KernelBiasModel, path: str | Path, preimage: dict | None = None) -> None:
    """Persist a model (and optional pre-image block) as JSON.

    Floats are serialized via repr, so reloading reproduces corrected
    inner products bit for bit.
    """
    payload = kernel_model_to_dict(model)
    if preimage is not None:
        payload["preimage"] = preimage
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


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


def load_kernel_model(path: str | Path) -> tuple[KernelBiasModel, dict | None]:
    """Load a model JSON; returns (model, preimage block or None)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid model JSON: {exc}") from None
    return kernel_model_from_dict(data), data.get("preimage")
