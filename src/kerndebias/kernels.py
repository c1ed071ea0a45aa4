"""Kernel functions and Gram matrices from declarative specs.

Supported families: linear, cosine, rbf, sigmoid, polynomial, laplace,
and convex combinations thereof.  The sigmoid kernel is admitted even
though it is not positive semi-definite in general; downstream fitting
discards its negative eigenvalues.

Gram matrices are filled block by block over rows and columns, so every
temporary -- an output block, or laplace's (rows, cols, d) difference
tensor -- stays under a fixed element budget whatever the input size.
rbf distances come from one matrix product per block,
||x||^2 + ||y||^2 - 2 x y^T; entries where that form cancels are
recomputed from direct differences, so identical rows are exactly 0 apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError, checked_finite, checked_integer

FAMILIES = (
    "linear",
    "cosine",
    "rbf",
    "sigmoid",
    "polynomial",
    "laplace",
    "convex_combination",
)

_NEEDS_GAMMA = {"rbf", "sigmoid", "polynomial", "laplace"}
_NEEDS_COEF0 = {"sigmoid", "polynomial"}
# The families that read each scalar parameter; any other family rejects it.
_PARAMETER_FAMILIES = {"gamma": _NEEDS_GAMMA, "coef0": _NEEDS_COEF0, "degree": {"polynomial"}}
_SPEC_KEYS = {"family", "components", *_PARAMETER_FAMILIES}

# Element budget of one block (16 MiB of float64): a block's output
# entries times the work array each entry needs (1 for a matrix-product
# family, d for a difference tensor).  Only the returned matrix grows
# with the input.
_BLOCK_ELEMENTS = 1 << 21

# The matrix-product distance carries an absolute error of a few ulps of
# ||x||^2 + ||y||^2; one at most this fraction of that sum is dominated by
# cancellation and is recomputed from direct differences.
_CANCELLATION_RTOL = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel function.

    gamma is required for rbf/sigmoid/polynomial/laplace, coef0 for
    sigmoid/polynomial, degree for polynomial.  convex_combination takes
    (weight, KernelSpec) components with nonnegative weights summing to 1.
    gamma, coef0 and the weights must be finite numbers and degree an
    integer; a bool, a string or a float degree raises FormatError, as
    does a parameter the family does not read, or components outside
    convex_combination.
    """

    family: str
    gamma: float | None = None
    coef0: float | None = None
    degree: int | None = None
    components: tuple[tuple[float, "KernelSpec"], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise FormatError(f"unknown kernel family {self.family!r}")
        for name, check in (("gamma", checked_finite), ("coef0", checked_finite),
                            ("degree", checked_integer)):
            if getattr(self, name) is not None:
                if self.family not in _PARAMETER_FAMILIES[name]:
                    raise FormatError(f"the {self.family} kernel takes no {name}")
                object.__setattr__(self, name, check(getattr(self, name), name))
        if self.components and self.family != "convex_combination":
            raise FormatError(f"the {self.family} kernel takes no components")
        if self.family in _NEEDS_GAMMA:
            if self.gamma is None or not self.gamma > 0:
                raise FormatError(f"{self.family} kernel requires gamma > 0")
        if self.family in _NEEDS_COEF0 and self.coef0 is None:
            raise FormatError(f"{self.family} kernel requires coef0")
        if self.family == "polynomial":
            if self.degree is None or self.degree < 1:
                raise FormatError("polynomial kernel requires degree >= 1")
        if self.family == "convex_combination":
            if not self.components:
                raise FormatError("convex_combination requires components")
            weights = [checked_finite(w, "weight") for w, _ in self.components]
            if any(w < 0 for w in weights):
                raise FormatError("convex weights must be nonnegative")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise FormatError("convex weights must sum to 1")
            object.__setattr__(
                self, "components", tuple(zip(weights, (s for _, s in self.components)))
            )

    def to_dict(self) -> dict:
        if self.family == "convex_combination":
            return {
                "family": self.family,
                "components": [
                    {"weight": w, "spec": s.to_dict()} for w, s in self.components
                ],
            }
        out: dict = {"family": self.family}
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.coef0 is not None:
            out["coef0"] = self.coef0
        if self.degree is not None:
            out["degree"] = self.degree
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "KernelSpec":
        """Rebuild a spec; FormatError on a missing field, an unknown key
        or a bad value (checked as for any spec, so a bool or a float
        degree is rejected)."""
        if not isinstance(data, dict) or "family" not in data:
            raise FormatError("kernel spec must be an object with a 'family' key")
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise FormatError(f"unknown kernel spec key(s): {', '.join(map(repr, unknown))}")
        try:
            comps = tuple(
                (c["weight"], cls.from_dict(c["spec"])) for c in data.get("components", [])
            )
            return cls(
                family=data["family"],
                gamma=data.get("gamma"),
                coef0=data.get("coef0"),
                degree=data.get("degree"),
                components=comps,
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed kernel spec: {exc!r}") from None

    @classmethod
    def from_json(cls, text: str) -> "KernelSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid kernel JSON: {exc}") from None
        return cls.from_dict(data)


def default_gamma(dim: int) -> float:
    """Default width parameter 1/d used when none is supplied."""
    if dim < 1:
        raise DataError("dimension must be positive")
    return 1.0 / dim


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise DataError(f"expected vectors or a matrix, got {x.ndim}-D input")
    if not np.all(np.isfinite(x)):
        raise DataError("kernel inputs must be finite")
    return x


def _blocks(n_rows: int, n_cols: int, per_entry: int):
    """(row slice, column slice) tiles of at most _BLOCK_ELEMENTS work elements.

    A tile never drops below one entry, so a single (1, 1, d) difference
    slice is the floor when d alone exceeds the budget.
    """
    cols = max(1, min(n_cols, _BLOCK_ELEMENTS // per_entry))
    rows = max(1, min(n_rows, _BLOCK_ELEMENTS // (per_entry * cols)))
    for i in range(0, n_rows, rows):
        for j in range(0, n_cols, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def difference_distances(x: np.ndarray, y: np.ndarray, squared: bool = True) -> np.ndarray:
    """Pairwise distances from direct differences of the rows of x and y.

    Entry (i, j) is sum_k (x_ik - y_jk)^2, or sum_k |x_ik - y_jk| when
    squared is False.  The (rows, cols, d) difference tensor is built one bounded block at a
    time; each entry's arithmetic does not depend on the blocking, so the
    result is bit-identical to the unblocked computation.
    """
    x = _as_matrix(x)
    y = _as_matrix(y)
    out = np.empty((x.shape[0], y.shape[0]))
    for rows, cols in _blocks(x.shape[0], y.shape[0], x.shape[1]):
        diff = x[rows, None, :] - y[None, cols, :]
        if squared:
            np.multiply(diff, diff, out=diff)
        else:
            np.abs(diff, out=diff)
        out[rows, cols] = np.sum(diff, axis=2)
    return out


def _rbf_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances of one block as ||x||^2 + ||y||^2 - 2 x y^T, >= 0."""
    scale = np.einsum("ij,ij->i", x, x)[:, None] + np.einsum("ij,ij->i", y, y)[None, :]
    dist = scale - 2.0 * (x @ y.T)
    ri, ci = np.nonzero(dist <= _CANCELLATION_RTOL * scale)
    step = max(1, _BLOCK_ELEMENTS // x.shape[1])
    for s in range(0, ri.size, step):
        r, c = ri[s : s + step], ci[s : s + step]
        diff = x[r] - y[c]
        dist[r, c] = np.sum(diff * diff, axis=1)
    return np.maximum(dist, 0.0, out=dist)


def _dot_kernel(spec: KernelSpec, dots: np.ndarray) -> np.ndarray:
    """A linear, sigmoid or polynomial kernel's values from x . y."""
    if spec.family == "sigmoid":
        return np.tanh(spec.gamma * dots + spec.coef0)
    if spec.family == "polynomial":
        return (spec.gamma * dots + spec.coef0) ** spec.degree
    return dots


def _cosine_norms(x: np.ndarray) -> np.ndarray:
    """Row norms of x; DataError on a zero row, where cosine is undefined."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError("cosine kernel is undefined for a zero vector")
    return norms


def _gram_block(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if spec.family in ("linear", "sigmoid", "polynomial"):
        return _dot_kernel(spec, x @ y.T)
    if spec.family == "cosine":
        g = (x / _cosine_norms(x)[:, None]) @ (y / _cosine_norms(y)[:, None]).T
        return np.clip(g, -1.0, 1.0)
    if spec.family == "rbf":
        return np.exp(-spec.gamma * _rbf_distances(x, y))
    if spec.family == "laplace":
        return np.exp(-spec.gamma * difference_distances(x, y, squared=False))
    return sum(weight * _gram_block(sub, x, y) for weight, sub in spec.components)


def gram_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise kernel evaluations: entry (i, j) is k(x_i, y_j)."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise DataError(
            f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}"
        )
    out = np.empty((x.shape[0], y.shape[0]))
    for rows, cols in _blocks(x.shape[0], y.shape[0], 1):
        out[rows, cols] = _gram_block(spec, x[rows], y[cols])
    return out


def kernel_diag(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """k(x_i, x_i) for every row, without forming the full Gram."""
    x = _as_matrix(x)
    if spec.family in ("linear", "sigmoid", "polynomial"):
        return _dot_kernel(spec, np.sum(x * x, axis=1))
    if spec.family == "convex_combination":
        return sum(weight * kernel_diag(sub, x) for weight, sub in spec.components)
    if spec.family == "cosine":
        _cosine_norms(x)
    return np.ones(x.shape[0])
