"""Kernel functions and Gram matrices from declarative specs.

Supported families: linear, cosine, rbf, sigmoid, polynomial, laplace,
and convex combinations thereof.  The sigmoid kernel is admitted even
though it is not positive semi-definite in general; downstream fitting
discards its negative eigenvalues.

One registry, FAMILIES, holds each family in the order above: the scalar
PARAMETERS it reads (in spec-file order), its Gram block k(x_i, y_j) and
its diagonal k(x_i, x_i); a new family supplies these three.  PARAMETERS
holds each scalar's check, what a family that reads it requires, and its
command-line default (gamma 1/dim, coef0 1.0, degree 2).  KernelSpec and
the command line's --gamma, --coef0 and --degree read both.

Gram matrices are filled block by block over rows and columns, so every
temporary -- an output block, or laplace's (rows, cols, d) difference
tensor -- stays under a fixed element budget whatever the input size.
rbf distances come from one matrix product per block,
||x||^2 + ||y||^2 - 2 x y^T; entries where that form cancels are
recomputed from direct differences, so identical rows are exactly 0 apart.
Overflow is not warned of: rbf and laplace saturate to 0, sigmoid to +-1,
and a polynomial to inf, which the fit's eigensolver rejects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError, FormatError, checked_finite, checked_integer

# Element budget of one block (16 MiB of float64): a block's output
# entries times the work array each entry needs (1 for a matrix-product
# family, d for a difference tensor).  Only the returned matrix grows
# with the input.
_BLOCK_ELEMENTS = 1 << 21

# The matrix-product distance carries an absolute error of a few ulps of
# ||x||^2 + ||y||^2; one at most this fraction of that sum is dominated by
# cancellation and is recomputed from direct differences.
_CANCELLATION_RTOL = 1e-8


class Parameter(NamedTuple):
    """A PARAMETERS entry: check(value, name) of a given value; what a
    family that reads it requires, in words and as the test holds(value);
    and its command-line default(dim) and help."""

    check: Callable[[object, str], float]
    requires: str
    holds: Callable[[float], bool]
    default: Callable[[int], float]
    help: str


class Family(NamedTuple):
    """A FAMILIES entry: the PARAMETERS the family reads, in spec-file
    order, and its Gram block(spec, x, y) and diagonal diag(spec, x)."""

    parameters: tuple[str, ...]
    block: Callable
    diag: Callable


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel function.

    A family reads, and requires, the PARAMETERS its FAMILIES entry
    lists: gamma > 0, any coef0, degree >= 1.  convex_combination takes
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
        reads = FAMILIES[self.family].parameters
        for name, parameter in PARAMETERS.items():
            if getattr(self, name) is not None:
                if name not in reads:
                    raise FormatError(f"the {self.family} kernel takes no {name}")
                object.__setattr__(self, name, parameter.check(getattr(self, name), name))
        if self.components and self.family != "convex_combination":
            raise FormatError(f"the {self.family} kernel takes no components")
        for name in reads:
            value = getattr(self, name)
            if value is None or not PARAMETERS[name].holds(value):
                raise FormatError(f"{self.family} kernel requires {PARAMETERS[name].requires}")
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
        parameters = FAMILIES[self.family].parameters
        return {"family": self.family, **{name: getattr(self, name) for name in parameters}}

    @classmethod
    def from_dict(cls, data: dict) -> "KernelSpec":
        """Rebuild a spec; FormatError on a missing field, an unknown key
        or a bad value (checked as for any spec, so a bool or a float
        degree is rejected)."""
        if not isinstance(data, dict) or "family" not in data:
            raise FormatError("kernel spec must be an object with a 'family' key")
        unknown = sorted(set(data) - {"family", "components", *PARAMETERS})
        if unknown:
            raise FormatError(f"unknown kernel spec key(s): {', '.join(map(repr, unknown))}")
        try:
            comps = tuple(
                (c["weight"], cls.from_dict(c["spec"])) for c in data.get("components", [])
            )
            return cls(
                data["family"], components=comps, **{name: data.get(name) for name in PARAMETERS}
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


PARAMETERS = {
    "gamma": Parameter(checked_finite, "gamma > 0", lambda v: v > 0, default_gamma,
                       "width (default 1/dim)"),
    "coef0": Parameter(checked_finite, "coef0", lambda v: True, lambda dim: 1.0,
                       "offset (default 1.0)"),
    "degree": Parameter(checked_integer, "degree >= 1", lambda v: v >= 1, lambda dim: 2,
                        "degree (default 2)"),
}


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


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x's rows over their norms; DataError on a zero row, where cosine is undefined."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError("cosine kernel is undefined for a zero vector")
    return x / norms[:, None]


def _dot_family(parameters: tuple[str, ...], value: Callable) -> Family:
    """A family whose kernel is value(spec, x . y)."""
    return Family(parameters, lambda spec, x, y: value(spec, x @ y.T),
                  lambda spec, x: value(spec, np.sum(x * x, axis=1)))


def _exp_family(distances: Callable) -> Family:
    """A family exp(-gamma distances(x, y)), 1 on its diagonal."""
    return Family(("gamma",), lambda spec, x, y: np.exp(-spec.gamma * distances(x, y)),
                  lambda spec, x: np.ones(x.shape[0]))


FAMILIES = {
    "linear": _dot_family((), lambda spec, dots: dots),
    "cosine": Family((), lambda spec, x, y: np.clip(_unit_rows(x) @ _unit_rows(y).T, -1.0, 1.0),
                     lambda spec, x: np.ones(len(_unit_rows(x)))),
    "rbf": _exp_family(_rbf_distances),
    "sigmoid": _dot_family(("gamma", "coef0"),
                           lambda spec, dots: np.tanh(spec.gamma * dots + spec.coef0)),
    "polynomial": _dot_family(("gamma", "coef0", "degree"),
                              lambda spec, dots: (spec.gamma * dots + spec.coef0) ** spec.degree),
    "laplace": _exp_family(lambda x, y: difference_distances(x, y, squared=False)),
    "convex_combination": Family(
        (),
        lambda spec, x, y: sum(w * FAMILIES[s.family].block(s, x, y) for w, s in spec.components),
        lambda spec, x: sum(w * FAMILIES[s.family].diag(s, x) for w, s in spec.components),
    ),
}


def gram_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise kernel evaluations: entry (i, j) is k(x_i, y_j)."""
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise DataError(
            f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}"
        )
    out = np.empty((x.shape[0], y.shape[0]))
    with np.errstate(over="ignore"):
        for rows, cols in _blocks(x.shape[0], y.shape[0], 1):
            out[rows, cols] = FAMILIES[spec.family].block(spec, x[rows], y[cols])
    return out


def kernel_diag(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """k(x_i, x_i) for every row, without forming the full Gram."""
    with np.errstate(over="ignore"):
        return FAMILIES[spec.family].diag(spec, _as_matrix(x))
