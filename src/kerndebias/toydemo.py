"""Seeded 2-D toy dataset with a nonlinear mirrored-pair bias.

Points sit on a noisy parabolic arc; every point is paired with its
left-right mirror image.  Fitting the rbf bias model on these pairs
and neutralizing the points with the readout pre-image x - beta(x) W
removes most of the variance along the leading bias direction, which
external plotting can visualize.
"""

from __future__ import annotations

import math

import numpy as np

from .embeddings import EmbeddingTable
from .errors import FormatError
from .kernels import _BLOCK_ELEMENTS, KernelSpec
from .linear import DefiningSets
from .preimage import preimage_neutralize_matrix
from .rkhs import beta_matrix, fit_kernel_model
from .seeding import rng_for

CSV_HEADER = "x,y,x_ntr,y_ntr"

# The most points the demo takes: the fit's (n/2, n/2) pair Gram then fits
# one block budget.
MAX_POINTS = 2 * math.isqrt(_BLOCK_ELEMENTS)


def generate_toy_points(seed: int, n_points: int) -> np.ndarray:
    """(2 * (n_points // 2), 2) array of mirrored pairs in consecutive rows:
    an odd n_points is rounded down to the nearest even number.
    FormatError unless 10 <= n_points <= MAX_POINTS."""
    if not 10 <= n_points <= MAX_POINTS:
        raise FormatError(f"toy demo needs 10 to {MAX_POINTS} points, got {n_points}")
    n_pairs = n_points // 2
    rng = rng_for(seed, "toy-demo")
    xs = rng.uniform(0.25, 1.0, size=n_pairs)
    ys = xs**2 + rng.normal(0.0, 0.03, size=n_pairs)
    jitter = rng.normal(0.0, 0.01, size=(n_pairs, 2))
    points = np.empty((2 * n_pairs, 2))
    points[0::2] = np.column_stack([xs, ys])
    points[1::2] = np.column_stack([-xs, ys]) + jitter
    return points


def run_toy_demo(
    seed: int, n_points: int, gamma: float = 1.0
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Generate, fit, neutralize.  Returns (points, neutralized, stats)."""
    points = generate_toy_points(seed, n_points)
    n_pairs = points.shape[0] // 2
    words = tuple(f"p{i}" for i in range(points.shape[0]))
    table = EmbeddingTable(words=words, matrix=points)
    sets = DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))
    model = fit_kernel_model(KernelSpec("rbf", gamma=gamma), table, sets, k=1)
    neutralized = preimage_neutralize_matrix(model, points)
    var_before = float(np.var(beta_matrix(model, points)[:, 0]))
    var_after = float(np.var(beta_matrix(model, neutralized)[:, 0]))
    stats = {"bias_variance_before": var_before, "bias_variance_after": var_after}
    return points, neutralized, stats


def toy_demo_csv(points: np.ndarray, neutralized: np.ndarray) -> str:
    lines = [CSV_HEADER]
    for (x, y), (xn, yn) in zip(points, neutralized):
        lines.append(f"{x:.12f},{y:.12f},{xn:.12f},{yn:.12f}")
    return "\n".join(lines) + "\n"
