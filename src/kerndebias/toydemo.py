"""Seeded 2-D toy dataset with a nonlinear mirrored-pair bias.

Points sit on a noisy parabolic arc; every point is paired with its
left-right mirror image.  The points come from the seeding.uniform
stream (seed, "toy-demo"): x is uniform in [0.25, 1), and the Gaussian
noise on the arc and the jitter of each mirror image are drawn from
further values of the stream by the Box-Muller transform.  Fitting the
rbf bias model on these pairs and neutralizing the points with the
readout pre-image x - beta(x) W removes most of the variance along the
leading bias direction, which external plotting can visualize.
"""

from __future__ import annotations

import math

import numpy as np

from . import seeding
from .embeddings import EmbeddingTable
from .errors import FormatError
from .kernels import _BLOCK_ELEMENTS, KernelSpec
from .linear import DefiningSets
from .preimage import preimage_neutralize_matrix
from .rkhs import beta_matrix, fit_kernel_model

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
    u = seeding.uniform(seed, "toy-demo", 5 * n_pairs).reshape(5, n_pairs)
    xs = 0.25 + 0.75 * u[0]
    # Box-Muller: a radius and an angle give two independent standard
    # normals, r cos(angle) and r sin(angle).
    radius = np.sqrt(-2.0 * np.log1p(-u[1:3]))
    angle = 2.0 * np.pi * u[3:5]
    ys = xs**2 + 0.03 * radius[0] * np.cos(angle[0])
    jitter = 0.01 * radius[1, :, None] * np.column_stack([np.cos(angle[1]), np.sin(angle[1])])
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
