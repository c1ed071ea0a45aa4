"""Shared synthetic constructions used across the test modules."""

from __future__ import annotations

import numpy as np
import pytest

from kerndebias import DefiningSets, EmbeddingTable, KernelSpec, unit_normalize


# One kernel of every family, a convex combination among them.
KERNEL_ZOO = [
    KernelSpec("linear"),
    KernelSpec("cosine"),
    KernelSpec("rbf", gamma=0.8),
    KernelSpec("laplace", gamma=0.5),
    KernelSpec("polynomial", gamma=1.0, coef0=1.0, degree=3),
    KernelSpec("sigmoid", gamma=0.3, coef0=0.5),
    KernelSpec(
        "convex_combination",
        components=(
            (0.4, KernelSpec("rbf", gamma=1.2)),
            (0.35, KernelSpec("laplace", gamma=0.6)),
            (0.25, KernelSpec("cosine")),
        ),
    ),
]


def random_table(rng: np.random.Generator, n_words: int, dim: int) -> EmbeddingTable:
    words = tuple(f"w{i}" for i in range(n_words))
    return EmbeddingTable(words=words, matrix=rng.normal(size=(n_words, dim)))


def random_instance(
    rng: np.random.Generator, n_words: int | None = None, dim: int | None = None,
    n_pairs: int | None = None,
) -> tuple[EmbeddingTable, DefiningSets]:
    """Random table plus defining pairs over its leading rows."""
    dim = dim or int(rng.integers(2, 17))
    n_pairs = n_pairs or int(rng.integers(1, 9))
    n_words = n_words or 2 * n_pairs + int(rng.integers(0, 6))
    table = random_table(rng, max(n_words, 2 * n_pairs), dim)
    sets = DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))
    return table, sets


def planted_bias_table(
    rng: np.random.Generator,
    n_pairs: int = 10,
    n_neutral: int = 20,
    dim: int = 8,
    normalize: bool = True,
) -> tuple[EmbeddingTable, DefiningSets, np.ndarray]:
    """Table whose defining pairs are exact reflections across one direction.

    Pair members share their component orthogonal to the planted unit
    direction u and differ only by +/- c_i * u, so the bias covariance is
    exactly rank one with eigenvector u.  Row normalization preserves the
    structure.  Returns (table, defining sets, u).
    """
    u = np.zeros(dim)
    u[0] = 1.0
    words = []
    rows = []
    for i in range(n_pairs):
        neutral = rng.normal(size=dim) * 0.5
        neutral[0] = 0.0
        c = rng.uniform(0.4, 0.9)
        words += [f"m{i}", f"f{i}"]
        rows += [neutral + c * u, neutral - c * u]
    for i in range(n_neutral):
        v = rng.normal(size=dim) * 0.5
        v[0] = rng.uniform(-0.8, 0.8)
        words.append(f"n{i}")
        rows.append(v)
    table = EmbeddingTable(words=tuple(words), matrix=np.vstack(rows))
    if normalize:
        table = unit_normalize(table)
    sets = DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))
    return table, sets, u


RNG_SEED = 20240817


@pytest.fixture(autouse=True)
def private_table_cache(tmp_path, monkeypatch):
    """Each test's own table cache, so no test reads or writes ~/.cache."""
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(RNG_SEED)
