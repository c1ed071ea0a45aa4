"""Bias and quality evaluations over interchangeable similarity backends.

Provides the word association test (effect size + one-sided permutation
p-value), the professions neighbor-correlation benchmark, an SMO-trained
kernel SVM for the indirect-bias classification protocol, and SimLex-style
rank-correlation scoring.  Every protocol runs against any backend through
one batched call, similarity_matrix(rows, cols): the (len(rows),
len(cols)) cosines of the row words with the column words, clipped to
[-1, 1].  WEAT makes one (X u Y) x (A u B) call, SimLex one call per
chunk of pairs over the chunk's distinct first and second words, and
professions one call per block of professions against all candidates.

The one backend, CorrectedKernelBackend, is a word-indexed view of
rkhs.CorrectedMetric, the corrected metric
k~(x, y) = k(x, y) - beta(x) . beta(y) over a bias model's spec and beta:
with no model it is raw cosine (the linear kernel, no bias coordinates),
with a linear model linear neutralization (beta(x) = x B^T), and a kernel
model brings its own kernel and beta.  A query that names a fully
neutralized word -- corrected self product at most 1e-12 k(w, w) --
raises DataError naming it; the other words of the table still score.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, FormatError, NumericalError
from .kernels import _BLOCK_ELEMENTS
from .linear import LinearBiasModel
from .numerics import pearson, spearman
from .rkhs import CorrectedMetric, KernelBiasModel
from .seeding import rng_for

logger = logging.getLogger(__name__)

EXHAUSTIVE_LIMIT = 20000
DEFAULT_PERMUTATIONS = 100000
DEFAULT_SEED = 42
# Most Monte Carlo permutations a WEAT config may ask for: a p-value
# resolution of 1e-8, drawn in about 45 s over 24 target words on a
# 2-vCPU Xeon host.  A larger count is rejected before any draw.
MAX_PERMUTATIONS = 10**8

# SMO step cap, LIBSVM's 1e7: a solver that reaches it raises instead of
# looping on.  Pair curvatures at or below _TAU count as _TAU, so a
# singular Gram matrix still gives a finite step.
_SMO_MAX_ITER = 10_000_000
_TAU = 1e-12


class SimilarityBackend:
    """Word-level similarity interface shared by all evaluations."""

    name = "backend"

    def __contains__(self, word: str) -> bool:
        raise NotImplementedError

    def similarity_matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Cosines of every row word with every column word, in [-1, 1]."""
        raise NotImplementedError

    def squared_distance_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pairwise squared distances between the rows of x and y in the
        geometry this backend's similarity is measured in."""
        raise NotImplementedError


def pair_similarities(sim: SimilarityBackend, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Similarity of each (a, b) pair.

    Every word is resolved first, in one call over the distinct first
    words and then the distinct second words, so an unknown or fully
    neutralized word raises before any work.  The pairs are then taken
    in consecutive chunks of at most isqrt(_BLOCK_ELEMENTS), each one
    matrix over its distinct first and second words and a gather: work
    grows linearly with the pair count and memory stays bounded.
    """
    words = [*dict.fromkeys(a for a, _ in pairs), *dict.fromkeys(b for _, b in pairs)]
    sim.similarity_matrix(words, [])
    step = max(1, math.isqrt(_BLOCK_ELEMENTS))
    values = np.empty(len(pairs))
    for start in range(0, len(pairs), step):
        chunk = pairs[start : start + step]
        firsts = list(dict.fromkeys(a for a, _ in chunk))
        seconds = list(dict.fromkeys(b for _, b in chunk))
        sims = sim.similarity_matrix(firsts, seconds)
        row = {w: i for i, w in enumerate(firsts)}
        col = {w: j for j, w in enumerate(seconds)}
        values[start : start + len(chunk)] = sims[
            [row[a] for a, _ in chunk], [col[b] for _, b in chunk]
        ]
    return values


def check_dimension(model_dim: int, table: EmbeddingTable) -> None:
    """DataError unless a model of this dimension fits the table's vectors."""
    if model_dim != table.dim:
        raise DataError(f"model dimension {model_dim} != table dimension {table.dim}")


class CorrectedKernelBackend(SimilarityBackend):
    """Word-indexed view of the corrected metric over one table, named
    after its model ("linear" or "kernel"), or "raw" without one.

    beta(vocabulary) is computed once, so a similarity matrix costs one
    raw Gram block plus a (rows x K) by (K x cols) product.
    """

    def __init__(self, table: EmbeddingTable, model: KernelBiasModel | LinearBiasModel | None):
        if model is not None:
            check_dimension(model.dim, table)
        self.name = "raw" if model is None else model.name
        self._table = table
        self.metric = CorrectedMetric(model)
        self._beta = self.metric.beta(table.matrix)

    def __contains__(self, word: str) -> bool:
        return word in self._table

    def similarity_matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        ri = [self._table.row_index(w) for w in rows]
        ci = [self._table.row_index(w) for w in cols]
        matrix = self._table.matrix
        return self.metric.cosine_matrix(
            matrix[ri], matrix[ci], self._beta[ri], self._beta[ci], labels=(rows, cols)
        )

    def squared_distance_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.metric.squared_distance_matrix(x, y)


# ---------------------------------------------------------------------------
# Word association test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeatConfig:
    """Two target lists, two attribute lists, permutation settings."""

    x_words: tuple[str, ...]
    y_words: tuple[str, ...]
    a_words: tuple[str, ...]
    b_words: tuple[str, ...]
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.permutations < 1:
            raise FormatError(
                f"permutation count must be at least 1, got {self.permutations}"
            )
        if self.permutations > MAX_PERMUTATIONS:
            raise FormatError(
                f"permutation count must be at most {MAX_PERMUTATIONS}, "
                f"got {self.permutations}"
            )


@dataclass(frozen=True)
class WeatResult:
    effect_size: float
    p_value: float
    statistic: float
    n_used: dict[str, int]
    exhaustive: bool


def _associations(
    sim: SimilarityBackend, words: Sequence[str], a_in: Sequence[str], b_in: Sequence[str]
) -> np.ndarray:
    """Mean similarity to A minus mean to B for each word, from one matrix."""
    sims = sim.similarity_matrix(words, [*a_in, *b_in])
    return sims[:, : len(a_in)].mean(axis=1) - sims[:, len(a_in) :].mean(axis=1)


def weat_test(sim: SimilarityBackend, cfg: WeatConfig) -> WeatResult:
    """Effect size and one-sided permutation p-value for the association gap.

    The effect size is the standardized mean difference of per-word
    association scores between the target lists (population std over the
    union).  The p-value is the fraction of equal-size splits of the union
    whose statistic reaches the observed one: exhaustive when the number
    of splits is at most 20000, otherwise seeded Monte Carlo.
    """
    x_in = [w for w in cfg.x_words if w in sim]
    y_in = [w for w in cfg.y_words if w in sim]
    a_in = [w for w in cfg.a_words if w in sim]
    b_in = [w for w in cfg.b_words if w in sim]
    if not a_in or not b_in:
        raise DataError("attribute sets are empty after vocabulary filtering")
    if len(x_in) != len(y_in):
        keep = min(len(x_in), len(y_in))
        logger.warning(
            "target lists unbalanced after filtering (%d vs %d); truncating to %d",
            len(x_in), len(y_in), keep,
        )
        x_in, y_in = x_in[:keep], y_in[:keep]
    if len(x_in) + len(y_in) < 4:
        raise DataError("need at least 4 in-vocabulary target words")

    s_values = _associations(sim, x_in + y_in, a_in, b_in)
    nx = len(x_in)
    std = float(s_values.std())  # population std
    # The scores are differences of mean cosines in [-1, 1]; a spread this
    # small is rounding error, and an effect size over it would be noise.
    if std <= 1e-12:
        raise NumericalError(f"degenerate association scores: zero spread (std {std:.3g})")
    effect = (float(s_values[:nx].mean()) - float(s_values[nx:].mean())) / std

    total = float(s_values.sum())

    def split_statistics(idx: np.ndarray) -> np.ndarray:
        # Sum over each row's chosen words minus sum over the rest, as
        # 2 * chosen - total, so the observed split and every other one
        # are computed identically.
        return 2.0 * s_values[idx].sum(axis=1) - total

    observed = split_statistics(np.arange(nx)[None])[0]
    n_union = len(s_values)
    n_splits = math.comb(n_union, nx)
    exhaustive = n_splits <= EXHAUSTIVE_LIMIT
    if exhaustive:
        splits = np.array(list(itertools.combinations(range(n_union), nx)))
        p_value = int(np.sum(split_statistics(splits) >= observed)) / n_splits
    else:
        rng = rng_for(cfg.seed, "weat-permutation")
        hits = 0
        remaining = cfg.permutations
        while remaining > 0:
            m = min(20000, remaining)
            keys = rng.random((m, n_union))
            idx = np.argpartition(keys, nx - 1, axis=1)[:, :nx]
            hits += int(np.sum(split_statistics(idx) >= observed))
            remaining -= m
        p_value = hits / cfg.permutations

    return WeatResult(
        effect_size=float(effect),
        p_value=float(p_value),
        statistic=float(observed),
        n_used={"X": len(x_in), "Y": len(y_in), "A": len(a_in), "B": len(b_in)},
        exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
# Professions neighbor correlation
# ---------------------------------------------------------------------------


def original_bias_scores(
    table: EmbeddingTable, words: Sequence[str], male_anchor: str = "he", female_anchor: str = "she"
) -> np.ndarray:
    """cos(w, he - she) in the original space, per word."""
    for anchor in (male_anchor, female_anchor):
        if anchor not in table:
            raise DataError(f"anchor word {anchor!r} not in vocabulary")
    direction = table.lookup(male_anchor) - table.lookup(female_anchor)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise DataError("anchor difference direction is zero")
    direction = direction / norm
    rows = table.matrix[[table.row_index(w) for w in words]]
    row_norms = np.linalg.norm(rows, axis=1)
    if np.any(row_norms == 0.0):
        raise DataError("zero vector among scored words")
    return (rows @ direction) / row_norms


def professions_correlation(
    sim: SimilarityBackend,
    table: EmbeddingTable,
    professions: Sequence[str],
    male_words: Sequence[str],
    female_words: Sequence[str],
    k_neighbors: int = 100,
    pool: str = "vocabulary",
    male_anchor: str = "he",
    female_anchor: str = "she",
) -> float:
    """Correlation of male-neighbor counts with original-space bias.

    For every profession, its k nearest neighbors under `sim` are drawn
    from the candidate pool (full vocabulary by default, or the union of
    professions and gendered lexicons with pool="restricted"); the count
    of neighbors in the male lexicon is correlated (Pearson) against the
    profession's bias in the original space.

    Raises:
        FormatError: if k_neighbors is below 1.
    """
    if k_neighbors < 1:
        raise FormatError(f"neighbor count must be at least 1, got {k_neighbors}")
    profs = [w for w in professions if w in table and w in sim]
    if len(profs) < 3:
        raise DataError("need at least three in-vocabulary professions")
    male_set = {w for w in male_words if w in table}
    if pool == "vocabulary":
        candidates = list(table.words)
    elif pool == "restricted":
        pool_words = list(dict.fromkeys([*professions, *male_words, *female_words]))
        candidates = [w for w in pool_words if w in table]
    else:
        raise DataError(f"unknown candidate pool {pool!r}")

    # Every profession is a candidate; its own column is masked out, and
    # the rows of one similarity block stay under the kernels' budget.
    column = {w: j for j, w in enumerate(candidates)}
    is_male = np.array([c in male_set for c in candidates])
    k = min(k_neighbors, len(candidates) - 1)
    step = max(1, _BLOCK_ELEMENTS // len(candidates))
    counts = np.empty(len(profs))
    for start in range(0, len(profs), step):
        rows = profs[start : start + step]
        sims = sim.similarity_matrix(rows, candidates)
        sims[np.arange(len(rows)), [column[p] for p in rows]] = -np.inf
        top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        counts[start : start + len(rows)] = is_male[top].sum(axis=1)

    bias = original_bias_scores(table, profs, male_anchor, female_anchor)
    if np.all(counts == counts[0]):
        raise NumericalError("male-neighbor counts are constant; correlation undefined")
    return pearson(counts, bias)


# ---------------------------------------------------------------------------
# Kernel SVM via sequential minimal optimization
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SvmModel:
    """Dual SVM state: coefficients, bias, training data, kernel."""

    dual_coef: np.ndarray  # (n,) alpha_i in [0, C]
    bias: float
    vectors: np.ndarray  # (n, d) training vectors
    labels: np.ndarray  # (n,) in {-1, +1}
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def decision_values(self, x: np.ndarray) -> np.ndarray:
        """Decision values of the rows of x, from one kernel call."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self.kernel(x, self.vectors) @ (self.dual_coef * self.labels) + self.bias


def rbf_on_squared_distance(
    sqdist: Callable[[np.ndarray, np.ndarray], np.ndarray], gamma: float
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Classifier kernel exp(-gamma * d^2) over a pluggable squared distance.

    Passing a corrected-metric squared distance evaluates the classifier
    in the bias-removed space.
    """

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.exp(-gamma * sqdist(x, y))

    return kernel


def svm_train(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    vectors: np.ndarray,
    labels: np.ndarray,
    c_reg: float = 1.0,
    tol: float = 1e-3,
) -> SvmModel:
    """Train a soft-margin kernel SVM with SMO.

    Solves the dual min 0.5 a'Qa - sum(a) over 0 <= a <= c_reg, y'a = 0,
    with Q = yy' * K, keeping the gradient G = Qa - 1 up to date.  Each
    step takes i as the maximal violator, the largest -y_t G_t over the
    multipliers that may move up, and j by the second-order rule of Fan,
    Chen & Lin (2005, LIBSVM's WSS2) among those that may move down, then
    solves the pair exactly inside the box.  Training stops when the KKT
    gap m(a) - M(a), the largest violation, is at most tol.  The bias is
    the mean over free multipliers (0 < a < c_reg), or the midpoint of its
    bounds when none is free.  No random numbers are drawn, so the result
    depends only on the data, and on a positive definite Gram matrix it
    does not depend on the order of the training rows beyond tol.

    Raises:
        FormatError: unless c_reg and tol are finite and positive.
        DataError: unless both labels -1 and +1 are present.
        NumericalError: if the kernel matrix is not finite, or the gap is
            still above tol after _SMO_MAX_ITER steps.
    """
    for name, value in (("c_reg", c_reg), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise FormatError(f"{name} must be finite and positive, got {value}")
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if set(np.unique(labels)) != {-1.0, 1.0}:
        raise DataError("labels must contain both classes -1 and +1")
    gram = kernel(vectors, vectors)
    if not np.all(np.isfinite(gram)):
        raise NumericalError("non-finite values in the SVM kernel matrix")
    diag = np.diag(gram)
    alphas = np.zeros(len(labels))
    grad = -np.ones(len(labels))
    positive = labels > 0

    for _ in range(_SMO_MAX_ITER):
        below_c = alphas < c_reg
        above_0 = alphas > 0
        up = np.where(positive, below_c, above_0)
        low = np.where(positive, above_0, below_c)
        score = -labels * grad
        i = int(np.argmax(np.where(up, score, -np.inf)))
        if score[i] - np.min(score[low]) <= tol:
            break
        # Second-order choice of j among the multipliers that may move
        # down and violate together with i: maximal decrease b^2 / a.
        gap = score[i] - score
        curvature = np.maximum(diag[i] + diag - 2.0 * gram[:, i], _TAU)
        gain = np.where(low & (gap > 0), gap * gap / curvature, -np.inf)
        j = int(np.argmax(gain))
        # Move a_i by y_i t and a_j by -y_j t: y'a stays fixed.
        limit_i = c_reg - alphas[i] if positive[i] else alphas[i]
        limit_j = alphas[j] if positive[j] else c_reg - alphas[j]
        step = min(gap[j] / curvature[j], limit_i, limit_j)
        alphas[i] += labels[i] * step
        alphas[j] -= labels[j] * step
        # Land exactly on a bound that the step was clipped to.
        if step == limit_i:
            alphas[i] = c_reg if positive[i] else 0.0
        if step == limit_j:
            alphas[j] = 0.0 if positive[j] else c_reg
        grad += step * labels * (gram[:, i] - gram[:, j])
    else:
        raise NumericalError(
            f"SMO did not reach KKT gap {tol} in {_SMO_MAX_ITER} iterations"
        )

    y_grad = labels * grad
    free = (alphas > 0) & (alphas < c_reg)
    if np.any(free):
        rho = float(np.mean(y_grad[free]))
    else:
        # At a bound, y_t G_t is an upper or lower limit on rho by side.
        upper_side = (alphas >= c_reg) != positive
        rho = 0.5 * float(np.min(y_grad[upper_side]) + np.max(y_grad[~upper_side]))
    return SvmModel(
        dual_coef=alphas, bias=-rho, vectors=vectors, labels=labels, kernel=kernel
    )


def svm_accuracy(model: SvmModel, vectors: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose predicted label matches: +1 where the
    decision value is at least 0 (a zero value counts as +1), else -1."""
    labels = np.asarray(labels, dtype=np.float64)
    preds = np.where(model.decision_values(vectors) >= 0, 1.0, -1.0)
    return float(np.mean(preds == labels))


def indirect_bias_classification(
    sim_backend: SimilarityBackend,
    table: EmbeddingTable,
    n_biased: int = 5000,
    n_train: int = 1000,
    svm_gamma: float | None = None,
    c_reg: float = 1.0,
    tol: float = 1e-3,
    seed: int = DEFAULT_SEED,
    male_anchor: str = "he",
    female_anchor: str = "she",
) -> dict:
    """Indirect-bias protocol: can an SVM recover gender from geometry?

    Takes the most male- and female-biased words by original-space bias
    cos(w, male_anchor - female_anchor) (balanced halves), trains an RBF
    SVM over the backend's squared distance on a sample drawn with `seed`,
    and reports train/test accuracy.  Both anchors must be in the table's
    vocabulary; there is no other source for the bias score.

    Raises:
        FormatError: if n_biased or n_train is below 1, or svm_gamma, c_reg
            or tol is not finite and positive.
        DataError: if an anchor word is not in the vocabulary, or the
            vocabulary is too small for a split.
        NumericalError: if the SVM solver does not converge.
    """
    for name, count in (("n_biased", n_biased), ("n_train", n_train)):
        if count < 1:
            raise FormatError(f"{name} must be at least 1, got {count}")
    gamma = svm_gamma if svm_gamma is not None else 1.0 / table.dim
    if not (math.isfinite(gamma) and gamma > 0):
        raise FormatError(f"svm_gamma must be finite and positive, got {gamma}")
    bias = original_bias_scores(table, table.words, male_anchor, female_anchor)
    order = np.argsort(-bias, kind="stable")
    half = min(n_biased // 2, len(table) // 2)
    male_idx = order[:half]
    female_idx = order[-half:]
    idx = np.concatenate([male_idx, female_idx])
    labels = np.concatenate([np.ones(half), -np.ones(half)])

    rng = rng_for(seed, "indirect-bias-split")
    perm = rng.permutation(len(idx))
    idx, labels = idx[perm], labels[perm]
    n_train = min(n_train, len(idx) - 2)
    if n_train < 2:
        raise DataError("vocabulary too small for an indirect-bias split")
    train_idx, test_idx = idx[:n_train], idx[n_train:]
    train_labels, test_labels = labels[:n_train], labels[n_train:]

    kernel = rbf_on_squared_distance(sim_backend.squared_distance_matrix, gamma)
    model = svm_train(kernel, table.matrix[train_idx], train_labels, c_reg=c_reg, tol=tol)
    return {
        "backend": sim_backend.name,
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
        "train_accuracy": svm_accuracy(model, table.matrix[train_idx], train_labels),
        "test_accuracy": svm_accuracy(model, table.matrix[test_idx], test_labels),
        "svm_gamma": float(gamma),
    }


# ---------------------------------------------------------------------------
# SimLex-style similarity scoring
# ---------------------------------------------------------------------------


def simlex_eval(
    sim: SimilarityBackend, pairs: Sequence[tuple[str, str, float]]
) -> tuple[float, int]:
    """Spearman correlation of backend similarities with gold scores.

    Returns (correlation, dropped) where dropped counts pairs with an
    out-of-vocabulary word.

    Raises:
        DataError: with fewer than two scorable pairs.
    """
    scored = [(a, b, float(gold)) for a, b, gold in pairs if a in sim and b in sim]
    dropped = len(pairs) - len(scored)
    if len(scored) < 2:
        raise DataError(
            f"need at least two scorable pairs, got {len(scored)} ({dropped} dropped)"
        )
    model_scores = pair_similarities(sim, [(a, b) for a, b, _ in scored])
    return spearman(model_scores, np.array([gold for _, _, gold in scored])), dropped
