"""Bias and quality evaluations over the corrected metric.

Provides the word association test (effect size + one-sided permutation
p-value), the professions neighbor-correlation benchmark, an SMO-trained
kernel SVM for the indirect-bias classification protocol, and SimLex-style
rank-correlation scoring.  Every protocol takes one rkhs.CorrectedMetric
and queries it by word.  WEAT, SimLex and professions use one batched
call, similarity_matrix(rows, cols): the (len(rows), len(cols)) corrected
cosines of the row words with the column words, clipped to [-1, 1].
WEAT makes one (X u Y) x (A u B) call, SimLex one call per chunk of
pairs over the chunk's distinct first and second words
(rkhs.pair_similarities, which lives beside the metric and is imported
here, so evaluation.pair_similarities still names it), and professions
one call per block of professions against all candidates.  Professions
and the indirect-bias protocol read the table from metric.table.  The
SVM (svm_train) takes a precomputed kernel matrix: the indirect-bias
protocol makes one query, metric.squared_distance_matrix(drawn words,
training words), and trains and scores on the one corrected rbf Gram
exp(-gamma d^2) it gives; by default gamma is 1 / the median of its
off-diagonal training distances.

With no model the metric is raw cosine (the linear kernel, no bias
coordinates), with a linear-kernel model linear neutralization
(beta(x) = x B^T), and any other model brings its own kernel and beta.
A query that names a fully neutralized word -- corrected self product at
most 1e-12 k(w, w) -- raises DataError naming it; the other words of the
table still score.  WEAT and SimLex need only `in` and similarity_matrix,
so any object that has both can stand in for the metric.

The two seeded draws, the Monte Carlo WEAT splits and the classifier's
order of its words, read the seeding.uniform streams "weat-permutation"
and "indirect-bias-split"; nothing here imports numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seeding
from .embeddings import EmbeddingTable
from .errors import DataError, FormatError, NumericalError, warn
from .kernels import _BLOCK_ELEMENTS
from .numerics import pearson, spearman
from .rkhs import CorrectedMetric, pair_similarities

# Most target words (|X| + |Y|) whose WEAT p-value is counted exactly over
# every equal split: 2^16 subset sums per half, about 16 ms and a few MB
# on a 2-vCPU Xeon host.  Above it the p-value is seeded Monte Carlo.
EXACT_LIMIT = 32
DEFAULT_PERMUTATIONS = 100000
DEFAULT_SEED = 42
# Most Monte Carlo permutations a WEAT config may ask for: a p-value
# resolution of 1e-8, drawn in about 45 s over 24 target words on a
# 2-vCPU Xeon host.  A larger count is rejected before any draw.
MAX_PERMUTATIONS = 10**8
# Monte Carlo splits drawn per block; each split's keys are fixed by its
# index (weat_test), so the p-value does not depend on the block size.
_MC_BLOCK = 20_000

# SMO step cap, LIBSVM's 1e7: a solver that reaches it raises instead of
# looping on.  Pair curvatures at or below _TAU count as _TAU, so a
# singular Gram matrix still gives a finite step.
_SMO_MAX_ITER = 10_000_000
_TAU = 1e-12


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
    metric: CorrectedMetric, words: Sequence[str], a_in: Sequence[str], b_in: Sequence[str]
) -> np.ndarray:
    """Mean similarity to A minus mean to B for each word, from one matrix."""
    sims = metric.similarity_matrix(words, [*a_in, *b_in])
    return sims[:, : len(a_in)].mean(axis=1) - sims[:, len(a_in) :].mean(axis=1)


def _subset_sums_by_size(values: np.ndarray) -> list[np.ndarray]:
    """sums[k]: the sum of every k-element subset of values (2^len in all)."""
    sums = [np.zeros(1)]
    for value in values:
        grown = [*sums, np.empty(0)]
        for k in range(len(sums), 0, -1):
            grown[k] = np.concatenate([grown[k], sums[k - 1] + value])
        sums = grown
    return sums


def _exact_hits(s_values: np.ndarray, nx: int, threshold: float) -> int:
    """Number of nx-word subsets of s_values whose sum reaches threshold.

    Meet in the middle: the subset sums of each half are listed by size,
    and for each size i one searchsorted over the other half's sorted
    (nx - i)-subset sums counts the pairs with a + b >= threshold.
    """
    half = len(s_values) // 2
    left = _subset_sums_by_size(s_values[:half])
    right = [np.sort(sums) for sums in _subset_sums_by_size(s_values[half:])]
    hits = 0
    for i in range(max(0, nx - (len(right) - 1)), min(nx, len(left) - 1) + 1):
        others = right[nx - i]
        below = np.searchsorted(others, threshold - left[i], side="left")
        hits += len(others) * len(left[i]) - int(below.sum())
    return hits


def weat_test(metric: CorrectedMetric, cfg: WeatConfig) -> WeatResult:
    """Effect size and one-sided permutation p-value for the association gap.

    The effect size is the standardized mean difference of per-word
    association scores between the target lists (population std over the
    union).  The p-value is the fraction of equal-size splits of the union
    whose statistic (sum over the chosen words minus sum over the rest)
    reaches the observed one.  "Reaches" allows 1e-12 times the sum of
    |scores| for rounding, far above any summation error, so tied splits
    and the observed split itself always count, and p >= 1/C(n, |X|).

    With at most EXACT_LIMIT (32) target words the count is exact, by
    meet in the middle (_exact_hits), and no random number is drawn:
    cfg.permutations and cfg.seed are read only above 32 words, where
    the p-value is seeded Monte Carlo over that many drawn splits: split r
    chooses the words of the nx smallest keys among values r * n .. r * n
    + n - 1 of the (cfg.seed, "weat-permutation") stream, n the number of
    target words.
    """
    x_in = [w for w in cfg.x_words if w in metric]
    y_in = [w for w in cfg.y_words if w in metric]
    a_in = [w for w in cfg.a_words if w in metric]
    b_in = [w for w in cfg.b_words if w in metric]
    if not a_in or not b_in:
        raise DataError("attribute sets are empty after vocabulary filtering")
    if len(x_in) != len(y_in):
        keep = min(len(x_in), len(y_in))
        warn(
            __name__,
            "target lists unbalanced after filtering (%d vs %d); truncating to %d",
            len(x_in), len(y_in), keep,
        )
        x_in, y_in = x_in[:keep], y_in[:keep]
    if len(x_in) + len(y_in) < 4:
        raise DataError("need at least 4 in-vocabulary target words")

    s_values = _associations(metric, x_in + y_in, a_in, b_in)
    nx = len(x_in)
    std = float(s_values.std())  # population std
    # The scores are differences of mean cosines in [-1, 1]; a spread this
    # small is rounding error, and an effect size over it would be noise.
    if std <= 1e-12:
        raise NumericalError(f"degenerate association scores: zero spread (std {std:.3g})")
    effect = (float(s_values[:nx].mean()) - float(s_values[nx:].mean())) / std
    chosen = float(s_values[:nx].sum())
    observed = 2.0 * chosen - float(s_values.sum())
    # A split's statistic is 2 * (its chosen words' sum) - total, so it
    # reaches the observed one when that sum reaches threshold.
    threshold = chosen - 1e-12 * float(np.abs(s_values).sum())
    n_union = len(s_values)
    exhaustive = n_union <= EXACT_LIMIT
    if exhaustive:
        p_value = _exact_hits(s_values, nx, threshold) / math.comb(n_union, nx)
    else:
        hits = 0
        for drawn in range(0, cfg.permutations, _MC_BLOCK):
            m = min(_MC_BLOCK, cfg.permutations - drawn)
            keys = seeding.uniform(
                cfg.seed, "weat-permutation", m * n_union, start=drawn * n_union
            ).reshape(m, n_union)
            idx = np.argpartition(keys, nx - 1, axis=1)[:, :nx]
            hits += int(np.sum(s_values[idx].sum(axis=1) >= threshold))
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
    """cos(w, he - she) in the original space, per word.  With words the
    table's own words tuple, the table's matrix is scored as it is, with
    no row gathered."""
    for anchor in (male_anchor, female_anchor):
        if anchor not in table:
            raise DataError(f"anchor word {anchor!r} not in vocabulary")
    direction = table.lookup(male_anchor) - table.lookup(female_anchor)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise DataError("anchor difference direction is zero")
    direction = direction / norm
    if words is table.words:
        rows = table.matrix
    else:
        rows = table.matrix[[table.row_index(w) for w in words]]
    row_norms = np.linalg.norm(rows, axis=1)
    if np.any(row_norms == 0.0):
        raise DataError("zero vector among scored words")
    return (rows @ direction) / row_norms


def professions_correlation(
    metric: CorrectedMetric,
    professions: Sequence[str],
    male_words: Sequence[str],
    female_words: Sequence[str],
    k_neighbors: int = 100,
    pool: str = "vocabulary",
    male_anchor: str = "he",
    female_anchor: str = "she",
) -> float:
    """Correlation of male-neighbor counts with original-space bias.

    For every profession, its k nearest neighbors under the metric are
    drawn from a candidate pool of metric.table (its full vocabulary by
    default, or the union of professions and gendered lexicons with
    pool="restricted"); the count of neighbors in the male lexicon is
    correlated (Pearson) against the profession's bias in the original
    space.

    Raises:
        FormatError: if k_neighbors is below 1.
    """
    if k_neighbors < 1:
        raise FormatError(f"neighbor count must be at least 1, got {k_neighbors}")
    table = metric.table
    profs = [w for w in professions if w in metric]
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
        sims = metric.similarity_matrix(rows, candidates)
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
    """Dual SVM state: coefficients, bias and training labels, and the
    solver's work: SMO steps taken and the KKT gap it stopped at (nan
    when the state was not built by svm_train)."""

    dual_coef: np.ndarray  # (n,) alpha_i in [0, C]
    bias: float
    labels: np.ndarray  # (n,) in {-1, +1}
    iterations: int = 0
    kkt_gap: float = math.nan

    def decision_values(self, gram_rows: np.ndarray) -> np.ndarray:
        """Decision values of the rows of gram_rows, the (m, n) kernel
        values of m points against the n training points."""
        return gram_rows @ (self.dual_coef * self.labels) + self.bias


def svm_train(
    gram: np.ndarray, labels: np.ndarray, c_reg: float = 1.0, tol: float = 1e-3
) -> SvmModel:
    """Train a soft-margin kernel SVM with SMO on the (n, n) kernel matrix
    of its n training points.

    Solves the dual min 0.5 a'Qa - sum(a) over 0 <= a <= c_reg, y'a = 0,
    with Q = yy' * K, keeping the gradient G = Qa - 1 up to date.  Each
    step takes i as the maximal violator, the largest -y_t G_t over the
    multipliers that may move up, and j by the second-order rule of Fan,
    Chen & Lin (2005, LIBSVM's WSS2) among those that may move down, then
    solves the pair exactly inside the box.  Training stops when the KKT
    gap m(a) - M(a), the largest violation, is at most tol; the model
    keeps the number of steps taken and that final gap.  The bias is
    the mean over free multipliers (0 < a < c_reg), or the midpoint of its
    bounds when none is free.  No random numbers are drawn, so the result
    depends only on the data, and on a positive definite Gram matrix it
    does not depend on the order of the training rows beyond tol.

    Raises:
        FormatError: unless c_reg and tol are finite and positive.
        DataError: unless both labels -1 and +1 are present, and gram is
            (n, n) with n the number of labels.
        NumericalError: if the kernel matrix is not finite, or the gap is
            still above tol after _SMO_MAX_ITER steps.
    """
    for name, value in (("c_reg", c_reg), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise FormatError(f"{name} must be finite and positive, got {value}")
    labels = np.asarray(labels, dtype=np.float64)
    positive, negative = labels == 1.0, labels == -1.0
    if not (positive.any() and negative.any() and np.all(positive | negative)):
        raise DataError("labels must contain both classes -1 and +1")
    gram = np.asarray(gram, dtype=np.float64)
    if gram.shape != (len(labels), len(labels)):
        raise DataError(
            f"the SVM kernel matrix must be ({len(labels)}, {len(labels)}), got {gram.shape}"
        )
    if not np.all(np.isfinite(gram)):
        raise NumericalError("non-finite values in the SVM kernel matrix")
    diag = np.diag(gram)
    alphas = np.zeros(len(labels))
    grad = -np.ones(len(labels))

    for iterations in range(_SMO_MAX_ITER):
        below_c = alphas < c_reg
        above_0 = alphas > 0
        up = np.where(positive, below_c, above_0)
        low = np.where(positive, above_0, below_c)
        score = -labels * grad
        i = int(np.argmax(np.where(up, score, -np.inf)))
        kkt_gap = float(score[i] - np.min(score[low]))
        if kkt_gap <= tol:
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
        dual_coef=alphas, bias=-rho, labels=labels, iterations=iterations, kkt_gap=kkt_gap
    )


def svm_accuracy(model: SvmModel, gram_rows: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points whose predicted label matches, from their (m,
    n_train) kernel values gram_rows: +1 where the decision value is at
    least 0 (a zero value counts as +1), else -1."""
    labels = np.asarray(labels, dtype=np.float64)
    preds = np.where(model.decision_values(gram_rows) >= 0, 1.0, -1.0)
    return float(np.mean(preds == labels))


def indirect_bias_classification(
    metric: CorrectedMetric,
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

    Takes the n_biased most male- and female-biased words of metric.table
    by original-space bias cos(w, male_anchor - female_anchor) (balanced
    halves, at most half the table each), trains an RBF SVM over the
    metric's squared distance on the first n_train of them in the order
    seeding.permutation(seed, "indirect-bias-split", ...) gives, tests it
    on the rest (at least 2 words), and reports train/test accuracy.
    Both anchors must be in the table's vocabulary; there is no other
    source for the bias score.  The SVM's width svm_gamma defaults to 1 /
    the median corrected squared distance between two training words,
    the scale the metric itself gives its distances.

    Returns a dict of n_train, n_test, train_accuracy, test_accuracy and
    svm_gamma (the width used); it does not name the metric's backend.

    Raises:
        FormatError: if n_biased is below 4 (2 training and 2 test words)
            or n_train below 1, or svm_gamma, c_reg or tol is not finite
            and positive.
        DataError: if an anchor word is not in the vocabulary, the table
            has fewer than 4 words, the training words drawn hold only
            one class, or, with no svm_gamma, their median distance is 0
            or not finite.
        NumericalError: if the SVM solver does not converge.
    """
    for name, count, least in (("n_biased", n_biased, 4), ("n_train", n_train, 1)):
        if count < least:
            raise FormatError(f"{name} must be at least {least}, got {count}")
    if svm_gamma is not None and not (math.isfinite(svm_gamma) and svm_gamma > 0):
        raise FormatError(f"svm_gamma must be finite and positive, got {svm_gamma}")
    table = metric.table
    bias = original_bias_scores(table, table.words, male_anchor, female_anchor)
    order = np.argsort(-bias, kind="stable")
    half = min(n_biased // 2, len(table) // 2)
    if half < 2:
        raise DataError(
            f"vocabulary too small for an indirect-bias split: {len(table)} words, "
            "need at least 4"
        )
    male_idx = order[:half]
    female_idx = order[-half:]
    idx = np.concatenate([male_idx, female_idx])
    labels = np.concatenate([np.ones(half), -np.ones(half)])

    perm = seeding.permutation(seed, "indirect-bias-split", len(idx))
    idx, labels = idx[perm], labels[perm]
    n_train = min(n_train, len(idx) - 2)
    train_labels, test_labels = labels[:n_train], labels[n_train:]
    if np.all(train_labels == train_labels[0]):
        raise DataError(
            f"the {n_train} training words drawn from the {len(idx)} most biased "
            "words are all of one class; raise --n-train or --n-biased"
        )

    # One corrected Gram: every drawn word against the training words.
    drawn = [table.words[i] for i in idx]
    dist = metric.squared_distance_matrix(drawn, drawn[:n_train])
    if svm_gamma is None:  # np.median would load numpy.ma (see numerics)
        off = dist[:n_train][~np.eye(n_train, dtype=bool)]
        middle = [(off.size - 1) // 2, off.size // 2]
        median = float(np.sum(np.partition(off, middle)[middle] / 2))
        svm_gamma = 1.0 / median if median > 0 else math.nan
        if not 0 < svm_gamma < math.inf:
            raise DataError(f"no default svm_gamma: median training distance {median}")
    with np.errstate(over="ignore"):  # a huge width saturates to exp(-inf) = 0
        gram = np.exp(-svm_gamma * dist)
    model = svm_train(gram[:n_train], train_labels, c_reg=c_reg, tol=tol)
    return {
        "n_train": int(n_train),
        "n_test": int(len(test_labels)),
        "train_accuracy": svm_accuracy(model, gram[:n_train], train_labels),
        "test_accuracy": svm_accuracy(model, gram[n_train:], test_labels),
        "svm_gamma": float(svm_gamma),
    }


# ---------------------------------------------------------------------------
# SimLex-style similarity scoring
# ---------------------------------------------------------------------------


def simlex_eval(
    metric: CorrectedMetric, pairs: Sequence[tuple[str, str, float]]
) -> tuple[float, int]:
    """Spearman correlation of corrected similarities with gold scores.

    Returns (correlation, dropped) where dropped counts pairs with an
    out-of-vocabulary word.

    Raises:
        DataError: with fewer than two scorable pairs.
    """
    scored = [(a, b, float(gold)) for a, b, gold in pairs if a in metric and b in metric]
    dropped = len(pairs) - len(scored)
    if len(scored) < 2:
        raise DataError(
            f"need at least two scorable pairs, got {len(scored)} ({dropped} dropped)"
        )
    model_scores = pair_similarities(metric, [(a, b) for a, b, _ in scored])
    return spearman(model_scores, np.array([gold for _, _, gold in scored])), dropped
