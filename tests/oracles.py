"""Independent oracle computations used by the unit and acceptance tests.

These deliberately avoid the library's corrected-metric shortcuts: all
feature-space quantities are expanded into raw kernel evaluations against
the training pairs, so agreement with the library is evidence, not
tautology.  corrected() is the one exception: it runs the library's
metric, which takes words of its table, over arbitrary rows, so the tests
can hold it to the oracles here.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass

import numpy as np

from kerndebias import CorrectedMetric, EmbeddingTable, KernelBiasModel, gram_matrix
from kerndebias.linear import DefiningSets


def direct_covariance(table: EmbeddingTable, sets: DefiningSets) -> np.ndarray:
    """Bias covariance straight from its definition (per-set centering)."""
    d = table.dim
    cov = np.zeros((d, d))
    for a, b in sets.pairs:
        members = [table.matrix[a], table.matrix[b]]
        mu = sum(members) / len(members)
        for w in members:
            cov += np.outer(w - mu, w - mu) / len(members)
    return cov


def primal_neutralize(basis: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The rows of matrix projected off the span of the orthonormal rows of
    basis, in primal form: X - X B^T B."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix - (matrix @ basis.T) @ basis


@dataclass(frozen=True)
class PrimalSubspace:
    """Orthonormal basis (rows) of a linear bias subspace and the bias
    covariance eigenvalues along it."""

    basis: np.ndarray  # (K, d)
    eigenvalues: np.ndarray  # (K,)

    def project(self, w: np.ndarray) -> np.ndarray:
        """Component of w inside the subspace."""
        return self.basis.T @ (self.basis @ w)


def primal_linear_model(table: EmbeddingTable, sets: DefiningSets, k: int) -> PrimalSubspace:
    """Linear bias subspace from the top-k ``np.linalg.eigh`` eigenvectors
    of direct_covariance: the subspace in its primal d x d form, apart from
    the kernel fit that fit_linear_subspace reads out.  The eigenvector
    signs are LAPACK's."""
    values, vectors = np.linalg.eigh(direct_covariance(table, sets))
    top = np.argsort(values)[::-1][:k]
    return PrimalSubspace(basis=vectors[:, top].T, eigenvalues=values[top])


def raw_beta(model: KernelBiasModel, x: np.ndarray) -> np.ndarray:
    """Bias coordinates recomputed from scratch: (n, K).

    Evaluates the kernel against both members of every pair directly and
    contracts the differences with the stored dual coefficients.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    psi = gram_matrix(model.spec, x, model.pairs_a) - gram_matrix(model.spec, x, model.pairs_b)
    return psi @ model.alphas.T


def corrected(
    model: KernelBiasModel | None, method: str, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """CorrectedMetric(table, model).<method>(x words, y words), on a table
    of the rows of x, as words x0, x1, ..., then of the rows of y, as
    y0, y1, ...: the metric's word query over arbitrary rows."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    x_words = [f"x{i}" for i in range(len(x))]
    y_words = [f"y{j}" for j in range(len(y))]
    table = EmbeddingTable(words=(*x_words, *y_words), matrix=np.vstack([x, y]))
    return getattr(CorrectedMetric(table, model), method)(x_words, y_words)


def ridge_preimage_weights(
    model: KernelBiasModel, sample: np.ndarray, ridge_lambda: float = 1e-6
) -> np.ndarray:
    """The (K, d) weights W of a Bakir, Weston & Schoelkopf (2004)-style
    ridge pre-image map, applied as x - beta(x) W: the ridge regression of
    the centered sample rows on their centered bias coordinates."""
    sample = np.asarray(sample, dtype=np.float64)
    coords = raw_beta(model, sample)
    coords_c = coords - coords.mean(axis=0)
    targets_c = sample - sample.mean(axis=0)
    normal = coords_c.T @ coords_c + ridge_lambda * np.eye(model.k)
    return np.linalg.solve(normal, coords_c.T @ targets_c)


def preimage_residual(model: KernelBiasModel, x: np.ndarray, x_new: np.ndarray) -> np.ndarray:
    """Per row, r = ||phi(x') - P_perp phi(x)||^2 / ||P_perp phi(x)||^2 for
    the candidate pre-image x' of the neutralized image of x, from kernel
    values only:

        (k(x', x') - 2 [k(x', x) - beta(x') . beta(x)] + k~(x, x)) / k~(x, x)

    with k~(x, x) = k(x, x) - |beta(x)|^2.  r = 0 is an exact pre-image.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
    bx, bn = raw_beta(model, x), raw_beta(model, x_new)
    neutral = np.diag(gram_matrix(model.spec, x, x)) - np.sum(bx * bx, axis=1)
    cross = np.diag(gram_matrix(model.spec, x_new, x)) - np.sum(bn * bx, axis=1)
    new = np.diag(gram_matrix(model.spec, x_new, x_new))
    return (new - 2.0 * cross + neutral) / neutral


def direction_gram(model: KernelBiasModel) -> np.ndarray:
    """Gram of the fitted bias directions via raw kernel evaluations: the
    directions expand over the pair differences phi(a_i) - phi(b_i), whose
    Gram is the four-block sum of raw kernel values."""
    a, b = model.pairs_a, model.pairs_b
    spec = model.spec
    diff_gram = (
        gram_matrix(spec, a, a) - gram_matrix(spec, a, b)
        - gram_matrix(spec, b, a) + gram_matrix(spec, b, b)
    )
    return model.alphas @ diff_gram @ model.alphas.T


def four_term_inner(model: KernelBiasModel, z: np.ndarray, w: np.ndarray) -> float:
    """<(I - P)phi(z), (I - P)phi(w)> without the cancellation shortcut.

    Expands all four terms of the neutralized inner product: the raw
    kernel value, both cross terms against the projected images, and the
    projection-projection term through the direction Gram.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    raw = float(gram_matrix(model.spec, z[None, :], w[None, :])[0, 0])
    bz = raw_beta(model, z)[0]
    bw = raw_beta(model, w)[0]
    g = direction_gram(model)
    cross_zw = float(bw @ bz)  # <phi(z), P phi(w)>
    cross_wz = float(bz @ bw)  # <P phi(z), phi(w)>
    proj_proj = float(bz @ g @ bw)
    return raw - cross_zw - cross_wz + proj_proj


def four_term_distances(model: KernelBiasModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Corrected k~(x, x) - 2 k~(x, y) + k~(y, y) for all row pairs, with
    k~ from raw kernel values and raw_beta."""
    bx, by = raw_beta(model, x), raw_beta(model, y)
    kxx = np.diag(gram_matrix(model.spec, x, x)) - np.sum(bx * bx, axis=1)
    kyy = np.diag(gram_matrix(model.spec, y, y)) - np.sum(by * by, axis=1)
    kxy = gram_matrix(model.spec, x, y) - bx @ by.T
    return kxx[:, None] - 2.0 * kxy + kyy[None, :]


def equalized_member_inner(
    model: KernelBiasModel, w: np.ndarray, members: np.ndarray, e_index: int
) -> float:
    """<neutralized phi(w), equalized theta(e)> for one member, from scratch.

    Includes the member-dependent rescaled bias term, which the invariance
    proposition says must not matter.  Assumes a kernel with k(x, x) <= 1
    on the member vectors so the normalizer is real.
    """
    w = np.asarray(w, dtype=np.float64)
    members = np.atleast_2d(np.asarray(members, dtype=np.float64))
    m = members.shape[0]
    bw = raw_beta(model, w)[0]
    bm = raw_beta(model, members)
    b_mean = bm.mean(axis=0)
    g = direction_gram(model)

    k_w_members = gram_matrix(model.spec, w[None, :], members)[0]
    k_members = gram_matrix(model.spec, members, members)
    mean_inner = float(k_members.mean())  # <M, M>

    # <neutral(w), nu> with nu = (I - P) of the member mean.
    ntr_nu = float(k_w_members.mean()) - 2.0 * float(bw @ b_mean) + float(bw @ g @ b_mean)

    # Member-dependent part: Z * <neutral(w), P(phi(e) - M)>.
    coef = bm[e_index] - b_mean
    nu_norm_sq = mean_inner - 2.0 * float(b_mean @ b_mean) + float(b_mean @ g @ b_mean)
    proj_norm_sq = float(coef @ g @ coef)
    z_scale = math.sqrt(max(0.0, 1.0 - nu_norm_sq)) / math.sqrt(max(proj_norm_sq, 1e-300))
    ntr_dot_directions = bw - g @ bw
    return ntr_nu + z_scale * float(coef @ ntr_dot_directions)


def cosine_row(
    table: EmbeddingTable, word: str, candidates, basis: np.ndarray | None = None
) -> np.ndarray:
    """Cosines of word with each candidate between explicit vectors.

    The vectors are the table rows, or with a subspace basis the rows
    projected off it by primal_neutralize, each scaled to unit length
    before the dot product.
    """
    matrix = table.matrix if basis is None else primal_neutralize(basis, table.matrix)
    unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    v = unit[table.row_index(word)]
    return np.array([float(unit[table.row_index(c)] @ v) for c in candidates])


def direct_rbf(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """rbf Gram from the explicit difference of every row pair."""
    return np.array(
        [[math.exp(-gamma * float(np.sum((a - b) ** 2))) for b in y] for a in x]
    )


def direct_laplace(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """laplace Gram from the explicit difference of every row pair."""
    return np.array(
        [[math.exp(-gamma * float(np.sum(np.abs(a - b)))) for b in y] for a in x]
    )


def fstring_embedding_text(words, matrix: np.ndarray, precision: int) -> str:
    """The text embedding format written with one f-string per value."""
    lines = [
        " ".join([word] + [f"{v:.{precision}f}" for v in row])
        for word, row in zip(words, matrix)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def decimal_fixed_point(v: float, precision: int) -> str:
    """``"%.{precision}f" % v`` by exact decimal arithmetic.

    Decimal(v) is the exact binary value of v; quantize rounds it once to
    the given places, ties to even, and keeps the sign of -0.0 and of
    negatives that round to zero.  The context's 400 digits hold every
    double's integer part plus 17 decimals, so quantize never fails.
    """
    with decimal.localcontext() as context:
        context.prec = 400
        quantum = decimal.Decimal(10) ** -precision
        return f"{decimal.Decimal(v).quantize(quantum, decimal.ROUND_HALF_EVEN):f}"


def float_parse_embedding_text(text: str) -> tuple[list[str], np.ndarray]:
    """Words and matrix of the text format, one ``float()`` per token.

    Blank lines are skipped, and so is the first non-blank line when it
    is a two-integer header.
    """
    words: list[str] = []
    rows: list[list[float]] = []
    first = True
    for line in text.split("\n"):
        tokens = line.split()
        if not tokens:
            continue
        header = first and len(tokens) == 2 and all(t.lstrip("+-").isdigit() for t in tokens)
        first = False
        if header:
            continue
        words.append(tokens[0])
        rows.append([float(t) for t in tokens[1:]])
    return words, np.array(rows, dtype=np.float64)


def weat_brute_force_p(s_values: np.ndarray, nx: int) -> float:
    """Permutation p-value by direct enumeration of equal splits."""
    s_values = np.asarray(s_values, dtype=np.float64)
    n = len(s_values)
    observed = s_values[:nx].sum() - s_values[nx:].sum()
    hits = 0
    count = 0
    for combo in itertools.combinations(range(n), nx):
        chosen = sum(s_values[i] for i in combo)
        rest = s_values.sum() - chosen
        count += 1
        if chosen - rest >= observed - 1e-12:
            hits += 1
    return hits / count


def loop_average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based average-tie ranks by walking the sorted values run by run."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def unique_average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based average-tie ranks through np.unique's counts and inverse."""
    _, inverse, counts = np.unique(
        np.asarray(x, dtype=np.float64), return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    starts = ends - counts
    return ((starts + ends + 1) / 2.0)[inverse]
