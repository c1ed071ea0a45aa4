"""Independent oracle computations used by the unit and acceptance tests.

These deliberately avoid the library's corrected-metric shortcuts: all
feature-space quantities are expanded into raw kernel evaluations against
the training pairs, so agreement with the library is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from kerndebias import EmbeddingTable, KernelBiasModel, gram_matrix
from kerndebias.linear import DefiningSets, LinearBiasModel, neutralize_matrix


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


def primal_linear_model(table: EmbeddingTable, sets: DefiningSets, k: int) -> LinearBiasModel:
    """Linear bias model from the top-k ``np.linalg.eigh`` eigenvectors of
    direct_covariance: the subspace in its primal d x d form, apart from
    the kernel fit that fit_linear_subspace reads out.  The eigenvector
    signs are LAPACK's."""
    values, vectors = np.linalg.eigh(direct_covariance(table, sets))
    top = np.argsort(values)[::-1][:k]
    return LinearBiasModel(basis=vectors[:, top].T, eigenvalues=values[top])


def pair_rows(model: KernelBiasModel) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved pair rows (a1, b1, a2, b2, ...) and their swapped twins."""
    n_pairs = model.pairs_a.shape[0]
    w1 = np.empty((2 * n_pairs, model.dim))
    w2 = np.empty((2 * n_pairs, model.dim))
    w1[0::2], w1[1::2] = model.pairs_a, model.pairs_b
    w2[0::2], w2[1::2] = model.pairs_b, model.pairs_a
    return w1, w2


def raw_beta(model: KernelBiasModel, x: np.ndarray) -> np.ndarray:
    """Bias coordinates recomputed from scratch: (n, K).

    Evaluates the kernel against every interleaved pair row directly and
    contracts with the stored dual coefficients and feature scale.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    w1, w2 = pair_rows(model)
    psi = gram_matrix(model.spec, x, w1) - gram_matrix(model.spec, x, w2)
    return model.feature_scale * psi @ model.alphas.T


def direction_gram(model: KernelBiasModel) -> np.ndarray:
    """Gram of the fitted bias directions via raw kernel evaluations: the
    directions expand over the signed differences phi(w1_i) - phi(w2_i),
    whose Gram enters scaled by the feature scale squared."""
    w1, w2 = pair_rows(model)
    spec = model.spec
    diff_gram = (
        gram_matrix(spec, w1, w1) - gram_matrix(spec, w1, w2)
        - gram_matrix(spec, w2, w1) + gram_matrix(spec, w2, w2)
    )
    return model.feature_scale**2 * (model.alphas @ diff_gram @ model.alphas.T)


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
    table: EmbeddingTable, word: str, candidates, model: LinearBiasModel | None = None
) -> np.ndarray:
    """Cosines of word with each candidate between explicit vectors.

    The vectors are the table rows, or with a linear model the rows
    projected off its subspace by neutralize_matrix, each scaled to unit
    length before the dot product.
    """
    matrix = table.matrix if model is None else neutralize_matrix(model, table.matrix)
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
