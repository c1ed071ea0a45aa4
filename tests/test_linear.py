import logging

import numpy as np
import pytest

from kerndebias import (
    DataError,
    DefiningSets,
    EmbeddingTable,
    EqualitySets,
    FormatError,
    KernelBiasModel,
    equalize_set,
    fit_linear_subspace,
    preimage_neutralize_matrix,
    resolve_word_sets,
    unit_normalize,
)
from conftest import random_instance
from oracles import loop_equalize, primal_linear_model


def neutralize_row(model, w: np.ndarray) -> np.ndarray:
    """apply's x - beta(x) W with the exact linear weights W = alpha (A - B)."""
    return preimage_neutralize_matrix(model, w[None, :])[0]


def project(model, w: np.ndarray) -> np.ndarray:
    """Component of w inside the model's subspace."""
    basis = model.input_directions()
    return basis.T @ (basis @ w)


class TestFitSubspace:
    def test_single_pair_direction(self, rng):
        table, sets = random_instance(rng, n_pairs=1, dim=4)
        a, b = sets.pairs[0]
        model = fit_linear_subspace(table, sets, 1)
        basis = model.input_directions()
        expected = table.matrix[a] - table.matrix[b]
        expected = expected / np.linalg.norm(expected)
        overlap = abs(float(basis[0] @ expected))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_basis_orthonormal(self, rng):
        table, sets = random_instance(rng, n_pairs=6, dim=8)
        model = fit_linear_subspace(table, sets, 3)
        basis = model.input_directions()
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-10)

    def test_eigenvalues_descending(self, rng):
        table, sets = random_instance(rng, n_pairs=6, dim=8)
        model = fit_linear_subspace(table, sets, 4)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)

    def test_full_rank_spans_space(self, rng):
        table, sets = random_instance(rng, n_pairs=8, dim=4)
        model = fit_linear_subspace(table, sets, 4)
        basis = model.input_directions()
        # K = d with full-rank covariance: projector is the identity.
        proj = basis.T @ basis
        np.testing.assert_allclose(proj, np.eye(4), atol=1e-9)

    def test_rank_exceeded_reports_rank(self, rng):
        table, sets = random_instance(rng, n_pairs=2, dim=10)
        with pytest.raises(DataError, match="rank is 2"):
            fit_linear_subspace(table, sets, 5)

    @pytest.mark.parametrize("separation", [1.0, 1e-2, 1e-4, 1e-5])
    def test_matches_primal_oracle_at_small_pair_separation(self, rng, caplog, separation):
        # Dyadic centers and half-offsets keep every pair member, mean and
        # centered row exact, so the oracle itself loses no precision as
        # the pairs close in.  Subtracting O(1) kernel values to form the
        # centered Gram would lose about eps / separation^2.
        n_pairs, dim, k = 5, 8, 3
        centers = np.round(rng.normal(size=(n_pairs, dim)) * 2.0**20) / 2.0**20
        halves = np.round(rng.normal(size=(n_pairs, dim)) * separation * 2.0**39) / 2.0**40
        matrix = np.empty((2 * n_pairs, dim))
        matrix[0::2], matrix[1::2] = centers + halves, centers - halves
        table = EmbeddingTable(words=tuple(f"w{i}" for i in range(2 * n_pairs)), matrix=matrix)
        sets = DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))
        with caplog.at_level(logging.WARNING):
            model = fit_linear_subspace(table, sets, k)
            basis = model.input_directions()
        assert not caplog.records
        oracle = primal_linear_model(table, sets, k)
        projector = basis.T @ basis
        assert np.max(np.abs(projector - oracle.basis.T @ oracle.basis)) <= 1e-12
        top = oracle.eigenvalues[0]
        assert np.max(np.abs(model.eigenvalues - oracle.eigenvalues)) <= 1e-12 * top
        assert np.max(np.abs(basis @ basis.T - np.eye(k))) <= 1e-12


class TestNeutralize:
    def test_span_vector_zeroed(self, rng):
        table, sets = random_instance(rng, n_pairs=3, dim=6)
        model = fit_linear_subspace(table, sets, 2)
        basis = model.input_directions()
        w = 1.7 * basis[0] - 0.4 * basis[1]
        np.testing.assert_allclose(neutralize_row(model, w), 0.0, atol=1e-12)

    def test_orthogonal_vector_unchanged(self, rng):
        table, sets = random_instance(rng, n_pairs=2, dim=5)
        model = fit_linear_subspace(table, sets, 1)
        basis = model.input_directions()
        w = rng.normal(size=5)
        w -= basis[0] * (basis[0] @ w)
        np.testing.assert_allclose(neutralize_row(model, w), w, atol=1e-12)

    def test_decomposition_identity(self, rng):
        table, sets = random_instance(rng, n_pairs=4, dim=7)
        model = fit_linear_subspace(table, sets, 3)
        basis = model.input_directions()
        w = rng.normal(size=7)
        recomposed = neutralize_row(model, w) + basis.T @ (basis @ w)
        np.testing.assert_allclose(recomposed, w, atol=1e-10)

    def test_projection_residual_orthogonal(self, rng):
        table, sets = random_instance(rng, n_pairs=4, dim=7)
        model = fit_linear_subspace(table, sets, 3)
        basis = model.input_directions()
        w = rng.normal(size=7)
        out = neutralize_row(model, w)
        np.testing.assert_allclose(basis @ out, 0.0, atol=1e-10)

    def test_idempotent(self, rng):
        table, sets = random_instance(rng, n_pairs=4, dim=7)
        model = fit_linear_subspace(table, sets, 2)
        w = rng.normal(size=7)
        once = neutralize_row(model, w)
        twice = neutralize_row(model, once)
        np.testing.assert_allclose(once, twice, atol=1e-12)


class TestEqualize:
    def _fitted(self, rng, n_pairs=4, dim=6):
        table, sets = random_instance(rng, n_pairs=n_pairs, dim=dim)
        table = unit_normalize(table)
        model = fit_linear_subspace(table, sets, 2)
        return table, sets, model

    def test_outputs_unit_norm(self, rng):
        table, _, model = self._fitted(rng)
        outputs = equalize_set(model, table, (0, 1, 2))
        for out in outputs:
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_shared_neutral_component(self, rng):
        table, _, model = self._fitted(rng)
        outputs = equalize_set(model, table, (0, 1, 2))
        neutrals = [out - project(model, out) for out in outputs]
        for other in neutrals[1:]:
            np.testing.assert_allclose(neutrals[0], other, atol=1e-10)

    def test_mirrored_pair_exact_reflection(self):
        # Pair constructed symmetric about the bias complement: outputs
        # must be exact reflections of one another with unit norm.
        neutral = np.array([0.0, 0.6, 0.0])
        offset = np.array([0.5, 0.0, 0.0])
        a = neutral + offset
        b = neutral - offset
        table = EmbeddingTable(words=("a", "b", "c", "d"),
                               matrix=np.vstack([a, b, [1.0, 0, 0], [-1.0, 0, 0]]))
        table = unit_normalize(table)
        sets = DefiningSets(((0, 1),))
        model = fit_linear_subspace(table, sets, 1)
        out_a, out_b = equalize_set(model, table, (0, 1))
        assert np.linalg.norm(out_a) == pytest.approx(1.0, abs=1e-12)
        # Reflection across the complement: bias parts negate, neutral parts agree.
        np.testing.assert_allclose(project(model, out_a), -project(model, out_b), atol=1e-12)
        np.testing.assert_allclose(out_a - project(model, out_a),
                                   out_b - project(model, out_b), atol=1e-12)

    def test_degenerate_member_rejected_with_word(self, rng):
        table, _, model = self._fitted(rng)
        # Duplicate rows collapse onto the set mean in the bias subspace.
        matrix = table.matrix.copy()
        matrix[1] = matrix[0]
        dup = EmbeddingTable(words=table.words, matrix=matrix)
        with pytest.raises(DataError, match="w0|w1"):
            equalize_set(model, dup, (0, 1))

    @pytest.mark.parametrize("k, size", [(1, 2), (2, 3), (3, 6)])
    def test_matches_the_per_member_loop(self, rng, k, size):
        # One matrix step sums in another order than the per-vector
        # projections, so unit-norm outputs agree to a few ulps, not bits.
        table, sets = random_instance(rng, n_words=14, n_pairs=4, dim=8)
        table = unit_normalize(table)
        model = fit_linear_subspace(table, sets, k)
        members = tuple(range(8, 8 + size))
        expected = loop_equalize(model.input_directions(), table.matrix[list(members)])
        np.testing.assert_allclose(equalize_set(model, table, members), expected, rtol=0,
                                   atol=4 * np.finfo(np.float64).eps)

    def test_first_degenerate_member_in_set_order_is_named(self):
        # Bias coordinates -0.6, 0, 0.6, 0 in set order: "c" and "b" both
        # sit on the set mean, and "c" comes first in the set.
        matrix = np.array([[0.6, 0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.6, 0.0, 0.8]])
        table = EmbeddingTable(words=("a", "b", "c", "d"), matrix=matrix)
        model = KernelBiasModel.from_basis(np.eye(1, 3), np.ones(1))
        with pytest.raises(DataError) as info:
            equalize_set(model, table, (3, 2, 0, 1))
        assert str(info.value) == (
            "word 'c' has no bias offset from its equality-set mean; cannot equalize"
        )

    def test_oversized_neutral_rejected(self, rng):
        table, sets = random_instance(rng, n_pairs=2, dim=5)
        scaled = EmbeddingTable(words=table.words, matrix=table.matrix * 10.0)
        model = fit_linear_subspace(scaled, sets, 1)
        with pytest.raises(DataError, match="norm > 1"):
            equalize_set(model, scaled, (0, 1, 2))

    def test_one_member_set_rejected(self, rng):
        table, _, model = self._fitted(rng)
        with pytest.raises(DataError) as info:
            equalize_set(model, table, (0,))
        assert str(info.value) == "equality sets need at least two members"

    def test_neutral_word_inner_product_constant_across_members(self, rng):
        # Linear analogue of the feature-space equalize invariance.
        table, _, model = self._fitted(rng, n_pairs=3, dim=6)
        outputs = equalize_set(model, table, (0, 1))
        w = neutralize_row(model, rng.normal(size=6))
        products = [float(w @ e) for e in outputs]
        assert products[0] == pytest.approx(products[1], abs=1e-10)


class TestSetsResolution:
    def test_missing_word_drops_pair(self, rng):
        table, _ = random_instance(rng, n_words=6, n_pairs=2, dim=4)
        pairs = [["w0", "w1"], ["w2", "absent"]]
        sets, _, warnings = resolve_word_sets(table, pairs)
        assert len(sets) == 1
        assert any("absent" in w for w in warnings)

    def test_equality_sets_keep_present_members(self, rng):
        table, _ = random_instance(rng, n_words=6, n_pairs=1, dim=4)
        _, eq, warnings = resolve_word_sets(
            table, [["w0", "w1"]], [["w2", "w3", "gone"], ["w4", "gone2"]]
        )
        assert eq.sets == ((2, 3),)
        assert len(warnings) == 3

    def test_all_pairs_missing_is_fatal(self, rng):
        table, _ = random_instance(rng, n_words=4, n_pairs=1, dim=3)
        with pytest.raises(DataError):
            resolve_word_sets(table, [["x", "y"]])

    def test_duplicate_index_rejected(self):
        with pytest.raises(DataError):
            DefiningSets(((0, 1), (1, 2)))
        with pytest.raises(DataError):
            EqualitySets(((0, 1), (1, 2)))

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda table: DefiningSets(((0, 9),)).validate_against(table), DataError,
             "defining pair (0, 9) out of range for |V|=6"),
            (lambda table: EqualitySets(((0, 1), (2,))), DataError,
             "equality sets need at least two members"),
            (lambda table: resolve_word_sets(table, [["w0", "w1", "w2"]]), FormatError,
             "defining sets must be pairs, got ['w0', 'w1', 'w2']"),
        ],
        ids=["out-of-range", "one-member", "three-words"],
    )
    def test_malformed_sets_rejected(self, rng, make, error, message):
        table, _ = random_instance(rng, n_words=6, n_pairs=1, dim=4)
        with pytest.raises(error) as info:
            make(table)
        assert str(info.value) == message
