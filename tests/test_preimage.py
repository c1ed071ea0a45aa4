import json

import numpy as np
import pytest

from kerndebias import (
    DataError,
    KernelSpec,
    beta_matrix,
    fit_kernel_model,
    fit_preimage_map,
    preimage_neutralize_matrix,
)
from kerndebias.preimage import default_sample, preimage_to_dict
from kerndebias.seeding import rng_for
from conftest import planted_bias_table
from oracles import primal_linear_model


def planted_setup(rng, spec=None, k=1):
    table, sets, u = planted_bias_table(rng, n_pairs=8, n_neutral=24, dim=7)
    spec = spec or KernelSpec("linear")
    model = fit_kernel_model(spec, table, sets, k=k)
    linear = primal_linear_model(table, sets, k)
    sample = [i for pair in sets.pairs for i in pair]
    return table, sets, model, linear, sample


def neutralize_row(pmap, w: np.ndarray) -> np.ndarray:
    return preimage_neutralize_matrix(pmap, w[None, :])[0]


class TestLinearExactness:
    def test_matches_projection_on_training_words(self, rng):
        table, sets, model, linear, sample = planted_setup(rng)
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e-8)
        for idx in sample:
            w = table.matrix[idx]
            expected = w - linear.project(w)
            assert np.linalg.norm(neutralize_row(pmap, w) - expected) <= 1e-6

    def test_matches_projection_on_held_out_words(self, rng):
        table, sets, model, linear, sample = planted_setup(rng)
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e-8)
        held_out = [i for i in range(len(table)) if i not in set(sample)]
        for idx in held_out:
            w = table.matrix[idx]
            expected = w - linear.project(w)
            assert np.linalg.norm(neutralize_row(pmap, w) - expected) <= 1e-4

    def test_learned_map_reproduces_bias_component(self, rng):
        table, sets, model, linear, sample = planted_setup(rng)
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e-8)
        w = rng.normal(size=table.dim)
        np.testing.assert_allclose(
            w - neutralize_row(pmap, w), linear.project(w), atol=1e-6
        )


class TestRidgeBehavior:
    def test_huge_lambda_leaves_vectors_unchanged(self, rng):
        table, sets, model, _, sample = planted_setup(rng)
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e12)
        w = rng.normal(size=table.dim)
        np.testing.assert_allclose(neutralize_row(pmap, w), w, atol=1e-8)

    def test_sample_too_small(self, rng):
        table, sets, model, _, _ = planted_setup(rng)
        with pytest.raises(DataError, match="at least 2"):
            fit_preimage_map(model, table, [0], ridge_lambda=1e-6)

    def test_singular_at_zero_lambda(self, rng):
        # Sample entirely on the mirror hyperplane: every beta is zero, so
        # the normal equations are singular without a ridge.
        table, sets, model, _, _ = planted_setup(rng, spec=KernelSpec("rbf", gamma=1.0))
        matrix = table.matrix.copy()
        matrix[:, 0] = 0.0
        flat = type(table)(words=table.words, matrix=matrix)
        with pytest.raises(DataError, match="ridge_lambda > 0"):
            fit_preimage_map(model, flat, list(range(6)), ridge_lambda=0.0)

    def test_negative_lambda_rejected(self, rng):
        table, sets, model, _, sample = planted_setup(rng)
        with pytest.raises(DataError):
            fit_preimage_map(model, table, sample, ridge_lambda=-1.0)


class TestDecomposition:
    def test_zero_beta_point_unchanged(self, rng):
        table, sets, model, _, sample = planted_setup(rng, spec=KernelSpec("rbf", gamma=1.0))
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e-6)
        w = rng.normal(size=table.dim)
        w[0] = 0.0  # mirror-symmetric: beta exactly zero
        np.testing.assert_array_equal(neutralize_row(pmap, w), w)

    def test_additive_decomposition_exact(self, rng):
        # Exact by construction; the subtract-then-add round trip costs at
        # most one rounding per component.
        table, sets, model, _, sample = planted_setup(rng, spec=KernelSpec("rbf", gamma=0.8))
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e-6)
        for _ in range(10):
            w = rng.normal(size=table.dim)
            bias_part = beta_matrix(model, w[None, :])[0] @ pmap.ridge_weights.T
            recomposed = neutralize_row(pmap, w) + bias_part
            np.testing.assert_array_max_ulp(recomposed, w, maxulp=1)

    def test_deterministic(self, rng):
        table, sets, model, _, sample = planted_setup(rng, spec=KernelSpec("rbf", gamma=0.8))
        first = fit_preimage_map(model, table, sample, ridge_lambda=1e-6)
        second = fit_preimage_map(model, table, sample, ridge_lambda=1e-6)
        np.testing.assert_array_equal(first.ridge_weights, second.ridge_weights)
        w = rng.normal(size=table.dim)
        np.testing.assert_array_equal(
            neutralize_row(first, w), neutralize_row(second, w)
        )


class TestNonlinearRemoval:
    def test_bias_coordinate_variance_shrinks(self, rng):
        # Noisy parabola with mirrored pairs: after pre-image
        # neutralization the leading bias coordinate loses variance.
        n_pairs = 40
        xs = rng.uniform(0.3, 1.0, size=n_pairs)
        ys = xs**2 + rng.normal(0, 0.02, size=n_pairs)
        points = np.empty((2 * n_pairs, 2))
        points[0::2] = np.column_stack([xs, ys])
        points[1::2] = np.column_stack([-xs, ys])
        table = type(planted_bias_table(rng)[0])(
            words=tuple(f"p{i}" for i in range(2 * n_pairs)), matrix=points
        )
        from kerndebias import DefiningSets

        sets = DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))
        model = fit_kernel_model(KernelSpec("rbf", gamma=1.0), table, sets, k=1)
        pmap = fit_preimage_map(model, table, list(range(2 * n_pairs)), ridge_lambda=1e-6)
        neutralized = preimage_neutralize_matrix(pmap, points)
        var_before = np.var(beta_matrix(model, points)[:, 0])
        var_after = np.var(beta_matrix(model, neutralized)[:, 0])
        assert var_after < var_before


class TestSampling:
    def test_default_sample_contains_pair_words(self, rng):
        table, sets, model, _, _ = planted_setup(rng)
        sample = default_sample(table, sets.pairs, rng_for(7, "test"), extra=5)
        pair_words = {i for pair in sets.pairs for i in pair}
        assert pair_words.issubset(set(sample))
        assert len(sample) == len(pair_words) + 5

    def test_serialization_round_trip(self, rng):
        table, sets, model, _, sample = planted_setup(rng, spec=KernelSpec("rbf", gamma=0.9))
        pmap = fit_preimage_map(model, table, sample, ridge_lambda=1e-6)
        # The block `apply --out-model` writes records the map exactly.
        data = json.loads(json.dumps(preimage_to_dict(pmap)))
        assert set(data) == {"ridge_weights", "ridge_lambda", "training_words"}
        np.testing.assert_array_equal(np.array(data["ridge_weights"]), pmap.ridge_weights)
        assert data["ridge_lambda"] == pmap.ridge_lambda == 1e-6
        assert data["training_words"] == [int(i) for i in sample]
