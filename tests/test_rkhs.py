import json

import numpy as np
import pytest

import kerndebias as kd
from kerndebias import (
    CorrectedMetric,
    DataError,
    DefiningSets,
    EmbeddingTable,
    KernelSpec,
    beta_matrix,
    build_centered_gram,
    fit_kernel_model,
    gram_matrix,
    neutralize_matrix,
    unit_normalize,
)
from kerndebias.numerics import symmetric_eig
from kerndebias.rkhs import kernel_model_from_dict, kernel_model_to_dict
from conftest import planted_bias_table, random_instance
from oracles import direction_gram, equalized_member_inner, four_term_inner, primal_linear_model

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

NORMALIZED_KERNELS = [
    KernelSpec("rbf", gamma=0.9),
    KernelSpec("laplace", gamma=0.6),
    KernelSpec("cosine"),
]


def fitted_pair_models(rng, spec, k=2, n_pairs=4, dim=6):
    table, sets = random_instance(rng, n_pairs=n_pairs, dim=dim)
    model = fit_kernel_model(spec, table, sets, k=k)
    return table, sets, model


class TestCenteredGram:
    def test_one_pair_linear_hand_expansion(self, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        spec = KernelSpec("linear")
        gram = build_centered_gram(spec, a[None, :], b[None, :])
        k = gram_matrix(spec, np.vstack([a, b]), np.vstack([a, b]))
        q = 0.5 * (k[0, 0] - 2 * k[0, 1] + k[1, 1])
        np.testing.assert_allclose(gram, [[q, -q], [-q, q]], atol=1e-12)
        assert np.linalg.matrix_rank(gram) == 1

    def test_identical_pair_zero_matrix(self, rng):
        a = rng.normal(size=4)
        gram = build_centered_gram(KernelSpec("rbf", gamma=1.0), a[None, :], a[None, :])
        np.testing.assert_allclose(gram, 0.0, atol=1e-15)

    def test_symmetric(self, rng):
        pa = rng.normal(size=(5, 4))
        pb = rng.normal(size=(5, 4))
        gram = build_centered_gram(KernelSpec("rbf", gamma=0.5), pa, pb)
        assert np.max(np.abs(gram - gram.T)) <= 1e-12

    def test_linear_kernel_matches_design_matrix_gram(self, rng):
        # For the linear kernel the centered Gram is twice the Gram of the
        # half-difference design rows (the known scale convention).
        table, sets = random_instance(rng, n_pairs=3, dim=5)
        design = kd.build_design_matrix(table, sets)
        pa = table.matrix[[a for a, _ in sets.pairs]]
        pb = table.matrix[[b for _, b in sets.pairs]]
        gram = build_centered_gram(KernelSpec("linear"), pa, pb)
        np.testing.assert_allclose(gram, 2.0 * design @ design.T, atol=1e-12)


class TestFit:
    def test_eigenvalues_positive_descending(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.5), k=3)
        assert np.all(model.eigenvalues > 0)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)

    def test_dual_normalization(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.5), k=3)
        np.testing.assert_allclose(direction_gram(model), np.eye(model.k), atol=1e-8)

    def test_rank_exceeded_reports_rank(self, rng):
        table, sets = random_instance(rng, n_pairs=2, dim=8)
        with pytest.raises(DataError, match="rank is 2"):
            fit_kernel_model(KernelSpec("linear"), table, sets, k=5)

    def test_k_none_keeps_full_rank(self, rng):
        table, sets = random_instance(rng, n_pairs=3, dim=8)
        model = fit_kernel_model(KernelSpec("rbf", gamma=1.0), table, sets, k=None)
        assert model.k == 3

    def test_sigmoid_negative_eigenvalues_discarded(self, rng):
        found = False
        for scale in (1.0, 2.0, 3.0, 5.0):
            table, sets = random_instance(rng, n_pairs=5, dim=4)
            big = EmbeddingTable(words=table.words, matrix=table.matrix * scale)
            model = fit_kernel_model(
                KernelSpec("sigmoid", gamma=1.0, coef0=-0.5), big, sets, k=1
            )
            if model.discarded_negative > 0:
                found = True
                break
        assert found


class TestBetaProjection:
    def test_linear_proportional_to_subspace_coordinate(self, rng):
        table, sets = random_instance(rng, n_pairs=3, dim=6)
        linear = primal_linear_model(table, sets, 1)
        model = fit_kernel_model(KernelSpec("linear"), table, sets, k=1)
        queries = rng.normal(size=(8, 6))
        betas = beta_matrix(model, queries)[:, 0]
        coords = queries @ linear.basis[0]
        ratios = betas / coords
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-9)
        assert abs(abs(ratios[0]) - 1.0) <= 1e-9  # unit direction either sign
        assert np.argmax(np.abs(betas)) == np.argmax(np.abs(coords))

    def test_mirror_symmetric_point_has_zero_beta(self, rng):
        table, sets, u = planted_bias_table(rng, n_pairs=4, n_neutral=0, dim=5)
        model = fit_kernel_model(KernelSpec("rbf", gamma=1.0), table, sets, k=2)
        w = rng.normal(size=5)
        w[0] = 0.0  # on the mirror hyperplane: equidistant from every pair
        np.testing.assert_allclose(beta_matrix(model, w[None, :]), 0.0, atol=1e-12)

    def test_batch_matches_single(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("laplace", gamma=0.4), k=2)
        queries = rng.normal(size=(5, model.dim))
        batch = beta_matrix(model, queries)
        rows = np.array([beta_matrix(model, q[None, :])[0] for q in queries])
        np.testing.assert_allclose(batch, rows, atol=1e-14)


class TestLinearKernelEquivalence:
    """With a linear kernel every corrected operation must match the
    explicit projection off the primal covariance eigenvectors."""

    def _models(self, rng, k=2, n_pairs=4, dim=6, unit=False):
        table, sets = random_instance(rng, n_pairs=n_pairs, dim=dim)
        if unit:
            table = unit_normalize(table)
        linear = primal_linear_model(table, sets, k)
        kernel = fit_kernel_model(KernelSpec("linear"), table, sets, k=k)
        return table, sets, linear, CorrectedMetric(kernel)

    def test_inner_product(self, rng):
        _, _, linear, metric = self._models(rng)
        z, w = rng.normal(size=(2, 20, 6))
        oracle = neutralize_matrix(linear, z) @ neutralize_matrix(linear, w).T
        np.testing.assert_allclose(metric.inner_product_matrix(z, w), oracle, rtol=0, atol=1e-9)

    def test_cosine(self, rng):
        _, _, linear, metric = self._models(rng)
        z, w = rng.normal(size=(2, 10, 6))
        nz, nw = neutralize_matrix(linear, z), neutralize_matrix(linear, w)
        oracle = (nz @ nw.T) / np.outer(np.linalg.norm(nz, axis=1), np.linalg.norm(nw, axis=1))
        np.testing.assert_allclose(metric.cosine_matrix(z, w), oracle, rtol=0, atol=1e-9)

    def test_squared_distance(self, rng):
        _, _, linear, metric = self._models(rng)
        z, w = rng.normal(size=(2, 10, 6))
        diff = neutralize_matrix(linear, z)[:, None, :] - neutralize_matrix(linear, w)[None, :, :]
        np.testing.assert_allclose(
            metric.squared_distance_matrix(z, w), np.sum(diff * diff, axis=2), rtol=0, atol=1e-9
        )

    def test_equalized_inner_product(self, rng):
        table, _, linear, metric = self._models(rng, unit=True)
        members = table.matrix[:3]
        w = rng.normal(size=6)
        mu = members.mean(axis=0)
        oracle = neutralize_matrix(linear, w[None, :])[0] @ neutralize_matrix(linear, mu[None, :])[0]
        for e in range(len(members)):
            assert equalized_member_inner(metric.model, w, members, e) == pytest.approx(
                oracle, abs=1e-9
            )

    def test_self_product_of_span_vector_vanishes(self, rng):
        # Full rank: any training difference lies inside the bias span.
        table, sets = random_instance(rng, n_pairs=3, dim=6)
        model = fit_kernel_model(KernelSpec("linear"), table, sets, k=None)
        metric = CorrectedMetric(model)
        a, b = sets.pairs[0]
        z = table.matrix[a] - table.matrix[b]
        assert abs(metric.inner_product_matrix(z[None, :], z[None, :])[0, 0]) <= 1e-8 * (z @ z)


class TestCorrectedMetricProperties:
    def test_four_term_expansion_all_kernels(self, rng):
        for spec in KERNEL_ZOO:
            table, sets, model = fitted_pair_models(rng, spec, k=2)
            metric = CorrectedMetric(model)
            z, w = rng.normal(size=(2, 5, model.dim))
            oracle = [[four_term_inner(model, a, b) for b in w] for a in z]
            np.testing.assert_allclose(
                metric.inner_product_matrix(z, w), oracle, rtol=0, atol=1e-9,
                err_msg=spec.family,
            )

    # The bias directions are orthonormal: alpha G alpha^T = I.
    def test_orthogonality_diagnostic_all_kernels(self, rng):
        for spec in KERNEL_ZOO:
            _, _, model = fitted_pair_models(rng, spec, k=2)
            error = np.max(np.abs(direction_gram(model) - np.eye(model.k)))
            assert error <= 1e-9, spec.family

    def test_orthogonality_diagnostic_full_rank(self, rng):
        table, sets = random_instance(rng, n_pairs=3, dim=6)
        model = fit_kernel_model(KernelSpec("rbf", gamma=0.7), table, sets, k=None)
        assert np.max(np.abs(direction_gram(model) - np.eye(model.k))) <= 1e-9

    def test_symmetry(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.6), k=2)
        metric = CorrectedMetric(model)
        z, w = rng.normal(size=(2, 4, model.dim))
        inner = metric.inner_product_matrix(z, w)
        np.testing.assert_allclose(inner, metric.inner_product_matrix(w, z).T, rtol=0, atol=1e-12)
        cosine = metric.cosine_matrix(z, w)
        np.testing.assert_allclose(cosine, metric.cosine_matrix(w, z).T, rtol=0, atol=1e-12)

    def test_self_products_nonnegative_psd_kernels(self, rng):
        for spec in KERNEL_ZOO:
            if spec.family == "sigmoid":
                continue
            table, sets, model = fitted_pair_models(rng, spec, k=2)
            metric = CorrectedMetric(model)
            values = metric.self_inner_products(rng.normal(size=(10, model.dim)))
            assert np.all(values >= -1e-9), spec.family

    def test_corrected_gram_psd(self, rng):
        for spec in [KernelSpec("rbf", gamma=0.8), KernelSpec("laplace", gamma=0.5),
                     KernelSpec("linear")]:
            table, sets, model = fitted_pair_models(rng, spec, k=2)
            metric = CorrectedMetric(model)
            queries = rng.normal(size=(8, model.dim))
            gram = metric.inner_product_matrix(queries, queries)
            eig = symmetric_eig((gram + gram.T) / 2)
            assert eig.eigenvalues[-1] >= -1e-8, spec.family

    def test_cosine_self_is_one(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.9), k=1)
        metric = CorrectedMetric(model)
        z = rng.normal(size=(1, model.dim))
        assert metric.cosine_matrix(z, z)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_fully_neutralized_rejected(self, rng):
        table, sets = random_instance(rng, n_pairs=3, dim=6)
        model = fit_kernel_model(KernelSpec("linear"), table, sets, k=None)
        metric = CorrectedMetric(model)
        a, b = sets.pairs[0]
        z = table.matrix[a] - table.matrix[b]  # entirely inside the span
        with pytest.raises(DataError, match="fully neutralized"):
            metric.cosine_matrix(z[None, :], rng.normal(size=(1, 6)))

    def test_squared_distance_zero_on_self(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.5), k=2)
        metric = CorrectedMetric(model)
        z = rng.normal(size=(1, model.dim))
        assert metric.squared_distance_matrix(z, z)[0, 0] == 0.0

    def test_triangle_inequality_spot_check(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.7), k=2)
        metric = CorrectedMetric(model)
        for _ in range(20):
            points = rng.normal(size=(3, model.dim))
            dist = np.sqrt(metric.squared_distance_matrix(points, points))
            assert dist[0, 2] <= dist[0, 1] + dist[1, 2] + 1e-9

    def test_distance_matrix_matches_scalar(self, rng):
        # Against k~(x, x) - 2 k~(x, y) + k~(y, y) from the inner products.
        _, _, model = fitted_pair_models(rng, KernelSpec("laplace", gamma=0.5), k=2)
        metric = CorrectedMetric(model)
        x = rng.normal(size=(3, model.dim))
        y = rng.normal(size=(4, model.dim))
        inner = metric.inner_product_matrix(np.vstack([x, y]), np.vstack([x, y]))
        self_products = np.diag(inner)
        expected = self_products[:3, None] - 2.0 * inner[:3, 3:] + self_products[None, 3:]
        np.testing.assert_allclose(
            metric.squared_distance_matrix(x, y), np.maximum(expected, 0.0), rtol=0, atol=1e-12
        )


class TestEqualizeInvariance:
    def test_per_member_brute_force_identical(self, rng):
        for spec in NORMALIZED_KERNELS:
            table, sets = random_instance(rng, n_pairs=3, dim=5)
            table = unit_normalize(table)
            model = fit_kernel_model(spec, table, sets, k=2)
            metric = CorrectedMetric(model)
            members = table.matrix[[6, 7, 8]] if len(table) > 8 else table.matrix[:3]
            w = rng.normal(size=5)
            per_member = [
                equalized_member_inner(model, w, members, e) for e in range(len(members))
            ]
            spread = max(per_member) - min(per_member)
            assert spread <= 1e-9, spec.family
            # The common value is the mean corrected inner product with w.
            mean_inner = metric.inner_product_matrix(w[None, :], members)[0].mean()
            assert mean_inner == pytest.approx(per_member[0], abs=1e-9)

    def test_two_identical_members_reduce_to_inner_product(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("rbf", gamma=0.8), k=2)
        metric = CorrectedMetric(model)
        e = rng.normal(size=model.dim)
        w = rng.normal(size=model.dim)
        value = equalized_member_inner(model, w, np.vstack([e, e]), 0)
        expected = metric.inner_product_matrix(w[None, :], e[None, :])[0, 0]
        assert value == pytest.approx(expected, abs=1e-12)


class TestScaleAndOrderInvariance:
    def test_gram_scale_invariance(self, rng):
        for spec in KERNEL_ZOO:
            table, sets = random_instance(rng, n_pairs=4, dim=5)
            base = fit_kernel_model(spec, table, sets, k=2, gram_scale=1.0)
            doubled = fit_kernel_model(spec, table, sets, k=2, gram_scale=2.0)
            m1, m2 = CorrectedMetric(base), CorrectedMetric(doubled)
            z, w = rng.normal(size=(2, 5, 5))
            np.testing.assert_allclose(
                m1.inner_product_matrix(z, w), m2.inner_product_matrix(z, w), rtol=0, atol=1e-9,
                err_msg=spec.family,
            )

    def test_pair_permutation_invariance(self, rng):
        table, sets = random_instance(rng, n_pairs=4, dim=5)
        spec = KernelSpec("rbf", gamma=0.8)
        base = CorrectedMetric(fit_kernel_model(spec, table, sets, k=2))
        permuted_sets = DefiningSets(tuple(reversed(sets.pairs)))
        permuted = CorrectedMetric(fit_kernel_model(spec, table, permuted_sets, k=2))
        z, w = rng.normal(size=(2, 5, 5))
        np.testing.assert_allclose(
            base.inner_product_matrix(z, w), permuted.inner_product_matrix(z, w), rtol=0, atol=1e-9
        )

    def test_pair_swap_invariance(self, rng):
        table, sets = random_instance(rng, n_pairs=4, dim=5)
        spec = KernelSpec("laplace", gamma=0.5)
        base = CorrectedMetric(fit_kernel_model(spec, table, sets, k=2))
        swapped_sets = DefiningSets(
            tuple((b, a) if i % 2 == 0 else (a, b) for i, (a, b) in enumerate(sets.pairs))
        )
        swapped = CorrectedMetric(fit_kernel_model(spec, table, swapped_sets, k=2))
        z, w = rng.normal(size=(2, 5, 5))
        np.testing.assert_allclose(
            base.inner_product_matrix(z, w), swapped.inner_product_matrix(z, w), rtol=0, atol=1e-9
        )


class TestSerialization:
    def test_round_trip_reproduces_metric(self, rng, tmp_path):
        table, sets = random_instance(rng, n_pairs=4, dim=5)
        spec = KernelSpec(
            "convex_combination",
            components=((0.5, KernelSpec("rbf", gamma=1.0)), (0.5, KernelSpec("cosine"))),
        )
        model = fit_kernel_model(spec, table, sets, k=2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(kernel_model_to_dict(model), indent=1))
        loaded, data = kd.load_model(path)
        assert data["type"] == "kernel"
        z, w = rng.normal(size=(2, 10, 5))
        original = CorrectedMetric(model).inner_product_matrix(z, w)
        reloaded = CorrectedMetric(loaded).inner_product_matrix(z, w)
        assert np.max(np.abs(original - reloaded)) <= 1e-12
        assert loaded.spec == model.spec
        np.testing.assert_array_equal(loaded.alphas, model.alphas)

    def test_dict_round_trip_fields(self, rng):
        _, _, model = fitted_pair_models(rng, KernelSpec("sigmoid", gamma=0.2, coef0=1.0))
        data = kernel_model_to_dict(model)
        again = kernel_model_from_dict(data)
        np.testing.assert_array_equal(again.pairs_a, model.pairs_a)
        np.testing.assert_array_equal(again.eigenvalues, model.eigenvalues)
        assert again.feature_scale == model.feature_scale
        assert again.gram_scale == model.gram_scale
