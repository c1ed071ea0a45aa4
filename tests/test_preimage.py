import numpy as np
import pytest

from kerndebias import (
    DefiningSets,
    EmbeddingTable,
    KernelSpec,
    beta_matrix,
    fit_kernel_model,
    preimage_neutralize_matrix,
    unit_normalize,
)
from kerndebias.toydemo import run_toy_demo
from conftest import KERNEL_ZOO, planted_bias_table, random_instance
from oracles import (
    preimage_residual,
    primal_linear_model,
    primal_neutralize,
    ridge_preimage_weights,
)


def planted_setup(rng, spec=None, k=1):
    table, sets, _ = planted_bias_table(rng, n_pairs=8, n_neutral=24, dim=7)
    model = fit_kernel_model(spec or KernelSpec("linear"), table, sets, k=k)
    return table, sets, model


def neutralize_row(model, w: np.ndarray) -> np.ndarray:
    return preimage_neutralize_matrix(model, w[None, :])[0]


class TestLinearExactness:
    def test_matches_projection_on_training_words(self, rng):
        table, sets, model = planted_setup(rng)
        linear = primal_linear_model(table, sets, 1)
        for idx in (i for pair in sets.pairs for i in pair):
            w = table.matrix[idx]
            expected = w - linear.project(w)
            assert np.linalg.norm(neutralize_row(model, w) - expected) <= 1e-12

    def test_matches_projection_on_held_out_words(self, rng):
        table, sets, model = planted_setup(rng)
        linear = primal_linear_model(table, sets, 1)
        for idx in range(2 * len(sets), len(table)):
            w = table.matrix[idx]
            expected = w - linear.project(w)
            assert np.linalg.norm(neutralize_row(model, w) - expected) <= 1e-12

    def test_learned_map_reproduces_bias_component(self, rng):
        # The readout alpha (A - B), fitted from the pairs alone, gives the
        # bias component of a vector off the table and off the unit sphere.
        table, sets, model = planted_setup(rng)
        linear = primal_linear_model(table, sets, 1)
        w = rng.normal(size=table.dim)
        np.testing.assert_allclose(w - neutralize_row(model, w), linear.project(w), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_readout_matches_projection_without_mirror_pairs(self, rng, k):
        # Generic pairs: their neutral parts do not cancel.
        table, sets = random_instance(rng, n_words=40, dim=9, n_pairs=6)
        model = fit_kernel_model(KernelSpec("linear"), table, sets, k=k)
        expected = primal_neutralize(primal_linear_model(table, sets, k).basis, table.matrix)
        got = preimage_neutralize_matrix(model, table.matrix)
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestDecomposition:
    def test_zero_beta_point_unchanged(self, rng):
        _, _, model = planted_setup(rng, spec=KernelSpec("rbf", gamma=1.0))
        w = rng.normal(size=model.dim)
        w[0] = 0.0  # mirror-symmetric: beta exactly zero
        np.testing.assert_array_equal(neutralize_row(model, w), w)

    def test_additive_decomposition_exact(self, rng):
        # Exact by construction; the subtract-then-add round trip costs at
        # most one rounding per component.
        _, _, model = planted_setup(rng, spec=KernelSpec("rbf", gamma=0.8))
        for _ in range(10):
            w = rng.normal(size=model.dim)
            bias_part = beta_matrix(model, w[None, :])[0] @ model.readout()
            recomposed = neutralize_row(model, w) + bias_part
            np.testing.assert_array_max_ulp(recomposed, w, maxulp=1)

    def test_deterministic(self, rng):
        table, _, model = planted_setup(rng, spec=KernelSpec("rbf", gamma=0.8))
        np.testing.assert_array_equal(
            preimage_neutralize_matrix(model, table.matrix),
            preimage_neutralize_matrix(model, table.matrix),
        )


def mirrored_parabola(rng, n_pairs: int) -> tuple[EmbeddingTable, DefiningSets]:
    """Noisy parabola points, each paired with its left-right mirror."""
    xs = rng.uniform(0.3, 1.0, size=n_pairs)
    ys = xs**2 + rng.normal(0, 0.02, size=n_pairs)
    points = np.empty((2 * n_pairs, 2))
    points[0::2] = np.column_stack([xs, ys])
    points[1::2] = np.column_stack([-xs, ys])
    table = EmbeddingTable(words=tuple(f"p{i}" for i in range(2 * n_pairs)), matrix=points)
    return table, DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))


class TestNonlinearRemoval:
    def test_bias_coordinate_variance_shrinks(self, rng):
        table, sets = mirrored_parabola(rng, 40)
        model = fit_kernel_model(KernelSpec("rbf", gamma=1.0), table, sets, k=1)
        neutralized = preimage_neutralize_matrix(model, table.matrix)
        var_before = np.var(beta_matrix(model, table.matrix)[:, 0])
        var_after = np.var(beta_matrix(model, neutralized)[:, 0])
        assert var_after < var_before

    @pytest.mark.parametrize("n_points", [20, 40, 60, 200])
    def test_toy_demo_halves_bias_variance(self, n_points):
        # The benchmark's toy check at its point counts and beyond.
        for seed in range(10):
            stats = run_toy_demo(seed, n_points)[2]
            assert stats["bias_variance_after"] < 0.5 * stats["bias_variance_before"]


# The sigmoid kernel is indefinite: its r is no squared distance (it goes
# negative), so no ordering of r ranks two pre-images.
POSITIVE_ZOO = [spec for spec in KERNEL_ZOO if spec.family != "sigmoid"]
RESIDUAL_CASES = [
    (spec, k, fixture)
    for spec in POSITIVE_ZOO
    for k in (1, 2)
    for fixture in ("random", "planted")
    # The planted pairs differ along one input direction: rank 1 for these.
    if not (fixture == "planted" and k == 2 and spec.family in ("linear", "cosine"))
]


def residual_fixture(rng, fixture: str) -> tuple[EmbeddingTable, DefiningSets]:
    """40 unit rows, as apply reads them: generic pairs, or mirror pairs."""
    if fixture == "planted":
        return planted_bias_table(rng, n_pairs=8, n_neutral=24, dim=7)[:2]
    table, sets = random_instance(rng, n_words=40, dim=9, n_pairs=6)
    return unit_normalize(table), sets


class TestResidual:
    @pytest.mark.parametrize("fixture, k", [("random", 1), ("random", 2), ("planted", 1)])
    def test_linear_readout_is_exact(self, rng, fixture, k):
        table, sets = residual_fixture(rng, fixture)
        model = fit_kernel_model(KernelSpec("linear"), table, sets, k=k)
        x = table.matrix
        r = preimage_residual(model, x, preimage_neutralize_matrix(model, x))
        assert np.max(np.abs(r)) <= 1e-12

    @pytest.mark.parametrize(
        "spec, k, fixture", RESIDUAL_CASES,
        ids=[f"{spec.family}-k{k}-{fixture}" for spec, k, fixture in RESIDUAL_CASES],
    )
    def test_readout_at_most_ridge_map(self, rng, spec, k, fixture):
        # The ridge map is fitted on every row, as apply's sample of at
        # most 500 extra words was on a table this small.
        table, sets = residual_fixture(rng, fixture)
        model = fit_kernel_model(spec, table, sets, k=k)
        x = table.matrix
        readout = preimage_residual(model, x, preimage_neutralize_matrix(model, x))
        ridge = preimage_residual(
            model, x, x - beta_matrix(model, x) @ ridge_preimage_weights(model, x)
        )
        assert np.median(readout) <= np.median(ridge)
        if fixture == "planted":
            assert np.all(readout <= ridge)
