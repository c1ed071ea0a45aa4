import json
import tracemalloc

import numpy as np
import pytest

from kerndebias import DataError, FormatError, KernelSpec, NumericalError, gram_matrix, kernels
from kerndebias.kernels import difference_distances, kernel_diag
from kerndebias.numerics import symmetric_eig
from oracles import direct_laplace, direct_rbf


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid JSON")


PSD_SPECS = [
    KernelSpec("linear"),
    KernelSpec("cosine"),
    KernelSpec("rbf", gamma=0.7),
    KernelSpec("laplace", gamma=0.4),
    KernelSpec("polynomial", gamma=1.0, coef0=1.0, degree=3),
]

ALL_SPECS = PSD_SPECS + [
    KernelSpec("sigmoid", gamma=0.2, coef0=0.5),
    KernelSpec(
        "convex_combination",
        components=(
            (0.25, KernelSpec("rbf", gamma=1.0)),
            (0.75, KernelSpec("cosine")),
        ),
    ),
]


class TestEvalKernel:
    def test_rbf_self_is_one(self, rng):
        x = rng.normal(size=5)
        for gamma in (0.1, 1.0, 25.0):
            assert gram_matrix(KernelSpec("rbf", gamma=gamma), x, x)[0, 0] == 1.0

    def test_cosine_orthogonal(self):
        assert gram_matrix(KernelSpec("cosine"), [1.0, 0.0], [0.0, 1.0])[0, 0] == 0.0

    def test_polynomial_hand_value(self):
        spec = KernelSpec("polynomial", gamma=1.0, coef0=1.0, degree=2)
        assert gram_matrix(spec, [1.0, 0.0], [1.0, 1.0])[0, 0] == 4.0

    def test_laplace_hand_value(self):
        spec = KernelSpec("laplace", gamma=0.5)
        value = gram_matrix(spec, [1.0, 2.0], [0.0, 4.0])[0, 0]
        assert value == pytest.approx(np.exp(-0.5 * 3.0))

    def test_sigmoid_hand_value(self):
        spec = KernelSpec("sigmoid", gamma=2.0, coef0=-1.0)
        assert gram_matrix(spec, [1.0, 1.0], [1.0, 0.0])[0, 0] == pytest.approx(np.tanh(1.0))

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(DataError):
            gram_matrix(KernelSpec("cosine"), [0.0, 0.0], [1.0, 0.0])[0, 0]

    def test_symmetry_all_families(self, rng):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        for spec in ALL_SPECS:
            assert gram_matrix(spec, x, y)[0, 0] == pytest.approx(
                gram_matrix(spec, y, x)[0, 0], abs=1e-12
            )

    def test_range_posts(self, rng):
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        for gamma in (0.3, 2.0):
            rbf = gram_matrix(KernelSpec("rbf", gamma=gamma), x, y)[0, 0]
            lap = gram_matrix(KernelSpec("laplace", gamma=gamma), x, y)[0, 0]
            assert 0.0 < rbf <= 1.0
            assert 0.0 < lap <= 1.0
        assert -1.0 <= gram_matrix(KernelSpec("cosine"), x, y)[0, 0] <= 1.0


class TestGramMatrix:
    def test_linear_identity_rows(self):
        spec = KernelSpec("linear")
        np.testing.assert_array_equal(gram_matrix(spec, np.eye(2), np.eye(2)), np.eye(2))

    def test_matches_double_loop_oracle(self, rng):
        x = rng.normal(size=(4, 3))
        for spec in ALL_SPECS:
            gram = gram_matrix(spec, x, x)
            oracle = np.array(
                [[gram_matrix(spec, a, b)[0, 0] for b in x] for a in x]
            )
            np.testing.assert_allclose(gram, oracle, atol=1e-12)

    def test_square_gram_symmetric(self, rng):
        x = rng.normal(size=(6, 4))
        for spec in ALL_SPECS:
            gram = gram_matrix(spec, x, x)
            assert np.max(np.abs(gram - gram.T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            gram_matrix(KernelSpec("linear"), np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.zeros((2, 2, 3)), "expected vectors or a matrix, got 3-D input"),
            (np.array([[0.0, np.nan, 1.0]]), "kernel inputs must be finite"),
        ],
        ids=["3-d", "non-finite"],
    )
    def test_bad_input_rejected(self, x, message):
        with pytest.raises(DataError) as info:
            gram_matrix(KernelSpec("linear"), x, np.zeros((1, 3)))
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("linear"),
            KernelSpec("polynomial", gamma=1e60, coef0=1.0, degree=5),
            KernelSpec("convex_combination", components=(
                (0.0, KernelSpec("polynomial", gamma=1e60, coef0=1.0, degree=5)),
                (1.0, KernelSpec("rbf", gamma=1.0)),
            )),
        ],
        ids=["linear", "polynomial", "convex"],
    )
    def test_overflowed_values_raise_numerical_error(self, spec):
        # No inf or NaN leaves a Gram block or diagonal, and no warning is given.
        x = np.full((3, 4), 1e160 if spec.family == "linear" else 1e3)
        for values in (lambda: gram_matrix(spec, x, x), lambda: kernel_diag(spec, x)):
            with pytest.raises(NumericalError) as info:
                values()
            assert str(info.value) == f"the {spec.family} kernel overflows on these inputs"

    def test_diag_helper_matches(self, rng):
        x = rng.normal(size=(5, 3))
        for spec in ALL_SPECS:
            np.testing.assert_allclose(
                kernel_diag(spec, x), np.diag(gram_matrix(spec, x, x)), atol=1e-12
            )


class TestBlockedGram:
    @pytest.mark.parametrize("budget", [5, 24])
    def test_rbf_and_laplace_match_difference_oracle_across_blocks(
        self, rng, monkeypatch, budget
    ):
        # budget 5 splits the 11 columns with one row per block; budget 24
        # keeps the columns whole and puts two rows in each block.
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", budget)
        x = rng.normal(size=(13, 4))
        y = rng.normal(size=(11, 4))
        y[3] = x[5]
        for family, oracle in (("rbf", direct_rbf), ("laplace", direct_laplace)):
            spec = KernelSpec(family, gamma=0.7)
            gram = gram_matrix(spec, x, y)
            np.testing.assert_allclose(gram, oracle(x, y, 0.7), rtol=0, atol=1e-12)
            assert gram[5, 3] == 1.0

    def test_rbf_duplicate_rows_exact_across_blocks(self, rng, monkeypatch):
        # Groups of four identical rows, in a dimension where the matrix
        # product form leaves a rounding residue on them: every cancelling
        # entry is recomputed from direct differences, one per chunk.
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 24)
        x = np.repeat(rng.normal(size=(3, 13)), 4, axis=0)
        gram = gram_matrix(KernelSpec("rbf", gamma=3.0), x, x)
        same = np.equal.outer(np.arange(12) // 4, np.arange(12) // 4)
        assert np.all(gram[same] == 1.0)
        np.testing.assert_allclose(gram, direct_rbf(x, x, 3.0), rtol=0, atol=1e-12)

    def test_difference_forms_blocked_bit_identical(self, rng, monkeypatch):
        x = rng.normal(size=(9, 5))
        y = rng.normal(size=(7, 5))
        spec = KernelSpec("laplace", gamma=0.4)
        whole_laplace = gram_matrix(spec, x, y)
        diff = x[:, None, :] - y[None, :, :]
        whole_squared = np.sum(diff * diff, axis=2)
        for budget in (1, 6, 17):
            monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", budget)
            np.testing.assert_array_equal(gram_matrix(spec, x, y), whole_laplace)
            np.testing.assert_array_equal(difference_distances(x, y), whole_squared)

    def test_zero_width_rows(self):
        # The bias coordinates of a K = 0 model: every entry is width 0.
        x, y = np.empty((3, 0)), np.empty((2, 0))
        np.testing.assert_array_equal(difference_distances(x, y), np.zeros((3, 2)))
        for family in ("rbf", "laplace"):
            gram = gram_matrix(KernelSpec(family, gamma=0.7), x, y)
            np.testing.assert_array_equal(gram, np.ones((3, 2)))

    @pytest.mark.parametrize("family", ["rbf", "laplace"])
    def test_peak_memory_output_plus_budget(self, rng, monkeypatch, family):
        budget = 4096
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", budget)
        x = rng.normal(size=(400, 64))
        y = rng.normal(size=(300, 64))
        spec = KernelSpec(family, gamma=0.05)
        tracemalloc.start()
        try:
            gram_matrix(spec, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An unblocked difference tensor alone would be 400*300*64 doubles.
        assert peak <= 8 * (400 * 300 + 16 * budget) + 64 * 1024


class TestPositiveSemidefinite:
    def test_psd_families_spot_check(self, rng):
        x = rng.normal(size=(8, 5))
        for spec in PSD_SPECS:
            gram = gram_matrix(spec, x, x)
            eig = symmetric_eig((gram + gram.T) / 2)
            assert eig.eigenvalues[-1] >= -1e-8, spec.family

    def test_convex_combination_of_psd_is_psd(self, rng):
        x = rng.normal(size=(7, 4))
        spec = KernelSpec(
            "convex_combination",
            components=(
                (0.5, KernelSpec("rbf", gamma=0.5)),
                (0.3, KernelSpec("laplace", gamma=0.5)),
                (0.2, KernelSpec("linear")),
            ),
        )
        gram = gram_matrix(spec, x, x)
        eig = symmetric_eig((gram + gram.T) / 2)
        assert eig.eigenvalues[-1] >= -1e-8

    def test_sigmoid_documented_indefinite(self, rng):
        # The sigmoid family is admitted but not PSD in general; find a
        # witness so the exemption stays honest.
        spec = KernelSpec("sigmoid", gamma=1.0, coef0=-0.5)
        found_negative = False
        for _ in range(20):
            x = rng.normal(size=(6, 3)) * 2.0
            gram = gram_matrix(spec, x, x)
            eig = symmetric_eig((gram + gram.T) / 2)
            if eig.eigenvalues[-1] < -1e-8:
                found_negative = True
                break
        assert found_negative


class TestKernelSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(FormatError):
            KernelSpec("quadratic")

    def test_gamma_required_positive(self):
        with pytest.raises(FormatError):
            KernelSpec("rbf")
        with pytest.raises(FormatError):
            KernelSpec("rbf", gamma=-1.0)

    def test_degree_required(self):
        with pytest.raises(FormatError):
            KernelSpec("polynomial", gamma=1.0, coef0=1.0)

    def test_convex_weights_validated(self):
        with pytest.raises(FormatError):
            KernelSpec(
                "convex_combination",
                components=((0.6, KernelSpec("linear")), (0.6, KernelSpec("cosine"))),
            )
        with pytest.raises(FormatError):
            KernelSpec(
                "convex_combination",
                components=((-0.5, KernelSpec("linear")), (1.5, KernelSpec("cosine"))),
            )

    @pytest.mark.parametrize(
        "family, params, name",
        [
            ("linear", {"gamma": 0.5}, "gamma"),
            ("cosine", {"gamma": 1.0}, "gamma"),
            ("rbf", {"gamma": 0.5, "coef0": 1.0}, "coef0"),
            ("laplace", {"gamma": 0.5, "coef0": 0.0}, "coef0"),
            ("rbf", {"gamma": 0.5, "degree": 3}, "degree"),
            ("sigmoid", {"gamma": 0.5, "coef0": 1.0, "degree": 2}, "degree"),
            ("linear", {"components": ((1.0, KernelSpec("cosine")),)}, "components"),
            ("convex_combination",
             {"gamma": 0.5, "components": ((1.0, KernelSpec("cosine")),)}, "gamma"),
        ],
        ids=["linear-gamma", "cosine-gamma", "rbf-coef0", "laplace-coef0", "rbf-degree",
             "sigmoid-degree", "linear-components", "convex-gamma"],
    )
    def test_parameter_the_family_does_not_read_rejected(self, family, params, name):
        with pytest.raises(FormatError, match=f"the {family} kernel takes no {name}"):
            KernelSpec(family, **params)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"family": "rbf", "gamma": 0.5, "degree": 3}, "the rbf kernel takes no degree"),
            ({"family": "cosine", "components": [{"weight": 1.0, "spec": {"family": "linear"}}]},
             "the cosine kernel takes no components"),
            ({"family": "linear", "gammma": 0.5}, "unknown kernel spec key(s): 'gammma'"),
            ({"family": "convex_combination", "components": [
                {"weight": 1.0, "spec": {"family": "rbf", "gamma": 1.0, "width": 2}}]},
             "unknown kernel spec key(s): 'width'"),
        ],
        ids=["stray-degree", "stray-components", "unknown-key", "unknown-component-key"],
    )
    def test_from_dict_rejects_stray_and_unknown_keys(self, data, message):
        with pytest.raises(FormatError) as exc:
            KernelSpec.from_dict(data)
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: KernelSpec("convex_combination"), "convex_combination requires components"),
            (lambda: KernelSpec.from_dict(["rbf"]),
             "kernel spec must be an object with a 'family' key"),
            (lambda: KernelSpec.from_json("{"), f"invalid kernel JSON: {_json_error('{')}"),
            (lambda: KernelSpec("rbf", gamma=10**400),
             f"'gamma' must be a finite number, got {10**400!r}"),
        ],
        ids=["no-components", "not-an-object", "invalid-json", "huge-integer"],
    )
    def test_malformed_spec_rejected(self, make, message):
        with pytest.raises(FormatError) as info:
            make()
        assert str(info.value) == message

    def test_json_round_trip(self):
        for spec in ALL_SPECS:
            again = KernelSpec.from_json(json.dumps(spec.to_dict()))
            assert again == spec

    def test_json_shape(self):
        spec = KernelSpec.from_json('{"family":"rbf","gamma":0.01}')
        assert spec.family == "rbf"
        assert spec.gamma == 0.01
        convex = KernelSpec.from_json(
            json.dumps(
                {
                    "family": "convex_combination",
                    "components": [
                        {"weight": 0.5, "spec": {"family": "rbf", "gamma": 1.0}},
                        {"weight": 0.5, "spec": {"family": "cosine"}},
                    ],
                }
            )
        )
        assert convex.components[0][0] == 0.5
        assert convex.components[1][1].family == "cosine"
