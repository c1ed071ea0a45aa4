import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import kerndebias
from kerndebias import NumericalError, pearson, spearman, symmetric_eig
from kerndebias.numerics import average_ranks
from oracles import loop_average_ranks, unique_average_ranks


class TestSymmetricEig:
    def test_identity(self):
        eig = symmetric_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        eig = symmetric_eig(np.array([[2.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)

    def test_reconstruction_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            eig = symmetric_eig(a)
            recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            assert np.linalg.norm(a - recon) <= 1e-8 * np.linalg.norm(a)
            ortho = eig.eigenvectors.T @ eig.eigenvectors
            np.testing.assert_allclose(ortho, np.eye(n), atol=1e-10)

    def test_eigenpairs_satisfy_definition(self, rng):
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2
        eig = symmetric_eig(a)
        for k in range(6):
            v = eig.eigenvectors[:, k]
            residual = a @ v - eig.eigenvalues[k] * v
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(a)

    def test_trace_equals_eigenvalue_sum(self, rng):
        a = rng.normal(size=(7, 7))
        a = (a + a.T) / 2
        eig = symmetric_eig(a)
        assert abs(np.trace(a) - eig.eigenvalues.sum()) <= 1e-8

    def test_orthogonal_similarity_invariance(self, rng):
        a = rng.normal(size=(5, 5))
        a = (a + a.T) / 2
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        rotated = q @ a @ q.T
        rotated = (rotated + rotated.T) / 2
        np.testing.assert_allclose(
            symmetric_eig(a).eigenvalues,
            symmetric_eig(rotated).eigenvalues,
            atol=1e-9,
        )

    def test_sign_convention_deterministic(self, rng):
        a = rng.normal(size=(4, 4))
        a = (a + a.T) / 2
        eig = symmetric_eig(a)
        for k in range(4):
            v = eig.eigenvectors[:, k]
            assert v[np.argmax(np.abs(v))] > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalError):
            symmetric_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            symmetric_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(NumericalError) as info:
            symmetric_eig(np.zeros((2, 3)))
        assert str(info.value) == "expected a square matrix, got shape (2, 3)"

    def test_zero_matrix(self):
        eig = symmetric_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))

    def test_one_by_one(self):
        eig = symmetric_eig(np.array([[3.5]]))
        np.testing.assert_allclose(eig.eigenvalues, [3.5])

    def test_rank_deficient_covariance_at_vocabulary_dim(self, rng):
        # The shape of a bias covariance: d = 100 from 10 centered directions.
        design = rng.normal(size=(10, 100))
        a = design.T @ design
        eig = symmetric_eig(a)
        np.testing.assert_allclose(
            eig.eigenvalues, np.linalg.eigvalsh(a)[::-1], atol=1e-12 * np.linalg.norm(a)
        )
        assert np.sum(eig.eigenvalues > 1e-10 * eig.eigenvalues[0]) == 10
        vecs = eig.eigenvectors
        recon = vecs @ np.diag(eig.eigenvalues) @ vecs.T
        assert np.linalg.norm(a - recon) <= 1e-12 * np.linalg.norm(a)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(100), atol=1e-12)
        peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(100)]
        assert np.all(peaks > 0)

    def test_repeated_eigenvalues_span_each_eigenspace(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        values = np.array([5.0, 5.0, 5.0, 2.0, 2.0, -1.0])
        a = q @ np.diag(values) @ q.T
        a = (a + a.T) / 2
        eig = symmetric_eig(a)
        np.testing.assert_allclose(eig.eigenvalues, values, atol=1e-12)
        vecs = eig.eigenvectors
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)
        for block in (slice(0, 3), slice(3, 5), slice(5, 6)):
            # Same subspace: the projectors onto returned and planted spans agree.
            np.testing.assert_allclose(
                vecs[:, block] @ vecs[:, block].T, q[:, block] @ q[:, block].T, atol=1e-12
            )

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            symmetric_eig(np.eye(3))

    def test_outputs_read_only(self, rng):
        a = rng.normal(size=(4, 4))
        eig = symmetric_eig(a + a.T)
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 0.0


class TestPearson:
    def test_perfect_positive(self):
        assert pearson(np.array([1.0, 2, 3]), np.array([2.0, 4, 6])) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # cov = 4, sd_x = sd_y = sqrt(5): r = 4/5
        x = np.array([1.0, 2, 3, 4])
        y = np.array([1.0, 3, 2, 4])
        assert pearson(x, y) == pytest.approx(0.8)

    def test_constant_input_rejected(self):
        with pytest.raises(NumericalError):
            pearson(np.array([1.0, 1, 1]), np.array([1.0, 2, 3]))

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([1.0, 2.0, 3.0], [1.0, 2.0], "correlation inputs must be 1-D and equal length"),
            ([1.0], [2.0], "correlation needs at least two observations"),
            ([1.0, np.inf], [1.0, 2.0], "correlation inputs must be finite"),
        ],
        ids=["lengths", "one", "non-finite"],
    )
    def test_malformed_input_rejected(self, x, y, message):
        with pytest.raises(NumericalError) as info:
            pearson(np.array(x), np.array(y))
        assert str(info.value) == message

    def test_bounded(self, rng):
        for _ in range(25):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert -1.0 <= pearson(x, y) <= 1.0


class TestSpearman:
    def test_monotone(self):
        x = np.array([1.0, 5, 9])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_hand_computed(self):
        # ranks (1,2,3) vs (1,3,2): 1 - 6*2/24 = 0.5
        assert spearman(np.array([1.0, 2, 3]), np.array([1.0, 3, 2])) == pytest.approx(0.5)

    def test_tie_average_ranks(self):
        np.testing.assert_allclose(
            average_ranks(np.array([1.0, 1.0, 2.0])), [1.5, 1.5, 3.0]
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 500])
    def test_ranks_match_loop_on_tied_inputs(self, rng, n):
        # Few distinct values, so most entries are tied; -0.0 ties with 0.0.
        for _ in range(20):
            x = rng.integers(-3, 4, size=n).astype(np.float64) / 2.0
            x[rng.random(n) < 0.2] = -0.0
            np.testing.assert_array_equal(average_ranks(x), loop_average_ranks(x))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 500])
    def test_ranks_bit_identical_to_unique_formula(self, rng, n):
        for levels in (1, 3, 50):
            for _ in range(10):
                x = rng.integers(0, levels, size=n) * rng.normal()
                x[rng.random(n) < 0.1] = -0.0
                ranks = average_ranks(x)
                assert ranks.tobytes() == unique_average_ranks(x).tobytes()

    def test_spearman_and_svm_leave_numpy_ma_unloaded(self):
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from kerndebias import spearman
            from kerndebias.evaluation import svm_train
            spearman(np.array([1.0, 2.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0, 2.0]))
            svm_train(np.eye(4), np.array([1.0, -1.0, 1.0, -1.0]))
            print("numpy.ma" in sys.modules)
        """)
        # The child imports the same kerndebias as this process.
        package_root = os.path.dirname(os.path.dirname(kerndebias.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=60, env={**os.environ, "PYTHONPATH": package_root},
        ).stdout
        assert out.strip() == "False"

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base)
        assert spearman(x, y**3) == pytest.approx(base)
