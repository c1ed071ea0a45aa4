import numpy as np
import pytest

from kerndebias import (
    CorrectedMetric,
    DataError,
    EmbeddingTable,
    FormatError,
    KernelSpec,
    NumericalError,
    fit_kernel_model,
    fit_linear_subspace,
    neutralize_matrix,
)
from kerndebias import evaluation
from kerndebias.evaluation import (
    CorrectedKernelBackend,
    SimilarityBackend,
    WeatConfig,
    SvmModel,
    indirect_bias_classification,
    professions_correlation,
    rbf_on_squared_distance,
    simlex_eval,
    svm_accuracy,
    svm_train,
    weat_test,
)
from kerndebias.kernels import difference_distances
from conftest import RNG_SEED, planted_bias_table, random_instance
from oracles import cosine_row, four_term_distances, weat_brute_force_p


class StubBackend(SimilarityBackend):
    """Similarity read from an explicit table of rows."""

    name = "stub"

    def __init__(self, rows: dict[str, dict[str, float]]):
        self.rows = rows

    def __contains__(self, word: str) -> bool:
        return word in self.rows

    def similarity_matrix(self, rows, cols) -> np.ndarray:
        return np.array([[self._entry(a, b) for b in cols] for a in rows])

    def _entry(self, a: str, b: str) -> float:
        """The given value either way round, 1 on the diagonal, NaN if unset."""
        if a == b:
            return 1.0
        return self.rows[a].get(b, self.rows[b].get(a, np.nan))


def gram_backend(cosines: np.ndarray, words: list[str]) -> tuple[CorrectedKernelBackend, EmbeddingTable]:
    """Backend whose raw cosines equal a prescribed PSD matrix exactly."""
    chol = np.linalg.cholesky(cosines + 1e-12 * np.eye(len(words)))
    table = EmbeddingTable(words=tuple(words), matrix=chol)
    return CorrectedKernelBackend(table, None), table


class TestBackends:
    def test_self_similarity_and_symmetry(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=8, dim=6)
        linear = fit_linear_subspace(table, sets, 1)
        kernel = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=1)
        backends = [
            CorrectedKernelBackend(table, None),
            CorrectedKernelBackend(table, linear),
            CorrectedKernelBackend(table, kernel),
        ]
        words = ["n0", "n1", "m0"]
        for backend in backends:
            sims = backend.similarity_matrix(words, words)
            np.testing.assert_allclose(np.diag(sims), 1.0, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sims, sims.T, rtol=0, atol=1e-12)

    def test_similarity_row_matches_scalar(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=3, n_neutral=6, dim=5)
        kernel = fit_kernel_model(KernelSpec("laplace", gamma=0.5), table, sets, k=1)
        backend = CorrectedKernelBackend(table, kernel)
        words = ["n0", "n1", "n2", "m0"]
        row = backend.similarity_matrix(["n3"], words)[0]
        for value, word in zip(row, words):
            single = backend.similarity_matrix(["n3"], [word])[0, 0]
            assert value == pytest.approx(single, abs=1e-12)

    def test_cached_beta_matches_corrected_metric_cosine(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=10, dim=6)
        for spec in (KernelSpec("rbf", gamma=0.8), KernelSpec("laplace", gamma=0.5)):
            model = fit_kernel_model(spec, table, sets, k=2)
            backend = CorrectedKernelBackend(table, model)
            metric = CorrectedMetric(model)
            words = list(table.words)
            for word in ("n0", "m1", "f3"):
                oracle = metric.cosine_matrix(table.lookup(word), table.matrix)[0]
                np.testing.assert_allclose(
                    backend.similarity_matrix([word], words)[0], oracle, rtol=0, atol=1e-12
                )
                for c, value in zip(words[:6], oracle):
                    single = backend.similarity_matrix([word], [c])[0, 0]
                    assert single == pytest.approx(value, abs=1e-12)

    def test_squared_distance_matrix_per_backend(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=8, dim=6)
        linear = fit_linear_subspace(table, sets, 1)
        kernel = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=2)
        x, y = table.matrix[:5], table.matrix[5:12]
        nx, ny = neutralize_matrix(linear, x), neutralize_matrix(linear, y)
        expected = {
            CorrectedKernelBackend(table, None): difference_distances(x, y),
            CorrectedKernelBackend(table, linear): difference_distances(nx, ny),
            CorrectedKernelBackend(table, kernel): four_term_distances(kernel, x, y),
        }
        for backend, oracle in expected.items():
            np.testing.assert_allclose(
                backend.squared_distance_matrix(x, y), oracle, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_raw_and_linear_rows_match_explicit_cosines(self, seed):
        rng = np.random.default_rng(seed)
        table, sets = random_instance(rng, n_words=30, dim=7, n_pairs=4)
        model = fit_linear_subspace(table, sets, 2)
        words = list(table.words)
        for backend, oracle_model in (
            (CorrectedKernelBackend(table, None), None),
            (CorrectedKernelBackend(table, model), model),
        ):
            for word in ("w0", "w9", "w29"):
                oracle = cosine_row(table, word, words, oracle_model)
                np.testing.assert_allclose(
                    backend.similarity_matrix([word], words)[0], oracle, rtol=0, atol=1e-12
                )
                single = backend.similarity_matrix([word], ["w5"])[0, 0]
                assert single == pytest.approx(oracle[5], abs=1e-12)

    @staticmethod
    def _table_with_word_inside_subspace(rng):
        table, sets = random_instance(rng, n_words=20, dim=6, n_pairs=4)
        model = fit_linear_subspace(table, sets, 2)
        inside = np.array([0.6, -0.8]) @ model.basis
        table = EmbeddingTable(
            words=(*table.words, "inside"), matrix=np.vstack([table.matrix, inside])
        )
        return table, model

    def test_word_inside_linear_subspace_rejected(self, rng):
        table, model = self._table_with_word_inside_subspace(rng)
        backend = CorrectedKernelBackend(table, model)
        with pytest.raises(DataError, match="'inside'"):
            backend.similarity_matrix(["w0", "w1"], ["w2", "inside"])

    def test_zero_vector_rejected_by_raw_backend(self, rng):
        matrix = rng.normal(size=(5, 3))
        matrix[2] = 0.0
        table = EmbeddingTable(words=tuple(f"w{i}" for i in range(5)), matrix=matrix)
        backend = CorrectedKernelBackend(table, None)
        with pytest.raises(DataError, match="'w2'"):
            backend.similarity_matrix(["w2"], ["w0"])

    def test_other_words_score_beside_a_neutralized_word(self, rng):
        table, model = self._table_with_word_inside_subspace(rng)
        backend = CorrectedKernelBackend(table, model)
        words = [w for w in table.words if w != "inside"]
        oracle = np.array([cosine_row(table, w, words, model) for w in words[:3]])
        np.testing.assert_allclose(
            backend.similarity_matrix(words[:3], words), oracle, rtol=0, atol=1e-12
        )
        pairs = [("w0", "w1", 3.0), ("w2", "w3", 1.0), ("w4", "w5", 2.0), ("w0", "inside", 9.0)]
        with pytest.raises(DataError, match="'inside'"):
            simlex_eval(backend, pairs)
        score, dropped = simlex_eval(backend, pairs[:3])
        assert np.isfinite(score) and dropped == 0


class TestPairSimilarities:
    def test_chunks_match_one_full_gather(self, rng, monkeypatch):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=12, dim=6)
        backend = CorrectedKernelBackend(
            table, fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=2)
        )
        words = list(table.words)
        pairs = [(words[i], words[j]) for i, j in rng.integers(0, len(words), size=(40, 2))]
        firsts = list(dict.fromkeys(a for a, _ in pairs))
        seconds = list(dict.fromkeys(b for _, b in pairs))
        full = backend.similarity_matrix(firsts, seconds)
        expected = full[[firsts.index(a) for a, _ in pairs], [seconds.index(b) for _, b in pairs]]

        shapes = []
        similarity_matrix = backend.similarity_matrix

        def recording(rows, cols):
            shapes.append((len(rows), len(cols)))
            return similarity_matrix(rows, cols)

        monkeypatch.setattr(backend, "similarity_matrix", recording)
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 16)
        got = evaluation.pair_similarities(backend, pairs)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert len(shapes) == 1 + 10  # one resolve call, then 40 pairs in chunks of 4
        assert all(rows * cols <= 16 for rows, cols in shapes[1:])

    def test_unknown_word_named_before_any_chunk(self, rng, monkeypatch):
        table, model = TestBackends._table_with_word_inside_subspace(rng)
        backend = CorrectedKernelBackend(table, model)
        pairs = [("w0", "inside"), ("w1", "w2"), ("w3", "w4"), ("zzz", "w5")]
        monkeypatch.setattr(evaluation, "_BLOCK_ELEMENTS", 4)
        with pytest.raises(DataError, match="'zzz' not in vocabulary"):
            evaluation.pair_similarities(backend, pairs)
        with pytest.raises(DataError, match="'inside' is fully neutralized"):
            evaluation.pair_similarities(backend, pairs[:3] + [("w4", "w5")])


class TestWeatAssociation:
    def test_equal_attribute_sets_give_zero(self):
        stub = StubBackend({"w": {"a": 0.7, "b": 0.1}, "a": {}, "b": {}})
        assert evaluation._associations(stub, ["w"], ["a", "b"], ["a", "b"])[0] == 0.0

    def test_constant_similarity_gives_zero(self):
        stub = StubBackend({"w": {"a": 0.4, "b": 0.4}, "a": {}, "b": {}})
        assert evaluation._associations(stub, ["w"], ["a"], ["b"])[0] == 0.0

    def test_hand_arithmetic(self):
        stub = StubBackend(
            {"w": {"a1": 0.9, "a2": 0.1, "b1": 0.2, "b2": 0.2},
             "a1": {}, "a2": {}, "b1": {}, "b2": {}}
        )
        value = evaluation._associations(stub, ["w"], ["a1", "a2"], ["b1", "b2"])[0]
        assert value == pytest.approx(0.3)

    def test_empty_attributes_rejected(self):
        stub = StubBackend({w: {} for w in ("x0", "x1", "y0", "y1")})
        cfg = WeatConfig(("x0", "x1"), ("y0", "y1"), ("missing",), ("also-missing",))
        with pytest.raises(DataError, match="attribute sets are empty"):
            weat_test(stub, cfg)


def make_weat_stub(x_scores, y_scores):
    """Stub where s(w) = score via sim(w, a) = score, sim(w, b) = 0."""
    rows = {"a": {}, "b": {}}
    x_words, y_words = [], []
    for i, s in enumerate(x_scores):
        rows[f"x{i}"] = {"a": s, "b": 0.0}
        x_words.append(f"x{i}")
    for i, s in enumerate(y_scores):
        rows[f"y{i}"] = {"a": s, "b": 0.0}
        y_words.append(f"y{i}")
    cfg = WeatConfig(tuple(x_words), tuple(y_words), ("a",), ("b",))
    return StubBackend(rows), cfg


class TestWeatTest:
    def test_permutation_count_below_one_rejected(self):
        for count in (0, -3):
            with pytest.raises(FormatError, match="permutation"):
                WeatConfig(("x",), ("y",), ("a",), ("b",), permutations=count)

    def test_permutation_count_capped(self):
        cap = evaluation.MAX_PERMUTATIONS
        assert WeatConfig(("x",), ("y",), ("a",), ("b",), permutations=cap).permutations == cap
        for count in (cap + 1, 10**300):
            with pytest.raises(FormatError, match="permutation count must be at most"):
                WeatConfig(("x",), ("y",), ("a",), ("b",), permutations=count)

    def test_hand_enumerated_case(self):
        # s = +1 on X, -1 on Y, |X| = |Y| = 3: d = 2 exactly and only the
        # identity split reaches the observed statistic: p = 1/20.
        stub, cfg = make_weat_stub([1.0, 1.0, 1.0], [-1.0, -1.0, -1.0])
        result = weat_test(stub, cfg)
        assert result.effect_size == pytest.approx(2.0)
        assert result.p_value == pytest.approx(0.05)
        assert result.statistic == pytest.approx(6.0)
        assert result.exhaustive

    def test_exchangeable_null(self):
        # Twin targets: effect size exactly zero; tied splits push the
        # one-sided p above 1/2 by the tie mass.
        values = [0.31, -0.57, 0.12, -0.88]
        stub, cfg = make_weat_stub(values, values)
        result = weat_test(stub, cfg)
        assert result.effect_size == 0.0
        assert 0.45 <= result.p_value <= 0.75

    def test_matches_brute_force_enumeration_exactly(self, rng):
        for trial in range(5):
            nx = int(rng.integers(2, 5))
            x_scores = rng.normal(size=nx)
            y_scores = rng.normal(size=nx)
            stub, cfg = make_weat_stub(x_scores, y_scores)
            result = weat_test(stub, cfg)
            s_values = np.concatenate([x_scores, y_scores])
            assert result.exhaustive
            assert result.p_value == weat_brute_force_p(s_values, nx)

    def test_monte_carlo_close_to_exhaustive(self, rng):
        # 9 + 9 targets: 48620 splits exceed the exhaustive limit.
        x_scores = rng.normal(loc=0.4, size=9)
        y_scores = rng.normal(size=9)
        stub, cfg = make_weat_stub(x_scores, y_scores)
        result = weat_test(stub, cfg)
        assert not result.exhaustive
        s_values = np.concatenate([x_scores, y_scores])
        exact = weat_brute_force_p(s_values, 9)
        bound = 3.0 * np.sqrt(max(exact * (1 - exact), 1e-6) / cfg.permutations)
        assert abs(result.p_value - exact) <= bound

    def test_monte_carlo_seed_reproducible(self, rng):
        x_scores = rng.normal(size=10)
        y_scores = rng.normal(size=10)
        stub, cfg = make_weat_stub(x_scores, y_scores)
        first = weat_test(stub, cfg)
        second = weat_test(stub, cfg)
        assert first.p_value == second.p_value

    def test_affine_invariance_of_effect_size(self, rng):
        x_scores = rng.normal(size=4)
        y_scores = rng.normal(size=4)
        stub, cfg = make_weat_stub(x_scores, y_scores)
        base = weat_test(stub, cfg)
        # Positive affine map of every similarity: s-values scale, d and p
        # are unchanged.
        scaled, cfg2 = make_weat_stub(2.5 * x_scores + 0.0, 2.5 * y_scores)
        shifted = weat_test(scaled, cfg2)
        assert shifted.effect_size == pytest.approx(base.effect_size, abs=1e-12)
        assert shifted.p_value == base.p_value

    def test_unbalanced_targets_truncated(self):
        stub, _ = make_weat_stub([0.5, 0.2, -0.1], [0.1, -0.4])
        cfg = WeatConfig(("x0", "x1", "x2"), ("y0", "y1"), ("a",), ("b",))
        result = weat_test(stub, cfg)
        assert result.n_used["X"] == 2
        assert result.n_used["Y"] == 2

    def test_zero_spread_rejected(self):
        stub, cfg = make_weat_stub([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(NumericalError):
            weat_test(stub, cfg)

    def test_too_few_targets_rejected(self):
        stub, cfg = make_weat_stub([0.5], [0.1])
        with pytest.raises(DataError):
            weat_test(stub, cfg)


class TestProfessions:
    def _constructed_gram(self):
        # Words: he, she, 5 professions, 4 male, 4 female lexicon words.
        # Profession i has exactly i male words among its 4 nearest
        # neighbors, and its he/she cosine gap is linear in i, so the
        # count-bias correlation is exactly 1.
        words = ["he", "she"] + [f"p{i}" for i in range(5)] + \
            [f"m{j}" for j in range(4)] + [f"f{j}" for j in range(4)]
        n = len(words)
        idx = {w: i for i, w in enumerate(words)}
        cos = np.eye(n)

        def put(a, b, v):
            cos[idx[a], idx[b]] = v
            cos[idx[b], idx[a]] = v

        for i in range(5):
            p = f"p{i}"
            put(p, "he", 0.01 * i)
            put(p, "she", -0.01 * i)
            for j in range(4):
                put(p, f"m{j}", 0.15 if j < i else 0.02)
                put(p, f"f{j}", 0.14 if j < 4 - i else 0.02)
        return words, cos

    def test_constructed_table_perfect_correlation(self):
        words, cos = self._constructed_gram()
        backend, table = gram_backend(cos, words)
        r = professions_correlation(
            backend,
            table,
            professions=[f"p{i}" for i in range(5)],
            male_words=[f"m{j}" for j in range(4)],
            female_words=[f"f{j}" for j in range(4)],
            k_neighbors=4,
            pool="restricted",
        )
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_independent_counts_weak_correlation(self, rng):
        # Neighbor structure drawn independently of the bias scores.
        n_prof = 50
        words = ["he", "she"] + [f"p{i}" for i in range(n_prof)] + \
            [f"m{j}" for j in range(4)] + [f"f{j}" for j in range(4)]
        n = len(words)
        idx = {w: i for i, w in enumerate(words)}
        cos = np.eye(n)
        counts = rng.integers(0, 5, size=n_prof)
        biases = rng.uniform(-0.4, 0.4, size=n_prof)
        for i in range(n_prof):
            p = idx[f"p{i}"]
            cos[p, idx["he"]] = cos[idx["he"], p] = 0.02 * biases[i]
            cos[p, idx["she"]] = cos[idx["she"], p] = -0.02 * biases[i]
            for j in range(4):
                m = 0.15 if j < counts[i] else 0.02
                f = 0.14 if j < 4 - counts[i] else 0.02
                cos[p, idx[f"m{j}"]] = cos[idx[f"m{j}"], p] = m
                cos[p, idx[f"f{j}"]] = cos[idx[f"f{j}"], p] = f
        # The prescribed off-diagonal entries alone are not PSD (minimum
        # eigenvalue -0.74).  Shrinking them toward the identity makes a
        # genuine Gram, keeps every row's neighbor order and scales every
        # profession's bias score by the same factor.
        shrink = 0.8
        cos = (cos + shrink * np.eye(n)) / (1.0 + shrink)
        backend, table = gram_backend(cos, words)
        r = professions_correlation(
            backend,
            table,
            professions=[f"p{i}" for i in range(n_prof)],
            male_words=[f"m{j}" for j in range(4)],
            female_words=[f"f{j}" for j in range(4)],
            k_neighbors=4,
            pool="restricted",
        )
        assert abs(r) < 0.3

    def test_missing_anchor_rejected(self, rng):
        table, _ = random_instance(rng, n_words=8, n_pairs=1, dim=4)
        backend = CorrectedKernelBackend(table, None)
        with pytest.raises(DataError, match="he"):
            professions_correlation(
                backend, table, ["w0", "w1", "w2"], ["w3"], ["w4"], k_neighbors=2
            )

    def test_constant_counts_rejected(self):
        words, cos = self._constructed_gram()
        backend, table = gram_backend(cos, words)
        with pytest.raises(NumericalError):
            professions_correlation(
                backend,
                table,
                professions=[f"p{i}" for i in range(5)],
                male_words=[],  # no male lexicon: all counts zero
                female_words=["f0"],
                k_neighbors=2,
                pool="restricted",
            )


def blob_data(rng, n_per_class=20, separation=2.0):
    pos = rng.normal(size=(n_per_class, 2)) * 0.4 + separation
    neg = rng.normal(size=(n_per_class, 2)) * 0.4 - separation
    vectors = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return vectors, labels


XOR_VECTORS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([1.0, 1.0, -1.0, -1.0])


def rbf_kernel(gamma):
    return rbf_on_squared_distance(difference_distances, gamma)


class TestSvm:
    def test_separable_blobs_perfect_training_accuracy(self, rng):
        vectors, labels = blob_data(rng)
        model = svm_train(rbf_kernel(0.5), vectors, labels, c_reg=10.0)
        assert svm_accuracy(model, vectors, labels) == 1.0

    def test_xor_rbf_succeeds_linear_fails(self):
        rbf_model = svm_train(rbf_kernel(1.0), XOR_VECTORS, XOR_LABELS, c_reg=10.0)
        assert svm_accuracy(rbf_model, XOR_VECTORS, XOR_LABELS) == 1.0
        linear_model = svm_train(lambda x, y: x @ y.T, XOR_VECTORS, XOR_LABELS, c_reg=10.0)
        assert svm_accuracy(linear_model, XOR_VECTORS, XOR_LABELS) < 1.0

    def test_dual_coefficients_in_box(self, rng):
        vectors, labels = blob_data(rng)
        c_reg = 3.0
        model = svm_train(rbf_kernel(0.5), vectors, labels, c_reg=c_reg)
        assert np.all(model.dual_coef >= -1e-12)
        assert np.all(model.dual_coef <= c_reg + 1e-12)

    def test_kkt_conditions_on_exit(self, rng):
        vectors, labels = blob_data(rng)
        c_reg, tol = 2.0, 1e-3
        model = svm_train(rbf_kernel(0.5), vectors, labels, c_reg=c_reg, tol=tol)
        for i, value in enumerate(model.decision_values(vectors)):
            ye = labels[i] * (value - labels[i])
            if model.dual_coef[i] < 1e-9:
                assert ye >= -10 * tol
            elif model.dual_coef[i] > c_reg - 1e-9:
                assert ye <= 10 * tol
            else:
                assert abs(ye) <= 10 * tol

    def test_far_support_vector_predicts_own_class(self, rng):
        vectors, labels = blob_data(rng)
        model = svm_train(rbf_kernel(0.5), vectors, labels, c_reg=10.0)
        far = np.array([[3.0, 3.0], [-3.0, -3.0]])
        assert svm_accuracy(model, far, np.array([1.0, -1.0])) == 1.0

    def test_mirrored_data_gives_antisymmetric_decisions(self, rng):
        base = rng.normal(size=(12, 2)) + np.array([1.5, 0.0])
        vectors = np.vstack([base, -base])
        labels = np.concatenate([np.ones(12), -np.ones(12)])
        model = svm_train(rbf_kernel(0.7), vectors, labels, c_reg=5.0)
        t = rng.normal(size=(6, 2))
        np.testing.assert_allclose(
            model.decision_values(t), -model.decision_values(-t), rtol=0, atol=2e-3
        )

    def test_duplicate_points_do_not_move_decision(self, rng):
        vectors, labels = blob_data(rng, n_per_class=12)
        model = svm_train(rbf_kernel(0.5), vectors, labels, c_reg=100.0)
        dup_vectors = np.vstack([vectors, vectors[:1]])
        dup_labels = np.concatenate([labels, labels[:1]])
        dup_model = svm_train(rbf_kernel(0.5), dup_vectors, dup_labels, c_reg=100.0)
        t = rng.normal(size=(8, 2)) * 2
        np.testing.assert_allclose(
            model.decision_values(t), dup_model.decision_values(t), rtol=0, atol=1e-3
        )

    @pytest.mark.parametrize("seed", [RNG_SEED, *range(10)])
    def test_training_order_permutation_invariance(self, seed):
        # Solved to a KKT gap far below the bound, so the bound holds at any seed.
        rng = np.random.default_rng(seed)
        vectors, labels = blob_data(rng)
        model = svm_train(rbf_kernel(0.5), vectors, labels, c_reg=10.0, tol=1e-8)
        perm = rng.permutation(len(labels))
        permuted = svm_train(
            rbf_kernel(0.5), vectors[perm], labels[perm], c_reg=10.0, tol=1e-8
        )
        t = rng.normal(size=(10, 2)) * 2
        np.testing.assert_allclose(
            model.decision_values(t), permuted.decision_values(t), rtol=0, atol=1e-6
        )

    def test_zero_decision_value_counts_as_positive(self):
        vectors = np.eye(3)
        model = SvmModel(np.zeros(3), 0.0, vectors, np.array([1.0, -1.0, 1.0]), rbf_kernel(1.0))
        np.testing.assert_array_equal(model.decision_values(vectors), 0.0)
        assert svm_accuracy(model, vectors, np.array([1.0, -1.0, 1.0])) == pytest.approx(2 / 3)

    def test_single_class_rejected(self, rng):
        vectors = rng.normal(size=(6, 2))
        with pytest.raises(DataError):
            svm_train(rbf_kernel(1.0), vectors, np.ones(6))

    def test_iteration_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(evaluation, "_SMO_MAX_ITER", 3)
        vectors, labels = blob_data(rng)
        with pytest.raises(NumericalError, match="KKT gap"):
            svm_train(rbf_kernel(0.5), vectors, labels, c_reg=10.0)

    def test_non_finite_kernel_rejected(self, rng):
        vectors, labels = blob_data(rng)
        with pytest.raises(NumericalError, match="non-finite"):
            svm_train(rbf_kernel(float("nan")), vectors, labels)


class TestIndirectBiasProtocol:
    def test_correction_reduces_recoverability(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=10, n_neutral=60, dim=6)
        raw = CorrectedKernelBackend(table, None)
        raw_result = indirect_bias_classification(
            raw, table,
            n_biased=40, n_train=24, svm_gamma=2.0, c_reg=10.0, seed=11,
            male_anchor="m0", female_anchor="f0",
        )
        kernel = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=None)
        corrected_backend = CorrectedKernelBackend(table, kernel)
        corrected_result = indirect_bias_classification(
            corrected_backend, table,
            n_biased=40, n_train=24, svm_gamma=2.0, c_reg=10.0, seed=11,
            male_anchor="m0", female_anchor="f0",
        )
        assert raw_result["train_accuracy"] >= 0.9
        assert corrected_result["test_accuracy"] <= raw_result["test_accuracy"]

    def test_deterministic_given_seed(self, rng):
        table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
        backend = CorrectedKernelBackend(table, None)
        a = indirect_bias_classification(
            backend, table,
            n_biased=30, n_train=20, svm_gamma=1.0, seed=5,
            male_anchor="m0", female_anchor="f0",
        )
        b = indirect_bias_classification(
            backend, table,
            n_biased=30, n_train=20, svm_gamma=1.0, seed=5,
            male_anchor="m0", female_anchor="f0",
        )
        assert a == b

    def test_missing_default_anchor_rejected(self, rng):
        table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
        with pytest.raises(DataError, match="'he'"):
            indirect_bias_classification(
                CorrectedKernelBackend(table, None), table,
                n_biased=30, n_train=20,
            )


class TestSimlex:
    def test_gold_equal_ranking(self):
        stub = StubBackend({"a": {"b": 0.9, "c": 0.5}, "b": {"c": 0.1}, "c": {}})
        pairs = [("a", "b", 9.0), ("a", "c", 5.0), ("b", "c", 1.0)]
        score, dropped = simlex_eval(stub, pairs)
        assert score == pytest.approx(1.0)
        assert dropped == 0

    def test_reversed_ranking(self):
        stub = StubBackend({"a": {"b": 0.1, "c": 0.5}, "b": {"c": 0.9}, "c": {}})
        pairs = [("a", "b", 9.0), ("a", "c", 5.0), ("b", "c", 1.0)]
        score, _ = simlex_eval(stub, pairs)
        assert score == pytest.approx(-1.0)

    def test_oov_pairs_dropped_and_counted(self):
        stub = StubBackend({"a": {"b": 0.9, "c": 0.2}, "b": {"c": 0.4}, "c": {}})
        pairs = [("a", "b", 8.0), ("b", "c", 2.0), ("a", "zzz", 5.0)]
        score, dropped = simlex_eval(stub, pairs)
        assert dropped == 1

    def test_too_few_scorable_rejected(self):
        stub = StubBackend({"a": {"b": 0.9}, "b": {}})
        with pytest.raises(DataError):
            simlex_eval(stub, [("a", "zzz", 5.0), ("b", "qqq", 2.0)])
