import dataclasses
import math

import numpy as np
import pytest

from kerndebias import (
    CorrectedMetric,
    DataError,
    DefiningSets,
    EmbeddingTable,
    FormatError,
    KernelSpec,
    NumericalError,
    fit_kernel_model,
    fit_linear_subspace,
    unit_normalize,
)
from kerndebias import evaluation, rkhs, seeding
from kerndebias.evaluation import (
    WeatConfig,
    SvmModel,
    indirect_bias_classification,
    original_bias_scores,
    professions_correlation,
    simlex_eval,
    svm_accuracy,
    svm_train,
    weat_test,
)
from kerndebias.kernels import difference_distances
from conftest import RNG_SEED, planted_bias_table, random_instance
from oracles import (
    corrected, cosine_row, four_term_distances, primal_neutralize, weat_brute_force_p,
)


class StubBackend:
    """Similarity read from an explicit table of rows: the `in` and
    similarity_matrix of a CorrectedMetric, and nothing else."""

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


def signed_offset_table(rng, dim: int = 100, n_pairs: int = 10, n_words: int = 300):
    """Unit rows z + b u over unit z orthogonal to u = e_0, and defining pairs.

    The pairs (he/she first) share z and sit at b = +-0.5; every other
    word has b ~ N(0, 0.2), so the most biased words split by the sign of b.
    """
    words, rows = [], []
    for i in range(n_pairs + n_words):
        z = rng.normal(size=dim)
        z[0] = 0.0
        z /= np.linalg.norm(z)
        if i < n_pairs:
            words += ["he", "she"] if i == 0 else [f"m{i}", f"f{i}"]
            rows += [z + 0.5 * np.eye(dim)[0], z - 0.5 * np.eye(dim)[0]]
        else:
            words.append(f"w{i}")
            rows.append(z + rng.normal(0.0, 0.2) * np.eye(dim)[0])
    table = unit_normalize(EmbeddingTable(tuple(words), np.array(rows)))
    return table, DefiningSets(tuple((2 * i, 2 * i + 1) for i in range(n_pairs)))


def gram_metric(cosines: np.ndarray, words: list[str]) -> CorrectedMetric:
    """Raw metric whose cosines equal a prescribed PSD matrix exactly."""
    chol = np.linalg.cholesky(cosines + 1e-12 * np.eye(len(words)))
    return CorrectedMetric(EmbeddingTable(words=tuple(words), matrix=chol))


class TestBackends:
    def test_self_similarity_and_symmetry(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=8, dim=6)
        linear = fit_linear_subspace(table, sets, 1)
        kernel = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=1)
        metrics = [
            CorrectedMetric(table),
            CorrectedMetric(table, linear),
            CorrectedMetric(table, kernel),
        ]
        words = ["n0", "n1", "m0"]
        for metric in metrics:
            sims = metric.similarity_matrix(words, words)
            np.testing.assert_allclose(np.diag(sims), 1.0, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sims, sims.T, rtol=0, atol=1e-12)

    def test_similarity_row_matches_scalar(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=3, n_neutral=6, dim=5)
        kernel = fit_kernel_model(KernelSpec("laplace", gamma=0.5), table, sets, k=1)
        metric = CorrectedMetric(table, kernel)
        words = ["n0", "n1", "n2", "m0"]
        row = metric.similarity_matrix(["n3"], words)[0]
        for value, word in zip(row, words):
            single = metric.similarity_matrix(["n3"], [word])[0, 0]
            assert value == pytest.approx(single, abs=1e-12)

    def test_cached_beta_matches_corrected_metric_cosine(self, rng):
        # Word queries read the beta the metric keeps; the oracle's query,
        # over a fresh table of the same rows, computes beta afresh.
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=10, dim=6)
        for spec in (KernelSpec("rbf", gamma=0.8), KernelSpec("laplace", gamma=0.5)):
            metric = CorrectedMetric(table, fit_kernel_model(spec, table, sets, k=2))
            words = list(table.words)
            for word in ("n0", "m1", "f3"):
                oracle = corrected(
                    metric.model, "similarity_matrix", table.lookup(word), table.matrix
                )[0]
                np.testing.assert_allclose(
                    metric.similarity_matrix([word], words)[0], oracle, rtol=0, atol=1e-12
                )
                for c, value in zip(words[:6], oracle):
                    single = metric.similarity_matrix([word], [c])[0, 0]
                    assert single == pytest.approx(value, abs=1e-12)

    def test_beta_computed_on_demand_once_per_row(self, rng, monkeypatch):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=12, dim=6)
        model = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=2)
        word_of = {row.tobytes(): word for word, row in zip(table.words, table.matrix)}
        calls = []
        beta_matrix = rkhs.beta_matrix

        def recording(model, x):
            calls.append([word_of[row.tobytes()] for row in np.asarray(x)])
            return beta_matrix(model, x)

        monkeypatch.setattr(rkhs, "beta_matrix", recording)
        words = list(table.words)
        CorrectedMetric(table).similarity_matrix(words, words)
        rkhs.pair_similarities(CorrectedMetric(table, model), [("n0", "n1")])
        assert calls == [["n0", "n1"]]

        calls.clear()
        metric = CorrectedMetric(table, model)
        assert calls == []
        # One call per query, over its rows and columns not yet known.
        metric.similarity_matrix(words[4:1:-1], words[2:6])
        assert calls == [words[2:6]]
        metric.similarity_matrix(words[3:5], [words[8], words[3], words[6], words[8]])
        assert calls == [words[2:6], [words[6], words[8]]]
        metric.similarity_matrix(words[2:4], [words[6]])
        assert len(calls) == 2
        professions_correlation(
            metric, [f"n{i}" for i in range(8)], [f"m{i}" for i in range(1, 4)],
            [f"f{i}" for i in range(1, 4)], k_neighbors=3, male_anchor="m0", female_anchor="f0",
        )
        assert len(calls) == 3 and sorted(sum(calls, [])) == sorted(words)

        # Classify queries the words it draws, the 5 most and the 5 least
        # biased of the 20, in one call; a query over every word after it
        # computes only the other 10.
        fresh = CorrectedMetric(table, model)
        calls.clear()
        indirect_bias_classification(
            fresh, n_biased=10, n_train=6, svm_gamma=1.0, seed=5,
            male_anchor="m0", female_anchor="f0",
        )
        order = np.argsort(-original_bias_scores(table, words, "m0", "f0"), kind="stable")
        drawn = {words[i] for i in [*order[:5], *order[-5:]]}
        assert calls == [[w for w in words if w in drawn]]
        fresh.similarity_matrix(words, [])
        assert calls[1:] == [[w for w in words if w not in drawn]]

    def test_squared_distance_matrix_per_backend(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=8, dim=6)
        linear = fit_linear_subspace(table, sets, 1)
        kernel = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=2)
        words = list(table.words)
        x, y = table.matrix[:5], table.matrix[5:12]
        basis = linear.input_directions()
        nx, ny = primal_neutralize(basis, x), primal_neutralize(basis, y)
        expected = {
            CorrectedMetric(table): difference_distances(x, y),
            CorrectedMetric(table, linear): difference_distances(nx, ny),
            CorrectedMetric(table, kernel): four_term_distances(kernel, x, y),
        }
        for metric, oracle in expected.items():
            np.testing.assert_allclose(
                metric.squared_distance_matrix(words[:5], words[5:12]), oracle,
                rtol=0, atol=1e-12,
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_raw_and_linear_rows_match_explicit_cosines(self, seed):
        rng = np.random.default_rng(seed)
        table, sets = random_instance(rng, n_words=30, dim=7, n_pairs=4)
        model = fit_linear_subspace(table, sets, 2)
        words = list(table.words)
        for metric, oracle_basis in (
            (CorrectedMetric(table), None),
            (CorrectedMetric(table, model), model.input_directions()),
        ):
            for word in ("w0", "w9", "w29"):
                oracle = cosine_row(table, word, words, oracle_basis)
                np.testing.assert_allclose(
                    metric.similarity_matrix([word], words)[0], oracle, rtol=0, atol=1e-12
                )
                single = metric.similarity_matrix([word], ["w5"])[0, 0]
                assert single == pytest.approx(oracle[5], abs=1e-12)

    @staticmethod
    def _table_with_word_inside_subspace(rng):
        table, sets = random_instance(rng, n_words=20, dim=6, n_pairs=4)
        model = fit_linear_subspace(table, sets, 2)
        inside = np.array([0.6, -0.8]) @ model.input_directions()
        table = EmbeddingTable(
            words=(*table.words, "inside"), matrix=np.vstack([table.matrix, inside])
        )
        return table, model

    def test_word_inside_linear_subspace_rejected(self, rng):
        table, model = self._table_with_word_inside_subspace(rng)
        metric = CorrectedMetric(table, model)
        with pytest.raises(DataError, match="'inside'"):
            metric.similarity_matrix(["w0", "w1"], ["w2", "inside"])

    def test_zero_vector_rejected_by_raw_backend(self, rng):
        matrix = rng.normal(size=(5, 3))
        matrix[2] = 0.0
        table = EmbeddingTable(words=tuple(f"w{i}" for i in range(5)), matrix=matrix)
        metric = CorrectedMetric(table)
        with pytest.raises(DataError, match="'w2'"):
            metric.similarity_matrix(["w2"], ["w0"])

    def test_other_words_score_beside_a_neutralized_word(self, rng):
        table, model = self._table_with_word_inside_subspace(rng)
        metric = CorrectedMetric(table, model)
        words = [w for w in table.words if w != "inside"]
        basis = model.input_directions()
        oracle = np.array([cosine_row(table, w, words, basis) for w in words[:3]])
        np.testing.assert_allclose(
            metric.similarity_matrix(words[:3], words), oracle, rtol=0, atol=1e-12
        )
        pairs = [("w0", "w1", 3.0), ("w2", "w3", 1.0), ("w4", "w5", 2.0), ("w0", "inside", 9.0)]
        with pytest.raises(DataError, match="'inside'"):
            simlex_eval(metric, pairs)
        score, dropped = simlex_eval(metric, pairs[:3])
        assert np.isfinite(score) and dropped == 0


class TestPairSimilarities:
    def test_chunks_match_one_full_gather(self, rng, monkeypatch):
        table, sets, _ = planted_bias_table(rng, n_pairs=4, n_neutral=12, dim=6)
        metric = CorrectedMetric(
            table, fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=2)
        )
        words = list(table.words)
        pairs = [(words[i], words[j]) for i, j in rng.integers(0, len(words), size=(40, 2))]
        firsts = list(dict.fromkeys(a for a, _ in pairs))
        seconds = list(dict.fromkeys(b for _, b in pairs))
        full = metric.similarity_matrix(firsts, seconds)
        expected = full[[firsts.index(a) for a, _ in pairs], [seconds.index(b) for _, b in pairs]]

        shapes = []
        similarity_matrix = metric.similarity_matrix

        def recording(rows, cols):
            shapes.append((len(rows), len(cols)))
            return similarity_matrix(rows, cols)

        monkeypatch.setattr(metric, "similarity_matrix", recording)
        monkeypatch.setattr(rkhs, "_BLOCK_ELEMENTS", 16)
        got = evaluation.pair_similarities(metric, pairs)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert len(shapes) == 1 + 10  # one resolve call, then 40 pairs in chunks of 4
        assert all(rows * cols <= 16 for rows, cols in shapes[1:])

    def test_unknown_word_named_before_any_chunk(self, rng, monkeypatch):
        table, model = TestBackends._table_with_word_inside_subspace(rng)
        metric = CorrectedMetric(table, model)
        pairs = [("w0", "inside"), ("w1", "w2"), ("w3", "w4"), ("zzz", "w5")]
        monkeypatch.setattr(rkhs, "_BLOCK_ELEMENTS", 4)
        with pytest.raises(DataError, match="'zzz' not in vocabulary"):
            evaluation.pair_similarities(metric, pairs)
        with pytest.raises(DataError, match="'inside' is fully neutralized"):
            evaluation.pair_similarities(metric, pairs[:3] + [("w4", "w5")])


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


# Association scores for tied splits: decimals with no exact binary form.
TIE_GRID = np.array([0.1, 0.2, 0.3, 0.7])


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
        for nx in range(2, 9):
            x_scores = rng.normal(size=nx)
            y_scores = rng.normal(size=nx)
            stub, cfg = make_weat_stub(x_scores, y_scores)
            result = weat_test(stub, cfg)
            s_values = np.concatenate([x_scores, y_scores])
            assert result.exhaustive
            assert result.p_value == weat_brute_force_p(s_values, nx)
            assert result.p_value >= 1 / math.comb(2 * nx, nx)

    def test_exact_p_counts_ties_like_brute_force(self, rng):
        # Mirrored twins on decimals that binary cannot hold: many splits
        # tie with the observed one, up to the order of summation.
        for nx in range(2, 9):
            values = rng.permutation(TIE_GRID[np.arange(nx) % len(TIE_GRID)])
            stub, cfg = make_weat_stub(values, values[::-1])
            result = weat_test(stub, cfg)
            s_values = np.concatenate([values, values[::-1]])
            assert result.exhaustive
            assert result.p_value == weat_brute_force_p(s_values, nx)
            assert result.p_value >= 1 / math.comb(2 * nx, nx)

    def test_exact_path_draws_no_random_numbers(self, rng, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the exact path must not draw")

        monkeypatch.setattr(seeding, "uniform", never)
        stub, cfg = make_weat_stub(rng.normal(size=16), rng.normal(size=16))
        result = weat_test(stub, cfg)
        assert result.exhaustive
        assert 0.0 < result.p_value <= 1.0

    def test_monte_carlo_close_to_exhaustive(self, rng, monkeypatch):
        # 9 + 9 targets with the exact limit below 18 take the Monte Carlo
        # path; 48620 splits keep the brute-force oracle quick.
        monkeypatch.setattr(evaluation, "EXACT_LIMIT", 16)
        x_scores = rng.normal(loc=0.4, size=9)
        y_scores = rng.normal(size=9)
        stub, cfg = make_weat_stub(x_scores, y_scores)
        result = weat_test(stub, cfg)
        assert not result.exhaustive
        s_values = np.concatenate([x_scores, y_scores])
        exact = weat_brute_force_p(s_values, 9)
        bound = 3.0 * np.sqrt(max(exact * (1 - exact), 1e-6) / cfg.permutations)
        assert abs(result.p_value - exact) <= bound

    def test_monte_carlo_counts_ties(self, rng, monkeypatch):
        # Mirrored twins on a few decimals: a drawn split that ties with the
        # observed one, summed in another order, must still count.
        monkeypatch.setattr(evaluation, "EXACT_LIMIT", 16)
        values = rng.choice(TIE_GRID, size=9)
        stub, cfg = make_weat_stub(values, values[::-1])
        result = weat_test(stub, cfg)
        assert not result.exhaustive
        exact = weat_brute_force_p(np.concatenate([values, values[::-1]]), 9)
        bound = 3.0 * np.sqrt(max(exact * (1 - exact), 1e-6) / cfg.permutations)
        assert abs(result.p_value - exact) <= bound

    def test_monte_carlo_seed_reproducible(self, rng, monkeypatch):
        monkeypatch.setattr(evaluation, "EXACT_LIMIT", 16)
        x_scores = rng.normal(size=10)
        y_scores = rng.normal(size=10)
        stub, cfg = make_weat_stub(x_scores, y_scores)
        first = weat_test(stub, cfg)
        second = weat_test(stub, cfg)
        assert first.p_value == second.p_value

    def test_monte_carlo_p_value_independent_of_block_size(self, rng, monkeypatch):
        # 17 + 17 targets take the Monte Carlo path; split r reads keys
        # r * 34 .. r * 34 + 33 of the stream whatever the block size.
        stub, cfg = make_weat_stub(rng.normal(loc=0.2, size=17), rng.normal(size=17))
        cfg = dataclasses.replace(cfg, permutations=2003)
        whole = weat_test(stub, cfg)
        monkeypatch.setattr(evaluation, "_MC_BLOCK", 7)
        blocked = weat_test(stub, cfg)
        assert not whole.exhaustive
        assert 0.0 < whole.p_value < 1.0
        assert blocked.p_value == whole.p_value

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
        metric = gram_metric(cos, words)
        r = professions_correlation(
            metric,
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
        metric = gram_metric(cos, words)
        r = professions_correlation(
            metric,
            professions=[f"p{i}" for i in range(n_prof)],
            male_words=[f"m{j}" for j in range(4)],
            female_words=[f"f{j}" for j in range(4)],
            k_neighbors=4,
            pool="restricted",
        )
        assert abs(r) < 0.3

    def test_missing_anchor_rejected(self, rng):
        table, _ = random_instance(rng, n_words=8, n_pairs=1, dim=4)
        metric = CorrectedMetric(table)
        with pytest.raises(DataError, match="he"):
            professions_correlation(
                metric, ["w0", "w1", "w2"], ["w3"], ["w4"], k_neighbors=2
            )

    def test_constant_counts_rejected(self):
        words, cos = self._constructed_gram()
        metric = gram_metric(cos, words)
        with pytest.raises(NumericalError):
            professions_correlation(
                metric,
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


def rbf_gram(gamma, x, y):
    """rbf kernel values exp(-gamma ||x_i - y_j||^2) of the rows of x and y."""
    return np.exp(-gamma * difference_distances(x, y))


class TestSvm:
    def test_separable_blobs_perfect_training_accuracy(self, rng):
        vectors, labels = blob_data(rng)
        gram = rbf_gram(0.5, vectors, vectors)
        model = svm_train(gram, labels, c_reg=10.0)
        assert svm_accuracy(model, gram, labels) == 1.0

    def test_xor_rbf_succeeds_linear_fails(self):
        gram = rbf_gram(1.0, XOR_VECTORS, XOR_VECTORS)
        rbf_model = svm_train(gram, XOR_LABELS, c_reg=10.0)
        assert svm_accuracy(rbf_model, gram, XOR_LABELS) == 1.0
        linear = XOR_VECTORS @ XOR_VECTORS.T
        linear_model = svm_train(linear, XOR_LABELS, c_reg=10.0)
        assert svm_accuracy(linear_model, linear, XOR_LABELS) < 1.0

    def test_dual_coefficients_in_box(self, rng):
        vectors, labels = blob_data(rng)
        c_reg = 3.0
        model = svm_train(rbf_gram(0.5, vectors, vectors), labels, c_reg=c_reg)
        assert np.all(model.dual_coef >= -1e-12)
        assert np.all(model.dual_coef <= c_reg + 1e-12)

    def test_kkt_conditions_on_exit(self, rng):
        vectors, labels = blob_data(rng)
        c_reg, tol = 2.0, 1e-3
        gram = rbf_gram(0.5, vectors, vectors)
        model = svm_train(gram, labels, c_reg=c_reg, tol=tol)
        for i, value in enumerate(model.decision_values(gram)):
            ye = labels[i] * (value - labels[i])
            if model.dual_coef[i] < 1e-9:
                assert ye >= -10 * tol
            elif model.dual_coef[i] > c_reg - 1e-9:
                assert ye <= 10 * tol
            else:
                assert abs(ye) <= 10 * tol

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_reports_iterations_and_kkt_gap(self, rng, tol):
        vectors, labels = blob_data(rng)
        for c_reg, gram in ((10.0, rbf_gram(0.5, vectors, vectors)),
                            (2.0, vectors @ vectors.T)):
            model = svm_train(gram, labels, c_reg=c_reg, tol=tol)
            assert 0 < model.iterations <= evaluation._SMO_MAX_ITER
            assert model.kkt_gap <= tol
            # The reported gap is the largest KKT violation of the
            # returned multipliers.
            alphas = model.dual_coef
            score = -labels * (labels * (gram @ (alphas * labels)) - 1.0)
            positive = labels > 0
            up = np.where(positive, alphas < c_reg, alphas > 0)
            low = np.where(positive, alphas > 0, alphas < c_reg)
            gap = score[up].max() - score[low].min()
            assert model.kkt_gap == pytest.approx(gap, abs=1e-9)

    def test_far_support_vector_predicts_own_class(self, rng):
        vectors, labels = blob_data(rng)
        model = svm_train(rbf_gram(0.5, vectors, vectors), labels, c_reg=10.0)
        far = np.array([[3.0, 3.0], [-3.0, -3.0]])
        assert svm_accuracy(model, rbf_gram(0.5, far, vectors), np.array([1.0, -1.0])) == 1.0

    def test_mirrored_data_gives_antisymmetric_decisions(self, rng):
        base = rng.normal(size=(12, 2)) + np.array([1.5, 0.0])
        vectors = np.vstack([base, -base])
        labels = np.concatenate([np.ones(12), -np.ones(12)])
        model = svm_train(rbf_gram(0.7, vectors, vectors), labels, c_reg=5.0)
        t = rng.normal(size=(6, 2))
        np.testing.assert_allclose(
            model.decision_values(rbf_gram(0.7, t, vectors)),
            -model.decision_values(rbf_gram(0.7, -t, vectors)), rtol=0, atol=2e-3,
        )

    def test_duplicate_points_do_not_move_decision(self, rng):
        vectors, labels = blob_data(rng, n_per_class=12)
        model = svm_train(rbf_gram(0.5, vectors, vectors), labels, c_reg=100.0)
        dup_vectors = np.vstack([vectors, vectors[:1]])
        dup_labels = np.concatenate([labels, labels[:1]])
        dup_model = svm_train(rbf_gram(0.5, dup_vectors, dup_vectors), dup_labels, c_reg=100.0)
        t = rng.normal(size=(8, 2)) * 2
        np.testing.assert_allclose(
            model.decision_values(rbf_gram(0.5, t, vectors)),
            dup_model.decision_values(rbf_gram(0.5, t, dup_vectors)), rtol=0, atol=1e-3,
        )

    @pytest.mark.parametrize("seed", [RNG_SEED, *range(10)])
    def test_training_order_permutation_invariance(self, seed):
        # Solved to a KKT gap far below the bound, so the bound holds at any seed.
        rng = np.random.default_rng(seed)
        vectors, labels = blob_data(rng)
        model = svm_train(rbf_gram(0.5, vectors, vectors), labels, c_reg=10.0, tol=1e-8)
        perm = rng.permutation(len(labels))
        permuted = svm_train(
            rbf_gram(0.5, vectors[perm], vectors[perm]), labels[perm], c_reg=10.0, tol=1e-8
        )
        t = rng.normal(size=(10, 2)) * 2
        np.testing.assert_allclose(
            model.decision_values(rbf_gram(0.5, t, vectors)),
            permuted.decision_values(rbf_gram(0.5, t, vectors[perm])), rtol=0, atol=1e-6,
        )

    def test_zero_decision_value_counts_as_positive(self):
        vectors = np.eye(3)
        model = SvmModel(np.zeros(3), 0.0, np.array([1.0, -1.0, 1.0]))
        gram = rbf_gram(1.0, vectors, vectors)
        np.testing.assert_array_equal(model.decision_values(gram), 0.0)
        assert svm_accuracy(model, gram, np.array([1.0, -1.0, 1.0])) == pytest.approx(2 / 3)

    def test_single_class_rejected(self, rng):
        vectors = rng.normal(size=(6, 2))
        with pytest.raises(DataError):
            svm_train(rbf_gram(1.0, vectors, vectors), np.ones(6))

    @pytest.mark.parametrize("shape", [(6, 5), (5, 5), (7, 7), (36,)])
    def test_gram_not_n_by_n_rejected(self, shape):
        # 6 labels: the Gram must be (6, 6).
        with pytest.raises(DataError, match=r"must be \(6, 6\)"):
            svm_train(np.ones(shape), np.array([1.0, -1.0] * 3))

    def test_iteration_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(evaluation, "_SMO_MAX_ITER", 3)
        vectors, labels = blob_data(rng)
        with pytest.raises(NumericalError, match="KKT gap"):
            svm_train(rbf_gram(0.5, vectors, vectors), labels, c_reg=10.0)

    def test_non_finite_kernel_rejected(self, rng):
        vectors, labels = blob_data(rng)
        with pytest.raises(NumericalError, match="non-finite"):
            svm_train(rbf_gram(float("nan"), vectors, vectors), labels)


class TestIndirectBiasProtocol:
    def test_correction_reduces_recoverability(self, rng):
        table, sets, _ = planted_bias_table(rng, n_pairs=10, n_neutral=60, dim=6)
        raw = CorrectedMetric(table)
        raw_result = indirect_bias_classification(
            raw,
            n_biased=40, n_train=24, svm_gamma=2.0, c_reg=10.0, seed=11,
            male_anchor="m0", female_anchor="f0",
        )
        kernel = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=None)
        corrected = CorrectedMetric(table, kernel)
        corrected_result = indirect_bias_classification(
            corrected,
            n_biased=40, n_train=24, svm_gamma=2.0, c_reg=10.0, seed=11,
            male_anchor="m0", female_anchor="f0",
        )
        assert raw_result["train_accuracy"] >= 0.9
        assert corrected_result["test_accuracy"] <= raw_result["test_accuracy"]

    def test_accuracies_match_svm_on_four_term_gram(self, rng):
        # The words classify draws, in its seeded order, scored by an SVM
        # on the oracle's corrected rbf Gram.
        table, sets, _ = planted_bias_table(rng, n_pairs=10, n_neutral=60, dim=6)
        model = fit_kernel_model(KernelSpec("rbf", gamma=0.8), table, sets, k=1)
        result = indirect_bias_classification(
            CorrectedMetric(table, model),
            n_biased=40, n_train=24, svm_gamma=2.0, c_reg=10.0, seed=11,
            male_anchor="m0", female_anchor="f0",
        )
        order = np.argsort(-original_bias_scores(table, table.words, "m0", "f0"), kind="stable")
        idx = np.concatenate([order[:20], order[-20:]])
        labels = np.concatenate([np.ones(20), -np.ones(20)])
        perm = seeding.permutation(11, "indirect-bias-split", 40)
        x, labels = table.matrix[idx[perm]], labels[perm]
        gram = np.exp(-2.0 * four_term_distances(model, x, x[:24]))
        svm = svm_train(gram[:24], labels[:24], c_reg=10.0)
        assert result["train_accuracy"] == svm_accuracy(svm, gram[:24], labels[:24])
        assert result["test_accuracy"] == svm_accuracy(svm, gram[24:], labels[24:])
        assert (result["n_train"], result["n_test"]) == (24, 16)

    def test_bias_scores_of_every_word_read_the_matrix_as_is(self, rng, monkeypatch):
        table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
        gathered = original_bias_scores(table, list(table.words), "m0", "f0")
        looked_up = []
        row_index = EmbeddingTable.row_index
        monkeypatch.setattr(
            EmbeddingTable, "row_index",
            lambda self, word: looked_up.append(word) or row_index(self, word),
        )
        direct = original_bias_scores(table, table.words, "m0", "f0")
        assert looked_up == ["m0", "f0"]
        assert np.array_equal(direct, gathered)

    def test_deterministic_given_seed(self, rng):
        table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
        metric = CorrectedMetric(table)
        a = indirect_bias_classification(
            metric,
            n_biased=30, n_train=20, svm_gamma=1.0, seed=5,
            male_anchor="m0", female_anchor="f0",
        )
        b = indirect_bias_classification(
            metric,
            n_biased=30, n_train=20, svm_gamma=1.0, seed=5,
            male_anchor="m0", female_anchor="f0",
        )
        assert a == b

    def test_one_class_training_draw_names_the_counts(self, rng):
        # At n_biased = 4 two training words are drawn from two per class:
        # some seeds draw both classes, others only one.
        table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
        metric = CorrectedMetric(table)
        outcomes = set()
        for seed in range(12):
            try:
                result = indirect_bias_classification(
                    metric, n_biased=4, n_train=80, svm_gamma=1.0, seed=seed,
                    male_anchor="m0", female_anchor="f0",
                )
            except DataError as exc:
                assert "all of one class; raise --n-train or --n-biased" in str(exc)
                outcomes.add("one class")
            else:
                assert (result["n_train"], result["n_test"]) == (2, 2)
                outcomes.add("split")
        assert outcomes == {"one class", "split"}

    def test_table_below_four_words_too_small(self):
        table = EmbeddingTable(
            words=("he", "she", "w"), matrix=np.array([[1.0, 0.2], [-1.0, 0.2], [0.1, 1.0]])
        )
        with pytest.raises(DataError, match="vocabulary too small"):
            indirect_bias_classification(CorrectedMetric(table), n_biased=4, n_train=2)

    def test_missing_default_anchor_rejected(self, rng):
        table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
        with pytest.raises(DataError, match="'he'"):
            indirect_bias_classification(
                CorrectedMetric(table),
                n_biased=30, n_train=20,
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_width_recovers_the_planted_side_until_corrected(self, seed):
        # Unit words z + b u, z orthogonal to u: the sign of b is the
        # class.  At a width of 1/dim the rbf Gram of these words is
        # nearly all ones, and the SVM predicts one class.
        table, sets = signed_offset_table(np.random.default_rng(seed))
        protocol = dict(n_biased=200, n_train=80, seed=seed)
        raw = indirect_bias_classification(CorrectedMetric(table), **protocol)
        assert raw["test_accuracy"] >= 0.8
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.01)):
            model = fit_kernel_model(spec, table, sets, k=1)
            result = indirect_bias_classification(CorrectedMetric(table, model), **protocol)
            assert abs(result["test_accuracy"] - 0.5) <= 0.15, spec.family

    def test_default_width_is_one_over_the_median_training_distance(self):
        table, sets = signed_offset_table(np.random.default_rng(3))
        model = fit_kernel_model(KernelSpec("rbf", gamma=0.01), table, sets, k=1)
        metric = CorrectedMetric(table, model)
        result = indirect_bias_classification(metric, n_biased=40, n_train=15, seed=4)
        # The training words, drawn as the protocol draws them.
        order = np.argsort(-original_bias_scores(table, table.words), kind="stable")
        idx = np.concatenate([order[:20], order[-20:]])
        train = [table.words[i] for i in idx[seeding.permutation(4, "indirect-bias-split", 40)]]
        dist = metric.squared_distance_matrix(train[:15], train[:15])
        median = np.median(dist[~np.eye(15, dtype=bool)])
        assert result["svm_gamma"] == pytest.approx(1.0 / median, rel=1e-12)
        explicit = indirect_bias_classification(
            metric, n_biased=40, n_train=15, seed=4, svm_gamma=result["svm_gamma"]
        )
        assert explicit == result

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_default_width_needs_a_positive_finite_median(self, value):
        table, _ = signed_offset_table(np.random.default_rng(0))

        class Constant(CorrectedMetric):
            def squared_distance_matrix(self, rows, cols):
                return np.full((len(rows), len(cols)), value)

        with pytest.raises(DataError, match="no default svm_gamma"):
            indirect_bias_classification(Constant(table), n_biased=40, n_train=15)


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
