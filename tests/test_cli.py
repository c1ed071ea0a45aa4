import json

import numpy as np
import pytest

from kerndebias import (
    EmbeddingTable,
    fit_preimage_map,
    parse_embedding_text,
    preimage_neutralize_matrix,
    unit_normalize,
    write_embedding_text,
)
from kerndebias.cli import main
from kerndebias.preimage import default_sample, preimage_to_dict
from kerndebias.rkhs import kernel_model_from_dict
from kerndebias.seeding import rng_for
from conftest import planted_bias_table


@pytest.fixture
def planted_files(rng, tmp_path):
    """Planted table whose first defining pair is named he/she, plus inputs."""
    table, sets, _ = planted_bias_table(rng, n_pairs=8, n_neutral=60, dim=8)
    names = {"m0": "he", "f0": "she"}
    table = EmbeddingTable(
        words=tuple(names.get(w, w) for w in table.words), matrix=table.matrix
    )
    paths = {
        "embeddings": tmp_path / "table.txt",
        "sets": tmp_path / "sets.json",
        "professions": tmp_path / "professions.txt",
        "male": tmp_path / "male.txt",
        "female": tmp_path / "female.txt",
        "simlex": tmp_path / "simlex.tsv",
        "weat": tmp_path / "weat.json",
        "model": tmp_path / "model.json",
    }
    paths["embeddings"].write_text(write_embedding_text(table, precision=17))
    pairs = [[table.words[a], table.words[b]] for a, b in sets.pairs]
    paths["sets"].write_text(json.dumps({"defining_sets": pairs}))
    paths["professions"].write_text("\n".join(f"n{i}" for i in range(12)) + "\n")
    paths["male"].write_text("\n".join(f"m{i}" for i in range(1, 8)) + "\n")
    paths["female"].write_text("\n".join(f"f{i}" for i in range(1, 8)) + "\n")
    paths["simlex"].write_text(
        "word1\tword2\tscore\n"
        + "".join(f"n{i}\tn{i + 1}\t{(7 * i) % 10}.0\n" for i in range(10))
    )
    paths["weat"].write_text(json.dumps(
        {"X": ["n0", "n1", "n2"], "Y": ["n3", "n4", "n5"], "A": ["m1", "m2"], "B": ["f1", "f2"]}
    ))
    return paths


def _fit_kernel(paths) -> None:
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--backend", "kernel", "--kernel", "rbf", "--gamma", "0.5", "--components", "2",
        "--out", str(paths["model"]),
    ]) == 0


def test_kernel_pipeline_exits_zero(planted_files, tmp_path, capsys):
    paths = planted_files
    common = ["--embeddings", str(paths["embeddings"]), "--model", str(paths["model"])]
    _fit_kernel(paths)
    sim_out = tmp_path / "sim.json"
    assert main(["sim", *common, "--out", str(sim_out), "he", "she", "n0", "n1"]) == 0
    assert main([
        "eval", "professions", *common, "--professions", str(paths["professions"]),
        "--male", str(paths["male"]), "--female", str(paths["female"]),
        "--neighbors", "8", "--out", str(tmp_path / "prof"),
    ]) == 0
    assert main([
        "eval", "simlex", *common, "--pairs", str(paths["simlex"]),
        "--out", str(tmp_path / "simlex"),
    ]) == 0
    assert main([
        "eval", "classify", *common, "--n-biased", "30", "--n-train", "16",
        "--svm-gamma", "2.0", "--out", str(tmp_path / "classify"),
    ]) == 0

    sims = json.loads(sim_out.read_text())
    assert sims["backend"] == "kernel"
    assert all(-1.0 <= p["similarity"] <= 1.0 for p in sims["pairs"])
    assert np.isfinite(json.loads((tmp_path / "prof.json").read_text())["pearson"])
    assert json.loads((tmp_path / "simlex.json").read_text())["scored"] == 10
    classify = json.loads((tmp_path / "classify.json").read_text())
    assert classify["n_train"] == 16 and classify["n_test"] == 14
    assert 0.0 <= classify["test_accuracy"] <= 1.0


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("alphas", lambda v: [row[:-1] for row in v]),
        ("alphas", lambda v: v[0]),
        ("pairs_b", lambda v: v[:-1]),
        ("pairs_a", lambda v: [row + [0.0] for row in v]),
        ("eigenvalues", lambda v: v + [1.0]),
        ("dim", lambda v: v + 1),
        ("k", lambda v: v + 1),
        ("alphas", lambda v: "not numbers"),
        ("pairs_a", None),
        ("alphas", lambda v: [[float("nan")] + row[1:] for row in v]),
        ("pairs_a", lambda v: [[float("nan")] + row[1:] for row in v]),
        ("eigenvalues", lambda v: [float("inf")] * len(v)),
        ("feature_scale", lambda v: float("nan")),
        ("feature_scale", lambda v: float("inf")),
        ("feature_scale", lambda v: 2.0 * v),
        ("gram_scale", lambda v: 0.0),
        ("gram_scale", lambda v: -v),
        ("gram_scale", lambda v: float("inf")),
        ("pair_words", lambda v: [["he"]]),
        ("pair_words", lambda v: 5),
        ("pair_words", lambda v: [["he", 3]]),
        ("pair_words", lambda v: None),
    ],
    ids=[
        "alphas-short-rows", "alphas-1d", "pairs_b-short", "pairs_a-wide",
        "eigenvalues-long", "dim-wrong", "k-wrong", "alphas-text", "pairs_a-missing",
        "alphas-nan", "pairs_a-nan", "eigenvalues-inf", "feature_scale-nan",
        "feature_scale-inf", "feature_scale-disagrees", "gram_scale-zero",
        "gram_scale-negative", "gram_scale-inf", "pair_words-one-word",
        "pair_words-number", "pair_words-non-string", "pair_words-null",
    ],
)
def test_malformed_kernel_model_exits_2(planted_files, tmp_path, capsys, field, corrupt):
    paths = planted_files
    _fit_kernel(paths)
    data = json.loads(paths["model"].read_text())
    if corrupt is None:
        del data[field]
    else:
        data[field] = corrupt(data[field])
    paths["model"].write_text(json.dumps(data))
    code = main([
        "sim", "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "he", "she",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main([
        "eval", "classify", "--embeddings", str(paths["embeddings"]),
        "--model", str(paths["model"]), "--n-biased", "30", "--n-train", "16",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main([
        "apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "--out", str(tmp_path / "out.txt"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("basis", lambda v: v[0]),
        ("basis", lambda v: [row[:-1] for row in v]),
        ("basis", lambda v: [[float("nan")] + row[1:] for row in v]),
        ("basis", lambda v: "not numbers"),
        ("eigenvalues", lambda v: v + [1.0]),
        ("eigenvalues", lambda v: [float("inf")] * len(v)),
        ("dim", lambda v: v + 1),
        ("k", lambda v: v + 1),
        ("basis", None),
        ("eigenvalues", None),
    ],
    ids=[
        "basis-1d", "basis-short-rows", "basis-nan", "basis-text", "eigenvalues-long",
        "eigenvalues-inf", "dim-wrong", "k-wrong", "basis-missing", "eigenvalues-missing",
    ],
)
def test_malformed_linear_model_exits_2(planted_files, capsys, field, corrupt):
    paths = planted_files
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--backend", "linear", "--components", "1", "--out", str(paths["model"]),
    ]) == 0
    data = json.loads(paths["model"].read_text())
    if corrupt is None:
        del data[field]
    else:
        data[field] = corrupt(data[field])
    paths["model"].write_text(json.dumps(data))
    code = main([
        "sim", "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "he", "she",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("count", [0, -2])
def test_weat_permutations_below_one_exit_2(planted_files, capsys, source, count):
    paths = planted_files
    argv = ["eval", "weat", "--embeddings", str(paths["embeddings"]),
            "--config", str(paths["weat"])]
    if source == "flag":
        argv += ["--permutations", str(count)]
    else:
        config = json.loads(paths["weat"].read_text())
        paths["weat"].write_text(json.dumps({**config, "permutations": count}))
    assert main(argv) == 2
    assert "permutation" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_weat_permutations_above_cap_exit_2(planted_files, capsys, monkeypatch, source):
    def never(*args):
        raise AssertionError("the permutation loop must not start")

    monkeypatch.setattr("kerndebias.evaluation.weat_test", never)
    paths = planted_files
    count = 10**300
    argv = ["eval", "weat", "--embeddings", str(paths["embeddings"]),
            "--config", str(paths["weat"])]
    if source == "flag":
        argv += ["--permutations", str(count)]
    else:
        config = json.loads(paths["weat"].read_text())
        paths["weat"].write_text(json.dumps({**config, "permutations": count}))
    assert main(argv) == 2
    assert "permutation count must be at most" in capsys.readouterr().err


def test_weat_explicit_permutations_accepted(planted_files, tmp_path):
    paths = planted_files
    assert main([
        "eval", "weat", "--embeddings", str(paths["embeddings"]),
        "--config", str(paths["weat"]), "--permutations", "1",
        "--out", str(tmp_path / "weat"),
    ]) == 0
    assert json.loads((tmp_path / "weat.json").read_text())["exhaustive"]


def test_weat_seed_flag_overrides_config_seed(planted_files, tmp_path):
    # 9 + 9 targets take the seeded Monte Carlo branch.
    paths = planted_files
    config = json.loads(paths["weat"].read_text())
    targets = {"X": [f"n{i}" for i in range(9)], "Y": [f"n{i}" for i in range(9, 18)]}
    results = {}
    for config_seed, flag in ((1, None), (2, None), (1, 2)):
        paths["weat"].write_text(json.dumps(
            {**config, **targets, "permutations": 2000, "seed": config_seed}
        ))
        out = tmp_path / f"weat-{config_seed}-{flag}"
        argv = ["eval", "weat", "--embeddings", str(paths["embeddings"]),
                "--config", str(paths["weat"]), "--out", str(out)]
        assert main(argv + ([] if flag is None else ["--seed", str(flag)])) == 0
        results[config_seed, flag] = json.loads(out.with_suffix(".json").read_text())
    assert not results[1, None]["exhaustive"]
    assert results[1, 2] == results[2, None]
    assert results[1, 2]["p_value"] != results[1, None]["p_value"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["professions", "--neighbors", "-5"], "neighbor count"),
        (["professions", "--neighbors", "0"], "neighbor count"),
        (["classify", "--n-biased", "-10"], "n_biased"),
        (["classify", "--n-train", "0"], "n_train"),
        (["classify", "--c-reg", "0"], "c_reg"),
        (["classify", "--c-reg", "-1"], "c_reg"),
        (["classify", "--c-reg", "nan"], "c_reg"),
        (["classify", "--c-reg", "inf"], "c_reg"),
        (["classify", "--tol", "-1"], "tol"),
        (["classify", "--tol", "0"], "tol"),
        (["classify", "--tol", "inf"], "tol"),
        (["classify", "--svm-gamma", "0"], "svm_gamma"),
        (["classify", "--svm-gamma", "-1"], "svm_gamma"),
        (["classify", "--svm-gamma", "nan"], "svm_gamma"),
    ],
    ids=[
        "neighbors-negative", "neighbors-zero", "n-biased-negative", "n-train-zero",
        "c-reg-zero", "c-reg-negative", "c-reg-nan", "c-reg-inf", "tol-negative",
        "tol-zero", "tol-inf", "svm-gamma-zero", "svm-gamma-negative", "svm-gamma-nan",
    ],
)
def test_out_of_range_eval_value_exits_2(planted_files, capsys, argv, name):
    paths = planted_files
    extra = {
        "professions": ["--professions", str(paths["professions"]),
                        "--male", str(paths["male"]), "--female", str(paths["female"])],
        "classify": ["--n-biased", "30", "--n-train", "16"],
    }[argv[0]]
    assert main(["eval", argv[0], "--embeddings", str(paths["embeddings"]),
                 *extra, *argv[1:]]) == 2
    assert name in capsys.readouterr().err


def test_classify_without_default_anchors_exits_3(rng, tmp_path, capsys):
    table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
    embeddings = tmp_path / "table.txt"
    embeddings.write_text(write_embedding_text(table, precision=17))
    assert main([
        "eval", "classify", "--embeddings", str(embeddings),
        "--n-biased", "30", "--n-train", "16",
    ]) == 3
    assert "'he'" in capsys.readouterr().err


def _convex(first: str, second: str) -> str:
    return (
        '{"family": "convex_combination", "components": ['
        f'{{"weight": {first}, "spec": {{"family": "linear"}}}}, '
        f'{{"weight": {second}, "spec": {{"family": "cosine"}}}}]}}'
    )


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "rbf", "gamma": "wide"},
        {"family": "convex_combination", "components": [
            {"weight": 0.5, "spec": {"family": "linear"}}, {"weight": 0.5}]},
        {"family": "convex_combination", "components": 5},
        {"family": "polynomial", "gamma": 1.0, "coef0": 1.0, "degree": 2.5},
        {"family": "polynomial", "gamma": 1.0, "coef0": 1.0, "degree": True},
        '{"family": "rbf", "gamma": 1e999}',
        '{"family": "rbf", "gamma": true}',
        '{"family": "sigmoid", "gamma": 0.5, "coef0": NaN}',
        _convex("NaN", "0.5"),
        _convex("true", "0.0"),
    ],
    ids=[
        "gamma-text", "component-without-spec", "components-number", "degree-float",
        "degree-bool", "gamma-inf", "gamma-bool", "coef0-nan", "weight-nan", "weight-bool",
    ],
)
def test_malformed_kernel_spec_exits_2(planted_files, capsys, spec):
    paths = planted_files
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--backend", "kernel", "--kernel", spec if isinstance(spec, str) else json.dumps(spec),
        "--out", str(paths["model"]),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not paths["model"].exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("permutations", "many"), ("seed", None), ("permutations", 2.7),
        ("permutations", True), ("permutations", 1e300), ("seed", 2.0), ("seed", False),
    ],
    ids=[
        "permutations", "seed", "permutations-float", "permutations-bool",
        "permutations-1e300", "seed-float", "seed-bool",
    ],
)
def test_malformed_weat_number_exits_2(planted_files, capsys, field, value):
    paths = planted_files
    config = json.loads(paths["weat"].read_text())
    paths["weat"].write_text(json.dumps({**config, field: value}))
    assert main([
        "eval", "weat", "--embeddings", str(paths["embeddings"]),
        "--config", str(paths["weat"]),
    ]) == 2
    assert repr(field) in capsys.readouterr().err


@pytest.mark.parametrize("target", ["embeddings", "professions"])
def test_non_utf8_input_exits_2(planted_files, capsys, target):
    paths = planted_files
    paths[target].write_bytes(paths[target].read_bytes() + b"caf\xe9 0.5\n")
    assert main([
        "eval", "professions", "--embeddings", str(paths["embeddings"]),
        "--professions", str(paths["professions"]), "--male", str(paths["male"]),
        "--female", str(paths["female"]), "--neighbors", "8",
    ]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_demo_toy_rejects_nonpositive_gamma(tmp_path, capsys, gamma):
    out = tmp_path / "toy.csv"
    assert main(["demo-toy", "--n-points", "20", "--gamma", gamma, "--out", str(out)]) == 2
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


def _expected_preimage(paths, pairs, seed, extra):
    """Embedding text and pre-image block built from the library calls."""
    with open(paths["embeddings"], encoding="utf-8") as handle:
        table = unit_normalize(parse_embedding_text(handle))
    model = kernel_model_from_dict(json.loads(paths["model"].read_text()))
    sample = default_sample(table, pairs, rng_for(seed, "preimage-sample"), extra=extra)
    pmap = fit_preimage_map(model, table, sample)
    matrix = preimage_neutralize_matrix(pmap, table.matrix)
    text = write_embedding_text(EmbeddingTable(words=table.words, matrix=matrix), precision=9)
    return text, json.loads(json.dumps(preimage_to_dict(pmap)))


@pytest.mark.parametrize("source", ["sets", "pair_words"])
def test_kernel_apply_matches_library_preimage(planted_files, tmp_path, source):
    paths = planted_files
    _fit_kernel(paths)
    pair_words = json.loads(paths["model"].read_text())["pair_words"]
    words = json.loads(paths["sets"].read_text())["defining_sets"]
    assert pair_words == words
    index = {w: i for i, w in enumerate(
        line.split()[0] for line in paths["embeddings"].read_text().splitlines()
    )}
    pairs = tuple((index[a], index[b]) for a, b in words)
    out, out_model = tmp_path / "applied.txt", tmp_path / "preimage.json"
    argv = [
        "apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "--seed", "9", "--preimage-sample", "20", "--out", str(out),
        "--out-model", str(out_model),
    ]
    if source == "sets":
        argv += ["--sets", str(paths["sets"])]
    assert main(argv) == 0
    text, block = _expected_preimage(paths, pairs, seed=9, extra=20)
    assert out.read_text() == text
    written = json.loads(out_model.read_text())
    assert written["preimage"] == block
    assert len(written["preimage"]["training_words"]) == 2 * len(pairs) + 20


def _fit_linear(paths) -> None:
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--backend", "linear", "--out", str(paths["model"]),
    ]) == 0


def test_linear_pipeline_exits_zero(planted_files, tmp_path):
    paths = planted_files
    sets = json.loads(paths["sets"].read_text())
    paths["sets"].write_text(json.dumps({**sets, "equality_sets": [["m1", "f1"], ["m2", "f2"]]}))
    weat = json.loads(paths["weat"].read_text())
    paths["weat"].write_text(json.dumps({**weat, "B": ["n6", "n7"]}))
    embeddings = ["--embeddings", str(paths["embeddings"])]
    model = ["--model", str(paths["model"])]
    _fit_linear(paths)
    applied = tmp_path / "applied.txt"
    assert main([
        "apply", *embeddings, *model, "--sets", str(paths["sets"]), "--equalize",
        "--out", str(applied),
    ]) == 0
    rows = applied.read_text().splitlines()
    assert len(rows) == len(paths["embeddings"].read_text().splitlines())
    sim_out = tmp_path / "sim.json"
    assert main(["sim", *embeddings, *model, "--out", str(sim_out), "he", "she", "n0", "n1"]) == 0
    assert json.loads(sim_out.read_text())["backend"] == "linear"
    for tag, extra in (("raw", []), ("linear", model)):
        assert main([
            "eval", "weat", *embeddings, *extra, "--config", str(paths["weat"]),
            "--out", str(tmp_path / f"weat-{tag}"),
        ]) == 0
        assert main([
            "eval", "professions", *embeddings, *extra,
            "--professions", str(paths["professions"]), "--male", str(paths["male"]),
            "--female", str(paths["female"]), "--neighbors", "8",
            "--out", str(tmp_path / f"prof-{tag}"),
        ]) == 0
        for test in ("weat", "prof"):
            assert json.loads((tmp_path / f"{test}-{tag}.json").read_text())["backend"] == tag


def test_eval_csv_columns_named_after_the_metric(planted_files, tmp_path):
    paths = planted_files
    common = ["--embeddings", str(paths["embeddings"])]
    runs = {
        "weat": (["--config", str(paths["weat"])],
                 "test,backend,effect_size,p_value,statistic,"
                 "n_used_X,n_used_Y,n_used_A,n_used_B,exhaustive"),
        "professions": (["--professions", str(paths["professions"]), "--male",
                         str(paths["male"]), "--female", str(paths["female"]),
                         "--neighbors", "8"],
                        "test,backend,pearson,neighbors,pool"),
        "classify": (["--n-biased", "30", "--n-train", "16", "--svm-gamma", "2.0"],
                     "test,backend,n_train,n_test,train_accuracy,test_accuracy,svm_gamma"),
        "simlex": (["--pairs", str(paths["simlex"])], "test,backend,spearman,scored,dropped"),
    }
    for test, (args, header) in runs.items():
        out = tmp_path / test
        assert main(["eval", test, *common, *args, "--out", str(out)]) == 0
        lines = (tmp_path / f"{test}.csv").read_text().splitlines()
        payload = json.loads((tmp_path / f"{test}.json").read_text())
        values = {**payload, **{f"n_used_{k}": v for k, v in payload.pop("n_used", {}).items()}}
        assert lines[0] == header
        assert lines[1] == ",".join(str(values[name]) for name in header.split(","))


def test_linear_weat_on_mirrored_attributes_exits_4(planted_files, capsys):
    """m_i and f_i differ only along the planted direction, so neutralizing
    makes A = {m1, m2} and B = {f1, f2} the same vectors: every association
    score is 0 up to rounding, and no effect size exists."""
    paths = planted_files
    _fit_linear(paths)
    assert main([
        "eval", "weat", "--embeddings", str(paths["embeddings"]),
        "--model", str(paths["model"]), "--config", str(paths["weat"]),
    ]) == 4
    assert "zero spread" in capsys.readouterr().err


def test_demo_toy_writes_csv(tmp_path):
    out = tmp_path / "toy.csv"
    assert main(["demo-toy", "--n-points", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,x_ntr,y_ntr"
    assert len(lines) == 21
    assert all(len(line.split(",")) == 4 for line in lines[1:])


@pytest.mark.parametrize("target", ["model", "weat"])
def test_file_that_is_not_json_exits_2(planted_files, capsys, target):
    paths = planted_files
    paths[target].write_text("{not json")
    argv = ["--embeddings", str(paths["embeddings"])]
    if target == "model":
        argv = ["sim", *argv, "--model", str(paths["model"]), "he", "she"]
    else:
        argv = ["eval", "weat", *argv, "--config", str(paths["weat"])]
    assert main(argv) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_all_oov_defining_sets_exit_3(planted_files, capsys):
    paths = planted_files
    paths["sets"].write_text(json.dumps({"defining_sets": [["absent1", "absent2"]]}))
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--out", str(paths["model"]),
    ]) == 3
    assert "no defining pairs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "backend, extra, components, rank",
    [("linear", [], "2", 1), ("kernel", ["--kernel", "rbf", "--gamma", "0.5"], "9", 8)],
    ids=["linear", "kernel"],
)
def test_components_above_rank_exit_3(planted_files, capsys, backend, extra, components, rank):
    """The planted pairs are reflections along one direction: the linear
    covariance has rank 1, the rbf centered Gram of 8 pairs rank 8."""
    paths = planted_files
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--backend", backend, *extra, "--components", components, "--out", str(paths["model"]),
    ]) == 3
    assert f"rank is {rank}" in capsys.readouterr().err


def test_zero_vector_rejected_only_when_queried(tmp_path, capsys):
    words = ("a", "b", "c", "zero")
    matrix = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.0, 0.0]])
    embeddings = tmp_path / "table.txt"
    embeddings.write_text(write_embedding_text(EmbeddingTable(words=words, matrix=matrix)))
    out = tmp_path / "sim.json"
    argv = ["sim", "--embeddings", str(embeddings), "--no-normalize", "--out", str(out)]
    assert main([*argv, "a", "b", "b", "c"]) == 0
    sims = [p["similarity"] for p in json.loads(out.read_text())["pairs"]]
    assert sims == pytest.approx([0.6, 0.8], abs=1e-12)
    assert main([*argv, "a", "zero"]) == 3
    assert "'zero'" in capsys.readouterr().err
