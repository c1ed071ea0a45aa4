import json

import numpy as np
import pytest

from kerndebias import EmbeddingTable, write_embedding_text
from kerndebias.cli import main
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
    ],
    ids=[
        "alphas-short-rows", "alphas-1d", "pairs_b-short", "pairs_a-wide",
        "eigenvalues-long", "dim-wrong", "k-wrong", "alphas-text", "pairs_a-missing",
    ],
)
def test_malformed_kernel_model_exits_2(planted_files, capsys, field, corrupt):
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


def test_weat_explicit_permutations_accepted(planted_files, tmp_path):
    paths = planted_files
    assert main([
        "eval", "weat", "--embeddings", str(paths["embeddings"]),
        "--config", str(paths["weat"]), "--permutations", "1",
        "--out", str(tmp_path / "weat"),
    ]) == 0
    assert json.loads((tmp_path / "weat.json").read_text())["exhaustive"]


def test_classify_without_default_anchors_exits_3(rng, tmp_path, capsys):
    table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
    embeddings = tmp_path / "table.txt"
    embeddings.write_text(write_embedding_text(table, precision=17))
    assert main([
        "eval", "classify", "--embeddings", str(embeddings),
        "--n-biased", "30", "--n-train", "16",
    ]) == 3
    assert "'he'" in capsys.readouterr().err
