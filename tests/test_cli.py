import errno
import io
import json
import logging
import os
import pkgutil
import shutil
import stat
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from kerndebias import (
    EmbeddingTable,
    parse_embedding_text,
    preimage_neutralize_matrix,
    unit_normalize,
    write_embedding_text,
)
import kerndebias
from kerndebias import cli, configio, toydemo
from kerndebias.cli import main
from kerndebias.configio import model_from_dict
from conftest import planted_bias_table, random_instance
from oracles import primal_neutralize


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


def _earlier_format(data: dict) -> dict:
    """The same model in the earlier file format: alphas of shape (k, 2N)
    over the interleaved rows (a1, b1, a2, b2, ...) and their swapped
    twins, scaled by feature_scale = sqrt(gram_scale / 2)."""
    feature_scale = (data["gram_scale"] / 2.0) ** 0.5
    half = np.array(data["alphas"]) / (2.0 * feature_scale)
    alphas = np.empty((half.shape[0], 2 * half.shape[1]))
    alphas[:, 0::2], alphas[:, 1::2] = half, -half
    return {**data, "alphas": alphas.tolist(), "feature_scale": feature_scale}


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
        (None, _earlier_format),
        ("k", lambda v: str(v)),
        ("discarded_negative", lambda v: 1.9),
        ("gram_scale", lambda v: 0.0),
        ("gram_scale", lambda v: -v),
        ("gram_scale", lambda v: float("inf")),
        ("gram_scale", lambda v: str(v)),
        ("gram_scale", lambda v: True),
        ("type", None),
        ("type", lambda v: "quadratic"),
        ("type", lambda v: 5),
        ("type", lambda v: None),
        ("kernel", lambda v: {**v, "degree": 3}),
        ("kernel", lambda v: {**v, "gammma": 0.5}),
    ],
    ids=[
        "alphas-short-rows", "alphas-1d", "pairs_b-short", "pairs_a-wide",
        "eigenvalues-long", "dim-wrong", "k-wrong", "alphas-text", "pairs_a-missing",
        "alphas-nan", "pairs_a-nan", "eigenvalues-inf", "earlier-format",
        "k-text", "discarded_negative-float", "gram_scale-zero",
        "gram_scale-negative", "gram_scale-inf", "gram_scale-text", "gram_scale-bool",
        "type-missing", "type-quadratic", "type-number", "type-null",
        "kernel-stray-degree", "kernel-unknown-key",
    ],
)
def test_malformed_kernel_model_exits_2(planted_files, tmp_path, capsys, field, corrupt):
    paths = planted_files
    _fit_kernel(paths)
    data = json.loads(paths["model"].read_text())
    if field is None:
        data = corrupt(data)
    elif corrupt is None:
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
    "value", [[["he"]], 5, [["he", 3]], None],
    ids=["pair_words-one-word", "pair_words-number", "pair_words-non-string",
         "pair_words-null"],
)
def test_stale_pair_words_is_ignored(planted_files, tmp_path, value):
    """Kernel files from before the readout pre-image carry pair_words;
    nothing reads it now, so any value of it leaves every output as is."""
    paths = planted_files
    _fit_kernel(paths)
    outputs = {}
    for tag in ("clean", "stale"):
        if tag == "stale":
            data = json.loads(paths["model"].read_text())
            paths["model"].write_text(json.dumps({**data, "pair_words": value}))
        common = ["--embeddings", str(paths["embeddings"]), "--model", str(paths["model"])]
        assert main(["sim", *common, "--out", str(tmp_path / f"{tag}.json"), "he", "n0"]) == 0
        assert main(["apply", *common, "--out", str(tmp_path / f"{tag}.txt")]) == 0
        outputs[tag] = [(tmp_path / f"{tag}.{ext}").read_text() for ext in ("json", "txt")]
    assert outputs["stale"] == outputs["clean"]


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
        ("k", lambda v: float(v)),
        ("k", lambda v: True),
        ("dim", lambda v: str(v)),
        ("basis", lambda v: [[1.5 * x for x in row] for row in v]),
    ],
    ids=[
        "basis-1d", "basis-short-rows", "basis-nan", "basis-text", "eigenvalues-long",
        "eigenvalues-inf", "dim-wrong", "k-wrong", "basis-missing", "eigenvalues-missing",
        "k-float", "k-bool", "dim-text", "basis-scaled",
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
    # 17 + 17 targets, above the exact limit, take the seeded Monte Carlo
    # branch.
    paths = planted_files
    config = json.loads(paths["weat"].read_text())
    targets = {"X": [f"n{i}" for i in range(17)], "Y": [f"n{i}" for i in range(17, 34)]}
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


@pytest.mark.parametrize("stage", ["classify", "demo-toy", "weat-exact", "weat-monte-carlo"])
def test_stage_leaves_numpy_random_unloaded(planted_files, tmp_path, stage):
    # Every draw comes from kerndebias.seeding, which is integer numpy, so
    # no stage imports numpy.random: not the seeded classifier split, the
    # toy points or the Monte Carlo WEAT (17 + 17 targets), nor the exact
    # WEAT (16 + 16, the most it takes), which draws nothing.
    paths = planted_files
    out = tmp_path / "out"
    if stage == "classify":
        argv = ["eval", "classify", "--embeddings", str(paths["embeddings"]),
                "--n-biased", "40", "--n-train", "20", "--out", str(out)]
    elif stage == "demo-toy":
        argv = ["demo-toy", "--n-points", "20", "--out", str(out)]
    else:
        half = 16 if stage == "weat-exact" else 17
        config = json.loads(paths["weat"].read_text())
        paths["weat"].write_text(json.dumps({
            **config, "X": [f"n{i}" for i in range(half)],
            "Y": [f"n{i}" for i in range(half, 2 * half)], "permutations": 2000,
        }))
        argv = ["eval", "weat", "--embeddings", str(paths["embeddings"]),
                "--config", str(paths["weat"]), "--out", str(out)]
    code = textwrap.dedent(f"""
        import sys
        import numpy
        eager = "numpy.random" in sys.modules
        from kerndebias.cli import main
        code = main({argv!r})
        print(eager, code, "numpy.random" in sys.modules)
    """)
    # The child imports the same kerndebias as this process.
    package_root = os.path.dirname(os.path.dirname(kerndebias.__file__))
    eager, exit_code, loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=60, env={**os.environ, "PYTHONPATH": package_root},
    ).stdout.split()
    assert exit_code == "0"
    if stage.startswith("weat"):
        exhaustive = json.loads(out.with_suffix(".json").read_text())["exhaustive"]
        assert exhaustive == (stage == "weat-exact")
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["professions", "--neighbors", "-5"], "neighbor count"),
        (["professions", "--neighbors", "0"], "neighbor count"),
        (["classify", "--n-biased", "-10"], "n_biased"),
        (["classify", "--n-biased", "1"], "n_biased must be at least 4"),
        (["classify", "--n-biased", "2"], "n_biased must be at least 4, got 2"),
        (["classify", "--n-biased", "3"], "n_biased must be at least 4, got 3"),
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
        "neighbors-negative", "neighbors-zero", "n-biased-negative", "n-biased-one",
        "n-biased-two", "n-biased-three", "n-train-zero",
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


def _exit_code(argv: list[str]) -> int:
    """main's return value, or the status argparse exits with on a bad flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# --ridge-lambda and --preimage-sample are not apply flags; argparse exits 2 on them.
@pytest.mark.parametrize(
    "argv, name",
    [
        (["--precision", "0"], "precision must be in [1, 17]"),
        (["--precision", "18"], "precision must be in [1, 17]"),
        (["--ridge-lambda", "-1"], "unrecognized arguments: --ridge-lambda"),
        (["--ridge-lambda", "nan"], "unrecognized arguments: --ridge-lambda"),
        (["--ridge-lambda", "inf"], "unrecognized arguments: --ridge-lambda"),
        (["--preimage-sample", "-5"], "unrecognized arguments: --preimage-sample"),
    ],
    ids=[
        "precision-zero", "precision-18", "ridge-lambda-negative", "ridge-lambda-nan",
        "ridge-lambda-inf", "preimage-sample-negative",
    ],
)
def test_out_of_range_apply_value_exits_2(planted_files, tmp_path, capsys, argv, name):
    paths = planted_files
    _fit_kernel(paths)
    out, out_model = tmp_path / "out.txt", tmp_path / "out-model.json"
    assert _exit_code([
        "apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "--out", str(out), "--out-model", str(out_model), *argv,
    ]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists() and not out_model.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--backend", "linear", "--components", "0"], "at least 1"),
        (["--backend", "linear", "--components", "-1"], "at least 1"),
        (["--backend", "kernel", "--kernel", "rbf", "--components", "0"], "at least 1"),
        (["--backend", "kernel", "--kernel", "rbf", "--components", "-1"], "at least 1"),
        (["--backend", "linear", "--kernel", "rbf"], "--backend kernel"),
        (["--backend", "linear", "--gamma", "5"], "--backend kernel"),
        (["--backend", "linear", "--kernel", "rbf", "--gamma", "5"], "--backend kernel"),
        (["--backend", "linear", "--degree", "5"], "--degree needs --backend kernel"),
        (["--backend", "linear", "--coef0", "3"], "--coef0 needs --backend kernel"),
        (["--backend", "kernel", "--kernel", "rbf", "--degree", "3"],
         "--degree does not apply to the rbf kernel"),
        (["--backend", "kernel", "--kernel", "rbf", "--coef0", "1"],
         "--coef0 does not apply to the rbf kernel"),
        (["--backend", "kernel", "--kernel", "cosine", "--gamma", "1"],
         "--gamma does not apply to the cosine kernel"),
        (["--backend", "kernel", "--kernel", "linear", "--degree", "2"],
         "--degree does not apply to the linear kernel"),
        (["--backend", "kernel", "--kernel", '{"family": "rbf", "gamma": 0.5}',
          "--gamma", "3"], "--gamma does not apply to a JSON --kernel spec"),
        (["--backend", "kernel", "--kernel",
          '{"family": "polynomial", "gamma": 1, "coef0": 1, "degree": 2}', "--degree", "3"],
         "--degree does not apply to a JSON --kernel spec"),
    ],
    ids=[
        "linear-components-zero", "linear-components-negative", "kernel-components-zero",
        "kernel-components-negative", "linear-kernel", "linear-gamma", "linear-kernel-gamma",
        "linear-degree", "linear-coef0", "rbf-degree", "rbf-coef0", "cosine-gamma",
        "kernel-linear-degree", "json-gamma", "json-degree",
    ],
)
def test_out_of_range_fit_value_exits_2(planted_files, capsys, argv, message):
    paths = planted_files
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        *argv, "--out", str(paths["model"]),
    ]) == 2
    assert message in capsys.readouterr().err
    assert not paths["model"].exists()


@pytest.mark.parametrize(
    "flags, spec",
    [
        ([], {"family": "polynomial", "gamma": 0.125, "coef0": 1.0, "degree": 2}),
        (["--gamma", "0.5", "--coef0", "0", "--degree", "3"],
         {"family": "polynomial", "gamma": 0.5, "coef0": 0.0, "degree": 3}),
    ],
    ids=["defaults", "given"],
)
def test_fit_kernel_flags_fill_the_family_parameters(planted_files, flags, spec):
    paths = planted_files
    assert main([
        "fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
        "--backend", "kernel", "--kernel", "polynomial", *flags, "--out", str(paths["model"]),
    ]) == 0
    assert json.loads(paths["model"].read_text())["kernel"] == spec


@pytest.mark.parametrize(
    "argv, code",
    [
        (["fit", "--backend", "kernel", "--kernel", "rbf", "--gamma", "1e308"], 0),
        (["fit", "--backend", "kernel", "--kernel", "laplace", "--gamma", "1e308"], 0),
        (["fit", "--backend", "kernel", "--kernel", "polynomial", "--gamma", "1e200",
          "--degree", "3"], 4),
        (["fit", "--backend", "kernel", "--kernel", "sigmoid", "--gamma", "1e308",
          "--coef0", "1e308"], 3),
        (["eval", "classify", "--n-biased", "30", "--n-train", "16", "--svm-gamma", "1e308"], 0),
    ],
    ids=["rbf", "laplace", "polynomial", "sigmoid", "classify"],
)
def test_extreme_kernel_parameters_exit_with_their_codes(planted_files, argv, code):
    # rbf and laplace saturate to 0 and sigmoid to +-1; a polynomial that
    # overflows reaches the eigensolver's non-finite check (4), and the
    # saturated sigmoid leaves a rank-0 centered Gram (3).  An overflow
    # warning, made an error here as CI runs fit, is never given.
    paths = planted_files
    sets = ["--sets", str(paths["sets"])] if argv[0] == "fit" else []
    proc = _python(
        "-W", "error::RuntimeWarning", "-m", "kerndebias.cli", *argv,
        "--embeddings", str(paths["embeddings"]), *sets, "--out", str(paths["model"]),
    )
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    assert "Traceback" not in err and "Warning" not in err
    assert (code == 0) == (err == "")


def test_word_list_json_array_equals_the_text_form(tmp_path):
    words = ["nurse", "café", "engineer"]
    text = tmp_path / "words.txt"
    text.write_text("# professions\n" + "\n".join(words) + "\n\n", encoding="utf-8")
    array = tmp_path / "words.json"
    array.write_text(json.dumps(words), encoding="utf-8")
    assert configio.load_word_list(array) == configio.load_word_list(text) == words


def test_word_list_json_array_of_a_non_string_exits_2(planted_files, capsys):
    paths = planted_files
    paths["male"].write_text(json.dumps(["m1", 2, "m3"]))
    assert main([
        "eval", "professions", "--embeddings", str(paths["embeddings"]),
        "--professions", str(paths["professions"]), "--male", str(paths["male"]),
        "--female", str(paths["female"]),
    ]) == 2
    assert "expected an array of strings" in capsys.readouterr().err


def test_classify_without_default_anchors_exits_3(rng, tmp_path, capsys):
    table, _, _ = planted_bias_table(rng, n_pairs=6, n_neutral=40, dim=5)
    embeddings = tmp_path / "table.txt"
    embeddings.write_text(write_embedding_text(table, precision=17))
    assert main([
        "eval", "classify", "--embeddings", str(embeddings),
        "--n-biased", "30", "--n-train", "16",
    ]) == 3
    assert "'he'" in capsys.readouterr().err


def test_one_class_training_draw_exits_3(planted_files, capsys):
    paths = planted_files
    assert main([
        "eval", "classify", "--embeddings", str(paths["embeddings"]),
        "--n-biased", "4", "--n-train", "1",
    ]) == 3
    err = capsys.readouterr().err
    assert "all of one class" in err and "--n-train" in err and "--n-biased" in err


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
        '{"family": "rbf", "gamma": 0.5, "degree": 3}',
        '{"family": "linear", "gamma": 0.5}',
        '{"family": "linear", "gammma": 0.5}',
    ],
    ids=[
        "gamma-text", "component-without-spec", "components-number", "degree-float",
        "degree-bool", "gamma-inf", "gamma-bool", "coef0-nan", "weight-nan", "weight-bool",
        "rbf-stray-degree", "linear-stray-gamma", "unknown-key",
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


@pytest.mark.parametrize("score", ["nan", "inf"])
def test_non_finite_simlex_score_exits_2(planted_files, capsys, score):
    paths = planted_files
    lines = paths["simlex"].read_text().splitlines()
    lines[3] = "\t".join(lines[3].split("\t")[:2] + [score])
    paths["simlex"].write_text("\n".join(lines) + "\n")
    assert main([
        "eval", "simlex", "--embeddings", str(paths["embeddings"]),
        "--pairs", str(paths["simlex"]),
    ]) == 2
    assert f"simlex.tsv:4: score '{score}' is not finite" in capsys.readouterr().err


def test_simlex_header_may_follow_blank_lines(planted_files, tmp_path, capsys):
    paths = planted_files
    text = paths["simlex"].read_text()
    outputs = []
    for label, content in (("plain", text), ("blank", "\n  \n" + text)):
        paths["simlex"].write_text(content)
        assert main([
            "eval", "simlex", "--embeddings", str(paths["embeddings"]),
            "--pairs", str(paths["simlex"]), "--out", str(tmp_path / label),
        ]) == 0
        outputs.append((tmp_path / f"{label}.json").read_text())
    assert outputs[0] == outputs[1]
    # Only the first non-blank line may be a header.
    paths["simlex"].write_text("\n" + text.replace("\n", "\nword1\tword2\tscore\n", 1))
    assert main([
        "eval", "simlex", "--embeddings", str(paths["embeddings"]),
        "--pairs", str(paths["simlex"]),
    ]) == 2
    assert "simlex.tsv:3: bad score 'score'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, seed_help",
    [
        (["fit"], "ignored: this stage draws no random numbers"),
        (["apply"], "ignored: this stage draws no random numbers"),
        (["sim"], "ignored: this stage draws no random numbers"),
        (["eval", "professions"], "ignored: this stage draws no random numbers"),
        (["eval", "simlex"], "ignored: this stage draws no random numbers"),
        (["eval", "weat"], "Monte Carlo p-value seed, used only above 32 target words "
                           "(default: the config's seed)"),
        (["eval", "classify"], "run seed (default: 42)"),
        (["demo-toy"], "run seed (default: 42)"),
    ],
    ids=["fit", "apply", "sim", "professions", "simlex", "weat", "classify", "demo-toy"],
)
def test_seed_help_says_what_the_stage_does_with_it(capsys, command, seed_help):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert f"--seed SEED {seed_help}" in " ".join(capsys.readouterr().out.split())


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


@pytest.mark.parametrize("source", ["sets", "pair_words"])
def test_kernel_apply_matches_library_preimage(planted_files, tmp_path, source):
    """rbf apply writes preimage_neutralize_matrix at precision 9: with
    --sets, and from a file that still carries the pair_words and preimage
    entries of earlier files, which apply ignores."""
    paths = planted_files
    _fit_kernel(paths)
    data = json.loads(paths["model"].read_text())
    assert "pair_words" not in data
    out = tmp_path / "applied.txt"
    argv = [
        "apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "--out", str(out),
    ]
    if source == "sets":
        argv += ["--sets", str(paths["sets"])]
    else:
        pair_words = json.loads(paths["sets"].read_text())["defining_sets"]
        paths["model"].write_text(json.dumps(
            {**data, "pair_words": pair_words, "preimage": {"ridge_lambda": 1e-6}}
        ))
    assert main(argv) == 0
    with open(paths["embeddings"], encoding="utf-8") as handle:
        table = unit_normalize(parse_embedding_text(handle))
    matrix = preimage_neutralize_matrix(model_from_dict(data), table.matrix)
    expected = EmbeddingTable(words=table.words, matrix=matrix)
    assert out.read_text() == write_embedding_text(expected, precision=9)


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


def _eval_args(paths) -> dict:
    """Each benchmark's own flags over the planted files."""
    return {
        "weat": ["--config", str(paths["weat"])],
        "professions": ["--professions", str(paths["professions"]), "--male", str(paths["male"]),
                        "--female", str(paths["female"]), "--neighbors", "8"],
        "classify": ["--n-biased", "30", "--n-train", "16", "--svm-gamma", "2.0"],
        "simlex": ["--pairs", str(paths["simlex"])],
    }


@pytest.mark.parametrize("test", ["weat", "professions", "classify", "simlex"])
def test_eval_out_dash_writes_json_to_stdout(planted_files, tmp_path, capsys, monkeypatch,
                                             test):
    paths = planted_files
    argv = ["eval", test, "--embeddings", str(paths["embeddings"]), *_eval_args(paths)[test]]
    assert main([*argv, "--out", str(tmp_path / "result")]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out == (tmp_path / "result.json").read_text()
    assert not (tmp_path / "-.json").exists()
    assert not (tmp_path / "-.csv").exists()


@pytest.mark.parametrize("stage", ["sim", "apply", "weat", "professions", "classify", "simlex"])
def test_model_dimension_mismatch_exits_3(planted_files, rng, tmp_path, capsys, stage):
    """Every stage that loads a model checks it against the table first."""
    paths = planted_files
    wide, sets = random_instance(rng, n_words=20, dim=12, n_pairs=4)
    narrow, _ = random_instance(rng, n_words=20, dim=7, n_pairs=4)
    (tmp_path / "wide.txt").write_text(write_embedding_text(wide, precision=17))
    (tmp_path / "narrow.txt").write_text(write_embedding_text(narrow, precision=17))
    (tmp_path / "wide-sets.json").write_text(json.dumps(
        {"defining_sets": [[wide.words[a], wide.words[b]] for a, b in sets.pairs]}
    ))
    model = str(tmp_path / "wide-model.json")
    assert main(["fit", "--embeddings", str(tmp_path / "wide.txt"),
                 "--sets", str(tmp_path / "wide-sets.json"), "--out", model]) == 0
    capsys.readouterr()
    common = ["--embeddings", str(tmp_path / "narrow.txt"), "--model", model]
    argv = {
        "sim": ["sim", *common, *narrow.words[:2]],
        "apply": ["apply", *common, "--out", str(tmp_path / "out.txt")],
        **{test: ["eval", test, *common, *args] for test, args in _eval_args(paths).items()},
    }[stage]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: model dimension 12 != table dimension 7\n"


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


@pytest.fixture
def generic_files(rng, tmp_path):
    """Random table whose defining pairs are not mirror images, with sets."""
    table, sets = random_instance(rng, n_words=40, dim=9, n_pairs=6)
    paths = {
        "embeddings": tmp_path / "generic.txt",
        "sets": tmp_path / "generic-sets.json",
        "linear": tmp_path / "linear.json",
        "kernel-linear": tmp_path / "kernel-linear.json",
        "rbf": tmp_path / "rbf.json",
    }
    paths["embeddings"].write_text(write_embedding_text(table, precision=17))
    pairs = [[table.words[a], table.words[b]] for a, b in sets.pairs]
    equality = [["w20", "w21"], ["w22", "w23", "w24"]]
    paths["sets"].write_text(json.dumps({"defining_sets": pairs, "equality_sets": equality}))
    fit = ["fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
           "--components", "2"]
    for name, backend in (("linear", ["--backend", "linear"]),
                          ("kernel-linear", ["--backend", "kernel", "--kernel", "linear"]),
                          ("rbf", ["--backend", "kernel", "--kernel", "rbf"])):
        assert main([*fit, *backend, "--out", str(paths[name])]) == 0
    return paths


def _apply(paths, model, out, *extra) -> int:
    return _exit_code([
        "apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths[model]),
        "--precision", "17", "--out", str(out), *extra,
    ])


def _read_table(path) -> EmbeddingTable:
    with open(path, encoding="utf-8") as handle:
        return parse_embedding_text(handle)


def test_linear_kernel_apply_matches_linear_apply(generic_files, tmp_path):
    paths = generic_files
    for model in ("linear", "kernel-linear"):
        assert _apply(paths, model, tmp_path / f"{model}.txt") == 0
    linear = _read_table(tmp_path / "linear.txt")
    kernel = _read_table(tmp_path / "kernel-linear.txt")
    assert kernel.words == linear.words
    assert np.max(np.abs(kernel.matrix - linear.matrix)) <= 1e-12
    # The "kernel" file reports the backend after its kernel family.
    for model in ("linear", "kernel-linear"):
        out = tmp_path / f"{model}-sim.json"
        assert main(["sim", "--embeddings", str(paths["embeddings"]), "--model",
                     str(paths[model]), "--out", str(out), "w0", "w1"]) == 0
        assert json.loads(out.read_text())["backend"] == "linear"


def test_linear_file_apply_is_primal_projection(generic_files, tmp_path):
    paths = generic_files
    out = tmp_path / "applied.txt"
    assert _apply(paths, "linear", out) == 0
    table = unit_normalize(_read_table(paths["embeddings"]))
    basis = np.array(json.loads(paths["linear"].read_text())["basis"])
    expected = EmbeddingTable(words=table.words, matrix=primal_neutralize(basis, table.matrix))
    assert out.read_text() == write_embedding_text(expected, precision=17)


@pytest.mark.parametrize("precision", ["1", "9", "17"])
@pytest.mark.parametrize("model", ["linear", "rbf"])
def test_apply_to_stdout_equals_apply_to_a_file(generic_files, tmp_path, capsys, model,
                                                precision):
    paths = generic_files
    out = tmp_path / "out.txt"
    assert _apply(paths, model, out, "--precision", precision) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert _apply(paths, model, "-", "--precision", precision) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_fit_to_stdout_equals_fit_to_a_file(generic_files, tmp_path, capsys, monkeypatch):
    paths = generic_files
    monkeypatch.chdir(tmp_path)
    fit = ["fit", "--embeddings", str(paths["embeddings"]), "--sets", str(paths["sets"]),
           "--components", "2", "--backend", "kernel", "--kernel", "rbf"]
    assert main([*fit, "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == paths["rbf"].read_bytes()
    assert captured.err.startswith("fitted kernel model: 6 pairs")
    assert captured.err.endswith("wrote -\n")
    assert not (tmp_path / "-").exists()


def test_apply_out_model_to_stdout(generic_files, tmp_path, capsys, monkeypatch):
    paths = generic_files
    monkeypatch.chdir(tmp_path)
    out, out_model = tmp_path / "out.txt", tmp_path / "out-model.json"
    assert _apply(paths, "rbf", out, "--out-model", str(out_model)) == 0
    capsys.readouterr()
    table = out.read_bytes()
    assert _apply(paths, "rbf", out, "--out-model", "-") == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == out_model.read_bytes()
    assert captured.err == f"wrote {out}\n"
    assert out.read_bytes() == table
    assert not (tmp_path / "-").exists()


def test_apply_out_and_out_model_both_stdout_exit_2(generic_files, tmp_path, capsys,
                                                    monkeypatch):
    paths = generic_files
    monkeypatch.chdir(tmp_path)
    assert _apply(paths, "rbf", "-", "--out-model", "-") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out and --out-model cannot both be - (stdout)\n"
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_apply_out_and_out_model_one_file_exit_2(generic_files, tmp_path, capsys, link):
    paths = generic_files
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier table\n")
    out_model = out
    if link:
        out_model = tmp_path / "link.json"
        out_model.symlink_to(out)
    before = sorted(tmp_path.iterdir())
    assert _apply(paths, "rbf", out, "--out-model", str(out_model)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out and --out-model are the same file: {out_model}\n"
    assert out.read_bytes() == b"earlier table\n"
    assert sorted(tmp_path.iterdir()) == before


def test_failed_out_model_write_leaves_earlier_out_unchanged(generic_files, tmp_path, capsys):
    paths = generic_files
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier table\n")
    before = sorted(tmp_path.iterdir())
    out_model = tmp_path / "missing" / "m.json"
    assert _apply(paths, "rbf", out, "--out-model", str(out_model)) == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOENT}]")
    assert out.read_bytes() == b"earlier table\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", ["precision-zero", "non-finite"])
def test_refused_apply_leaves_earlier_outputs_unchanged(generic_files, tmp_path, capsys, case):
    paths = generic_files
    out, out_model = tmp_path / "out.txt", tmp_path / "out-model.json"
    out.write_bytes(b"earlier table\n")
    out_model.write_bytes(b"earlier model\n")
    extra, message = ["--precision", "0"], "precision must be in [1, 17], got 0"
    if case == "non-finite":
        # beta(x) overflows on a row this large along the first direction.
        basis = np.array(json.loads(paths["linear"].read_text())["basis"])
        huge = tmp_path / "huge.txt"
        row = 1.7e308 * np.sign(basis[0])
        huge.write_text("big " + " ".join(repr(float(v)) for v in row) + "\n")
        extra = ["--embeddings", str(huge), "--no-normalize"]
        message = "embedding matrix contains non-finite values"
    with np.errstate(over="ignore", invalid="ignore"):
        code = _apply(paths, "linear", out, "--out-model", str(out_model), *extra)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert out.read_bytes() == b"earlier table\n"
    assert out_model.read_bytes() == b"earlier model\n"


class _FullStdout:
    """A stdout, text and binary, whose every write fails as on a full disk."""

    def __init__(self):
        self.buffer = self

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


@pytest.mark.parametrize("stage", ["apply", "sim"])
def test_stdout_write_error_exits_2(generic_files, capsys, monkeypatch, stage):
    paths = generic_files
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    if stage == "apply":
        code = _apply(paths, "rbf", "-")
    else:
        code = main(["sim", "--embeddings", str(paths["embeddings"]), "w0", "w1"])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def _exec_after(setup: str, argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m kerndebias.cli argv`, run by a child process that first
    runs setup, a statement on its own file descriptors, then execs it."""
    argv = [sys.executable, "-m", "kerndebias.cli", *argv]
    return _python("-c", f"import os; {setup}; os.execv({sys.executable!r}, {argv!r})")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_model_to_full_stdout_leaves_the_table_file(generic_files, tmp_path):
    paths = generic_files
    out = tmp_path / "t.txt"
    out.write_bytes(b"earlier table\n")
    before = sorted(tmp_path.iterdir())
    proc = _exec_after(
        "os.dup2(os.open('/dev/full', os.O_WRONLY), 1)",
        ["apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths["rbf"]),
         "--out", str(out), "--out-model", "-"],
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: [Errno {errno.ENOSPC}]".encode())
    assert out.read_bytes() == b"earlier table\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("flag", ["--out", "--out-model"])
def test_full_device_exits_2(generic_files, tmp_path, capsys, flag):
    paths = generic_files
    if flag == "--out":
        code = _apply(paths, "rbf", "/dev/full")
    else:
        code = _apply(paths, "rbf", tmp_path / "out.txt", "--out-model", "/dev/full")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOSPC}]")


@pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "no space"), KeyboardInterrupt()])
def test_failed_table_write_leaves_earlier_out_whole(generic_files, tmp_path, capsys,
                                                     monkeypatch, failure):
    paths = generic_files
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier table\n")
    before = sorted(tmp_path.iterdir())

    def failing_blocks(words, matrix, precision):
        yield b"first block\n"
        raise failure

    monkeypatch.setattr(cli, "iter_embedding_text", failing_blocks)
    if isinstance(failure, OSError):
        assert _apply(paths, "rbf", out) == 2
        assert capsys.readouterr().err == "error: [Errno 28] no space\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            _apply(paths, "rbf", out)
    assert out.read_bytes() == b"earlier table\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("earlier", [True, False], ids=["earlier-model", "no-model"])
@pytest.mark.parametrize("failure", ["full-device", "failing-blocks"])
def test_failed_table_write_leaves_out_model_unwritten(generic_files, tmp_path, capsys,
                                                       monkeypatch, failure, earlier):
    paths = generic_files
    out, out_model = tmp_path / "out.txt", tmp_path / "out-model.json"
    if earlier:
        out_model.write_bytes(b"earlier model\n")
    before = sorted(tmp_path.iterdir())
    if failure == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs the /dev/full device")
        out = "/dev/full"
    else:
        def failing_blocks(words, matrix, precision):
            yield b"first block\n"
            raise OSError(errno.ENOSPC, "no space")

        monkeypatch.setattr(cli, "iter_embedding_text", failing_blocks)
    assert _apply(paths, "rbf", out, "--out-model", str(out_model)) == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOSPC}]")
    assert sorted(tmp_path.iterdir()) == before
    if earlier:
        assert out_model.read_bytes() == b"earlier model\n"


@pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's RLIMIT_FSIZE")
@pytest.mark.parametrize("stage", ["fit", "sim", "eval"])
def test_failed_file_write_leaves_earlier_output_whole(generic_files, tmp_path, capsys, stage):
    """A write that fails part way (the file-size limit, as on a full disk)
    leaves the earlier file whole: every output file goes to a temporary
    file that is renamed into place."""
    import resource

    paths = generic_files
    common = ["--embeddings", str(paths["embeddings"])]
    earlier = tmp_path / ("model.json" if stage != "eval" else "result.json")
    earlier.write_bytes(b"earlier output\n" * 64)
    argv = {
        "fit": ["fit", *common, "--sets", str(paths["sets"]), "--out", str(earlier)],
        "sim": ["sim", *common, "--out", str(earlier), "w0", "w1"],
        "eval": ["eval", "simlex", *common, "--pairs", str(tmp_path / "pairs.tsv"),
                 "--out", str(tmp_path / "result")],
    }[stage]
    (tmp_path / "pairs.tsv").write_text("w0\tw1\t1.0\nw2\tw3\t2.0\nw4\tw5\t3.0\n")
    main(argv)  # the table's first parse and cache entry, outside the limit
    earlier.write_bytes(b"earlier output\n" * 64)
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard))
    try:
        code = main(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EFBIG}]")
    assert earlier.read_bytes() == b"earlier output\n" * 64
    assert sorted(tmp_path.iterdir()) == before


def test_table_write_keeps_mode_and_writes_through_links(generic_files, tmp_path, capsys):
    paths = generic_files
    target = tmp_path / "target.txt"
    target.write_bytes(b"earlier table\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert _apply(paths, "rbf", link) == 0
    assert capsys.readouterr().out == f"wrote {link}\n"
    assert link.is_symlink()
    assert target.stat().st_mode & 0o777 == 0o640
    assert _apply(paths, "rbf", tmp_path / "direct.txt") == 0
    assert target.read_bytes() == (tmp_path / "direct.txt").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_table_write_to_a_pipe_goes_in_place(generic_files, tmp_path, capsys):
    paths = generic_files
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    before = set(tmp_path.iterdir())
    # Held open at both ends, so no open of the pipe blocks, and the reader
    # sees the end of the file once this is closed, whatever apply did.
    held = os.open(pipe, os.O_RDWR)
    received = []
    with open(pipe, "rb") as source:
        reader = threading.Thread(target=lambda: received.append(source.read()))
        reader.start()
        try:
            assert _apply(paths, "rbf", pipe) == 0
        finally:
            os.close(held)
            reader.join()
    assert _apply(paths, "rbf", tmp_path / "direct.txt") == 0
    assert received == [(tmp_path / "direct.txt").read_bytes()]
    assert set(tmp_path.iterdir()) == before | {tmp_path / "direct.txt"}
    assert stat.S_ISFIFO(pipe.lstat().st_mode)


@pytest.mark.parametrize("model", ["linear", "kernel-linear", "rbf"])
def test_out_model_written_without_ridge_block(generic_files, tmp_path, model):
    paths = generic_files
    data = json.loads(paths[model].read_text())
    # A block left by an earlier apply names a ridge map that apply no longer fits.
    paths[model].write_text(json.dumps({**data, "preimage": {"ridge_lambda": 1.0}}))
    out_model = tmp_path / "out-model.json"
    assert _apply(paths, model, tmp_path / "out.txt", "--out-model", str(out_model)) == 0
    assert json.loads(out_model.read_text()) == data


@pytest.mark.parametrize("model", ["linear", "kernel-linear"])
@pytest.mark.parametrize("flag", [["--ridge-lambda", "5"], ["--preimage-sample", "3"]],
                         ids=["ridge-lambda", "preimage-sample"])
def test_ridge_flags_with_linear_kernel_model_exit_2(generic_files, tmp_path, capsys,
                                                     model, flag):
    paths = generic_files
    assert _apply(paths, model, tmp_path / "out.txt", *flag) == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "sets, code, message",
    [("missing", 2, "No such file"), ("not-json", 2, "invalid JSON"),
     ("no-table-word", 3, "no defining pairs")],
)
@pytest.mark.parametrize("model", ["linear", "kernel-linear", "rbf"])
def test_apply_reads_sets_for_every_model(generic_files, tmp_path, capsys, model, sets,
                                          code, message):
    paths = generic_files
    path = tmp_path / "sets.json"
    if sets == "not-json":
        path.write_text("{not json")
    elif sets == "no-table-word":
        path.write_text(json.dumps({"defining_sets": [["absent1", "absent2"]]}))
    assert _apply(paths, model, tmp_path / "out.txt", "--sets", str(path)) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_equalize_accepts_any_linear_kernel_model(generic_files, tmp_path, capsys):
    paths = generic_files
    equalize = ["--sets", str(paths["sets"]), "--equalize"]
    for model in ("linear", "kernel-linear"):
        assert _apply(paths, model, tmp_path / f"{model}.txt", *equalize) == 0
    linear = _read_table(tmp_path / "linear.txt")
    kernel = _read_table(tmp_path / "kernel-linear.txt")
    assert np.max(np.abs(kernel.matrix - linear.matrix)) <= 1e-12
    # Equalized members are back at unit norm; neutralized words fall short.
    rows = [linear.row_index(w) for w in ("w20", "w21", "w22", "w23", "w24")]
    np.testing.assert_allclose(np.linalg.norm(linear.matrix[rows], axis=1), 1.0, atol=1e-12)
    capsys.readouterr()
    assert _apply(paths, "rbf", tmp_path / "rbf.txt", *equalize) == 2
    assert "linear-kernel model" in capsys.readouterr().err
    assert not (tmp_path / "rbf.txt").exists()


def test_demo_toy_writes_csv(tmp_path):
    out = tmp_path / "toy.csv"
    assert main(["demo-toy", "--n-points", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,x_ntr,y_ntr"
    assert len(lines) == 21
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_demo_toy_rounds_an_odd_point_count_down(tmp_path):
    out = tmp_path / "toy.csv"
    assert main(["demo-toy", "--n-points", "11", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 10


@pytest.mark.parametrize("n_points", [9, 10, toydemo.MAX_POINTS, toydemo.MAX_POINTS + 1])
def test_demo_toy_takes_10_to_max_points(tmp_path, capsys, n_points):
    out = tmp_path / "toy.csv"
    code = main(["demo-toy", "--n-points", str(n_points), "--out", str(out)])
    err = capsys.readouterr().err
    if 10 <= n_points <= toydemo.MAX_POINTS:
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + n_points
    else:
        assert code == 2
        assert err == f"error: toy demo needs 10 to {toydemo.MAX_POINTS} points, got {n_points}\n"
        assert not out.exists()


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


# ---------------------------------------------------------------------------
# the table cache behind --embeddings
# ---------------------------------------------------------------------------


def _cache_entries(cache) -> list:
    root = cache / "kerndebias" / "tables-v2"
    return sorted(root.iterdir()) if root.exists() else []


def _every_stage(paths, out) -> list[list[str]]:
    """One argv per CLI stage over the table, writing under out."""
    emb = ["--embeddings", str(paths["embeddings"])]
    kernel, linear = str(out / "kernel.json"), str(out / "linear.json")
    eq_sets = out / "eq-sets.json"
    sets = json.loads(paths["sets"].read_text())
    eq_sets.write_text(json.dumps({**sets, "equality_sets": [["m1", "f1"], ["m2", "f2"]]}))
    weat = out / "weat.json"  # B unlike A after a linear fit, so no effect size is 0/0
    weat.write_text(json.dumps({**json.loads(paths["weat"].read_text()), "B": ["n6", "n7"]}))
    stages = [
        ["fit", *emb, "--sets", str(paths["sets"]), "--backend", "kernel", "--kernel", "rbf",
         "--gamma", "0.5", "--components", "2", "--out", kernel],
        ["fit", *emb, "--sets", str(eq_sets), "--out", linear],
        ["apply", *emb, "--model", kernel, "--out", str(out / "kernel.txt")],
        ["apply", *emb, "--model", linear, "--sets", str(eq_sets), "--equalize",
         "--out", str(out / "linear.txt")],
        ["apply", *emb, "--no-normalize", "--model", linear, "--out", "-"],
    ]
    for tag, model in (("raw", []), ("linear", ["--model", linear]),
                       ("kernel", ["--model", kernel])):
        stages += [
            ["sim", *emb, *model, "he", "she", "n0", "n1"],
            ["eval", "weat", *emb, *model, "--config", str(weat),
             "--out", str(out / f"weat-{tag}")],
            ["eval", "professions", *emb, *model, "--professions", str(paths["professions"]),
             "--male", str(paths["male"]), "--female", str(paths["female"]),
             "--neighbors", "8", "--out", str(out / f"prof-{tag}")],
            ["eval", "classify", *emb, *model, "--n-biased", "30", "--n-train", "16",
             "--svm-gamma", "2.0", "--out", str(out / f"classify-{tag}")],
            ["eval", "simlex", *emb, *model, "--pairs", str(paths["simlex"])],
        ]
    return stages


def _run_stages(stages, out, capsys, before_each=None) -> list:
    """Exit code, stdout and stderr of each stage, then every file under out."""
    results = []
    for argv in stages:
        if before_each is not None:
            before_each()
        code = main(argv)
        captured = capsys.readouterr()
        results.append((argv[:2], code, captured.out, captured.err))
    return results + sorted((p.name, p.read_bytes()) for p in out.iterdir())


def test_warm_cache_outputs_equal_cold_outputs(planted_files, tmp_path, capsys, monkeypatch,
                                               private_table_cache):
    out = tmp_path / "out"
    out.mkdir()
    stages = _every_stage(planted_files, out)
    cold = _run_stages(
        stages, out, capsys, lambda: shutil.rmtree(private_table_cache, ignore_errors=True)
    )
    assert all(code == 0 for _, code, _, _ in cold[: len(stages)])
    shutil.rmtree(out)
    out.mkdir()
    _every_stage(planted_files, out)
    parses = []
    monkeypatch.setattr("kerndebias.embeddings.parse_embedding_text", parses.append)
    warm = _run_stages(stages, out, capsys)
    assert parses == []  # every stage read the table from the cache
    assert warm == cold
    assert len(_cache_entries(private_table_cache)) == 1


def test_malformed_table_exits_2_and_leaves_no_entry(planted_files, capsys, private_table_cache):
    paths = planted_files
    lines = paths["embeddings"].read_text().splitlines()
    lines[5] = lines[5].rsplit(" ", 1)[0]
    paths["embeddings"].write_text("\n".join(lines) + "\n")
    for _ in range(2):
        assert main(["sim", "--embeddings", str(paths["embeddings"]), "he", "she"]) == 2
        assert capsys.readouterr().err == "error: line 6: expected 8 components, got 7\n"
    assert _cache_entries(private_table_cache) == []


def test_stdin_bypasses_the_cache(planted_files, capsys, monkeypatch, private_table_cache):
    paths = planted_files
    argv = ["sim", "--embeddings", "-", "he", "she"]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(paths["embeddings"].read_bytes())))
    assert main(argv) == 0
    from_stdin = capsys.readouterr().out
    assert _cache_entries(private_table_cache) == []
    argv[2] = str(paths["embeddings"])
    assert main(argv) == 0
    assert capsys.readouterr().out == from_stdin


def test_unusable_cache_gives_the_same_output(planted_files, capsys, private_table_cache):
    paths = planted_files
    argv = ["sim", "--embeddings", str(paths["embeddings"]), "he", "she", "n0", "n1"]
    assert main(argv) == 0
    usable = capsys.readouterr()
    trailer = kerndebias.embeddings._TRAILER
    for entry in _cache_entries(private_table_cache):
        data = bytearray(entry.read_bytes())
        data[trailer.unpack(data[-trailer.size :])[0]] ^= 1  # the matrix's first byte
        entry.write_bytes(data)
    assert main(argv) == 0
    assert capsys.readouterr() == usable
    shutil.rmtree(private_table_cache)
    private_table_cache.write_text("not a directory")
    assert main(argv) == 0
    assert capsys.readouterr() == usable


def test_failed_eval_write_leaves_the_earlier_pair(planted_files, tmp_path, capsys):
    """PREFIX.json and PREFIX.csv are renamed into place only once both are
    written: a CSV that cannot be written leaves the earlier JSON."""
    paths = planted_files
    out = tmp_path / "out"
    out.mkdir()
    (out / "r.csv").mkdir()
    (out / "r.json").write_text("old")
    assert main([
        "eval", "simlex", "--embeddings", str(paths["embeddings"]),
        "--pairs", str(paths["simlex"]), "--out", str(out / "r"),
    ]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert (out / "r.json").read_text() == "old"
    assert sorted(p.name for p in out.iterdir()) == ["r.csv", "r.json"]


# ---------------------------------------------------------------------------
# the process entry: python -m kerndebias.cli, through cli.run()
# ---------------------------------------------------------------------------

# Child processes import the same kerndebias as this process.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(kerndebias.__file__))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": _PACKAGE_ROOT},
    )


def _process(argv: list[str]) -> subprocess.CompletedProcess:
    return _python("-m", "kerndebias.cli", *argv)


def test_run_freezes_after_main_and_exits_with_its_code(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3
    assert events == ["main", "freeze"]


def _warning_case(paths, case):
    """argv of a run that warns once, the logger it warns on, and a function
    that gives the warning's message once the run is done."""
    common = ["--embeddings", str(paths["embeddings"])]
    fit = ["fit", *common, "--sets", str(paths["sets"]), "--out", str(paths["model"])]
    if case == "sets":
        sets = json.loads(paths["sets"].read_text())
        paths["sets"].write_text(json.dumps(
            {"defining_sets": [*sets["defining_sets"], ["he", "nope"]]}
        ))
        return fit, "kerndebias", lambda: "dropping defining pair ['he', 'nope']: missing ['nope']"
    if case == "eigenvalues":

        def message():
            count = json.loads(paths["model"].read_text())["discarded_negative"]
            assert count > 0
            return (f"discarding {count} negative eigenvalue(s) of the centered Gram "
                    "(indefinite kernel)")

        sigmoid = ["--backend", "kernel", "--kernel", "sigmoid", "--gamma", "1", "--coef0", "0"]
        return [*fit, *sigmoid], "kerndebias.rkhs", message
    config = json.loads(paths["weat"].read_text())
    paths["weat"].write_text(json.dumps({**config, "X": [*config["X"], "n6"]}))
    return (
        ["eval", "weat", *common, "--config", str(paths["weat"])],
        "kerndebias.evaluation",
        lambda: "target lists unbalanced after filtering (4 vs 3); truncating to 3",
    )


@pytest.mark.parametrize("case", ["sets", "eigenvalues", "weat"])
def test_warning_reaches_stderr_and_its_logger(planted_files, caplog, case):
    argv, logger, message = _warning_case(planted_files, case)
    proc = _process(argv)
    assert proc.returncode == 0
    assert proc.stderr.decode() == f"WARNING: {message()}\n"
    with caplog.at_level(logging.WARNING):
        assert main(argv) == 0
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        (logger, "WARNING", message())
    ]


@pytest.mark.parametrize("model", ["linear", "rbf"])
def test_process_apply_to_stdout_equals_apply_to_a_file(generic_files, tmp_path, model):
    paths = generic_files
    out = tmp_path / "out.txt"
    apply = ["apply", "--embeddings", str(paths["embeddings"]), "--model", str(paths[model])]
    to_file = _process([*apply, "--out", str(out)])
    to_stdout = _process([*apply, "--out", "-"])
    assert (to_file.returncode, to_stdout.returncode) == (0, 0)
    assert to_file.stdout == f"wrote {out}\n".encode()
    assert to_stdout.stdout == out.read_bytes()
    assert to_file.stderr == to_stdout.stderr == b""


def test_stdin_is_read_as_a_file_is_whatever_the_locale(tmp_path):
    table = tmp_path / "table.txt"
    table.write_bytes("café 1 0\rnaïve 0.6 0.8\r\nw 0 1\n".encode("utf-8"))
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT, "PYTHONIOENCODING": "latin-1"}

    def sim(source: str) -> subprocess.CompletedProcess:
        argv = ["-m", "kerndebias.cli", "sim", "--embeddings", source, "café", "naïve"]
        return subprocess.run([sys.executable, *argv], input=table.read_bytes(),
                              capture_output=True, timeout=60, env=env)

    from_file, from_stdin = sim(str(table)), sim("-")
    assert (from_file.returncode, from_file.stderr) == (0, b"")
    assert json.loads(from_file.stdout.decode("latin-1"))["pairs"][0]["a"] == "café"
    assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (
        0, from_file.stdout, b""
    )


def test_process_sim_to_stdout_writes_whole_json(generic_files, capsys):
    paths = generic_files
    argv = ["sim", "--embeddings", str(paths["embeddings"]), "--model", str(paths["rbf"]),
            "--out", "-", "w0", "w1", "w2", "w3", "w4", "w5"]
    proc = _process(argv)
    assert proc.returncode == 0
    assert [pair["b"] for pair in json.loads(proc.stdout)["pairs"]] == ["w1", "w3", "w5"]
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize(
    "case, code",
    [("usage", 2), ("config", 2), ("data", 3), ("numerical", 4)],
)
def test_process_exit_code_reaches_the_parent(planted_files, case, code):
    paths = planted_files
    _fit_linear(paths)
    common = ["--embeddings", str(paths["embeddings"])]
    argv = {
        "usage": ["sim", "he", "she"],
        "config": ["sim", *common, "he"],
        "data": ["sim", *common, "nope", "nada"],
        # the input of test_linear_weat_on_mirrored_attributes_exits_4
        "numerical": ["eval", "weat", *common, "--model", str(paths["model"]),
                      "--config", str(paths["weat"])],
    }[case]
    proc = _process(argv)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage: " if case == "usage" else b"error: ")


@pytest.mark.skipif(os.name != "posix", reason="needs a process started with fd 0 closed")
def test_embeddings_from_closed_stdin_exits_2():
    # The child closes fd 0 and then becomes the command, so sys.stdin is None.
    argv = [sys.executable, "-m", "kerndebias.cli", "sim", "--embeddings", "-", "a", "b"]
    proc = _python("-c", f"import os; os.close(0); os.execv({sys.executable!r}, {argv!r})")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"error: --embeddings -: standard input is closed\n"
    )


@pytest.mark.skipif(os.name != "posix", reason="needs a process started with fd 1 closed")
def test_file_output_with_closed_stdout_exits_0(planted_files, tmp_path):
    # fd 1 closed, so sys.stdout is None.
    out = tmp_path / "s.json"
    proc = _exec_after("os.close(1)", [
        "sim", "--embeddings", str(planted_files["embeddings"]), "--out", str(out), "he", "she",
    ])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert [pair["b"] for pair in json.loads(out.read_text())["pairs"]] == ["she"]


@pytest.mark.skipif(os.name != "posix", reason="needs a process started with fd 1 closed")
@pytest.mark.parametrize("stage", ["sim", "apply"])
def test_stdout_output_with_closed_stdout_exits_2(planted_files, tmp_path, stage):
    paths = planted_files
    _fit_linear(paths)
    out = tmp_path / "t.txt"
    out.write_bytes(b"earlier table\n")
    common = ["--embeddings", str(paths["embeddings"])]
    argv = {
        "sim": ["sim", *common, "he", "she"],
        "apply": ["apply", *common, "--model", str(paths["model"]), "--out", str(out),
                  "--out-model", "-"],
    }[stage]
    proc = _exec_after("os.close(1)", argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"error: standard output is closed\n"
    )
    assert out.read_bytes() == b"earlier table\n"


def test_module_entry_point_warns_nothing(planted_files):
    # runpy warns when the module it runs is already in sys.modules.
    proc = _python("-W", "error::RuntimeWarning", "-m", "kerndebias.cli",
                   "sim", "--embeddings", str(planted_files["embeddings"]), "he", "she")
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_every_submodule_but_cli_is_registered_on_the_package():
    modules = {info.name for info in pkgutil.iter_modules(kerndebias.__path__)}
    assert sorted(kerndebias._LAYERS) == sorted(modules - {"cli"})
    for name in kerndebias._LAYERS:
        assert sys.modules[f"kerndebias.{name}"] is getattr(kerndebias, name)


def test_import_leaves_every_registered_layer_unrun():
    code = textwrap.dedent("""
        import json
        import sys
        import kerndebias

        def ran(name):
            # object.__getattribute__ reads a lazy module's namespace
            # without running its body.
            namespace = object.__getattribute__(sys.modules["kerndebias." + name], "__dict__")
            return any(not key.startswith("__") for key in namespace)

        print(json.dumps([[name for name in kerndebias._LAYERS if ran(name)],
                          "numpy" in sys.modules]))
    """)
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [[], False]


# A name each lazily loaded layer defines: in the module's namespace only
# once its body has run.
_LAYER_BODIES = {
    "evaluation": "weat_test",
    "linear": "fit_linear_subspace",
    "preimage": "preimage_neutralize_matrix",
    "toydemo": "run_toy_demo",
}


def _run_in_child(argv: list[str]) -> dict:
    """main(argv) in a new process: its exit code, the layers of
    _LAYER_BODIES whose bodies ran, and whether logging was imported before
    kerndebias (numpy already loaded) and after the run."""
    code = textwrap.dedent(f"""
        import json
        import sys
        import numpy
        logging_before = "logging" in sys.modules
        from kerndebias.cli import main
        code = main({argv!r})

        def ran(layer, body):
            module = sys.modules.get("kerndebias." + layer)
            # object.__getattribute__ reads a lazy module's namespace
            # without running its body.
            return module is not None and body in object.__getattribute__(module, "__dict__")

        print(json.dumps({{
            "code": code,
            "ran": sorted(layer for layer, body in {_LAYER_BODIES!r}.items() if ran(layer, body)),
            "logging": [logging_before, "logging" in sys.modules],
        }}))
    """)
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize(
    "stage, ran",
    [
        ("fit", ["linear"]),
        ("apply", ["preimage"]),
        ("sim", []),
        ("simlex", ["evaluation"]),
        ("demo-toy", ["linear", "preimage", "toydemo"]),
    ],
)
def test_each_stage_runs_only_the_layers_it_uses(planted_files, tmp_path, private_table_cache,
                                                 stage, ran):
    paths = planted_files
    _fit_linear(paths)
    common = ["--embeddings", str(paths["embeddings"])]
    argv = {
        "fit": ["fit", *common, "--sets", str(paths["sets"]), "--out", str(tmp_path / "m.json")],
        "apply": ["apply", *common, "--model", str(paths["model"]),
                  "--out", str(tmp_path / "t.txt")],
        "sim": ["sim", *common, "--out", str(tmp_path / "s.json"), "he", "she"],
        "simlex": ["eval", "simlex", *common, "--pairs", str(paths["simlex"]),
                   "--out", str(tmp_path / "simlex")],
        "demo-toy": ["demo-toy", "--n-points", "20", "--out", str(tmp_path / "toy.csv")],
    }[stage]
    result = _run_in_child(argv)
    assert result["code"] == 0
    assert result["ran"] == ran
    before, after = result["logging"]
    assert after == before  # nothing warned, so logging was left unimported


# The names a tracer of the layers looks up right after `import kerndebias.cli`:
# each layer's module in sys.modules, and the functions it wraps there.
_TRACED = {
    "embeddings": ["parse_embedding_text", "unit_normalize", "write_embedding_text"],
    "numerics": ["symmetric_eig"],
    "linear": ["fit_linear_subspace", "equalize_set"],
    "kernels": ["gram_matrix", "kernel_diag"],
    "rkhs": ["fit_kernel_model", "beta_matrix", "CorrectedMetric"],
    "preimage": ["preimage_neutralize_matrix"],
    "evaluation": ["professions_correlation", "weat_test", "svm_train", "svm_accuracy"],
    "toydemo": ["run_toy_demo"],
    "cli": ["main"],
}


def test_every_traced_layer_is_found_by_name_after_importing_the_cli(planted_files, tmp_path,
                                                                     private_table_cache):
    paths = planted_files
    common = ["--embeddings", str(paths["embeddings"])]
    commands = [
        ["fit", *common, "--sets", str(paths["sets"]), "--out", str(paths["model"])],
        ["apply", *common, "--model", str(paths["model"]), "--out", str(tmp_path / "t.txt")],
        ["eval", "weat", *common, "--config", str(paths["weat"]), "--out", str(tmp_path / "w")],
        ["demo-toy", "--n-points", "20", "--out", str(tmp_path / "toy.csv")],
    ]
    code = textwrap.dedent(f"""
        import json
        import sys
        import kerndebias.cli

        package = sys.modules["kerndebias"]
        missing, unbound = [], []
        for layer, names in {_TRACED!r}.items():
            module = sys.modules.get("kerndebias." + layer)
            if getattr(package, layer, None) is not module:
                unbound.append(layer)
            missing += [f"{{layer}}.{{name}}" for name in names
                        if not callable(getattr(module, name, None))]

        # Replace one function of each lazy layer where it is defined, as a
        # tracer does, and run a command that calls it.
        called = []

        def replace(layer, name):
            module = sys.modules["kerndebias." + layer]
            original = getattr(module, name)

            def traced(*args, **kwargs):
                called.append(f"{{layer}}.{{name}}")
                return original(*args, **kwargs)

            setattr(module, name, traced)

        for layer, name in [("linear", "fit_linear_subspace"),
                            ("preimage", "preimage_neutralize_matrix"),
                            ("evaluation", "weat_test"), ("toydemo", "run_toy_demo")]:
            replace(layer, name)
        codes = [kerndebias.cli.main(argv) for argv in {commands!r}]
        print(json.dumps([missing, unbound, codes, called]))
    """)
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    missing, unbound, codes, called = json.loads(proc.stdout.decode().splitlines()[-1])
    assert (missing, unbound, codes) == ([], [], [0, 0, 0, 0])
    assert called == [
        "linear.fit_linear_subspace", "preimage.preimage_neutralize_matrix",
        "evaluation.weat_test", "toydemo.run_toy_demo",
    ]


def _parse_exit(parse, argv: list[str], capsys) -> tuple:
    """The exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


_COMMAND_NAMES = ["fit", "apply", "sim", "eval", "demo-toy"]
_BENCHMARK_NAMES = ["weat", "professions", "classify", "simlex"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([name, "--help"] for name in _COMMAND_NAMES),
        *(["eval", name, "--help"] for name in _BENCHMARK_NAMES),
        [],
        ["nope"],
        ["eval"],
        ["eval", "nope"],
        ["fit", "--embeddings", "t.txt"],
        ["eval", "simlex", "--embeddings", "t.txt"],
        ["sim", "--embeddings", "t.txt", "--bogus", "a", "b"],
        ["demo-toy", "--n-points", "x"],
    ],
    ids=lambda argv: " ".join(argv) or "bare",
)
def test_one_subcommand_parser_answers_as_the_full_parser(capsys, argv):
    code, out, err = _parse_exit(main, argv, capsys)
    assert (code, out, err) == _parse_exit(cli.build_parser().parse_args, argv, capsys)
    if "--help" in argv:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("usage: kerndebias") and "error: " in err


@pytest.mark.parametrize(
    "argv, names", [(["--help"], _COMMAND_NAMES), (["eval", "--help"], _BENCHMARK_NAMES)]
)
def test_help_lists_every_subcommand(capsys, argv, names):
    out = _parse_exit(main, argv, capsys)[1]
    listed = out.split("{" + ",".join(names) + "}\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in listed.splitlines()] == names
