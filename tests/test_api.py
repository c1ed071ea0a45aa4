import sys

import pytest

import kerndebias


def test_every_exported_name_resolves():
    missing = [name for name in kerndebias.__all__ if not hasattr(kerndebias, name)]
    assert missing == []
    assert len(set(kerndebias.__all__)) == len(kerndebias.__all__)


# The package's public names: a change here is a change of its API.
_PUBLIC = {
    "CorrectedMetric", "DataError", "DefiningSets", "EmbeddingTable", "EqualitySets",
    "FormatError", "KernelBiasModel", "KernelSpec", "KerndebiasError", "NumericalError",
    "SymmetricEigen", "beta_matrix", "build_centered_gram", "default_gamma", "equalize_set",
    "fit_kernel_model", "fit_linear_subspace", "gram_matrix", "load_model",
    "parse_embedding_text", "pearson", "preimage_neutralize_matrix", "read_embedding_file",
    "resolve_word_sets", "spearman", "symmetric_eig", "unit_normalize", "write_embedding_text",
}


def test_public_names_are_unchanged():
    assert set(kerndebias.__all__) == _PUBLIC


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from kerndebias import *", namespace)
    assert set(namespace) - {"__builtins__"} == _PUBLIC
    for name in _PUBLIC:
        value = namespace[name]
        assert value is getattr(kerndebias, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        kerndebias.nope  # noqa: B018
    assert not hasattr(kerndebias, "nope")
