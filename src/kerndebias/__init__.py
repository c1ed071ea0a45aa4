"""Linear and kernelized bias-subspace construction for word embeddings.

Core pieces:

- :mod:`kerndebias.embeddings` -- embedding tables and their text format;
  read_embedding_file keeps each parsed table file as one entry file in
  $XDG_CACHE_HOME/kerndebias/tables-v2 (default ~/.cache/kerndebias/...),
  used again only while the file's bytes equal the ones it was parsed
  from.  Deleting that directory is always safe.  `apply` streams its
  table through embeddings.iter_embedding_text, in bounded row blocks
  whose bytes, joined, equal write_embedding_text's text.
- :mod:`kerndebias.kernels` -- kernel specs and Gram matrices.
- :mod:`kerndebias.rkhs` -- the one bias fit, fit_kernel_model, the one
  bias-model type, KernelBiasModel, checked at every construction, its
  bias coordinates beta_matrix, and
  CorrectedMetric, the one corrected metric
  k~(x, y) = k(x, y) - beta(x) . beta(y): built over a table and a model,
  or none (plain cosine), it answers queries over words of its table
  only, and keeps the beta of each word a query touches.
- :mod:`kerndebias.linear` -- the linear bias subspace, read out of the
  kernel fit with the linear kernel as a linear-kernel KernelBiasModel
  (beta(x) = x B^T); equalize.
- :mod:`kerndebias.preimage` -- corrected vectors back in input space,
  x - beta(x) W for every kernel, with the readout W = alpha (A - B):
  the exact projection for the linear kernel.
- :mod:`kerndebias.evaluation` -- association tests, professions
  correlation, similarity-judgment scoring, each over one CorrectedMetric
  and its ``similarity_matrix(rows, cols)``: the (rows, cols) corrected
  cosines in [-1, 1]; a queried word whose corrected self product is at
  most 1e-12 k(w, w) raises DataError.  The indirect-bias SVM trains and
  scores on one corrected rbf Gram from ``squared_distance_matrix``.
- :mod:`kerndebias.seeding` -- every seeded draw: uniform(seed, label,
  count, start), a counter-based SplitMix64 stream per (seed, label) in
  integer numpy, the same values on any platform and numpy >= 1.24, and
  permutation(seed, label, n).  No layer imports numpy.random.
- :mod:`kerndebias.configio` -- input files, and the model file: the one
  place that writes (model_to_dict) and decodes (model_from_dict,
  load_model) it.
- :mod:`kerndebias.cli` -- the `kerndebias` command.

Every layer loads on first use.  ``import kerndebias`` registers each
submodule but cli in sys.modules, unrun, through importlib.util.LazyLoader,
and binds it on the package.  A module reaches another layer as ``from .
import layer`` and calls ``layer.name`` at call time, so each command runs
only the layers it calls, and a tracer finds every layer by name right
after ``import kerndebias.cli``.  The names in __all__ are read from their
modules at first lookup (PEP 562 ``__getattr__``).  cli is left out
because ``python -m kerndebias.cli`` warns (runpy's RuntimeWarning) when
the module it runs is already in sys.modules.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every submodule but cli (see above).
_LAYERS = [
    "configio", "embeddings", "errors", "evaluation", "kernels", "linear",
    "numerics", "preimage", "rkhs", "seeding", "toydemo",
]


def _register(name: str):
    """kerndebias.<name>, in sys.modules, its body run at the first lookup."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _LAYERS})

# Each public name and the module that defines it.
_EXPORTS = {
    "load_model": "configio",
    "EmbeddingTable": "embeddings",
    "parse_embedding_text": "embeddings",
    "read_embedding_file": "embeddings",
    "unit_normalize": "embeddings",
    "write_embedding_text": "embeddings",
    "DataError": "errors",
    "FormatError": "errors",
    "KerndebiasError": "errors",
    "NumericalError": "errors",
    "KernelSpec": "kernels",
    "default_gamma": "kernels",
    "gram_matrix": "kernels",
    "DefiningSets": "linear",
    "EqualitySets": "linear",
    "equalize_set": "linear",
    "fit_linear_subspace": "linear",
    "resolve_word_sets": "linear",
    "SymmetricEigen": "numerics",
    "pearson": "numerics",
    "spearman": "numerics",
    "symmetric_eig": "numerics",
    "preimage_neutralize_matrix": "preimage",
    "CorrectedMetric": "rkhs",
    "KernelBiasModel": "rkhs",
    "beta_matrix": "rkhs",
    "build_centered_gram": "rkhs",
    "fit_kernel_model": "rkhs",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """A public name, read from its module at its first use."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
