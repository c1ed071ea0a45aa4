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
  bias-model type, KernelBiasModel, its bias coordinates beta_matrix, and
  CorrectedMetric, the one corrected metric
  k~(x, y) = k(x, y) - beta(x) . beta(y): built over a table and a model,
  or none (plain cosine), it caches beta of the vocabulary and answers
  word and row queries.
- :mod:`kerndebias.linear` -- the linear bias subspace, read out of the
  kernel fit with the linear kernel as a linear-kernel KernelBiasModel
  (beta(x) = x B^T); equalize.
- :mod:`kerndebias.preimage` -- corrected vectors back in input space,
  x - beta(x) W for every kernel, with the readout W = alpha (A - B):
  the exact projection for the linear kernel.
- :mod:`kerndebias.evaluation` -- association tests, professions
  correlation, indirect-bias SVM, similarity-judgment scoring, each over
  one CorrectedMetric and its ``similarity_matrix(rows, cols)``: the
  (rows, cols) corrected cosines in [-1, 1]; a queried word whose
  corrected self product is at most 1e-12 k(w, w) raises DataError.
- :mod:`kerndebias.configio` -- input files, and the model file: the one
  place that writes (model_to_dict) and reads (model_from_dict, load_model)
  it.
- :mod:`kerndebias.cli` -- the `kerndebias` command.
"""

from .configio import load_model
from .embeddings import (
    EmbeddingTable,
    parse_embedding_text,
    read_embedding_file,
    unit_normalize,
    write_embedding_text,
)
from .errors import DataError, FormatError, KerndebiasError, NumericalError
from .kernels import KernelSpec, default_gamma, gram_matrix
from .linear import (
    DefiningSets,
    EqualitySets,
    equalize_set,
    fit_linear_subspace,
    resolve_word_sets,
)
from .numerics import SymmetricEigen, pearson, spearman, symmetric_eig
from .preimage import preimage_neutralize_matrix
from .rkhs import (
    CorrectedMetric,
    KernelBiasModel,
    beta_matrix,
    build_centered_gram,
    fit_kernel_model,
)

__version__ = "0.1.0"

__all__ = [
    "CorrectedMetric",
    "DataError",
    "DefiningSets",
    "EmbeddingTable",
    "EqualitySets",
    "FormatError",
    "KernelBiasModel",
    "KernelSpec",
    "KerndebiasError",
    "NumericalError",
    "SymmetricEigen",
    "beta_matrix",
    "build_centered_gram",
    "default_gamma",
    "equalize_set",
    "fit_kernel_model",
    "fit_linear_subspace",
    "gram_matrix",
    "load_model",
    "parse_embedding_text",
    "pearson",
    "preimage_neutralize_matrix",
    "read_embedding_file",
    "resolve_word_sets",
    "spearman",
    "symmetric_eig",
    "unit_normalize",
    "write_embedding_text",
]
