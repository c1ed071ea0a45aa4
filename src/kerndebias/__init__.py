"""Linear and kernelized bias-subspace construction for word embeddings.

Core pieces:

- :mod:`kerndebias.embeddings` -- embedding tables and their text format.
- :mod:`kerndebias.linear` -- linear bias subspace, neutralize, equalize.
- :mod:`kerndebias.kernels` -- kernel specs and Gram matrices.
- :mod:`kerndebias.rkhs` -- kernelized bias model and CorrectedMetric,
  the one corrected metric k~(x, y) = k(x, y) - beta(x) . beta(y) over a
  kernel model, a linear model (beta(x) = x B^T) or none (plain cosine).
- :mod:`kerndebias.preimage` -- corrected vectors back in input space.
- :mod:`kerndebias.evaluation` -- association tests, professions
  correlation, indirect-bias SVM, similarity-judgment scoring, all through
  ``similarity_matrix(rows, cols)``: the (rows, cols) corrected cosines in
  [-1, 1]; a queried word whose corrected self product is at most
  1e-12 k(w, w) raises DataError.
- :mod:`kerndebias.configio` -- input files, and load_model for any model.
- :mod:`kerndebias.cli` -- the `kerndebias` command.
"""

from .configio import load_model
from .embeddings import (
    EmbeddingTable,
    parse_embedding_text,
    subset,
    unit_normalize,
    write_embedding_text,
)
from .errors import DataError, FormatError, KerndebiasError, NumericalError
from .kernels import KernelSpec, default_gamma, eval_kernel, gram_matrix
from .linear import (
    DefiningSets,
    EqualitySets,
    LinearBiasModel,
    bias_covariance,
    build_design_matrix,
    equalize_set,
    fit_linear_subspace,
    neutralize_matrix,
    neutralize_vector,
    resolve_word_sets,
)
from .numerics import SymmetricEigen, pearson, spearman, symmetric_eig
from .preimage import (
    PreimageMap,
    fit_preimage_map,
    preimage_neutralize,
    preimage_neutralize_matrix,
)
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
    "LinearBiasModel",
    "NumericalError",
    "PreimageMap",
    "SymmetricEigen",
    "beta_matrix",
    "bias_covariance",
    "build_centered_gram",
    "build_design_matrix",
    "default_gamma",
    "equalize_set",
    "eval_kernel",
    "fit_kernel_model",
    "fit_linear_subspace",
    "fit_preimage_map",
    "gram_matrix",
    "load_model",
    "neutralize_matrix",
    "neutralize_vector",
    "parse_embedding_text",
    "pearson",
    "preimage_neutralize",
    "preimage_neutralize_matrix",
    "resolve_word_sets",
    "spearman",
    "subset",
    "symmetric_eig",
    "unit_normalize",
    "write_embedding_text",
]
