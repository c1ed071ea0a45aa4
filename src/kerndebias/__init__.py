"""Linear and kernelized bias-subspace construction for word embeddings.

Core pieces:

- :mod:`kerndebias.embeddings` -- embedding tables and their text format.
- :mod:`kerndebias.kernels` -- kernel specs and Gram matrices.
- :mod:`kerndebias.rkhs` -- the one bias fit, fit_kernel_model, its kernel
  bias model, and CorrectedMetric, the one corrected metric
  k~(x, y) = k(x, y) - beta(x) . beta(y) over a bias model's (spec, beta)
  or over none (plain cosine).
- :mod:`kerndebias.linear` -- the linear bias subspace, read out of the
  kernel fit with the linear kernel (beta(x) = x B^T); neutralize and
  equalize.
- :mod:`kerndebias.preimage` -- corrected vectors back in input space.
- :mod:`kerndebias.evaluation` -- association tests, professions
  correlation, indirect-bias SVM, similarity-judgment scoring, all through
  one backend's ``similarity_matrix(rows, cols)``: the (rows, cols)
  corrected cosines in [-1, 1]; a queried word whose corrected self
  product is at most 1e-12 k(w, w) raises DataError.
- :mod:`kerndebias.configio` -- input files, and load_model for any model.
- :mod:`kerndebias.cli` -- the `kerndebias` command.
"""

from .configio import load_model
from .embeddings import (
    EmbeddingTable,
    parse_embedding_text,
    unit_normalize,
    write_embedding_text,
)
from .errors import DataError, FormatError, KerndebiasError, NumericalError
from .kernels import KernelSpec, default_gamma, gram_matrix
from .linear import (
    DefiningSets,
    EqualitySets,
    LinearBiasModel,
    bias_covariance,
    build_design_matrix,
    equalize_set,
    fit_linear_subspace,
    neutralize_matrix,
    resolve_word_sets,
)
from .numerics import SymmetricEigen, pearson, spearman, symmetric_eig
from .preimage import (
    PreimageMap,
    fit_preimage_map,
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
    "fit_kernel_model",
    "fit_linear_subspace",
    "fit_preimage_map",
    "gram_matrix",
    "load_model",
    "neutralize_matrix",
    "parse_embedding_text",
    "pearson",
    "preimage_neutralize_matrix",
    "resolve_word_sets",
    "spearman",
    "symmetric_eig",
    "unit_normalize",
    "write_embedding_text",
]
