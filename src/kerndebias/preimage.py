"""Mapping feature-space-neutralized words back to plain vectors.

The identity `neutral part = word - bias part` reduces the pre-image
problem to the bias part's pre-image.  Each bias direction is a dual
expansion sum_i alpha_ki (phi(a_i) - phi(b_i)); reading it out with phi
taken as the identity gives the (K, d) readout W = alpha (A - B), so for
the rows x of a matrix and every kernel

    preimage_neutralize_matrix(x) = x - beta(x) W.

For the linear kernel W holds the orthonormal input directions and this
is the exact projection off the linear subspace.  For other kernels it
is an approximation whose quality is the feature-space residual
||phi(x') - P_perp phi(x)||^2 / ||P_perp phi(x)||^2, computable from
kernel values alone.
"""

from __future__ import annotations

import numpy as np

from .rkhs import KernelBiasModel, beta_matrix


def preimage_neutralize_matrix(model: KernelBiasModel, matrix: np.ndarray) -> np.ndarray:
    """Each row x minus its input-space bias part beta(x) W, for the
    model's readout W = alpha (A - B)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix - beta_matrix(model, matrix) @ model.readout()
