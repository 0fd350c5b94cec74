"""Linearization of barycentric numerators for nonlinear eigenvalue extraction.

Given blocks C_0..C_d on distinct nodes z_0..z_d, the matrix polynomial

    N(z) = sum_k C_k * prod_{j != k} (z - z_j)

is the nodal-polynomial multiple of the barycentric numerator
sum_k C_k / (z - z_k).  `build_pencil` assembles a (d*s)-by-(d*s) pencil
L0 - z*L1 whose finite generalized eigenvalues are the points where N(z) is
singular.  The pencil comes from the divided-basis recurrence
(z - z_k) m_k(z) = (z - z_{k+1}) m_{k+1}(z) with m_k = prod_{j != k}(z - z_j):
the first block row encodes (z - z_d) N(z) = 0 rewritten through the
recurrence, the remaining rows encode the recurrence itself.
"""

from dataclasses import dataclass

import numpy as np

from .core import ParameterError
from .kernels import finite_eigenvalues

__all__ = ["Pencil", "bary_poly_weights", "build_pencil", "pencil_eigs", "nonlinear_eigs_baryC"]


@dataclass(frozen=True)
class Pencil:
    L0: np.ndarray  # (d*s, d*s)
    L1: np.ndarray


def bary_poly_weights(nodes):
    """w_k = 1 / prod_{j != k} (z_j - z_k); the interpolating-polynomial weights."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if len(np.unique(nodes)) != nodes.size:
        raise ParameterError("nodes must be pairwise distinct")
    w = np.empty(nodes.size, dtype=complex)
    for k in range(nodes.size):
        w[k] = 1.0 / np.prod(np.delete(nodes, k) - nodes[k])
    return w


def build_pencil(C, nodes):
    """Strong linearization of N(z) = sum_k C_k prod_{j != k}(z - z_j).

    C has shape (d+1, s, s) with d >= 1.  To linearize an interpolating
    matrix polynomial with values N_k at the nodes, pass C_k = w_k * N_k
    with the weights from `bary_poly_weights`.
    """
    C = np.asarray(C, dtype=complex)
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if C.ndim != 3 or C.shape[1] != C.shape[2]:
        raise ParameterError("coefficient blocks must be square matrices")
    if C.shape[0] != nodes.size:
        raise ParameterError("need one coefficient block per node")
    d = nodes.size - 1
    if d < 1:
        raise ParameterError("a constant numerator needs no pencil (d >= 1 required)")
    if len(np.unique(nodes)) != nodes.size:
        raise ParameterError("nodes must be pairwise distinct")
    s = C.shape[1]
    eye = np.eye(s)
    # blocks indexed (block row, row, block column, column)
    L0 = np.zeros((d, s, d, s), dtype=complex)
    L1 = np.zeros((d, s, d, s), dtype=complex)
    # first block row: (z - z_d) sum_k C_k m_k(z) with C_d folded onto m_{d-1}
    # via (z - z_d) m_d = (z - z_{d-1}) m_{d-1}
    top0, top1 = nodes[d] * C[:d], C[:d].copy()
    top0[d - 1] += nodes[d - 1] * C[d]
    top1[d - 1] += C[d]
    L0[0], L1[0] = top0.transpose(1, 0, 2), top1.transpose(1, 0, 2)
    # recurrence rows: (z - z_{i-1}) m_{i-1} = (z - z_i) m_i
    i = np.arange(1, d)
    L0[i, :, i - 1, :] = nodes[i - 1, None, None] * eye
    L0[i, :, i, :] = -nodes[i, None, None] * eye
    L1[i, :, i - 1, :] = eye
    L1[i, :, i, :] = -eye
    return Pencil(L0.reshape(d * s, d * s), L1.reshape(d * s, d * s))


def pencil_eigs(pencil):
    """Finite generalized eigenvalues of (L0, L1)."""
    return finite_eigenvalues(pencil.L0, pencil.L1)


def nonlinear_eigs_baryC(model):
    """Points where the bary-C numerator sum_k C_k/(z - z_k) is singular.

    Eigenvalues that coincide with poles of the model itself must be
    filtered by the caller; the pencil only sees the numerator.
    """
    m, n = model.shape
    if m != n:
        raise ParameterError("nonlinear eigenvalues require square matrices")
    if model.order < 1:
        raise ParameterError("order-0 numerator has no finite eigenvalues to extract")
    return pencil_eigs(build_pencil(model.numer, model.nodes))
