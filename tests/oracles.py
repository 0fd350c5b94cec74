"""Reference computations that only the tests use.

Both are independent of the pencil linearization they check: the matrix
polynomial N(z) evaluated term by term, and polynomial roots from numpy's
companion matrix.
"""

import numpy as np

from blockrat.core import ParameterError

EPS_TRIM = 1e-13  # trailing polynomial coefficients below this (relative) are dropped


def companion_roots(coeffs):
    """All roots of the polynomial with ascending-degree coefficients."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0 or not np.any(c != 0):
        raise ParameterError("zero polynomial has no well-defined roots")
    cmax = np.max(np.abs(c))
    deg = c.size - 1
    while deg > 0 and abs(c[deg]) <= EPS_TRIM * cmax:
        deg -= 1
    if deg == 0:
        return np.array([], dtype=complex)
    return np.roots(c[deg::-1]).astype(complex)


def eval_node_polynomial(C, nodes, z):
    """N(z) = sum_k C_k * prod_{j != k} (z - z_j), evaluated directly."""
    C = np.asarray(C, dtype=complex)
    nodes = np.asarray(nodes, dtype=complex).ravel()
    out = np.zeros(C.shape[1:], dtype=complex)
    for k in range(nodes.size):
        out += C[k] * np.prod(z - np.delete(nodes, k))
    return out
