"""Dense complex linear-algebra contract shared by every fitter.

Thin wrappers around LAPACK (via numpy/scipy) with the conventions the
fitters rely on: descending singular values, minimum-norm least squares,
the singularity-checked solve every matrix model evaluates with, (alpha,
beta) generalized eigenvalue pairs, and companion-matrix roots.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import NumericalError, ParameterError

# relative thresholds: double-precision noise floor with headroom
EPS_FINITE = 1e-12  # |beta| below this (relative) flags an infinite eigenvalue
EPS_TRIM = 1e-13  # trailing polynomial coefficients below this are dropped
# matrix "inverses" in model evaluation are linear solves; beyond this
# condition estimate the matrix is declared singular instead of returning garbage
COND_LIMIT = 1e14

__all__ = [
    "SvdResult",
    "svd_full",
    "trailing_left_singular_block",
    "trailing_right_singular_vector",
    "lstsq",
    "solve_checked",
    "gen_eig",
    "finite_eigenvalues",
    "companion_roots",
]


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray  # column-orthonormal left singular vectors
    s: np.ndarray  # singular values, descending
    v: np.ndarray  # column-orthonormal right singular vectors (M = u @ diag(s) @ v*)


def _svd(M, full_matrices):
    """The SVD of M as a complex matrix: the one SVD call of the package."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.size == 0:
        raise ParameterError("cannot take the SVD of an empty matrix")
    try:
        return np.linalg.svd(M, full_matrices=full_matrices)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD did not converge for shape {M.shape}: {e}") from e


def svd_full(M):
    u, s, vh = _svd(M, True)
    return SvdResult(u, s, vh.conj().T)


def trailing_left_singular_block(M, m):
    """The m left singular vectors for the m smallest singular values, as rows.

    Returns W of shape (m, rows(M)), scaled to unit Frobenius norm.  Among all
    unit-Frobenius-norm W with orthonormal rows this minimizes ||W @ M||_F.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] % m != 0:
        raise ParameterError(f"block height {m} does not divide {M.shape[0]} rows")
    # only u is used: the economy SVD gives all of it for a wide M, and a tall
    # M needs the full u, whose trailing columns span its left null space
    u = _svd(M, M.shape[0] > M.shape[1])[0]
    return u[:, -m:].conj().T / np.sqrt(m)


def trailing_right_singular_vector(A):
    """The unit vector c minimizing ||A @ c||_2: the last right singular vector."""
    return _svd(A, False)[2][-1].conj()


def lstsq(A, B):
    """Minimum-norm least squares solution of A X = B; warns if A is rank-deficient."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.asarray(B, dtype=complex)
    if A.shape[0] != B.shape[0]:
        raise ParameterError(f"row mismatch: A has {A.shape[0]}, B has {B.shape[0]}")
    try:
        X, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"least squares failed for shape {A.shape}: {e}") from e
    if rank < A.shape[1]:
        warnings.warn("rank-deficient least squares; using the minimum-norm solution")
    return X


def solve_checked(S, T):
    """S_i^-1 T_i for each pair of an (N, k, k) and an (N, k, n) stack.

    Where S_i is numerically singular (condition number above COND_LIMIT) the
    block is NaN instead: a model evaluated there is not evaluable.
    """
    X = np.full(T.shape, np.nan, dtype=complex)
    ok = np.linalg.cond(S) <= COND_LIMIT
    X[ok] = np.linalg.solve(S[ok], T[ok])
    return X


def gen_eig(A, B):
    """Generalized eigenvalues of (A, B) as a list of (alpha, beta) pairs.

    Each pair encodes the eigenvalue alpha/beta; pairs whose |beta| falls
    below EPS_FINITE * max(||A||, ||B||) represent infinite eigenvalues.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ParameterError(f"need equal square matrices, got {A.shape}, {B.shape}")
    try:
        alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
    except scipy.linalg.LinAlgError as e:
        raise NumericalError(f"QZ iteration failed for size {A.shape[0]}: {e}") from e
    return list(zip(alpha, beta))


def _beta_floor(A, B):
    scale = max(np.linalg.norm(np.atleast_2d(A)), np.linalg.norm(np.atleast_2d(B)))
    return EPS_FINITE * max(scale, 1.0)


def finite_eigenvalues(A, B):
    """Finite generalized eigenvalues alpha/beta of the pair (A, B)."""
    floor = _beta_floor(A, B)
    return np.array(
        [a / b for a, b in gen_eig(A, B) if abs(b) > floor], dtype=complex
    )


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
