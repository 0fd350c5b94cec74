"""Dense complex linear-algebra contract shared by every fitter.

Thin wrappers around LAPACK with the conventions the fitters rely on:
descending singular values, minimum-norm least squares, the
singularity-checked solve every matrix model evaluates with, and (alpha,
beta) generalized eigenvalue pairs.

Everything here runs on numpy except `gen_eig`, numpy having no QZ: it
imports scipy.linalg on its first call.  So the AAA family, vector fitting
and the Loewner fit itself run on numpy alone, and scipy loads only where a
generalized eigenproblem is solved: RKFIT's pole relocation, the pencil
linearization (`pencil_eigs`, `nonlinear_eigs_baryC`) and
`loewner.model_poles`.

Two kernels skip work their callers never read, and keep LAPACK's bits:

* `solve_checked` decides singularity by `np.linalg.cond`, a full SVD per
  block.  A 2x2 block first goes through a closed-form screen,
  cond_2(S) <= ||S||_F^2 / |det S| (equal to c + 1/c); a block the screen
  places 100x below COND_LIMIT cannot exceed it, so only the others reach
  `np.linalg.cond`.  Blocks with a non-finite entry are NaN without a LAPACK
  call.
* `trailing_right_singular_vector` of a tall A takes the SVD of A's R
  factor.  From floor(17 cols / 9) rows on (LAPACK's MNTHR1), zgesdd factors
  A = QR itself and bidiagonalizes R; asking numpy for R alone skips the
  rows x cols Q that the economy SVD forms and the caller discards.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, ParameterError

# relative thresholds: double-precision noise floor with headroom
EPS_FINITE = 1e-12  # |beta| below this (relative) flags an infinite eigenvalue
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
    """The unit vector c minimizing ||A @ c||_2: the last right singular vector.

    For a wide A (rows < cols) this is a null vector, from the full V.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    rows, cols = A.shape
    if rows >= 17 * cols // 9:
        A = np.linalg.qr(A, mode="r")  # zgesdd's own R: same bits, no Q
    return _svd(A, rows < cols)[2][-1].conj()


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


def _surely_well_conditioned(S):
    """For an (N, 2, 2) stack: which blocks surely have cond_2 <= COND_LIMIT / 100.

    ||S||_F^2 / |det S| = (s1^2 + s2^2) / (s1 s2) = c + 1/c bounds c = cond_2.
    Each block is scaled by its largest real or imaginary part, so that
    neither ||S||_F^2 nor det S overflows, and det S underflows only where it
    is too small to clear the block; a zero block turns NaN and is not
    cleared.  A cleared block has |det| >= 1e-12 ||S||_F^2, so the few ulps of
    ||S||_F^2 that the computed det can be off move the bound by under 0.1%.
    """
    scale = np.maximum(np.abs(S.real), np.abs(S.imag)).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        A = S / scale[:, None, None]
        fro2 = np.sum(A.real**2 + A.imag**2, axis=(1, 2))
        det = np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])
        return fro2 <= COND_LIMIT / 100 * det


def solve_checked(S, T):
    """S_i^-1 T_i for each pair of an (N, k, k) and an (N, k, n) stack.

    Where S_i is numerically singular (condition number above COND_LIMIT) or
    not finite, the block is NaN instead: a model evaluated there is not
    evaluable.
    """
    X = np.full(T.shape, np.nan, dtype=complex)
    ok = np.isfinite(S).all(axis=(1, 2))
    unsure = ok & ~_surely_well_conditioned(S) if S.shape[1] == 2 else ok.copy()
    ok[unsure] = np.linalg.cond(S[unsure]) <= COND_LIMIT
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
    import scipy.linalg  # here, not at module scope: nothing else needs scipy

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

