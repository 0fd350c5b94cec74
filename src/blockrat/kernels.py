"""Dense complex linear-algebra contract shared by every fitter.

Thin wrappers around LAPACK with the conventions the fitters rely on:
descending singular values, minimum-norm least squares, the
singularity-checked solve every matrix model evaluates with, and (alpha,
beta) generalized eigenvalue pairs.

Everything here runs on numpy except `gen_eig`, numpy having no QZ.  On its
first call it loads the one LAPACK routine it needs, `zggev`, from scipy's
compiled wrapper module `scipy.linalg._flapack`, by file and without running
`scipy/linalg/__init__.py`: that package import pulls in numpy.ma,
numpy.testing, numpy.f2py and some 330 modules in all (about 28 MB of RSS
and a quarter of a second), where the top-level `scipy` and the extension
load some 20 modules and about 3 MB.  So the AAA family, vector fitting and
the Loewner fit itself run on numpy alone, and scipy's wrapper loads only
where a generalized eigenproblem is solved: RKFIT's pole relocation, the
pencil linearization (`pencil_eigs`, `nonlinear_eigs_baryC`) and
`loewner.model_poles`.

`solve_checked`, `trailing_right_singular_vector` and `singular_values`
skip work their callers never read, and keep LAPACK's bits; the weight SVD
`trailing_left_singular_block` runs on one OpenBLAS thread.  Each function
states its rule and the reason for it.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
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
    "singular_values",
    "trailing_left_singular_block",
    "trailing_right_singular_vector",
    "lstsq",
    "solve_checked",
    "gen_eig",
    "finite_eigenvalues",
]


@dataclass(frozen=True, eq=False)
class SvdResult:
    u: np.ndarray  # column-orthonormal left singular vectors
    s: np.ndarray  # singular values, descending
    v: np.ndarray  # column-orthonormal right singular vectors (M = u @ diag(s) @ v*)


def _svd(M, full_matrices, compute_uv=True):
    """The SVD of M as a complex matrix: the one SVD call of the package."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.size == 0:
        raise ParameterError("cannot take the SVD of an empty matrix")
    try:
        return np.linalg.svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD did not converge for shape {M.shape}: {e}") from e


def svd_full(M):
    u, s, vh = _svd(M, True)
    return SvdResult(u, s, vh.conj().T)


def singular_values(M):
    """The singular values of M, descending, without forming U or V, for callers
    that only count a numerical rank."""
    return _svd(M, False, compute_uv=False)


@functools.cache
def _openblas_thread_setter():
    """`openblas_set_num_threads_local` of the OpenBLAS numpy's linalg uses, or None.

    A numpy wheel bundles that OpenBLAS (`libscipy_openblas64_*`) in the
    `numpy.libs` directory beside the package; loading the file again gives
    the library already in the process.  None where there is no such
    directory, not exactly one such library, or one that lacks the function
    (before 0.3.27).
    """
    import ctypes  # here, not at module scope, like scipy in `_zggev`; numpy has loaded it

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        (name,) = (name for name in os.listdir(libs) if "openblas" in name)
        setter = ctypes.CDLL(os.path.join(libs, name)).openblas_set_num_threads_local
    except (OSError, ValueError, AttributeError):  # ValueError: no such file, or several
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


# OpenBLAS's thread count is one per process: this lock keeps two threads
# from interleaving their limit and restore, which could leave it at one
_THREAD_COUNT_LOCK = threading.Lock()


def trailing_left_singular_block(M, m):
    """The m left singular vectors for the m smallest singular values, as rows.

    Returns W of shape (m, rows(M)), scaled to unit Frobenius norm.  Among all
    unit-Frobenius-norm W with orthonormal rows this minimizes ||W @ M||_F.

    M is factored on one OpenBLAS thread, so W has the same bits at any
    thread count, and block-AAA's and the bary-C refit's weights with it.
    At the sizes they reach, a second thread also costs more than it saves:
    block-AAA's 32 x 970 matrix on `buckling` at order 15 takes 9.1 ms on
    two threads and 3.8 ms on one.  Every other kernel keeps the process's
    count: RKFIT's least squares and SVDs round differently on one thread,
    and their benchmark reference was recorded on two.

    The limit goes through `openblas_set_num_threads_local` (see
    `_openblas_thread_setter`), which sets OpenBLAS's count to 1 and returns
    the old count; that count is restored, also when the SVD raises.  It is
    the process's count, so a concurrent BLAS call in another thread runs on
    one thread meanwhile.  Where numpy links another BLAS (MKL, Accelerate,
    a system library) or an OpenBLAS older than 0.3.27, the SVD runs at the
    process's count.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] % m != 0:
        raise ParameterError(f"block height {m} does not divide {M.shape[0]} rows")
    # only u is used: the economy SVD gives all of it for a wide M, and a tall
    # M needs the full u, whose trailing columns span its left null space
    full = M.shape[0] > M.shape[1]
    setter = _openblas_thread_setter()
    if setter is None:
        u = _svd(M, full)[0]
    else:
        with _THREAD_COUNT_LOCK:
            count = setter(1)
            try:
                u = _svd(M, full)[0]
            finally:
                setter(count)
    return u[:, -m:].conj().T / np.sqrt(m)


def trailing_right_singular_vector(A):
    """The unit vector c minimizing ||A @ c||_2: the last right singular vector.

    For a wide A (rows < cols) this is a null vector, from the full V.  A
    tall A from floor(17 cols / 9) rows on (LAPACK's MNTHR1) is replaced by
    its R factor: zgesdd factors A = QR itself there and bidiagonalizes R,
    so the bits are the same, and the rows x cols Q that the economy SVD
    forms and this discards is never built.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    rows, cols = A.shape
    if rows >= 17 * cols // 9:
        A = np.linalg.qr(A, mode="r")
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
    """For an (N, k, k) stack: which blocks surely have cond_2 <= COND_LIMIT / 100.

    Each block is scaled by its largest real or imaginary part, so that no
    norm below overflows; a zero or non-finite block turns NaN somewhere and
    is not cleared.

    k = 2: ||S||_F^2 / |det S| = (s1^2 + s2^2) / (s1 s2) = c + 1/c bounds
    c = cond_2.  det S underflows only where it is too small to clear the
    block.  A cleared block has |det| >= 1e-12 ||S||_F^2, so the few ulps of
    ||S||_F^2 that the computed det can be off move the bound by under 0.1%.

    Other k: with Y the computed inverse and r = ||I - S Y||_F, r < 1 gives
    ||S^-1||_2 <= ||Y||_2 / (1 - r), so cond_2 <= ||S||_F ||Y||_F / (1 - r).
    A block is cleared where r <= 1/2 and that bound is at most
    COND_LIMIT / 100; the rounding of S Y then moves r by at most about
    3e-4 k, which the factor 100 absorbs.  When `inv` raises, on an exactly
    singular block or on a non-finite one, no block is cleared.
    """
    N, k = S.shape[:2]
    parts = np.ascontiguousarray(S, dtype=complex).view(float)  # real and imaginary parts side by side
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        A = (parts * (1 / np.abs(parts).max(axis=(1, 2)))[:, None, None]).view(complex)
        fro2 = _fro2(A)
        if k == 2:
            det = np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])
            return fro2 <= COND_LIMIT / 100 * det
        try:
            Y = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            return np.zeros(N, dtype=bool)
        E = A @ Y
        E[:, np.arange(k), np.arange(k)] -= 1  # E = S Y - I
        r = np.sqrt(_fro2(E))
        return (r <= 0.5) & (fro2 * _fro2(Y) <= ((1 - r) * (COND_LIMIT / 100)) ** 2)


def _fro2(M):
    """The squared Frobenius norm of each block of a C-contiguous complex stack."""
    parts = M.view(float)
    return np.einsum("ijk,ijk->i", parts, parts)


def solve_checked(S, T):
    """S_i^-1 T_i for each pair of an (N, k, k) and an (N, k, n) stack.

    Where S_i is numerically singular (condition number above COND_LIMIT) or
    not finite, the block is NaN instead: a model evaluated there is not
    evaluable.  `np.linalg.cond` is a full SVD per block, so it sees only
    the finite blocks that `_surely_well_conditioned` cannot clear; a block
    with a non-finite entry reaches neither it nor the solve.
    """
    X = np.full(T.shape, np.nan, dtype=complex)
    ok = np.isfinite(S).all(axis=(1, 2))
    unsure = ok & ~_surely_well_conditioned(S)
    ok[unsure] = np.linalg.cond(S[unsure]) <= COND_LIMIT
    X[ok] = np.linalg.solve(S[ok], T[ok])
    return X


@functools.cache
def _zggev():
    """scipy's f2py wrapper of LAPACK's zggev, loaded without the scipy.linalg package.

    The top-level `scipy` is imported first: it gives the package directory
    and runs scipy's own start-up (its numpy version check and any
    distributor's BLAS set-up).  Loading the extension registers it in
    sys.modules; that entry is dropped again unless it was there before, so a
    later `import scipy.linalg` loads the module itself and sets it as the
    package's `_flapack` attribute, sharing the same `zggev`.
    """
    import scipy  # here, not at module scope: nothing else needs scipy

    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(path, "linalg") for path in scipy.__path__]
    )
    loaded = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not loaded:
        sys.modules.pop(name, None)
    return module.zggev


def gen_eig(A, B):
    """Generalized eigenvalues of (A, B) as a list of (alpha, beta) pairs.

    Each pair encodes the eigenvalue alpha/beta; pairs whose |beta| falls
    below EPS_FINITE * max(||A||, ||B||) represent infinite eigenvalues.

    QZ through LAPACK's zggev, called the way `scipy.linalg.eig(A, B,
    right=False, homogeneous_eigvals=True)` calls it (a workspace query with
    the wrapper's defaults, then the eigenvalues alone), so the pairs are
    that function's, bit for bit.  Its input rules are kept too: a
    non-finite entry raises `ParameterError` before LAPACK is reached and a
    0x0 pencil has no eigenvalues.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ParameterError(f"need equal square matrices, got {A.shape}, {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ParameterError("the pencil has a non-finite entry")
    if A.size == 0:
        return []
    zggev = _zggev()
    lwork = int(zggev(A, B, lwork=-1)[-2][0].real)
    alpha, beta, _, _, _, info = zggev(A, B, 0, 0, lwork, 0, 0)
    if info:
        raise NumericalError(f"QZ iteration failed for size {A.shape[0]}: zggev info={info}")
    return list(zip(alpha, beta))


def finite_eigenvalues(A, B):
    """Finite generalized eigenvalues alpha/beta of the pair (A, B)."""
    scale = max(np.linalg.norm(np.atleast_2d(A)), np.linalg.norm(np.atleast_2d(B)))
    floor = EPS_FINITE * max(scale, 1.0)
    return np.array(
        [a / b for a, b in gen_eig(A, B) if abs(b) > floor], dtype=complex
    )

