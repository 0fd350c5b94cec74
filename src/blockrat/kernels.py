"""Dense complex linear-algebra contract shared by every fitter.

Thin wrappers around LAPACK with the conventions the fitters rely on:
descending singular values, minimum-norm least squares, the
singularity-checked solve every matrix model evaluates with, and (alpha,
beta) generalized eigenvalue pairs.

Everything here runs on numpy and on the OpenBLAS that numpy's wheel
bundles.  Three LAPACK routines of that library are called through
`ctypes`: `zggev`, for numpy has no QZ; `zgelqf`, for the weight SVD; and
`zgesdd`, which `svd_full` calls as `np.linalg.svd` does but without its
copies.  blockrat loads no second OpenBLAS, with a thread count of its own.
Where numpy links another BLAS (MKL, Accelerate, a system library) or a
bundled OpenBLAS lacks a routine, `gen_eig` falls back to
`scipy.linalg.eig`, from the optional `scipy` extra, the weight SVD to the
SVD of the matrix itself, and `svd_full` to `np.linalg.svd`.

`solve_checked`, `trailing_right_singular_vector` and `singular_values`
skip work their callers never read, and keep LAPACK's bits.  The weight SVD
`trailing_left_singular_block` runs in `_one_openblas_thread`, the one window
that limits OpenBLAS to one thread, and takes a wide matrix's U from the L of
OpenBLAS's own zgelqf, as zgesdd does, without V*.  Each function states its
rule and the reason for it.
"""

import contextlib
import ctypes  # numpy has loaded it: the OpenBLAS functions below are called through it
import functools
import os
import threading
import warnings

import numpy as np

from .core import NumericalError, ParameterError

# relative thresholds: double-precision noise floor with headroom
EPS_FINITE = 1e-12  # |beta| below this (relative) flags an infinite eigenvalue
# matrix "inverses" in model evaluation are linear solves; beyond this
# condition estimate the matrix is declared singular instead of returning garbage
COND_LIMIT = 1e14

__all__ = [
    "svd_full",
    "singular_values",
    "trailing_left_singular_block",
    "trailing_right_singular_vector",
    "lstsq",
    "solve_checked",
    "gen_eig",
    "finite_eigenvalues",
]


def _svd(M, full_matrices, compute_uv=True):
    """The SVD of M as a complex matrix through `np.linalg.svd`."""
    M = _svd_input(M)
    try:
        usv = np.linalg.svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD did not converge for shape {M.shape}: {e}") from e
    _check_singular_values(usv[1] if compute_uv else usv, M.shape)
    return usv


def _svd_input(M):
    """M as a complex matrix, checked as every SVD here checks it before LAPACK is reached."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.size == 0:
        raise ParameterError("cannot take the SVD of an empty matrix")
    if not np.isfinite(M).all():  # zgesdd would print DLASCL's complaint to stdout on an infinite entry
        raise NumericalError(f"SVD did not converge for shape {M.shape}: non-finite entry")
    return M


def _check_singular_values(s, shape):
    """Raise where the singular values of a finite matrix overflowed."""
    if not np.isfinite(s).all():
        raise NumericalError(f"SVD did not converge for shape {shape}: non-finite singular values")


def svd_full(M):
    """(u, s, vh) of the full SVD of M, with the bits of `np.linalg.svd(M)`.

    numpy's SVD holds a copy of M, U, V* and zgesdd's real workspace in one
    buffer and then copies U and V* out once more.  Here `_zgesdd` is called
    as numpy calls it: JOBZ = 'A', after a workspace query, with the LWORK
    that query returns, at the process's thread count.  It writes U, s and
    V* straight into the arrays returned, so u and vh are Fortran-ordered,
    and the only copy of M is the one it destroys.  Where `_zgesdd` is
    None, `np.linalg.svd` itself runs.  An empty M raises `ParameterError`,
    and a non-finite one `NumericalError`, before LAPACK is reached.

    RWORK has the length zgesdd documents for JOBZ = 'A' with mn and mx
    the smaller and larger side, max(5 mn^2 + 7 mn, 2 mx mn + 2 mn^2 + mn),
    where 7 mn covers LAPACK before 3.7: about half of numpy's, which counts
    complex entries.  zgesdd takes no LRWORK, so the length cannot enter
    its arithmetic.  numpy's length is 5 MB at 250 x 250, and numpy asks the
    kernel for transparent huge pages on an array from 4 MiB on: the part
    LAPACK touches then came in 2 MB pages, which moved the benchmark's
    peak RSS by up to 2 MB from run to run.
    """
    zgesdd = _zgesdd()
    if zgesdd is None:
        return _svd(M, True)
    M = _svd_input(M)
    rows, cols = M.shape
    k = min(rows, cols)
    A = np.array(M, order="F")
    s = np.empty(k)
    u = np.empty((rows, rows), dtype=complex, order="F")
    vh = np.empty((cols, cols), dtype=complex, order="F")
    rwork = np.empty(max(5 * k * k + 7 * k, 2 * max(rows, cols) * k + 2 * k * k + k))
    iwork = np.empty(8 * k, dtype=np.int64)
    work = np.empty(1, dtype=complex)
    m, n, lwork, info = (ctypes.c_int64(i) for i in (rows, cols, -1, 0))
    ROWS, COLS = ctypes.byref(m), ctypes.byref(n)
    head = (b"A", ROWS, COLS, A.ctypes.data, ROWS, s.ctypes.data, u.ctypes.data, ROWS, vh.ctypes.data, COLS)
    tail = (ctypes.byref(lwork), rwork.ctypes.data, iwork.ctypes.data, ctypes.byref(info), 1)
    zgesdd(*head, work.ctypes.data, *tail)  # lwork -1: a query
    lwork.value = max(int(work[0].real), 1)  # numpy's guard against a zero answer
    work = np.empty(lwork.value, dtype=complex)
    zgesdd(*head, work.ctypes.data, *tail)
    if info.value:
        raise NumericalError(f"SVD did not converge for shape {M.shape}: zgesdd info={info.value}")
    _check_singular_values(s, M.shape)
    return u, s, vh


def singular_values(M):
    """The singular values of M, descending, without forming U or V, for callers
    that only count a numerical rank."""
    return _svd(M, False, compute_uv=False)


@functools.cache
def _openblas_function(name, restype, *argtypes):
    """The function `name` of the OpenBLAS numpy's linalg uses, typed, or None.

    A numpy wheel bundles that OpenBLAS (`libscipy_openblas64_*`) in the
    `numpy.libs` directory beside the package; loading the file again gives
    the library already in the process.  None where there is no such
    directory, not exactly one such library, or one that lacks the function.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        (file,) = (file for file in os.listdir(libs) if "openblas" in file)
        function = getattr(ctypes.CDLL(os.path.join(libs, file)), name)
    except (OSError, ValueError, AttributeError):  # ValueError: no such file, or several
        return None
    function.restype = restype
    function.argtypes = argtypes
    return function


def _openblas_thread_setter():
    """`openblas_set_num_threads_local(count)` (OpenBLAS 0.3.27 on), which returns the old count, or None."""
    return _openblas_function("openblas_set_num_threads_local", ctypes.c_int, ctypes.c_int)


def _zgelqf():
    """LAPACK's zgelqf, the one numpy's SVD calls, or None.

    The wheel's OpenBLAS is built with 64-bit integers (ILP64) and a
    `scipy_` prefix, so the Fortran symbol is `scipy_zgelqf_64_`.  Its eight
    arguments (M, N, A, LDA, TAU, WORK, LWORK, INFO) are all pointers.
    """
    return _openblas_function("scipy_zgelqf_64_", None, *[ctypes.c_void_p] * 8)


def _zgesdd():
    """LAPACK's zgesdd from the OpenBLAS of `_zgelqf`, `scipy_zgesdd_64_`, or None.

    Its 15 arguments (JOBZ, M, N, A, LDA, S, U, LDU, VT, LDVT, WORK, LWORK,
    RWORK, IWORK, INFO) are pointers; the Fortran length of the string JOBZ
    follows."""
    return _openblas_function("scipy_zgesdd_64_", None, *[ctypes.c_void_p] * 15, ctypes.c_size_t)


# OpenBLAS's thread count is one per process: this lock keeps two threads from
# interleaving their limit and restore, which could leave it at one; reentrant for nesting
_THREAD_COUNT_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_openblas_thread():
    """Run the body on one OpenBLAS thread and restore the old count, also if it raises.

    The count is the process's: a BLAS call in another thread runs on one
    thread meanwhile.  A no-op where `_openblas_thread_setter` is None.
    """
    setter = _openblas_thread_setter()
    if setter is None:
        yield
        return
    with _THREAD_COUNT_LOCK:
        count = setter(1)
        try:
            yield
        finally:
            setter(count)


# zgesdd rescales a matrix whose largest |entry| is nonzero and below
# SMLNUM = sqrt(safmin)/eps (about 6.7e-139), or above BIGNUM = 1/SMLNUM.
# The LQ route of `trailing_left_singular_block` takes only an M whose
# largest |entry| is in this narrower window: there neither M nor its L
# factor is rescaled, for L's rows have the norms of M's, so max|L| lies
# between max|M| / sqrt(rows) and max|M| * sqrt(cols)
LQ_RANGE = (1e-100, 1e100)


def trailing_left_singular_block(M, m, overwrite=False):
    """The m left singular vectors for the m smallest singular values, as rows.

    Returns W of shape (m, rows(M)), scaled to unit Frobenius norm.  Among all
    unit-Frobenius-norm W with orthonormal rows this minimizes ||W @ M||_F.

    By default M is left as it was.  With `overwrite=True` M may be
    destroyed: a writeable, aligned, Fortran-contiguous complex M that takes
    the LQ route below is factored in place, where zgelqf would otherwise
    get a copy.  Any other M, and the SVD route, are copied as by default.
    W has the same bits either way.

    Only U is read, and for a wide M the economy SVD also forms the rows x
    cols matrix V*.  A wide M from cols >= floor(17 rows / 9) on (zgesdd's
    MNTHR1) therefore takes the route LAPACK's zgesdd takes inside, without
    V*.  For such an M, zgesdd with JOBZ='S' (its path 3t) factors M = L Q
    with zgelqf, takes U from L through zgebrd, dbdsdc and zunmbr, and only
    then builds Q and V* = V_L* Q.  Here `_lq_factor` calls the same zgelqf,
    in the OpenBLAS numpy's SVD calls, with the same optimal workspace and
    at the same thread count, so L has zgesdd's bits; the SVD of the square
    L runs the same three steps on it (zgesdd's path for a square matrix),
    so U has the economy SVD's bits.

    M takes the SVD of M itself wherever zgesdd does something else first.
    zgesdd rescales M where its largest |entry| is outside `LQ_RANGE`; that
    test also catches an infinite entry, a zero M and an empty one (which
    the SVD rejects with `ParameterError`), and a NaN entry fails it; `_svd`
    raises `NumericalError` naming M's shape on both.  The SVD of M is
    also taken where numpy's linalg has no bundled OpenBLAS with zgelqf
    (MKL, Accelerate, a system library), and for a tall M, which needs the
    full U: its trailing columns span M's left null space.

    M is factored on one OpenBLAS thread, so W has the same bits at any
    thread count, and block-AAA's and the bary-C refit's weights with it.
    At the sizes they reach, a second thread also costs more than it saves:
    block-AAA's 32 x 970 matrix on `buckling` at order 15 took 9.1 ms on
    two threads and 3.8 ms on one through the economy SVD.  Every other
    kernel keeps the process's count: RKFIT's least squares and SVDs round
    differently on one thread, and their benchmark reference was recorded
    on two.  The limit is `_one_openblas_thread`'s.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] % m != 0:
        raise ParameterError(f"block height {m} does not divide {M.shape[0]} rows")
    with _one_openblas_thread():
        u = _left_singular_vectors(M, overwrite)
    return u[:, -m:].conj().T / np.sqrt(m)


def _left_singular_vectors(M, overwrite=False):
    """U of the SVD of M, full for a tall M and economy otherwise, through L
    where `trailing_left_singular_block` says."""
    rows, cols = M.shape
    if rows < cols and cols >= 17 * rows // 9 and _zgelqf() is not None and _in_lq_range(M):
        return _svd(_lq_factor(M, overwrite), False)[0]
    return _svd(M, rows > cols)[0]


def _in_lq_range(M):
    """Whether M's largest |entry| lies in `LQ_RANGE`.

    Decided from the largest |real or imaginary part| p, which allocates
    nothing for a contiguous M: the largest |entry| lies between p and
    sqrt(2) p, so |M| is formed only where p or sqrt(2) p falls in the
    window and the other does not.  A NaN fails every comparison, and an
    empty M's p is 0.
    """
    parts = M.ravel(order="K").view(float)
    p = np.maximum(parts.max(initial=0), -parts.min(initial=0))
    low, high = LQ_RANGE
    if low <= p and np.sqrt(2) * p <= high:
        return True
    if p > high or np.sqrt(2) * p < low:
        return False
    return bool(low <= np.abs(M).max(initial=0) <= high)


def _lq_factor(M, overwrite=False):
    """The lower-triangular L of M = L Q, for rows <= cols, by `_zgelqf`.

    zgelqf is called as zgesdd calls it: after a workspace query, with the
    optimal workspace, which sets the block size of its blocked Householder
    steps.  It overwrites its Fortran-ordered copy of the complex M, or with
    `overwrite` a writeable, aligned, Fortran-contiguous M itself, with L on
    and below the diagonal and Q's reflectors elsewhere.  L is returned as a
    view of that array with zeros above the diagonal, as zgesdd copies it;
    they are written in place one column at a time, for `np.tril`'s masked
    copy costs more on the smallest L.  Raises `NumericalError` when zgelqf
    reports a nonzero INFO.
    """
    rows, cols = M.shape
    zgelqf = _zgelqf()
    in_place = overwrite and M.flags.f_contiguous and M.flags.writeable and M.flags.aligned
    A = M if in_place else np.array(M, order="F")
    tau = np.empty(rows, dtype=complex)
    m, n, lwork, info = (ctypes.c_int64(k) for k in (rows, cols, -1, 0))
    head = (ctypes.byref(m), ctypes.byref(n), A.ctypes.data, ctypes.byref(m), tau.ctypes.data)
    work = np.empty(1, dtype=complex)
    zgelqf(*head, work.ctypes.data, ctypes.byref(lwork), ctypes.byref(info))  # lwork -1: a query
    lwork.value = int(work[0].real)
    work = np.empty(lwork.value, dtype=complex)
    zgelqf(*head, work.ctypes.data, ctypes.byref(lwork), ctypes.byref(info))
    if info.value:
        raise NumericalError(f"LQ factorization failed for shape {M.shape}: zgelqf info={info.value}")
    L = A[:, :rows]
    for j in range(1, rows):
        L[:j, j] = 0
    return L


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
        # the largest |part| of each block, without an |S| temporary; a NaN turns both NaN
        top = np.maximum(parts.max(axis=(1, 2)), -parts.min(axis=(1, 2)))
        A = (parts * (1 / top)[:, None, None]).view(complex)
        fro2 = _fro2(A)
        if k == 2:
            det = np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])
            return fro2 <= COND_LIMIT / 100 * det
        try:
            Y = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            return np.zeros(N, dtype=bool)
        fro2 *= _fro2(Y)
        E = A @ Y
        del A, Y  # each as large as S: freed once their norms are read
        E[:, np.arange(k), np.arange(k)] -= 1  # E = S Y - I
        r = np.sqrt(_fro2(E))
        return (r <= 0.5) & (fro2 <= ((1 - r) * (COND_LIMIT / 100)) ** 2)


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
    with a non-finite entry reaches neither it nor the solve.  Where every
    block is cleared, the stacks are solved as they are, without copies.
    """
    ok = np.isfinite(S).all(axis=(1, 2))
    unsure = ok & ~_surely_well_conditioned(S)
    ok[unsure] = np.linalg.cond(S[unsure]) <= COND_LIMIT
    if ok.all():
        return np.linalg.solve(S, T).astype(complex, copy=False)
    X = np.full(T.shape, np.nan, dtype=complex)
    X[ok] = np.linalg.solve(S[ok], T[ok])
    return X


def _zggev():
    """LAPACK's zggev from the OpenBLAS of `_zgelqf`, `scipy_zggev_64_`, or None.

    Its 17 arguments (JOBVL, JOBVR, N, A, LDA, B, LDB, ALPHA, BETA, VL, LDVL,
    VR, LDVR, WORK, LWORK, RWORK, INFO) are pointers; the Fortran lengths of
    the strings JOBVL and JOBVR follow."""
    return _openblas_function("scipy_zggev_64_", None, *[ctypes.c_void_p] * 17, ctypes.c_size_t, ctypes.c_size_t)


def gen_eig(A, B):
    """Generalized eigenvalues of (A, B) as a list of (alpha, beta) pairs.

    Each pair encodes the eigenvalue alpha/beta; pairs whose |beta| falls
    below EPS_FINITE * max(||A||, ||B||) represent infinite eigenvalues.

    QZ through LAPACK's zggev, called as `scipy.linalg.eig(A, B, right=False,
    homogeneous_eigvals=True)` calls it, so the pairs are that function's, bit
    for bit: on Fortran-ordered copies, after a workspace query with the
    wrapper's default JOBVL = JOBVR = 'V' (its LWORK sets the block sizes),
    for the eigenvalues alone with an RWORK of 8n.  That function itself runs
    where `_zggev` is None.  A non-finite entry raises `ParameterError`
    before LAPACK is reached and a 0x0 pencil has no eigenvalues, as there.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ParameterError(f"need equal square matrices, got {A.shape}, {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ParameterError("the pencil has a non-finite entry")
    if A.size == 0:
        return []
    n = A.shape[0]
    zggev = _zggev()
    if zggev is None:
        from scipy.linalg import eig  # the optional scipy extra, needed only here
        try:
            return list(zip(*eig(A, B, right=False, homogeneous_eigvals=True)))
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"QZ iteration failed for size {n}: {e}") from e
    A, B = np.array(A, order="F"), np.array(B, order="F")
    alpha, beta, work, rwork = np.empty(n, complex), np.empty(n, complex), np.empty(1, complex), np.empty(8 * n)
    size, lwork, info, one = (ctypes.c_int64(k) for k in (n, -1, 0, 1))
    N, LWORK = ctypes.byref(size), ctypes.byref(lwork)
    # each array's address is read once: numpy's `.ctypes` costs microseconds
    head = (N, A.ctypes.data, N, B.ctypes.data, N, alpha.ctypes.data, beta.ctypes.data)
    tail = (rwork.ctypes.data, ctypes.byref(info), 1, 1)
    # VL and VR are never referenced: neither by a workspace query nor with JOBV* = 'N'
    zggev(b"V", b"V", *head, None, N, None, N, work.ctypes.data, LWORK, *tail)  # lwork -1: a query
    lwork.value = int(work[0].real)
    work = np.empty(lwork.value, dtype=complex)
    zggev(b"N", b"N", *head, None, ctypes.byref(one), None, ctypes.byref(one), work.ctypes.data, LWORK, *tail)
    if info.value:
        raise NumericalError(f"QZ iteration failed for size {n}: zggev info={info.value}")
    return list(zip(alpha, beta))


def finite_eigenvalues(A, B):
    """Finite generalized eigenvalues alpha/beta of the pair (A, B)."""
    scale = max(np.linalg.norm(np.atleast_2d(A)), np.linalg.norm(np.atleast_2d(B)))
    floor = EPS_FINITE * max(scale, 1.0)
    return np.array(
        [a / b for a, b in gen_eig(A, B) if abs(b) > floor], dtype=complex
    )

