"""Dense complex linear-algebra contract shared by every fitter.

Thin wrappers around LAPACK with the conventions the fitters rely on:
descending singular values, minimum-norm least squares, the
singularity-checked solve every matrix model evaluates with, and (alpha,
beta) generalized eigenvalue pairs.

Everything here runs on numpy and on the OpenBLAS that numpy's wheel
bundles.  Five LAPACK routines of that library are called through `ctypes`,
each through `_lapack`, which makes the workspace query, calls and checks
INFO: `zggev`, for numpy has no QZ; `zgelqf` and `zgeqrf`, for the
triangular factors the weight SVDs start from; `zgesdd`, which `_svd` calls
as `np.linalg.svd` does but without its copies; and `zgelsd`, which `lstsq`
calls as `np.linalg.lstsq` does, also without them.  blockrat loads no
second OpenBLAS, with a thread count of its own.  Where numpy links another
BLAS (MKL, Accelerate, a system library) or a bundled OpenBLAS lacks a
routine, `gen_eig` falls back to `scipy.linalg.eig`, from the optional
`scipy` extra, the weight SVDs to `np.linalg.qr` and the SVD of the matrix
itself, `_svd` to `np.linalg.svd` and `lstsq` to `np.linalg.lstsq`.

Every function keeps LAPACK's bits and skips work its callers never read.
The weight SVD `trailing_left_singular_block` runs in
`_one_openblas_thread`, the one window that limits OpenBLAS to one thread.
Each function states its rule and the reason for it.
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
    "svd_full", "singular_values", "trailing_left_singular_block", "trailing_right_singular_vector",
    "lstsq", "solve_checked", "gen_eig", "finite_eigenvalues",
]


def _numpy_svd(M, full_matrices, compute_uv=True):
    """The SVD of M as a complex matrix through `np.linalg.svd`, where `_svd` says."""
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


# below SMALL_ENTRIES entries (128 KiB, glibc's default mmap threshold) numpy's
# gufuncs copy their operands cheaply and cost less per call than LAPACK
# through `ctypes`: `_svd` runs `np.linalg.svd` there for JOBZ 'S' and 'N', and
# `trailing_right_singular_vector` `np.linalg.qr`; a tall A of the latter with
# rows x cols^2 up to SMALL_TALL takes the economy SVD of A itself
SMALL_ENTRIES, SMALL_TALL = 8192, 800


def svd_full(M, overwrite=False):
    """(u, s, vh) of the full SVD of M, with the bits of `np.linalg.svd(M)`:
    `_svd` with JOBZ = 'A'.  u and vh are Fortran-ordered, and with
    `overwrite=True` zgesdd may destroy M, as `_svd` says."""
    return _svd(M, b"A", overwrite)


def singular_values(M):
    """The singular values of M, descending, without forming U or V, for callers
    that only count a numerical rank: `_svd` with JOBZ = 'N', the bits of
    `np.linalg.svd(M, compute_uv=False)`."""
    return _svd(M, b"N")


def _svd(M, jobz, overwrite=False):
    """The SVD of M by `_zgesdd` with JOBZ `jobz`, with the bits of `np.linalg.svd`.

    JOBZ b'A' gives (u, s, vh) with the full u and vh, b'S' the economy
    ones, b'N' s alone.  numpy's SVD holds M, U, V* and zgesdd's real
    workspace in one buffer and copies U and V* out once more.  Here zgesdd,
    called through `_lapack` at the process's thread count, writes them
    straight into the arrays returned, Fortran-ordered, and destroys one
    copy of M, or with `overwrite=True` a writeable, aligned,
    Fortran-contiguous complex M itself, with the same bits.  Where
    `_zgesdd` is None, and for JOBZ 'S' and 'N' below `SMALL_ENTRIES`,
    `np.linalg.svd` runs instead.  An empty M raises `ParameterError`, and a
    non-finite one `NumericalError`, before LAPACK is reached.  RWORK has
    the length zgesdd documents (LAPACK before 3.7 included), half of
    numpy's, whose 5 MB at 250 x 250 came in transparent huge pages and
    moved the benchmark's peak RSS; zgesdd takes no LRWORK to round by.
    """
    zgesdd = _zgesdd()
    if zgesdd is None or (jobz != b"A" and np.size(M) < SMALL_ENTRIES):
        return _numpy_svd(M, jobz == b"A", compute_uv=jobz != b"N")
    M = _svd_input(M)
    rows, cols = M.shape
    k = min(rows, cols)
    A = M if _writeable_fortran(M, overwrite) else np.array(M, order="F")
    s = np.empty(k)
    shapes = {b"A": ((rows, rows), (cols, cols)), b"S": ((rows, k), (k, cols)), b"N": ((1, 1), (1, 1))}[jobz]
    u, vh = (np.empty(shape, dtype=complex, order="F") for shape in shapes)  # 1 x 1 for 'N': never referenced
    rwork = np.empty(7 * k if jobz == b"N" else max(5 * k * k + 7 * k, 2 * max(rows, cols) * k + 2 * k * k + k))
    iwork = np.empty(8 * k, dtype=np.int64)
    m, n, ldu, ldvt = (ctypes.c_int64(i) for i in (rows, cols, u.shape[0], vh.shape[0]))
    head = (jobz, ctypes.byref(m), ctypes.byref(n), A.ctypes.data, ctypes.byref(m), s.ctypes.data,
            u.ctypes.data, ctypes.byref(ldu), vh.ctypes.data, ctypes.byref(ldvt))
    _lapack(zgesdd, f"SVD did not converge for shape {M.shape}: zgesdd", head,
            (rwork.ctypes.data, iwork.ctypes.data, _INFO, 1))
    _check_singular_values(s, M.shape)
    return s if jobz == b"N" else (u, s, vh)


_INFO = object()  # stands for INFO in the arguments `_lapack` passes


def _lapack(routine, failure, head, tail, query_head=None):
    """Call `routine(*head, WORK, LWORK, *tail)` as numpy calls LAPACK: a
    workspace query with LWORK = -1 (and `query_head` for `head` where
    given), then the call with the lengths it answers, at least 1.  In
    `tail`, `_INFO` stands for INFO, and `float` or `np.int64` for a
    workspace whose length the query answers too (zgelsd's RWORK and IWORK).
    A nonzero INFO raises `NumericalError`: `failure`, then INFO.
    """
    lwork, info = ctypes.c_int64(-1), ctypes.c_int64(0)
    tail = [ctypes.byref(info) if a is _INFO else a for a in tail]
    answered = {i: np.empty(1, dtype=a) for i, a in enumerate(tail) if a is float or a is np.int64}
    work = np.empty(1, dtype=complex)
    for args in (query_head or head, head):
        for i, space in answered.items():
            tail[i] = space.ctypes.data
        routine(*args, work.ctypes.data, ctypes.byref(lwork), *tail)
        if lwork.value == -1:  # the query, answered in WORK(1) and the answered workspaces
            lwork.value = max(int(work[0].real), 1)
            work = np.empty(lwork.value, dtype=complex)
            answered = {i: np.empty(max(int(w[0]), 1), dtype=w.dtype) for i, w in answered.items()}
    if info.value:
        raise NumericalError(f"{failure} info={info.value}")


def _writeable_fortran(M, overwrite):
    """Whether LAPACK may overwrite M itself: `overwrite` is set and M is writeable, aligned and Fortran-contiguous."""
    return overwrite and M.flags.f_contiguous and M.flags.writeable and M.flags.aligned


@functools.cache
def _openblas_function(name, restype, *argtypes):
    """The function `name` of the OpenBLAS numpy's linalg uses, typed, or None.

    A numpy wheel bundles that OpenBLAS (`libscipy_openblas64_*`) in `numpy.libs`
    beside the package; loading the file again gives the library already in the
    process.  None unless that directory holds exactly one such library, with `name`.
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
    """LAPACK's zgelqf, the one numpy's SVD calls, or None: `scipy_zgelqf_64_`, for
    the wheel's OpenBLAS has 64-bit integers (ILP64) and a `scipy_` prefix.  Its
    arguments M, N, A, LDA, TAU, WORK, LWORK, INFO are pointers.  Below, four more
    routines from that library; string lengths follow their pointers."""
    return _openblas_function("scipy_zgelqf_64_", None, *[ctypes.c_void_p] * 8)


def _zgeqrf():
    """zgeqrf, the one `np.linalg.qr` calls: M, N, A, LDA, TAU, WORK, LWORK, INFO."""
    return _openblas_function("scipy_zgeqrf_64_", None, *[ctypes.c_void_p] * 8)


def _zgesdd():
    """zgesdd: JOBZ, M, N, A, LDA, S, U, LDU, VT, LDVT, WORK, LWORK, RWORK, IWORK, INFO; JOBZ's length."""
    return _openblas_function("scipy_zgesdd_64_", None, *[ctypes.c_void_p] * 15, ctypes.c_size_t)


def _zgelsd():
    """zgelsd: M, N, NRHS, A, LDA, B, LDB, S, RCOND, RANK, WORK, LWORK, RWORK, IWORK, INFO."""
    return _openblas_function("scipy_zgelsd_64_", None, *[ctypes.c_void_p] * 15)


def _zggev():
    """zggev: JOBVL, JOBVR, N, A, LDA, B, LDB, ALPHA, BETA, VL, LDVL, VR, LDVR, WORK, LWORK,
    RWORK, INFO; the lengths of JOBVL and JOBVR."""
    return _openblas_function("scipy_zggev_64_", None, *[ctypes.c_void_p] * 17, ctypes.c_size_t, ctypes.c_size_t)


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
# SMLNUM = sqrt(safmin)/eps (about 6.7e-139), or above BIGNUM = 1/SMLNUM.  The
# LQ route of `trailing_left_singular_block` and the small route of
# `trailing_right_singular_vector` take only a matrix whose largest |entry| is
# in this narrower window: there neither it nor its triangular factor, whose
# rows or columns have its norms, is rescaled
LQ_RANGE = (1e-100, 1e100)


def trailing_left_singular_block(M, m, overwrite=False):
    """The m left singular vectors for the m smallest singular values, as rows.

    Returns W of shape (m, rows(M)), scaled to unit Frobenius norm.  Among all
    unit-Frobenius-norm W with orthonormal rows this minimizes ||W @ M||_F.
    By default M is left as it was; with `overwrite=True` a writeable,
    aligned, Fortran-contiguous complex M that takes the LQ route is
    factored in place, with the same bits.

    Only U is read, and for a wide M the economy SVD also forms the rows x
    cols V*.  A wide M from cols >= floor(17 rows / 9) on (zgesdd's MNTHR1)
    therefore takes zgesdd's own route without V*: zgesdd with JOBZ='S' (its
    path 3t) factors M = L Q with zgelqf and takes U from the SVD of the
    square L.  `_lq_factor` calls the same zgelqf with the same workspace at
    the same thread count, so L, and U with it, has the economy SVD's bits.
    M takes the SVD of M itself wherever zgesdd does something else first:
    where its largest |entry| is outside `LQ_RANGE` (zgesdd rescales it;
    the test also fails on a non-finite, zero or empty M, which `_svd`
    rejects naming M's shape), where there is no zgelqf, and for a tall M,
    whose full U spans its left null space.

    M is factored on one OpenBLAS thread (`_one_openblas_thread`), so W has
    the same bits at any thread count, and block-AAA's and the bary-C
    refit's weights with it.  At their sizes a second thread also costs more
    than it saves: block-AAA's 32 x 970 matrix on `buckling` at order 15
    took 9.1 ms on two threads and 3.8 ms on one.  Every other kernel keeps
    the process's count: RKFIT rounds differently on one thread, and its
    benchmark reference was recorded on two.
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.shape[0] % m != 0:
        raise ParameterError(f"block height {m} does not divide {M.shape[0]} rows")
    with _one_openblas_thread():
        u = _left_singular_vectors(M, overwrite)
    # W is Fortran-ordered whichever SVD ran, as BlockBaryB's bits need
    return np.conjugate(u[:, -m:], order="C").T / np.sqrt(m)


def _left_singular_vectors(M, overwrite=False):
    """U of the SVD of M, full for a tall M and economy otherwise, through L
    where `trailing_left_singular_block` says."""
    rows, cols = M.shape
    if rows < cols and cols >= 17 * rows // 9 and _zgelqf() is not None and _in_lq_range(M):
        return _svd(_lq_factor(M, overwrite), b"S", overwrite=True)[0]
    return _svd(M, b"A" if rows > cols else b"S")[0]


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
    """The lower-triangular L of M = L Q, for rows <= cols, by `_zgelqf`: a view of
    `_householder`'s array with zeros above the diagonal, as zgesdd copies it, written
    one column at a time, for `np.tril`'s masked copy costs more on the smallest L."""
    rows = M.shape[0]
    L = _householder(_zgelqf(), M, overwrite, "LQ factorization", "zgelqf")[:, :rows]
    for j in range(1, rows):
        L[:j, j] = 0
    return L


def _householder(routine, M, overwrite, what, name):
    """The array that zgelqf or zgeqrf, `routine`, writes its factorization of M into.

    It is called through `_lapack` as zgesdd and `np.linalg.qr` call it, with
    the optimal workspace, which sets its block size, on a Fortran-ordered
    copy of the complex M, or with `overwrite` on a writeable, aligned,
    Fortran-contiguous M itself.  A nonzero INFO raises "`what` failed".
    """
    rows, cols = M.shape
    A = M if _writeable_fortran(M, overwrite) else np.array(M, order="F")
    tau = np.empty(min(rows, cols), dtype=complex)
    m, n = ctypes.c_int64(rows), ctypes.c_int64(cols)
    head = (ctypes.byref(m), ctypes.byref(n), A.ctypes.data, ctypes.byref(m), tau.ctypes.data)
    _lapack(routine, f"{what} failed for shape {M.shape}: {name}", head, (_INFO,))
    return A


def trailing_right_singular_vector(A, overwrite=False):
    """The unit vector c minimizing ||A @ c||_2: the last right singular vector.

    A wide A (rows < cols) takes the full V*, whose last row is a null
    vector, and a tall A below floor(17 cols / 9) rows (zgesdd's MNTHR1)
    the economy SVD.  From MNTHR1 on, zgesdd factors A = QR itself and
    takes V* from R's SVD, so A is replaced by the R of
    `np.linalg.qr(A, mode="r")`: c keeps the economy SVD's bits, and the
    rows x cols U it forms is never built.  From `SMALL_ENTRIES` entries on,
    R comes from `_zgeqrf`, called as `np.linalg.qr` calls it, on A itself
    or on one Fortran-ordered copy where numpy's QR makes three, and is
    zeroed below the diagonal by `np.triu`, as there; a non-finite entry
    raises `NumericalError` before zgeqrf is reached.  A tall A with rows x
    cols^2 up to `SMALL_TALL` and its largest |entry| in `LQ_RANGE` takes
    the economy SVD of A itself, one numpy call instead of two, with R's
    bits: zgesdd rescales neither A nor R there.  Best of 5 timeit runs at
    two threads on a C-ordered A, six runs each, R from `np.linalg.qr`
    against this function, in us: 20 x 1 22-28 against 19-20, 100 x 2
    23-26 against 22-24, 400 x 4 33-37 against 34-37 (the same route),
    2000 x 16 656-755 against 342-421.

    By default A is left as it was.  With `overwrite=True` a writeable,
    aligned, Fortran-contiguous complex A may be destroyed by zgeqrf or
    zgesdd; c has the same bits either way.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    rows, cols = A.shape
    if rows < 17 * cols // 9 or (rows * cols * cols <= SMALL_TALL and _in_lq_range(A)):
        return _svd(A, b"A" if rows < cols else b"S", overwrite)[2][-1].conj()
    if A.size >= SMALL_ENTRIES and _zgeqrf() is not None:
        R = np.triu(_householder(_zgeqrf(), _svd_input(A), overwrite, "QR factorization", "zgeqrf")[:cols])
    else:
        R = np.linalg.qr(A, mode="r")
    return _svd(R, b"S", overwrite=True)[2][-1].conj()


def lstsq(A, B, overwrite=False):
    """Minimum-norm least squares solution of A X = B; warns if A is rank-deficient.

    X has the bits of `np.linalg.lstsq(A, B, rcond=None)[0]`, and its
    C-ordered layout.  numpy's gufunc copies A and B into one buffer and X
    out of it again.  Here `_zgelsd` is called through `_lapack` as numpy
    calls it, with LDB = max(M, N) and RCOND = eps max(M, N), which is what
    `rcond=None` gives, at the process's thread count, on a Fortran-ordered
    copy of A, or with `overwrite=True` on a writeable, aligned,
    Fortran-contiguous complex A itself, with the same bits.  The rank
    warning reads zgelsd's RANK.

    A non-finite entry of A or B raises `NumericalError` before LAPACK is
    reached: zgelsd prints DLASCL's complaint to stdout on a NaN and does
    not return on an infinite entry.  `np.linalg.lstsq` itself runs where
    `_zgelsd` is None, and on an A or a B with no entries.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.asarray(B, dtype=complex)
    if A.shape[0] != B.shape[0]:
        raise ParameterError(f"row mismatch: A has {A.shape[0]}, B has {B.shape[0]}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NumericalError(f"least squares failed for shape {A.shape}: non-finite entry")
    zgelsd = _zgelsd()
    if zgelsd is None or A.ndim != 2 or B.ndim not in (1, 2) or A.size == 0 or B.size == 0:
        try:
            X, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"least squares failed for shape {A.shape}: {e}") from e
    else:
        rows, cols = A.shape
        nrhs = 1 if B.ndim == 1 else B.shape[1]
        a = A if _writeable_fortran(A, overwrite) else np.array(A, order="F")
        b = np.empty((nrhs, max(rows, cols)), dtype=complex).T  # zgelsd writes X over B
        b[:rows] = B.reshape(rows, nrhs)
        s = np.empty(min(rows, cols))
        rcond = ctypes.c_double(np.finfo(float).eps * max(rows, cols))
        m, n, k, ldb, rank = (ctypes.c_int64(i) for i in (rows, cols, nrhs, max(rows, cols), 0))
        head = (ctypes.byref(m), ctypes.byref(n), ctypes.byref(k), a.ctypes.data, ctypes.byref(m),
                b.ctypes.data, ctypes.byref(ldb), s.ctypes.data, ctypes.byref(rcond), ctypes.byref(rank))
        _lapack(zgelsd, f"least squares failed for shape {A.shape}: zgelsd", head, (float, np.int64, _INFO))
        X, rank = np.array(b[:cols], order="C"), rank.value
        X = X.reshape(cols) if B.ndim == 1 else X
    if rank < A.shape[1]:
        warnings.warn("rank-deficient least squares; using the minimum-norm solution")
    return X


# the k x k screen for k != 2 takes its blocks in chunks of about this many
# bytes, so that its three temporaries stay small beside the stack itself
SCREEN_BYTES = 1 << 16


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
    3e-4 k, which the factor 100 absorbs.  The blocks are taken in chunks of
    `SCREEN_BYTES`, each block's numbers computed as for the whole stack.
    When `inv` raises on a chunk, on an exactly singular block or on a
    non-finite one, no block of the stack is cleared.
    """
    N, k = S.shape[:2]
    parts = np.ascontiguousarray(S, dtype=complex).view(float)  # real and imaginary parts side by side
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the largest |part| of each block, without an |S| temporary; a NaN turns both NaN
        top = np.maximum(parts.max(axis=(1, 2)), -parts.min(axis=(1, 2)))
        scale = (1 / top)[:, None, None]
        if k == 2:
            A = (parts * scale).view(complex)
            det = np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])
            return _fro2(A) <= COND_LIMIT / 100 * det
        cleared = np.empty(N, dtype=bool)
        step = max(1, SCREEN_BYTES // (16 * max(k, 1) ** 2))
        for i in range(0, N, step):
            chunk = _inverse_clears(parts[i : i + step], scale[i : i + step])
            if chunk is None:
                return np.zeros(N, dtype=bool)
            cleared[i : i + step] = chunk
        return cleared


def _inverse_clears(parts, scale):
    """Which blocks of a stack, given as real parts and each block's scale, the
    inverse of the scaled blocks clears; None where `inv` raises."""
    A = (parts * scale).view(complex)
    fro2 = _fro2(A)
    try:
        Y = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    fro2 *= _fro2(Y)
    E = A @ Y
    del A, Y  # each as large as the chunk: freed once their norms are read
    k = E.shape[1]
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
    with a non-finite entry reaches neither it nor the solve, and where the
    screen clears every finite block it is not called.  Where every block
    is cleared, the stacks are solved as they are, without copies.
    """
    ok = np.isfinite(S).all(axis=(1, 2))
    unsure = ok & ~_surely_well_conditioned(S)
    if unsure.any():
        ok[unsure] = np.linalg.cond(S[unsure]) <= COND_LIMIT
    if ok.all():
        return np.linalg.solve(S, T).astype(complex, copy=False)
    X = np.full(T.shape, np.nan, dtype=complex)
    X[ok] = np.linalg.solve(S[ok], T[ok])
    return X


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
    alpha, beta, rwork = np.empty(n, complex), np.empty(n, complex), np.empty(8 * n)
    size, one = ctypes.c_int64(n), ctypes.c_int64(1)
    N, ONE = ctypes.byref(size), ctypes.byref(one)
    pencil = (N, A.ctypes.data, N, B.ctypes.data, N, alpha.ctypes.data, beta.ctypes.data)
    # VL and VR are never referenced: neither by a workspace query nor with JOBV* = 'N'
    _lapack(zggev, f"QZ iteration failed for size {n}: zggev", (b"N", b"N", *pencil, None, ONE, None, ONE),
            (rwork.ctypes.data, _INFO, 1, 1), query_head=(b"V", b"V", *pencil, None, N, None, N))
    return list(zip(alpha, beta))


def finite_eigenvalues(A, B):
    """Finite generalized eigenvalues alpha/beta of the pair (A, B)."""
    scale = max(np.linalg.norm(np.atleast_2d(A)), np.linalg.norm(np.atleast_2d(B)))
    floor = EPS_FINITE * max(scale, 1.0)
    return np.array(
        [a / b for a, b in gen_eig(A, B) if abs(b) > floor], dtype=complex
    )

