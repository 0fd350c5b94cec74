import os
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eig

import blockrat
from blockrat import kernels
from blockrat.core import NumericalError, ParameterError
from blockrat.kernels import (
    COND_LIMIT,
    _surely_well_conditioned,
    finite_eigenvalues,
    gen_eig,
    lstsq,
    singular_values,
    solve_checked,
    svd_full,
    trailing_left_singular_block,
    trailing_right_singular_vector,
)
from tests.oracles import companion_roots, cond_then_solve


class TestSvdFull:
    def test_identity(self):
        _, s, _ = svd_full(np.eye(3))
        assert np.allclose(s, [1, 1, 1])

    def test_diag_with_zero(self):
        _, s, _ = svd_full(np.diag([3.0, 0.0]))
        assert np.allclose(s, [3.0, 0.0])

    def test_random_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        u, s, vh = svd_full(M)
        v = vh.conj().T
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12
        assert np.linalg.norm(v.conj().T @ v - np.eye(7)) <= 1e-12
        S = np.zeros((5, 7))
        S[:5, :5] = np.diag(s)
        err = np.linalg.norm(M - u @ S @ v.conj().T) / np.linalg.norm(M)
        assert err <= 1e-10

    def test_large_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(200, 120)) + 1j * rng.normal(size=(200, 120))
        u, s, vh = svd_full(M)
        v = vh.conj().T
        S = np.zeros((200, 120))
        S[:120, :120] = np.diag(s)
        err = np.linalg.norm(M - u @ S @ v.conj().T) / np.linalg.norm(M)
        assert err <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(4)
        _, s, _ = svd_full(rng.normal(size=(8, 8)))
        assert np.all(np.diff(s) <= 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["square", "tall", "wide"]),
        st.integers(1, 300),
        st.integers(0, 299),
        st.floats(-300, 300),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_bytes_of_numpy_svd(self, kind, side, other, log10_scale, seed, fallback):
        """zgesdd writing into the outputs, or `np.linalg.svd` where the library
        has no zgesdd, gives `np.linalg.svd(M)` byte for byte."""
        rows, cols = {"square": (side, side), "tall": (side + other, side), "wide": (side, side + other)}[kind]
        rows, cols = min(rows, 300), min(cols, 300)
        M = _complex_normal(seed, rows, cols) * 10.0**log10_scale
        want = np.linalg.svd(M)
        with pytest.MonkeyPatch.context() as patch:
            if fallback:
                patch.setattr(kernels, "_openblas_function", lambda *args: None)
            got = svd_full(M)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["square", "tall", "wide"]),
        st.integers(1, 120),
        st.integers(0, 119),
        st.floats(-300, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_overwrite_gives_the_default_bytes(self, kind, side, other, log10_scale, seed):
        """zgesdd destroying a Fortran-ordered M gives the bytes of the default,
        which leaves M as it was."""
        rows, cols = {"square": (side, side), "tall": (side + other, side), "wide": (side, side + other)}[kind]
        M = _complex_normal(seed, rows, cols) * 10.0**log10_scale
        before = M.copy()
        want = svd_full(M)
        assert M.tobytes() == before.tobytes()
        got = svd_full(np.asfortranarray(M), overwrite=True)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("make", [
        lambda: _complex_normal(18, 7, 5),
        lambda: _read_only(np.asfortranarray(_complex_normal(18, 7, 5))),
        lambda: np.asfortranarray(_complex_normal(18, 7, 5).real),
    ], ids=["C-ordered", "read-only", "real"])
    def test_overwrite_copies_any_other_M(self, make):
        M = make()
        before = M.copy()
        want = svd_full(before)
        assert [a.tobytes() for a in svd_full(M, overwrite=True)] == [a.tobytes() for a in want]
        assert M.tobytes() == before.tobytes()

    def test_overwrite_destroys_a_fortran_ordered_complex_M(self):
        if kernels._zgesdd() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgesdd")
        M = np.asfortranarray(_complex_normal(19, 7, 5))
        before = M.copy()
        want = svd_full(before)
        assert [a.tobytes() for a in svd_full(M, overwrite=True)] == [a.tobytes() for a in want]
        assert M.tobytes() != before.tobytes()

    def test_zgesdd_writes_the_outputs(self, monkeypatch):
        zgesdd = kernels._zgesdd()
        if zgesdd is None:  # CI fails when it is missing, so this cannot pass there on the fallback
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgesdd")
        calls = []

        def spy(*args):
            calls.append(args[0])
            zgesdd(*args)

        monkeypatch.setattr(kernels, "_zgesdd", lambda: spy)
        u, s, vh = svd_full(_complex_normal(5, 6, 9))
        assert calls == [b"A", b"A"]  # the workspace query, then the SVD
        assert u.flags.f_contiguous and vh.flags.f_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_nonfinite_entry_raises_before_lapack(self, monkeypatch, bad):
        def unreachable(*args):
            raise AssertionError("zgesdd reached")

        monkeypatch.setattr(kernels, "_zgesdd", lambda: unreachable)
        M = _complex_normal(6, 4, 3)
        M[2, 1] = bad
        with pytest.raises(NumericalError, match=r"SVD did not converge for shape \(4, 3\): non-finite entry"):
            svd_full(M)
        with pytest.raises(ParameterError):
            svd_full(np.zeros((0, 3)))

    def test_nonzero_info_raises(self, monkeypatch):
        zgesdd = kernels._zgesdd()
        if zgesdd is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgesdd")

        def failing(*args):
            zgesdd(*args)
            args[14]._obj.value = 3  # INFO, passed by reference

        monkeypatch.setattr(kernels, "_zgesdd", lambda: failing)
        with pytest.raises(NumericalError, match=r"shape \(5, 5\): zgesdd info=3"):
            svd_full(_complex_normal(7, 5, 5))


class TestTrailingLeftSingularBlock:
    def test_m1_matches_trailing_vector(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        W = trailing_left_singular_block(M, 1)
        u, s, _ = svd_full(M)
        # equal to the trailing left singular vector up to a unimodular factor
        assert abs(abs(np.vdot(u[:, -1], W.conj().ravel())) - 1.0) <= 1e-12
        assert np.linalg.norm(W @ M) == pytest.approx(s[-1], rel=1e-10)

    def test_exact_left_nullspace(self):
        rng = np.random.default_rng(6)
        # 6x8 with rank 4: a 2-dimensional left null space by construction
        P = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        Q = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        M = P @ Q
        W = trailing_left_singular_block(M, 2)
        assert np.linalg.norm(W @ M) <= 1e-12 * np.linalg.norm(M)

    def test_identity_unit_frobenius(self):
        W = trailing_left_singular_block(np.eye(4), 2)
        assert np.linalg.norm(W) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(W @ np.eye(4)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_minimality_against_random_competitors(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        W = trailing_left_singular_block(M, 2)
        best = np.linalg.norm(W @ M)
        for _ in range(10):
            Y = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
            Y, _ = np.linalg.qr(Y.conj().T)
            Y = Y.conj().T / np.sqrt(2)  # orthonormal rows, unit Frobenius
            assert best <= np.linalg.norm(Y @ M) + 1e-10

    def test_nondividing_height_rejected(self):
        with pytest.raises(ParameterError):
            trailing_left_singular_block(np.eye(5), 2)

    @pytest.mark.parametrize("shape, m", [((6, 40), 2), ((4, 9), 1), ((9, 4), 3), ((12, 5), 4), ((6, 6), 2)])
    def test_orthonormal_rows_and_trailing_energy(self, shape, m):
        """Wide, square and tall: W W* = I/m and ||W M||_F^2 = (sum of the m smallest sigma^2)/m.

        For a tall M the left singular vectors past its column count span its
        left null space and count with sigma = 0.
        """
        rng = np.random.default_rng(sum(shape))
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        W = trailing_left_singular_block(M, m)
        assert W.shape == (m, shape[0])
        assert np.linalg.norm(W @ W.conj().T - np.eye(m) / m) <= 1e-14
        s = np.zeros(shape[0])
        s[: min(shape)] = np.linalg.svd(M, compute_uv=False)
        want = np.sqrt(np.sum(np.sort(s)[:m] ** 2) / m)
        assert np.linalg.norm(W @ M) == pytest.approx(want, rel=1e-12, abs=1e-14 * s[0])
        if shape[0] - shape[1] >= m:  # m null-space vectors exist
            assert np.linalg.norm(W @ M) <= 1e-14 * s[0]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            trailing_left_singular_block(np.zeros((0, 3)), 1)


# block-AAA on buckling at order 15, then the bary-C refit on its support
# points, in a fresh interpreter: the weight bytes, as hex digests
THREAD_SCRIPT = r"""
import hashlib

import numpy as np

from blockrat import AaaOptions, block_aaa
from blockrat.barycentric import solve_weights_baryC
from blockrat.cli import problem_buckling

samples = problem_buckling().samples
model = block_aaa(samples, AaaOptions(tol=1e-13, max_order=15)).model
rest = np.flatnonzero(~np.isin(samples.points, model.nodes))
refit = solve_weights_baryC(samples.subset(rest), model.nodes)
for w in (model.weights, refit.numer, refit.denom):
    print(hashlib.sha256(w.tobytes()).hexdigest())
"""


# a weight SVD of 2^19 entries, in a fresh interpreter: its bytes, as a hex digest
LARGE_SVD_SCRIPT = r"""
import hashlib

import numpy as np

from blockrat.kernels import trailing_left_singular_block

rng = np.random.default_rng(5)
M = rng.normal(size=(128, 4096)) + 1j * rng.normal(size=(128, 4096))
print(hashlib.sha256(trailing_left_singular_block(M, 4).tobytes()).hexdigest())
"""


def _weight_digests(threads, script=THREAD_SCRIPT):
    src = str(Path(blockrat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _setter_or_skip():
    setter = kernels._openblas_thread_setter()
    if setter is None:
        pytest.skip("numpy's linalg has no bundled OpenBLAS with openblas_set_num_threads_local")
    return setter


def _openblas_count(setter):
    count = setter(1)
    setter(count)
    return count


class TestOneThreadWeightSvd:
    """The weight SVD runs on one OpenBLAS thread at every matrix size."""

    def test_block_aaa_and_baryC_weights_do_not_depend_on_the_thread_count(self):
        assert _weight_digests(1) == _weight_digests(2)

    def test_weight_svd_above_2_18_entries_does_not_depend_on_the_thread_count(self):
        # 128 x 4096 complex entries, 2^19: larger than any weight SVD of a
        # built-in problem, and where a second thread would round differently
        assert _weight_digests(1, LARGE_SVD_SCRIPT) == _weight_digests(2, LARGE_SVD_SCRIPT)

    @pytest.mark.parametrize("limited", [False, True])
    def test_thread_count_is_restored(self, limited):
        # also when the process's count was lowered to one before the call
        setter = _setter_or_skip()
        before = setter(1) if limited else _openblas_count(setter)
        try:
            M = np.random.default_rng(0).normal(size=(32, 970)) + 0j
            trailing_left_singular_block(M, 2)
            assert _openblas_count(setter) == (1 if limited else before)
        finally:
            setter(before)

    def test_thread_count_is_restored_when_the_svd_raises(self, monkeypatch):
        setter = _setter_or_skip()
        before = _openblas_count(setter)

        def failing_svd(*args):
            raise NumericalError("SVD did not converge")

        monkeypatch.setattr(kernels, "_svd", failing_svd)
        with pytest.raises(NumericalError):
            trailing_left_singular_block(np.ones((4, 6)), 2)
        assert _openblas_count(setter) == before

    def test_without_the_library_the_svd_runs_as_it_is(self, monkeypatch):
        monkeypatch.setattr(kernels, "_openblas_thread_setter", lambda: None)
        M = np.random.default_rng(1).normal(size=(32, 970)) + 1j * np.random.default_rng(2).normal(size=(32, 970))
        want = np.linalg.svd(M, full_matrices=False)[0][:, -2:].conj().T / np.sqrt(2)
        assert trailing_left_singular_block(M, 2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("listdir, cdll", [
        (FileNotFoundError, None),  # no numpy.libs directory: not a wheel
        ([], None),  # no bundled library
        (["libgfortran.so.5"], None),  # none of them OpenBLAS
        (["libscipy_openblas_missing.so"], None),  # dlopen fails: OSError
        (["libscipy_openblas_old.so"], lambda path: types.SimpleNamespace()),  # no such function
    ])
    def test_loader_finds_nothing(self, monkeypatch, listdir, cdll):
        import ctypes

        def fake_listdir(path):
            if isinstance(listdir, type):
                raise listdir(path)
            return listdir

        monkeypatch.setattr(kernels.os, "listdir", fake_listdir)
        if cdll is not None:
            monkeypatch.setattr(ctypes, "CDLL", cdll)
        for name in ("openblas_set_num_threads_local", "scipy_zgelqf_64_", "scipy_zggev_64_"):
            assert kernels._openblas_function.__wrapped__(name, None) is None

    # 2^18 entries and two more: no size escapes the limit
    @pytest.mark.parametrize("cols", [2**17, 2**17 + 1])
    def test_limit_at_every_size(self, monkeypatch, cols):
        seen = []

        def spy(k):
            seen.append(k)
            return 7

        monkeypatch.setattr(kernels, "_openblas_thread_setter", lambda: spy)
        M = np.random.default_rng(3).normal(size=(2, cols)) + 0j
        trailing_left_singular_block(M, 1)
        assert seen == [1, 7]

    def test_concurrent_calls_leave_the_thread_count(self):
        # the count is the process's: two threads interleaving their limit and
        # restore without the lock can leave it at one
        setter = _setter_or_skip()
        before = _openblas_count(setter)
        M = np.random.default_rng(4).normal(size=(16, 100)) + 0j
        want = trailing_left_singular_block(M, 2).tobytes()
        got = []

        def work():
            for _ in range(50):
                got.append(trailing_left_singular_block(M, 2).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == [want] * 200
        assert _openblas_count(setter) == before


def _fake_setter(monkeypatch, count):
    """Stands in for OpenBLAS's setter, with the process's count `count`; returns its state."""
    state = {"count": count, "calls": []}

    def setter(k):
        state["calls"].append(k)
        old, state["count"] = state["count"], k
        return old

    monkeypatch.setattr(kernels, "_openblas_thread_setter", lambda: setter)
    return state


class TestOneOpenblasThread:
    """`kernels._one_openblas_thread`, the one window that limits OpenBLAS to one thread."""

    def test_nested_window_reads_one_and_restores_the_outer_count(self):
        setter = _setter_or_skip()
        before = _openblas_count(setter)
        with kernels._one_openblas_thread():
            with kernels._one_openblas_thread():
                assert _openblas_count(setter) == 1
            assert _openblas_count(setter) == 1
        assert _openblas_count(setter) == before

    def test_nested_window_restores_each_count(self, monkeypatch):
        # a count of 7 outside, which the real library at one thread cannot show
        state = _fake_setter(monkeypatch, 7)
        with kernels._one_openblas_thread():
            with kernels._one_openblas_thread():
                assert state["count"] == 1
            assert state["count"] == 1
        assert state["count"] == 7
        assert state["calls"] == [1, 1, 1, 7]

    def test_count_is_restored_when_the_body_raises(self, monkeypatch):
        state = _fake_setter(monkeypatch, 7)
        with pytest.raises(RuntimeError, match="body"):
            with kernels._one_openblas_thread():
                raise RuntimeError("body")
        assert state["count"] == 7
        assert state["calls"] == [1, 7]

    def test_without_the_setter_the_window_is_a_no_op(self, monkeypatch):
        setter = _setter_or_skip()
        before = _openblas_count(setter)
        monkeypatch.setattr(kernels, "_openblas_thread_setter", lambda: None)
        with kernels._one_openblas_thread():
            assert _openblas_count(setter) == before
        assert _openblas_count(setter) == before


def _economy_u_on_one_thread(M):
    with kernels._one_openblas_thread():
        return np.linalg.svd(M, False)[0]


def _lq_spy(monkeypatch):
    """Records the shape of each M that `_lq_factor`, so the LQ route, factors."""
    calls = []
    lq_factor = kernels._lq_factor
    monkeypatch.setattr(kernels, "_lq_factor", lambda M, overwrite=False: calls.append(M.shape) or lq_factor(M, overwrite))
    return calls


def _complex_normal(seed, rows, cols):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestLqRoute:
    """A wide M from zgesdd's MNTHR1 on goes through zgelqf's L, with the economy SVD's bits."""

    @pytest.fixture(autouse=True)
    def _skip_without_the_route(self):
        # CI fails when either is missing, so these tests cannot pass there on the fallback alone
        if kernels._zgelqf() is None or kernels._openblas_thread_setter() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgelqf and openblas_set_num_threads_local")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 64), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_u_and_the_weight_block_are_the_economy_svd_bytes(self, rows, data, seed):
        # from one column below MNTHR1 up to 1000 columns
        cols = data.draw(st.integers(max(17 * rows // 9 - 1, 1), 1000), label="cols")
        M = _complex_normal(seed, rows, cols)
        u = _economy_u_on_one_thread(M)
        with kernels._one_openblas_thread():
            assert kernels._left_singular_vectors(M).tobytes() == u.tobytes()
        W = u[:, -1:].conj().T / np.sqrt(1)
        assert trailing_left_singular_block(M, 1).tobytes() == W.tobytes()

    @pytest.mark.parametrize("rows", range(1, 65))
    def test_both_sides_of_mnthr1(self, monkeypatch, rows):
        calls = _lq_spy(monkeypatch)
        for cols in (17 * rows // 9 - 1, 17 * rows // 9):
            if cols == 0:
                continue
            M = _complex_normal(rows * cols, rows, cols)
            W = _economy_u_on_one_thread(M)[:, -1:].conj().T / np.sqrt(1)
            assert trailing_left_singular_block(M, 1).tobytes() == W.tobytes()
        # a square M (1 x 1 and 2 x 2) and a wide one below MNTHR1 keep the SVD of M
        assert calls == ([(rows, 17 * rows // 9)] if rows >= 2 else [])

    @pytest.mark.parametrize("scale, lq", [
        (0.5 * kernels.LQ_RANGE[0], False),
        (2.0 * kernels.LQ_RANGE[0], True),
        (0.5 * kernels.LQ_RANGE[1], True),
        (2.0 * kernels.LQ_RANGE[1], False),
        (1e-145, False),  # where zgesdd rescales M
        (1e145, False),
        (0.0, False),
    ])
    def test_largest_entry_outside_the_window_takes_the_svd(self, monkeypatch, scale, lq):
        calls = _lq_spy(monkeypatch)
        M = _complex_normal(8, 6, 40)
        M *= scale / np.abs(M).max()
        want = _economy_u_on_one_thread(M)[:, -2:].conj().T / np.sqrt(2)
        assert trailing_left_singular_block(M, 2).tobytes() == want.tobytes()
        assert calls == ([(6, 40)] if lq else [])

    def test_nan_entry_is_the_svd_error(self, monkeypatch):
        calls = _lq_spy(monkeypatch)
        M = _complex_normal(9, 4, 20)
        M[1, 3] = complex(1.0, np.nan)
        with pytest.raises(NumericalError, match=r"SVD did not converge for shape \(4, 20\)"):
            trailing_left_singular_block(M, 2)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.inf, complex(-np.inf, np.nan)])
    def test_infinite_entry_is_the_svd_error(self, monkeypatch, bad):
        # zgesdd scales an infinite M by zero and returns NaN without an error;
        # `_svd` raises before it is reached, as it does on a NaN entry
        calls = _lq_spy(monkeypatch)
        M = _complex_normal(9, 4, 20)
        M[1, 3] = bad
        with pytest.raises(NumericalError, match=r"SVD did not converge for shape \(4, 20\)"):
            trailing_left_singular_block(M, 2)
        assert calls == []

    def test_without_the_library_the_bytes_are_unchanged(self, monkeypatch):
        M = _complex_normal(10, 32, 970)
        want = np.linalg.svd(M, full_matrices=False)[0][:, -2:].conj().T / np.sqrt(2)
        monkeypatch.setattr(kernels, "_openblas_function", lambda *args: None)
        calls = _lq_spy(monkeypatch)
        assert trailing_left_singular_block(M, 2).tobytes() == want.tobytes()
        assert calls == []

    def test_without_zgelqf_the_bytes_are_unchanged(self, monkeypatch):
        M = _complex_normal(11, 32, 970)
        want = _economy_u_on_one_thread(M)[:, -2:].conj().T / np.sqrt(2)
        monkeypatch.setattr(kernels, "_zgelqf", lambda: None)
        calls = _lq_spy(monkeypatch)
        assert trailing_left_singular_block(M, 2).tobytes() == want.tobytes()
        assert calls == []

    def test_zgelqf_runs_on_one_thread(self, monkeypatch):
        events = []
        zgelqf = kernels._zgelqf()

        def setter(k):
            events.append(("threads", k))
            return 7

        def spy(*args):
            events.append("zgelqf")
            zgelqf(*args)

        monkeypatch.setattr(kernels, "_openblas_thread_setter", lambda: setter)
        monkeypatch.setattr(kernels, "_zgelqf", lambda: spy)
        trailing_left_singular_block(_complex_normal(12, 4, 100), 2)
        # the workspace query, then the factorization
        assert events == [("threads", 1), "zgelqf", "zgelqf", ("threads", 7)]

    def test_nonzero_info_raises_and_restores_the_thread_count(self, monkeypatch):
        setter = kernels._openblas_thread_setter()
        before = _openblas_count(setter)
        zgelqf = kernels._zgelqf()

        def failing(*args):
            zgelqf(*args)
            args[-1]._obj.value = -7  # INFO, passed by reference

        monkeypatch.setattr(kernels, "_zgelqf", lambda: failing)
        with pytest.raises(NumericalError, match=r"shape \(4, 100\): zgelqf info=-7"):
            trailing_left_singular_block(_complex_normal(13, 4, 100), 2)
        assert _openblas_count(setter) == before


def _read_only(M):
    M.flags.writeable = False
    return M


# a wide M, which takes the LQ route, in either order, and a square and a
# tall one, which take the SVD of M
LAYOUTS = {
    "wide C-ordered": lambda: _complex_normal(14, 6, 80),
    "wide Fortran-ordered": lambda: np.asfortranarray(_complex_normal(14, 6, 80)),
    "square Fortran-ordered": lambda: np.asfortranarray(_complex_normal(15, 6, 6)),
    "tall Fortran-ordered": lambda: np.asfortranarray(_complex_normal(16, 80, 6)),
}


class TestLqRangeCheck:
    """`_in_lq_range` is the test `LOW <= max|M| <= HIGH`, without forming |M| away from the edges."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([-100, 100]), st.floats(-1, 1), st.booleans())
    def test_is_the_exact_test(self, seed, edge, offset, fortran):
        # the largest |entry| within a factor 10 of either edge of the window
        M = _complex_normal(seed, 5, 12) * 10.0 ** (edge + offset)
        if fortran:
            M = np.asfortranarray(M)
        low, high = kernels.LQ_RANGE
        assert kernels._in_lq_range(M) == (low <= np.abs(M).max() <= high)

    @pytest.mark.parametrize("edge", [0, 1])
    def test_sqrt2_band(self, edge):
        # a part just inside the window; the entry a (1 + i) is sqrt(2) a, and a alone is a
        bound = kernels.LQ_RANGE[edge]
        a = bound * (0.8 if edge == 0 else 1.0)
        diagonal, real = np.full((2, 8), a * (1 + 1j)), np.full((2, 8), a + 0j)
        assert kernels._in_lq_range(diagonal) == (edge == 0)
        assert kernels._in_lq_range(real) == (edge == 1)

    @pytest.mark.parametrize("make", [lambda M: M, np.asfortranarray])
    def test_inside_the_window_no_array_is_formed(self, make):
        M = make(_complex_normal(16, 64, 2000))  # 2 MB
        tracemalloc.start()
        try:
            assert kernels._in_lq_range(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000

    @pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan), np.inf])
    def test_nonfinite_entry_fails(self, bad):
        M = _complex_normal(17, 3, 9)
        M[1, 4] = bad
        assert not kernels._in_lq_range(M)

    def test_empty_and_zero_fail(self):
        assert not kernels._in_lq_range(np.zeros((0, 4), dtype=complex))
        assert not kernels._in_lq_range(np.zeros((2, 4), dtype=complex))


class TestOverwrite:
    """`overwrite=True` may factor a writeable, Fortran-contiguous complex M in place, with W's bits."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_default_leaves_M_as_it_was(self, layout):
        M = LAYOUTS[layout]()
        before = M.copy()
        trailing_left_singular_block(M, 2)
        assert M.tobytes() == before.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: _complex_normal(17, 6, 80),
        lambda: _read_only(np.asfortranarray(_complex_normal(17, 6, 80))),
        lambda: np.asfortranarray(_complex_normal(17, 6, 80).real),
        LAYOUTS["square Fortran-ordered"],
        LAYOUTS["tall Fortran-ordered"],
    ], ids=["C-ordered", "read-only", "real", "square", "tall"])
    def test_any_other_M_is_copied_not_written(self, make):
        M = make()
        before = M.copy()
        want = trailing_left_singular_block(before, 2)
        assert trailing_left_singular_block(M, 2, overwrite=True).tobytes() == want.tobytes()
        assert M.tobytes() == before.tobytes()

    def test_a_fortran_ordered_complex_M_is_factored_in_place_with_the_default_bytes(self):
        if kernels._zgelqf() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgelqf")
        M = LAYOUTS["wide Fortran-ordered"]()
        before = M.copy()
        want = trailing_left_singular_block(before, 2)
        assert trailing_left_singular_block(M, 2, overwrite=True).tobytes() == want.tobytes()
        assert M.tobytes() != before.tobytes()


class TestTrailingRightSingularVector:
    def test_minimal_residual_unit_vector(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        c = trailing_right_singular_vector(A)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        assert np.linalg.norm(A @ c) == pytest.approx(smin, rel=1e-12)

    def test_exact_null_vector(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        c = trailing_right_singular_vector(A)
        assert np.linalg.norm(A @ c) <= 1e-14
        assert abs(abs(c[0]) - np.sqrt(0.5)) <= 1e-14

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            trailing_right_singular_vector(np.zeros((0, 3)))

    def test_nonfinite_matrix_raises_numerical_error(self):
        A = np.ones((4, 2))
        A[1, 1] = np.nan
        with pytest.raises(NumericalError):
            trailing_right_singular_vector(A)

    def test_wide_matrix_gives_a_null_vector(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        c = trailing_right_singular_vector(A)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(A @ c) <= 1e-14 * np.linalg.norm(A)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 40), st.booleans())
    def test_tall_matrix_keeps_the_economy_svd_bits(self, seed, cols, extra, rank_deficient):
        """From floor(17 cols / 9) rows on, the result is the economy SVD's last row of V*, byte for byte."""
        rng = np.random.default_rng(seed)
        rows = 17 * cols // 9 + extra
        A = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        if rank_deficient and cols > 1:
            A[:, -1] = (0.5 - 2j) * A[:, 0]
        want = np.linalg.svd(A, full_matrices=False)[2][-1].conj()
        assert trailing_right_singular_vector(A).tobytes() == want.tobytes()


def _r_first(A):
    """The trailing vector from the SVD of `np.linalg.qr`'s R, as it was taken before zgeqrf."""
    return np.linalg.svd(np.linalg.qr(A, mode="r"), full_matrices=False)[2][-1].conj()


def _route_spy(monkeypatch):
    """Records ("qr", shape) for each A that zgeqrf factors and ("svd", shape) for each SVD `_svd` takes."""
    calls = []
    householder, svd = kernels._householder, kernels._svd
    monkeypatch.setattr(kernels, "_householder", lambda routine, M, *args: calls.append(("qr", M.shape)) or householder(routine, M, *args))
    monkeypatch.setattr(kernels, "_svd", lambda M, jobz, overwrite=False: calls.append(("svd", np.shape(M))) or svd(M, jobz, overwrite))
    return calls


# (rows, cols) on either side of each cut: MNTHR1 = floor(17 cols / 9),
# SMALL_TALL on rows x cols^2 and SMALL_ENTRIES on rows x cols
EDGES = [(2, 2), (3, 2), (29, 16), (30, 16),
         (800, 1), (801, 1), (200, 2), (201, 2), (88, 3), (89, 3), (50, 4), (51, 4),
         (8191, 1), (8192, 1), (2047, 4), (2048, 4), (511, 16), (512, 16)]


def _route(rows, cols, in_range=True):
    """The calls `_route_spy` records for an A of this shape."""
    if rows < 17 * cols // 9 or (rows * cols * cols <= kernels.SMALL_TALL and in_range):
        return [("svd", (rows, cols))]
    return ([("qr", (rows, cols))] if rows * cols >= kernels.SMALL_ENTRIES else []) + [("svd", (cols, cols))]


class TestTrailingRightRoutes:
    """Every route of a tall A keeps the bits of the SVD of `np.linalg.qr`'s R, and a shorter one the economy SVD's."""

    @pytest.fixture(autouse=True)
    def _skip_without_the_route(self):
        # CI fails when it is missing, so these tests cannot pass there on the fallback alone
        if kernels._zgeqrf() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgeqrf")

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(EDGES), st.sampled_from(["C", "F", "strided"]), st.sampled_from([-200, 0, 200]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_bytes_on_both_sides_of_each_cut(self, edge, layout, log10_scale, rank_deficient, seed):
        rows, cols = edge
        A = _complex_normal(seed, rows, cols) * 10.0**log10_scale
        if rank_deficient and cols > 1:
            A[:, -1] = (0.5 - 2j) * A[:, 0]
        A = {"C": A, "F": np.asfortranarray(A), "strided": np.repeat(A, 2, axis=0)[::2]}[layout]
        before = A.copy()
        want = np.linalg.svd(A, full_matrices=False)[2][-1].conj() if rows < 17 * cols // 9 else _r_first(A)
        with pytest.MonkeyPatch.context() as patch:
            calls = _route_spy(patch)
            got = trailing_right_singular_vector(A)
        assert got.tobytes() == want.tobytes()
        assert A.tobytes() == before.tobytes()
        assert calls == _route(rows, cols, in_range=log10_scale == 0)

    @pytest.mark.parametrize("make", [
        lambda: _complex_normal(33, 600, 16),
        lambda: _read_only(np.asfortranarray(_complex_normal(33, 600, 16))),
        lambda: np.asfortranarray(_complex_normal(33, 600, 16).real),
        lambda: np.asfortranarray(_complex_normal(33, 1200, 16))[::2],
    ], ids=["C-ordered", "read-only", "real", "strided"])
    def test_overwrite_copies_any_other_A(self, make):
        A = make()
        before = A.copy()
        want = trailing_right_singular_vector(before)
        assert trailing_right_singular_vector(A, overwrite=True).tobytes() == want.tobytes()
        assert A.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [(600, 16), (100, 90), (90, 100)], ids=["zgeqrf", "economy SVD", "wide"])
    def test_overwrite_destroys_a_fortran_ordered_complex_A(self, shape):
        A = np.asfortranarray(_complex_normal(34, *shape))
        before = A.copy()
        want = trailing_right_singular_vector(before)
        assert trailing_right_singular_vector(A, overwrite=True).tobytes() == want.tobytes()
        assert A.tobytes() != before.tobytes()

    def test_without_the_library_the_r_is_numpys(self, monkeypatch):
        A = _complex_normal(35, 700, 16)
        want = _r_first(A)
        calls, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(args[0].shape) or qr(*args, **kwargs))
        monkeypatch.setattr(kernels, "_openblas_function", lambda *args: None)
        assert trailing_right_singular_vector(A).tobytes() == want.tobytes()
        assert calls == [(700, 16)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("rows", [40, 700])  # the R of np.linalg.qr, and zgeqrf's
    def test_nonfinite_entry_raises_before_zgeqrf_and_prints_nothing(self, monkeypatch, capfd, bad, rows):
        def unreachable(*args):
            raise AssertionError("zgeqrf reached")

        monkeypatch.setattr(kernels, "_zgeqrf", lambda: unreachable)
        A = _complex_normal(36, rows, 16)
        A[5, 3] = bad
        with pytest.raises(NumericalError, match=r"SVD did not converge for shape \((700|16), 16\): non-finite entry"):
            trailing_right_singular_vector(A)
        assert capfd.readouterr() == ("", "")

    def test_nonzero_info_raises(self, monkeypatch):
        zgeqrf = kernels._zgeqrf()

        def failing(*args):
            zgeqrf(*args)
            args[-1]._obj.value = -4  # INFO, passed by reference

        monkeypatch.setattr(kernels, "_zgeqrf", lambda: failing)
        with pytest.raises(NumericalError, match=r"QR factorization failed for shape \(700, 16\): zgeqrf info=-4"):
            trailing_right_singular_vector(_complex_normal(37, 700, 16))


def _unitary(rng, k):
    return np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]


def _blocks_of_known_condition(rng, k, log10_conds, log10_scales):
    """U diag(s) V* per block, s log-spaced from 1 down to 1/cond, times a scale."""
    S = np.empty((len(log10_conds), k, k), dtype=complex)
    for i, (c, a) in enumerate(zip(log10_conds, log10_scales)):
        s = 10.0 ** (a - np.linspace(0, c, k))
        S[i] = (_unitary(rng, k) * s) @ _unitary(rng, k).conj().T
    return S


class TestSolveChecked:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 2, 3]), st.integers(1, 3))
    def test_matches_cond_then_solve_bytes(self, seed, k, n):
        """Condition numbers log-uniform in [1, 1e17] and clustered at COND_LIMIT,
        scales 1e-300 to 1e300, and zero, rank-one and non-finite blocks."""
        rng = np.random.default_rng(seed)
        conds = np.concatenate([rng.uniform(0, 17, 60), rng.uniform(13.9, 14.1, 60)])
        scales = np.concatenate([rng.uniform(-2, 2, 60), rng.uniform(-300, 300, 60)])
        S = _blocks_of_known_condition(rng, k, conds, rng.permutation(scales))
        rank_one = rng.normal(size=(6, k, 1)) @ rng.normal(size=(6, 1, k)) * (1 + 1j)
        special = np.concatenate([np.zeros((2, k, k)), rank_one, rank_one * 1e-300, rank_one * 1e300])
        bad = S[:4].copy()
        bad[:, 0, -1] = [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)]
        S = rng.permutation(np.concatenate([S, special, bad]))
        T = rng.normal(size=(len(S), k, n)) + 1j * rng.normal(size=(len(S), k, n))
        assert solve_checked(S, T).tobytes() == cond_then_solve(S, T).tobytes()

    def test_singular_slice_is_nan_and_the_rest_solve(self):
        rng = np.random.default_rng(13)
        S = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        S[2] = np.diag([1.0, 1.0, 0.0])
        S[3, 0] = 1e-15 * S[3, 1]  # numerically singular: condition number above the limit
        T = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
        assert np.linalg.cond(S[3]) > COND_LIMIT
        X = solve_checked(S, T)
        assert np.isnan(X[2:]).all()
        for i in (0, 1):
            assert X[i].tobytes() == np.linalg.solve(S[i], T[i]).tobytes()

    def test_empty_stack(self):
        assert solve_checked(np.zeros((0, 2, 2)), np.zeros((0, 2, 1))).shape == (0, 2, 1)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 8, 15]), st.integers(1, 3))
    def test_stacks_of_several_chunks_match_cond_then_solve_bytes(self, seed, k, n):
        """As `test_matches_cond_then_solve_bytes`, over 3.5 of the screen's
        chunks: condition numbers in [1, 1e17] and clustered at COND_LIMIT / 100
        and COND_LIMIT, scales 1e-300 to 1e300, zero, rank-one and non-finite
        blocks."""
        rng = np.random.default_rng(seed)
        size = 7 * (kernels.SCREEN_BYTES // (16 * k * k)) // 2
        third = size // 3
        conds = np.concatenate([rng.uniform(0, 17, third), rng.uniform(11.9, 12.1, third),
                                rng.uniform(13.9, 14.1, size - 2 * third)])
        S = _blocks_of_known_condition(rng, k, conds, rng.uniform(-300, 300, size))
        rank_one = rng.normal(size=(4, k, 1)) @ rng.normal(size=(4, 1, k)) * (1 + 1j)
        bad = S[:4].copy()
        bad[:, 0, -1] = [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)]
        S = rng.permutation(np.concatenate([S, np.zeros((2, k, k)), rank_one, bad]))
        T = rng.normal(size=(len(S), k, n)) + 1j * rng.normal(size=(len(S), k, n))
        assert solve_checked(S, T).tobytes() == cond_then_solve(S, T).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 15])
    def test_no_condition_number_when_every_block_is_cleared(self, monkeypatch, k):
        rng = np.random.default_rng(200 + k)
        S = _blocks_of_known_condition(rng, k, rng.uniform(0, 10, 300), rng.uniform(-300, 300, 300))
        T = rng.normal(size=(300, k, 2)) + 1j * rng.normal(size=(300, k, 2))
        want = cond_then_solve(S, T)
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda M, *args: calls.append(M.shape) or cond(M, *args))
        assert solve_checked(S, T).tobytes() == want.tobytes()
        assert calls == []
        S[5] = 0  # one block the screen cannot clear
        solve_checked(S, T)
        assert calls == [(1, k, k)]


def _growth_worst_case(k):
    """1 on the diagonal and in the last column, -1 below: partial pivoting grows it by 2^(k-1)."""
    W = np.eye(k) - np.tril(np.ones((k, k)), -1)
    W[:, -1] = 1
    return W.astype(complex)


def _with_condition(M, log10_cond):
    """M with its smallest singular value moved to s_1 / 10^log10_cond."""
    u, s, vh = np.linalg.svd(M)
    s[-1] = s[0] * 10.0**-log10_cond
    return (u * s) @ vh


class TestKxkScreen:
    """`solve_checked` clears k x k blocks (k != 2) with one batched inverse."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, 4, 8, 15]),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_cond_then_solve_bytes(self, seed, k, n, zero, rank_one, nonfinite):
        """Condition numbers log-uniform in [1, 1e17] and clustered at COND_LIMIT / 100
        and COND_LIMIT, scales 1e-300 to 1e300, and optionally zero, rank-one
        (for k > 1 these make `inv` raise) and non-finite blocks."""
        rng = np.random.default_rng(seed)
        conds = np.concatenate([rng.uniform(0, 17, 40), rng.uniform(11.9, 12.1, 40), rng.uniform(13.9, 14.1, 40)])
        scales = np.concatenate([rng.uniform(-2, 2, 60), rng.uniform(-300, 300, 60)])
        blocks = [_blocks_of_known_condition(rng, k, conds, rng.permutation(scales))]
        if zero:
            blocks.append(np.zeros((2, k, k)))
        if rank_one:
            r1 = rng.normal(size=(3, k, 1)) @ rng.normal(size=(3, 1, k)) * (1 + 1j)
            blocks += [r1, r1 * 1e-300, r1 * 1e300]
        if nonfinite:
            bad = blocks[0][:4].copy()
            bad[:, 0, -1] = [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)]
            blocks.append(bad)
        S = rng.permutation(np.concatenate(blocks))
        T = rng.normal(size=(len(S), k, n)) + 1j * rng.normal(size=(len(S), k, n))
        assert solve_checked(S, T).tobytes() == cond_then_solve(S, T).tobytes()

    @pytest.mark.parametrize("k", [3, 4, 8, 15])  # at k = 1 the one singular block is zero, which turns NaN
    def test_one_exactly_singular_block(self, k):
        rng = np.random.default_rng(k)
        S = _blocks_of_known_condition(rng, k, rng.uniform(0, 10, 20), rng.uniform(-300, 300, 20))
        S[7] = np.diag(np.arange(k) > 0).astype(complex)  # a zero pivot: inv raises for the stack
        T = rng.normal(size=(20, k, 2)) + 1j * rng.normal(size=(20, k, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(S)
        assert not _surely_well_conditioned(S).any()
        X = solve_checked(S, T)
        assert X.tobytes() == cond_then_solve(S, T).tobytes()
        assert np.isnan(X[7]).all() and not np.isnan(np.delete(X, 7, axis=0)).any()

    @pytest.mark.parametrize("k", [1, 3, 4, 8, 15])
    def test_well_conditioned_blocks_are_all_cleared(self, k):
        """The screen is what spares `np.linalg.cond`: it must clear the easy blocks."""
        rng = np.random.default_rng(100 + k)
        S = _blocks_of_known_condition(rng, k, rng.uniform(0, 10, 50), rng.uniform(-300, 300, 50))
        assert _surely_well_conditioned(S).all()

    def test_inverse_with_a_large_residual_clears_nothing(self, monkeypatch):
        """||S|| ||Y|| bounds cond_2 only for a Y that passes the residual check."""
        rng = np.random.default_rng(3)
        S = _blocks_of_known_condition(rng, 4, [13.0] * 5, [0.0] * 5)  # cond 1e13, above what may clear
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda A: inv(A) / 1e6)  # ||S|| ||Y|| about 1e7
        assert not _surely_well_conditioned(S).any()

    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_empty_stack(self, k):
        assert solve_checked(np.zeros((0, k, k)), np.zeros((0, k, 2))).shape == (0, k, 2)

    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_chunks_of_a_few_blocks_clear_what_the_whole_stack_clears(self, monkeypatch, k):
        """Chunks of 7 blocks and a remainder clear exactly the blocks one chunk clears."""
        rng = np.random.default_rng(300 + k)
        conds = np.concatenate([rng.uniform(0, 17, 40), rng.uniform(11.9, 12.1, 40)])
        S = _blocks_of_known_condition(rng, k, conds, rng.uniform(-300, 300, 80))
        S[:3] = 0  # each NaN after scaling: not cleared
        S = rng.permutation(S)
        whole = _surely_well_conditioned(S)
        monkeypatch.setattr(kernels, "SCREEN_BYTES", 7 * 16 * k * k)
        assert _surely_well_conditioned(S).tobytes() == whole.tobytes()
        assert whole.any() and not whole.all()

    @pytest.mark.parametrize("k", [3, 15])
    def test_a_singular_block_in_a_later_chunk_clears_nothing(self, monkeypatch, k):
        rng = np.random.default_rng(400 + k)
        S = _blocks_of_known_condition(rng, k, rng.uniform(0, 10, 50), rng.uniform(-300, 300, 50))
        S[37] = np.diag(np.arange(k) > 0).astype(complex)  # a zero pivot: inv raises for its chunk
        monkeypatch.setattr(kernels, "SCREEN_BYTES", 10 * 16 * k * k)
        assert not _surely_well_conditioned(S).any()
        T = rng.normal(size=(50, k, 2)) + 1j * rng.normal(size=(50, k, 2))
        assert solve_checked(S, T).tobytes() == cond_then_solve(S, T).tobytes()

    def test_partial_pivoting_worst_case(self):
        """k = 15 with growth 2^14, as it is and moved to condition numbers around the limits."""
        rng = np.random.default_rng(15)
        W = _growth_worst_case(15)
        S = np.stack([W] + [_with_condition(W, c) for c in (10, 11.9, 12, 12.1, 13, 13.9, 14, 14.1, 16, 17)])
        S = np.concatenate([S * a for a in (1e-300, 1.0, 1e300)])
        T = rng.normal(size=(len(S), 15, 3)) + 1j * rng.normal(size=(len(S), 15, 3))
        assert _surely_well_conditioned(S[:1]).all()
        assert solve_checked(S, T).tobytes() == cond_then_solve(S, T).tobytes()


class TestSingularValues:
    def test_matches_svd_full_values(self):
        rng = np.random.default_rng(21)
        for shape in [(50, 100), (100, 50), (7, 7), (1, 5)]:
            A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            s = singular_values(A)
            _, want, _ = svd_full(A)
            assert s.shape == want.shape
            assert np.all(np.diff(s) <= 0)
            assert np.abs(s - want).max() <= 1e-13 * s[0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["square", "tall", "wide"]),
        st.integers(1, 150),
        st.integers(0, 149),
        st.floats(-300, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_bytes_of_numpy_svd(self, kind, side, other, log10_scale, seed):
        """zgesdd with JOBZ = 'N' from SMALL_ENTRIES entries on, np.linalg.svd below: its bytes either way."""
        rows, cols = {"square": (side, side), "tall": (side + other, side), "wide": (side, side + other)}[kind]
        M = _complex_normal(seed, rows, cols) * 10.0**log10_scale
        assert singular_values(M).tobytes() == np.linalg.svd(M, compute_uv=False).tobytes()

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            singular_values(np.zeros((0, 3)))

    def test_nonfinite_matrix_raises_numerical_error(self):
        A = np.ones((3, 4))
        A[0, 0] = np.nan
        with pytest.raises(NumericalError):
            singular_values(A)

    def test_infinite_entry_raises_numerical_error(self):
        # where zgesdd returns NaN singular values with INFO 0
        A = np.ones((3, 4), dtype=complex)
        A[0, 0] = complex(0, np.inf)
        with pytest.raises(NumericalError, match=r"shape \(3, 4\)"):
            singular_values(A)

    @pytest.mark.parametrize("svd", [singular_values, svd_full])
    def test_infinite_matrix_prints_nothing(self, capfd, svd):
        # zgesdd's scaling of an all-infinite M once printed DLASCL's complaint
        # to stdout, the stream `blockrat-fit` writes its CSV table to
        with pytest.raises(NumericalError, match=r"shape \(3, 3\)"):
            svd(np.full((3, 3), np.inf) + 0j)
        assert capfd.readouterr() == ("", "")


class TestLstsq:
    def test_square_nonsingular(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 2)) + 0j
        assert np.linalg.norm(lstsq(A, B) - np.linalg.solve(A, B)) <= 1e-10

    def test_overdetermined_consistent(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(8, 3)) + 0j
        X = rng.normal(size=(3, 2)) + 0j
        got = lstsq(A, A @ X)
        assert np.linalg.norm(got - X) <= 1e-10

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
        B = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
        X = lstsq(A, B)
        assert np.linalg.norm(A.conj().T @ (A @ X - B)) <= 1e-10

    def test_nonfinite_matrix_raises_numerical_error(self):
        A = np.array([[np.nan, 1.0], [2.0, 3.0]])
        with pytest.raises(NumericalError):
            lstsq(A, np.ones(2))

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["tall", "wide", "square"]),
        st.integers(1, 60),
        st.integers(0, 60),
        st.sampled_from([0, 1, 3]),
        st.floats(-300, 300),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_bytes_of_numpy_lstsq(self, kind, side, other, nrhs, log10_scale, seed, deficient, overwrite, fallback):
        """zgelsd on A, or on a copy of it, gives `np.linalg.lstsq(A, B, rcond=None)[0]`
        byte for byte, with its shape and C order, and warns where its rank is
        below A's columns; so does the fallback where the library has no zgelsd.
        B is 1-D where `nrhs` is 0."""
        rows, cols = {"square": (side, side), "tall": (side + other, side), "wide": (side, side + other)}[kind]
        A = _complex_normal(seed, rows, cols) * 10.0**log10_scale
        if deficient and cols > 1:
            A[:, -1] = (0.5 - 2j) * A[:, 0]
        B = _complex_normal(seed + 1, rows, max(nrhs, 1))
        if nrhs == 0:
            B = B[:, 0]
        want, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        if overwrite:
            A = np.asfortranarray(A)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if fallback:
                patch.setattr(kernels, "_openblas_function", lambda *args: None)
            got = lstsq(A, B, overwrite=overwrite)
        assert got.tobytes() == want.tobytes()
        assert got.shape == want.shape and got.flags.c_contiguous
        assert [str(w.message) for w in caught if w.category is UserWarning] == (
            ["rank-deficient least squares; using the minimum-norm solution"] * int(rank < cols))

    def test_overwrite_destroys_a_fortran_ordered_complex_A(self):
        if kernels._zgelsd() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgelsd")
        A = np.asfortranarray(_complex_normal(20, 30, 6))
        B = _complex_normal(21, 30, 2)
        before = A.copy()
        want = lstsq(before, B)
        assert A.tobytes() == before.tobytes()
        assert lstsq(A, B, overwrite=True).tobytes() == want.tobytes()
        assert A.tobytes() != before.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: _complex_normal(22, 30, 6),
        lambda: _read_only(np.asfortranarray(_complex_normal(22, 30, 6))),
        lambda: np.asfortranarray(_complex_normal(22, 30, 6).real),
    ], ids=["C-ordered", "read-only", "real"])
    def test_overwrite_copies_any_other_A(self, make):
        A = make()
        before = A.copy()
        B = _complex_normal(23, 30, 1)[:, 0]
        assert lstsq(A, B, overwrite=True).tobytes() == lstsq(before, B).tobytes()
        assert A.tobytes() == before.tobytes()

    def test_zgelsd_factors_in_place(self, monkeypatch):
        zgelsd = kernels._zgelsd()
        if zgelsd is None:  # CI fails when it is missing, so this cannot pass there on the fallback
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgelsd")
        calls = []

        def spy(*args):
            calls.append(args[3])
            zgelsd(*args)

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq reached")

        monkeypatch.setattr(kernels, "_zgelsd", lambda: spy)
        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        A = np.asfortranarray(_complex_normal(24, 12, 4))
        lstsq(A, np.ones(12), overwrite=True)
        assert calls == [A.ctypes.data] * 2  # the workspace query, then the solve, on A itself

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("in_b", [False, True])
    def test_nonfinite_entry_raises_before_lapack(self, monkeypatch, capfd, bad, in_b):
        """zgelsd prints DLASCL's complaint on a NaN and does not return on an infinite entry."""
        def unreachable(*args):
            raise AssertionError("zgelsd reached")

        monkeypatch.setattr(kernels, "_zgelsd", lambda: unreachable)
        A, B = _complex_normal(25, 5, 3), _complex_normal(26, 5, 2)
        (B if in_b else A)[3, 1] = bad
        with pytest.raises(NumericalError, match=r"least squares failed for shape \(5, 3\): non-finite entry"):
            lstsq(A, B)
        assert capfd.readouterr() == ("", "")

    def test_nonzero_info_raises(self, monkeypatch):
        zgelsd = kernels._zgelsd()
        if zgelsd is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgelsd")

        def failing(*args):
            zgelsd(*args)
            args[14]._obj.value = 2  # INFO, passed by reference

        monkeypatch.setattr(kernels, "_zgelsd", lambda: failing)
        with pytest.raises(NumericalError, match=r"shape \(6, 4\): zgelsd info=2"):
            lstsq(_complex_normal(27, 6, 4), np.ones(6))

    @pytest.mark.parametrize("shape, b_shape", [((0, 3), (0,)), ((4, 0), (4, 2)), ((4, 3), (4, 0))])
    def test_no_entries_take_numpy(self, shape, b_shape):
        A, B = np.zeros(shape, dtype=complex), np.ones(b_shape, dtype=complex)
        want, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = lstsq(A, B)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGenEig:
    def test_diagonal_pair(self):
        vals = finite_eigenvalues(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(sorted(vals.real), [2, 3])

    def test_one_infinite_flag(self):
        pairs = gen_eig(np.eye(2), np.diag([1.0, 0.0]))
        flagged = sum(1 for _, b in pairs if abs(b) <= 1e-12 * 2)
        assert flagged == 1
        assert finite_eigenvalues(np.eye(2), np.diag([1.0, 0.0])).size == 1

    def test_determinant_residual(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        for lam in finite_eigenvalues(A, B):
            s = np.linalg.svd(A - lam * B, compute_uv=False)
            assert s[-1] <= 1e-10 * s[0]

    def test_matches_standard_eigs_for_identity_B(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        got = np.sort_complex(finite_eigenvalues(A, np.eye(6)))
        want = np.sort_complex(np.linalg.eigvals(A))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
    def test_pairs_are_scipy_eig_bytes(self, seed, n, singular):
        # the pairs of scipy.linalg.eig(A, B, right=False,
        # homogeneous_eigvals=True), bit for bit, with B regular or singular
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if singular:
            r = int(rng.integers(0, n))
            B = B[:, :r] @ (rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
        alpha, beta = eig(A, B, right=False, homogeneous_eigvals=True)
        pairs = gen_eig(A, B)
        assert len(pairs) == n
        assert np.array(pairs).tobytes() == np.column_stack([alpha, beta]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("in_b", [False, True])
    def test_nonfinite_entry_raises_before_lapack(self, monkeypatch, bad, in_b):
        monkeypatch.setattr(kernels, "_zggev", lambda: pytest.fail("LAPACK was reached"))
        A, B = np.eye(3, dtype=complex), np.eye(3, dtype=complex)
        (B if in_b else A)[1, 2] = bad
        with pytest.raises(ParameterError) as info:
            gen_eig(A, B)
        assert isinstance(info.value, ValueError)  # what scipy's check_finite raised

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (2, 3)), ((2, 2), (3, 3)), ((2, 2, 2), (2, 2, 2))])
    def test_non_square_or_unequal_pencil_rejected(self, a_shape, b_shape):
        with pytest.raises(ParameterError):
            gen_eig(np.ones(a_shape), np.ones(b_shape))

    @pytest.mark.parametrize("n, singular", [(1, False), (6, False), (6, True), (30, False)])
    def test_without_zggev_the_pairs_are_scipy_eig_bytes(self, monkeypatch, n, singular):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = np.diag(np.arange(n) % 2) + 0j if singular else np.eye(n) + 1j * rng.normal(size=(n, n))
        alpha, beta = eig(A, B, right=False, homogeneous_eigvals=True)
        monkeypatch.setattr(kernels, "_zggev", lambda: None)
        assert np.array(gen_eig(A, B)).tobytes() == np.column_stack([alpha, beta]).tobytes()

    def test_empty_pencil_has_no_eigenvalues(self):
        assert gen_eig(np.zeros((0, 0)), np.zeros((0, 0))) == []

    def test_qz_failure_raises_numerical_error_with_size(self, monkeypatch):
        zggev = kernels._zggev()
        if zggev is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zggev")

        def failing(*args):
            zggev(*args)
            args[16]._obj.value = 5  # INFO, passed by reference

        monkeypatch.setattr(kernels, "_zggev", lambda: failing)
        with pytest.raises(NumericalError, match="size 4: zggev info=5"):
            gen_eig(np.eye(4), np.eye(4))

    def test_qz_failure_without_zggev_raises_numerical_error_with_size(self, monkeypatch):
        import scipy.linalg

        def failing_eig(*args, **kwargs):
            raise np.linalg.LinAlgError("generalized eig algorithm did not converge (info=5)")

        monkeypatch.setattr(kernels, "_zggev", lambda: None)
        monkeypatch.setattr(scipy.linalg, "eig", failing_eig)
        with pytest.raises(NumericalError, match="size 4: generalized eig"):
            gen_eig(np.eye(4), np.eye(4))


class TestCompanionRoots:
    def test_quadratic(self):
        roots = np.sort_complex(companion_roots([-1, 0, 1]))  # z^2 - 1
        assert np.allclose(roots, [-1, 1])

    def test_linear(self):
        assert companion_roots([-5, 1]) == pytest.approx([5])

    def test_cubic_expanded(self):
        # (z-1)(z-2)(z-3) = z^3 - 6z^2 + 11z - 6
        roots = np.sort(companion_roots([-6, 11, -6, 1]).real)
        assert np.allclose(roots, [1, 2, 3], atol=1e-10)

    def test_trailing_near_zero_trimmed(self):
        roots = companion_roots([-5, 1, 1e-16])
        assert roots == pytest.approx([5])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParameterError):
            companion_roots([0, 0, 0])
