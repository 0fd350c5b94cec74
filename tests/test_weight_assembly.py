"""The weight matrices of the bary-B and bary-C solves, and the greedy loop's
Loewner tensor, each written once, against the assemblies of
`tests/oracles.py` that build them from temporaries; and the peak memory of
both weight solves.

Every entry keeps its value, so LAPACK sees the same bytes: the matrices, the
weight stacks and the bary-C eigenvalues are compared byte for byte.  CI runs
these at one and at two BLAS threads.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockrat.barycentric as bary
from blockrat import AaaOptions, SampleSet, block_aaa, logspace_imaginary, nonlinear_eigs_baryC
from blockrat.barycentric import _loewner_tensor, solve_weights_baryB, solve_weights_baryC
from tests.conftest import peak_bytes
from tests.oracles import baryB_matrix_reshaped, baryC_matrix_stacked, loewner_grown_by_concatenation

# the package exports the function block_aaa under its module's name
block_module = importlib.import_module("blockrat.block_aaa")

SETTINGS = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.sampled_from([1, 2, 3])  # m = n


def _samples(seed, ell, m):
    rng = np.random.default_rng(seed)
    pts = logspace_imaginary(1, 10, ell)
    return SampleSet(pts, rng.normal(size=(ell, m, m)) + 1j * rng.normal(size=(ell, m, m)))


def _split(seed, m, ell, d):
    """(remaining samples, d+1 support points, their values) from ell + d + 1 random samples."""
    s = _samples(seed, ell + d + 1, m)
    return s.subset(range(d + 1, s.ell)), s.points[: d + 1], s.values[: d + 1]


def _solve(solve, args, matrix=None):
    """solve(*args) and the matrices it gave the kernel, copied before the kernel may
    factor them in place; with `matrix`, the kernel factors that matrix instead."""
    seen = []
    kernel = bary.trailing_left_singular_block

    def recording(M, m, overwrite=False):
        seen.append((M.copy(), M.flags.f_contiguous))
        return kernel(M, m, overwrite) if matrix is None else kernel(matrix, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bary, "trailing_left_singular_block", recording)
        return solve(*args), seen


@SETTINGS
@given(SEEDS, SIZES, st.integers(1, 60), st.integers(0, 8))
def test_baryC_matrix_weights_and_eigenvalues_are_the_stacked_assembly_bytes(seed, m, ell, d):
    rest, nodes, _ = _split(seed, m, ell, d)
    model, seen = _solve(solve_weights_baryC, (rest, nodes))
    want = baryC_matrix_stacked(rest, nodes)
    [(M, fortran)] = seen
    assert fortran
    assert M.tobytes() == want.tobytes()
    oracle, _ = _solve(solve_weights_baryC, (rest, nodes), matrix=want)
    assert model.numer.tobytes() == oracle.numer.tobytes()
    assert model.denom.tobytes() == oracle.denom.tobytes()
    if d >= 1:
        assert nonlinear_eigs_baryC(model).tobytes() == nonlinear_eigs_baryC(oracle).tobytes()


@SETTINGS
@given(SEEDS, SIZES, st.integers(1, 60), st.integers(0, 8), st.booleans())
def test_baryB_matrix_and_weights_are_the_reshaped_assembly_bytes(seed, m, ell, d, given_tensor):
    rest, nodes, values = _split(seed, m, ell, d)
    L = _loewner_tensor(rest, nodes, values)
    kept = L.copy()
    args = (rest, nodes, values, L if given_tensor else None)
    W, seen = _solve(solve_weights_baryB, args)
    want = baryB_matrix_reshaped(L)
    [(M, fortran)] = seen
    assert fortran
    assert M.tobytes() == want.tobytes()
    assert L.tobytes() == kept.tobytes()  # the caller's tensor is not the matrix factored
    oracle, _ = _solve(solve_weights_baryB, args, matrix=want)
    assert W.strides == oracle.strides
    assert W.tobytes() == oracle.tobytes()


@SETTINGS
@given(SEEDS, SIZES, st.integers(2, 40), st.integers(0, 12))
def test_greedy_tensor_is_the_delete_and_concatenate_bytes(seed, m, ell, max_order):
    s = _samples(seed, ell, m)
    calls = []
    solve = block_module.solve_weights_baryB

    def recording(rest, nodes, node_vals, loewner):
        calls.append((rest, nodes, node_vals, loewner.copy()))
        return solve(rest, nodes, node_vals, loewner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(block_module, "solve_weights_baryB", recording)
        block_aaa(s, AaaOptions(tol=0.0, max_order=max_order))
    assert calls
    prev_points, prev = s.points, np.empty((0, s.ell, m, m), dtype=complex)
    for rest, nodes, node_vals, loewner in calls:
        t = int(np.flatnonzero(prev_points == nodes[-1])[0])
        column = _loewner_tensor(rest, nodes[-1:], node_vals[-1:])
        assert loewner.tobytes() == loewner_grown_by_concatenation(prev, t, column).tobytes()
        prev_points, prev = rest.points, loewner


class TestPeakMemory:
    """On a 4 x 4 problem with 10 support points and 400 remaining samples the
    bary-C matrix is 80 x 1600 (2 MB) and the bary-B matrix 40 x 1600 (1 MB).
    Each solve holds the matrix once (zgelqf factors it in place), and the
    kernel's range check forms no |M|: bary-C peaks at 1.26 of the matrix's
    bytes, bary-B at 1.05.  With the range check's |M|, half a matrix, they
    reached 1.54 and 1.50; assembled from temporaries and copied for zgelqf,
    3.0 (bary-C: the two halves, their stack and zgelqf's copy) and 2.0
    (bary-B: the reshape and zgelqf's copy)."""

    @pytest.fixture(scope="class")
    def problem(self):
        return _split(0, 4, 400, 9)

    def test_baryC_holds_its_matrix_once(self, problem):
        rest, nodes, _ = problem
        matrix = 16 * (2 * 4 * nodes.size) * (4 * rest.ell)
        assert peak_bytes(lambda: solve_weights_baryC(rest, nodes)) < 1.4 * matrix

    def test_baryB_given_its_tensor_holds_one_copy(self, problem):
        rest, nodes, values = problem
        L = _loewner_tensor(rest, nodes, values)
        assert peak_bytes(lambda: solve_weights_baryB(rest, nodes, values, L)) < 1.25 * L.nbytes
