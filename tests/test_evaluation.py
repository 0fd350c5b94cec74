"""The array evaluation path of every model class.

`model(zs)` on a 1-D array must equal the stack of scalar calls byte for
byte, with NaN blocks exactly where `model(z)` raises EvaluationError; and
the scalar call must keep the bits of the per-point formulas below, which
are the reference the array path was written against.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrat import (
    BlockBaryA,
    BlockBaryB,
    BlockBaryC,
    EvaluationError,
    LoewnerModel,
    ParameterError,
    PoleResidue,
    SampleSet,
    ScalarBarycentric,
    rmse,
)
from blockrat.barycentric import _support_tol
from blockrat.core import frobenius_norms
from blockrat.kernels import COND_LIMIT

SEEDS = st.integers(0, 2**32 - 1)
ORDERS = st.integers(0, 5)
SETTINGS = settings(max_examples=40, deadline=None)


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _points(rng, anchors):
    """Random points, the anchors themselves and points just off them, shuffled."""
    anchors = np.asarray(anchors, dtype=complex).ravel()
    zs = np.concatenate([_cplx(rng, 12), anchors, anchors + 1e-9, anchors + 1e-17j])
    return rng.permutation(zs)


def assert_array_is_scalar_stack(model, zs):
    """model(zs) equals the scalar calls bit for bit; returns how many points raised."""
    R = model(zs)
    assert R.shape[0] == zs.size
    raised = 0
    for z, r in zip(zs, R):
        try:
            want = np.asarray(model(z))
        except EvaluationError:
            assert np.isnan(r).all()
            raised += 1
            continue
        assert not np.isnan(r).any()
        assert want.shape == r.shape
        assert want.tobytes() == r.tobytes()
    return raised


def _checked_solve(S, T, z):
    if np.linalg.cond(S) > COND_LIMIT:
        raise EvaluationError(f"numerically singular matrix at z = {z}")
    return np.linalg.solve(S, T)


def reference(model, z):
    """The per-point evaluation formula of each model class."""
    if isinstance(model, (ScalarBarycentric, BlockBaryA, BlockBaryB, BlockBaryC)):
        dist = np.abs(z - model.nodes)
        k = int(np.argmin(dist))
        on = dist[k] <= _support_tol(model.nodes)
    if isinstance(model, (ScalarBarycentric, BlockBaryA)):
        if on:
            return model.values[k]
        c = model.weights / (z - model.nodes)
        den = np.sum(c)
        if den == 0:
            raise EvaluationError(f"barycentric denominator vanishes at z = {z}")
        if isinstance(model, ScalarBarycentric):
            return np.sum(c * model.values) / den
        return np.tensordot(c, model.values, axes=(0, 0)) / den
    if isinstance(model, BlockBaryB):
        if on:
            return model.values[k]
        c = 1.0 / (z - model.nodes)
        WF = np.einsum("kij,kjl->kil", model.weights, model.values)
        return _checked_solve(np.tensordot(c, model.weights, axes=(0, 0)), np.tensordot(c, WF, axes=(0, 0)), z)
    if isinstance(model, BlockBaryC):
        if on:
            return _checked_solve(model.denom[k], model.numer[k], z)
        c = 1.0 / (z - model.nodes)
        return _checked_solve(np.tensordot(c, model.denom, axes=(0, 0)), np.tensordot(c, model.numer, axes=(0, 0)), z)
    if isinstance(model, PoleResidue):
        if not model.poles.size:
            return model.const.copy()
        if np.abs(z - model.poles).min() <= _support_tol(model.poles):
            raise EvaluationError(f"evaluation at a pole: z = {z}")
        return model.const + np.tensordot(1.0 / (z - model.poles), model.residues, axes=(0, 0))
    return model.Cr @ _checked_solve(model.Ar - z * model.Er, model.Br, z)


def assert_matches_reference(model, zs):
    for z in zs:
        try:
            want = np.asarray(reference(model, z))
        except EvaluationError as e:
            with pytest.raises(EvaluationError, match=f"^{re.escape(str(e))}$"):
                model(z)
            continue
        assert np.asarray(model(z)).tobytes() == want.tobytes()


def check(model, zs):
    raised = assert_array_is_scalar_stack(model, zs)
    assert_matches_reference(model, zs)
    return raised


# ScalarBarycentric and BlockBaryA: weights (1, 1) on nodes (0, 2) make the
# denominator sum vanish exactly at z = 1


@SETTINGS
@given(SEEDS, ORDERS)
def test_scalar_barycentric(seed, d):
    rng = np.random.default_rng(seed)
    nodes = _cplx(rng, d + 1)
    model = ScalarBarycentric(nodes, _cplx(rng, d + 1), _cplx(rng, d + 1))
    check(model, _points(rng, nodes))
    vanishing = ScalarBarycentric([0.0, 2.0], [1.0, 1.0], _cplx(rng, 2))
    assert check(vanishing, _points(rng, [0.0, 1.0, 2.0])) == 1


@SETTINGS
@given(SEEDS, ORDERS, st.integers(1, 3), st.integers(1, 3))
def test_block_bary_a(seed, d, m, n):
    rng = np.random.default_rng(seed)
    nodes = _cplx(rng, d + 1)
    model = BlockBaryA(nodes, _cplx(rng, d + 1), _cplx(rng, d + 1, m, n))
    check(model, _points(rng, nodes))
    vanishing = BlockBaryA([0.0, 2.0], [1.0, 1.0], _cplx(rng, 2, m, n))
    assert check(vanishing, _points(rng, [0.0, 1.0, 2.0])) == 1


@SETTINGS
@given(SEEDS, ORDERS, st.integers(1, 3), st.integers(1, 3))
def test_block_bary_b(seed, d, m, n):
    rng = np.random.default_rng(seed)
    nodes = _cplx(rng, d + 1)
    model = BlockBaryB(nodes, _cplx(rng, d + 1, m, m), _cplx(rng, d + 1, m, n))
    check(model, _points(rng, nodes))


@SETTINGS
@given(SEEDS, ORDERS)
def test_block_bary_b_rank_deficient(seed, d):
    rng = np.random.default_rng(seed)
    nodes = _cplx(rng, d + 1)
    model = BlockBaryB(nodes, np.tile(np.diag([1.0, 0.0]), (d + 1, 1, 1)), _cplx(rng, d + 1, 2, 2))
    zs = _points(rng, nodes)
    # singular off the support, the sample values on it
    assert check(model, zs) == np.sum(np.abs(zs[:, None] - nodes).min(axis=1) > _support_tol(nodes))


@SETTINGS
@given(SEEDS, ORDERS, st.integers(1, 3), st.integers(1, 3))
def test_block_bary_c(seed, d, m, n):
    rng = np.random.default_rng(seed)
    nodes = _cplx(rng, d + 1)
    model = BlockBaryC(nodes, _cplx(rng, d + 1, m, n), _cplx(rng, d + 1, m, m))
    check(model, _points(rng, nodes))


@SETTINGS
@given(SEEDS, ORDERS)
def test_block_bary_c_rank_deficient(seed, d):
    rng = np.random.default_rng(seed)
    nodes = _cplx(rng, d + 1)
    model = BlockBaryC(nodes, _cplx(rng, d + 1, 2, 2), np.tile(np.diag([1.0, 0.0]), (d + 1, 1, 1)))
    zs = _points(rng, nodes)
    assert check(model, zs) == zs.size  # singular everywhere, support points included


@SETTINGS
@given(SEEDS, ORDERS, st.integers(1, 3), st.integers(1, 3))
def test_pole_residue(seed, d, m, n):
    rng = np.random.default_rng(seed)
    poles = _cplx(rng, d)
    model = PoleResidue(_cplx(rng, m, n), poles, _cplx(rng, d, m, n))
    zs = _points(rng, poles)
    # the poles and the points 1e-17 off them raise; 1e-9 off them does not
    assert check(model, zs) == 2 * d


@SETTINGS
@given(SEEDS, st.integers(1, 5), st.integers(1, 3), st.integers(1, 3))
def test_loewner_model(seed, d, m, n):
    rng = np.random.default_rng(seed)
    eigs = _cplx(rng, d)
    # with Er = I and a diagonal Ar the resolvent is exactly singular at Ar's entries
    model = LoewnerModel(np.eye(d, dtype=complex), np.diag(eigs), _cplx(rng, d, n), _cplx(rng, m, d))
    zs = _points(rng, eigs)
    assert check(model, zs) >= d
    general = LoewnerModel(_cplx(rng, d, d), _cplx(rng, d, d), _cplx(rng, d, n), _cplx(rng, m, d))
    check(general, zs)


def test_empty_array_gives_empty_stack():
    model = BlockBaryB([0.0, 1.0], np.tile(np.eye(2), (2, 1, 1)), np.ones((2, 2, 3)))
    assert model(np.array([], dtype=complex)).shape == (0, 2, 3)


def test_two_dimensional_points_rejected():
    model = ScalarBarycentric([0.0, 1.0], [1.0, -1.0], [2.0, 3.0])
    with pytest.raises(ParameterError):
        model(np.ones((2, 2)))


@SETTINGS
@given(SEEDS, st.integers(1, 4), st.integers(1, 4))
def test_frobenius_norms_match_numpy(seed, m, n):
    R = _cplx(np.random.default_rng(seed), 7, m, n)
    got = frobenius_norms(R)
    assert [g.tobytes() for g in got] == [np.linalg.norm(r, "fro").tobytes() for r in R]


def test_rmse_of_a_model_matches_the_pointwise_loop():
    rng = np.random.default_rng(3)
    samples = SampleSet(1j * np.arange(1.0, 9.0), _cplx(rng, 8, 2, 2))
    model = BlockBaryB([0.5j, 2.5j], _cplx(rng, 2, 2, 2), _cplx(rng, 2, 2, 2))
    assert rmse(samples, model) == rmse(samples, lambda z: model(z))


def test_rmse_raises_at_the_first_point_a_model_cannot_evaluate():
    samples = SampleSet([3.0, 1.0, 0.0, 5.0], np.ones(4))
    model = PoleResidue(np.zeros((1, 1)), [1.0, 5.0], np.ones((2, 1, 1)))
    with pytest.raises(EvaluationError, match=r"^evaluation at a pole: z = \(1\+0j\)$"):
        rmse(samples, model)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: ScalarBarycentric(_cplx(rng, 3), _cplx(rng, 3), _cplx(rng, 3)),
        lambda rng: BlockBaryA(_cplx(rng, 3), _cplx(rng, 3), _cplx(rng, 3, 2, 2)),
        lambda rng: BlockBaryB(_cplx(rng, 3), _cplx(rng, 3, 2, 2), _cplx(rng, 3, 2, 2)),
        lambda rng: BlockBaryC(_cplx(rng, 3), _cplx(rng, 3, 2, 2), _cplx(rng, 3, 2, 2)),
        lambda rng: PoleResidue(_cplx(rng, 2, 2), _cplx(rng, 3), _cplx(rng, 3, 2, 2)),
        lambda rng: LoewnerModel(_cplx(rng, 3, 3), _cplx(rng, 3, 3), _cplx(rng, 3, 2), _cplx(rng, 2, 3)),
    ],
    ids=["ScalarBarycentric", "BlockBaryA", "BlockBaryB", "BlockBaryC", "PoleResidue", "LoewnerModel"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_point_is_undefined_there_only(make):
    model = make(np.random.default_rng(5))
    with pytest.raises(EvaluationError):
        model(complex(np.nan, 0))
    assert assert_array_is_scalar_stack(model, np.array([0.3 + 0.1j, np.nan, 1.7j, complex(1, np.nan)])) == 2
