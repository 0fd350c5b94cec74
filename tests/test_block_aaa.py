import numpy as np
import pytest

from blockrat import (
    AaaOptions,
    BlockAaaResult,
    BlockBaryA,
    FitResult,
    ParameterError,
    RkfitResult,
    SampleSet,
    block_aaa,
    logspace_imaginary,
    rmse,
)
from blockrat.aaa import _greedy_driver, _stacked_loewner_weights
from blockrat.linearize import build_pencil, pencil_eigs
from tests.conftest import random_samples


class TestBlockAaa:
    def test_constant_stops_at_order_zero(self):
        pts = logspace_imaginary(1, 10, 8)
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = SampleSet(pts, np.tile(G, (8, 1, 1)))
        res = block_aaa(s)
        assert res.model.order == 0
        assert rmse(s, res.model) <= 1e-13
        assert res.errors[-1] <= 1e-13

    def test_toy1_order5_recovery(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        assert res.model.order <= 5
        assert rmse(toy1.samples, res.model) <= 1e-10

    def test_toy2_order5_recovery(self, toy2):
        res = block_aaa(toy2.samples, AaaOptions(max_order=5))
        assert rmse(toy2.samples, res.model) <= 1e-10

    def test_interpolation_at_support(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        lookup = {complex(z): F for z, F in zip(toy1.samples.points, toy1.samples.values)}
        for zk in res.model.nodes:
            assert np.array_equal(res.model(zk), lookup[complex(zk)])

    def test_weight_normalization(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        assert np.linalg.norm(res.model.weights) == pytest.approx(1.0, abs=1e-12)

    def test_error_trace_decreases_overall(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        assert len(res.errors) >= 2
        assert res.errors[-1] <= res.errors[0]

    def test_pole_count_bounded_by_dm(self, toy1):
        # the matrix denominator of an order-d model carries at most d*m poles
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        model = res.model
        d, m = model.order, model.shape[0]
        eigs = pencil_eigs(build_pencil(model.weights, model.nodes))
        assert eigs.size <= d * m

    def test_empty_samples_rejected(self):
        with pytest.raises((ParameterError, ValueError)):
            block_aaa(SampleSet([], np.zeros((0, 1, 1))))

    def test_toy1_order5_trace_pinned(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        want = [1.2368276046687692, 1.599038070252105, 0.13520041704928767,
                0.014156428686110334, 0.0005558941250810562, 1.040428903690979e-05]
        assert res.errors == pytest.approx(want, rel=1e-9)
        assert res.skipped == []
        assert res.model.order == 5

    @pytest.mark.parametrize("ell, order", [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
    def test_tiny_input_orders(self, ell, order):
        # block-AAA keeps going while any sample row remains
        res = block_aaa(random_samples(ell), AaaOptions(tol=0.0))
        assert res.model.order == order

    def test_singular_denominator_points_skipped(self):
        # F = diag(1/(z+1), 0): the zero entry gets a zero weight column, so
        # the order-1 denominator sum is singular at every remaining point
        pts = logspace_imaginary(1, 10, 20)
        F = np.zeros((20, 2, 2), dtype=complex)
        F[:, 0, 0] = 1 / (pts + 1)
        res = block_aaa(SampleSet(pts, F), AaaOptions(max_order=5))
        assert res.model.order == 1
        assert len(res.errors) == 2
        assert len(res.skipped) == 18
        assert {it for it, _ in res.skipped} == {2}
        assert sorted(z.imag for _, z in res.skipped) == sorted(
            z.imag for z in pts if z not in set(res.model.nodes))


class TestFitResult:
    def test_one_result_type(self):
        assert BlockAaaResult is RkfitResult is FitResult

    def test_block_aaa_returns_fit_result(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=3))
        assert type(res) is FitResult
        assert len(res.errors) == 4
        assert res.skipped == []

    def test_greedy_driver_returns_fit_result(self, toy1):
        res = _greedy_driver(toy1.samples, AaaOptions(max_order=3), _stacked_loewner_weights,
                             BlockBaryA, np.ones, lambda j: j + 1)
        assert type(res) is FitResult
        assert res.model.order == 3
        assert len(res.errors) == 4
