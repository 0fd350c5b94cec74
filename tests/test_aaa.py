import numpy as np
import pytest

from blockrat import (
    AaaOptions,
    ParameterError,
    SampleSet,
    aaa_scalar,
    logspace_imaginary,
    random_directions,
    rmse,
    set_valued_aaa,
    surrogate_aaa,
)
from blockrat.cli import problem_scalar_noise
from tests.conftest import random_samples


class TestAaaScalar:
    def test_constant_order_zero(self):
        pts = logspace_imaginary(1, 10, 8)
        r = aaa_scalar(pts, np.full(8, 3.5 + 0j))
        assert r.order == 0
        assert r(2.5j) == pytest.approx(3.5, rel=1e-14)

    def test_single_pole_exact_at_order_one(self, scalar_onepole):
        pts, f = scalar_onepole
        r = aaa_scalar(pts, f)
        assert r.order <= 1
        assert max(abs(r(z) - fv) for z, fv in zip(pts, f)) <= 1e-12

    def test_degree5_interpolates_six_support_points(self):
        pts = logspace_imaginary(1e-1, 10, 500)
        f = (pts - 1) / (pts**2 + pts + 2)
        r = aaa_scalar(pts, f, AaaOptions(tol=0.0, max_order=5))
        assert r.nodes.size == 6
        lookup = dict(zip(pts, f))
        for zk in r.nodes:
            assert r(zk) == lookup[zk]

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            aaa_scalar([], [])

    def test_unit_weight_norm(self, scalar_onepole):
        pts, f = scalar_onepole
        r = aaa_scalar(pts, f)
        assert np.linalg.norm(r.weights) == pytest.approx(1.0, abs=1e-12)

    def test_rational_recovery_at_bounded_order(self):
        # type (2, 3) rational: must terminate at order <= 3 with tiny error
        pts = logspace_imaginary(1, 100, 30)
        f = (pts**2 + 2) / ((pts + 1) * (pts + 3) * (pts + 7))
        r = aaa_scalar(pts, f)
        assert r.order <= 3
        assert max(abs(r(z) - fv) for z, fv in zip(pts, f)) <= 1e-10 * np.max(np.abs(f))


class TestSetValuedAaa:
    def test_constant_matrix(self):
        pts = logspace_imaginary(1, 10, 6)
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = SampleSet(pts, np.tile(G, (6, 1, 1)))
        r = set_valued_aaa(s)
        assert r.order == 0
        assert rmse(s, r) <= 1e-13

    def test_scalar_reduction(self, scalar_onepole):
        noisy = problem_scalar_noise().samples
        cases = [(*scalar_onepole, AaaOptions())] + [
            (noisy.points, noisy.values[:, 0, 0], AaaOptions(max_order=d)) for d in (5, 10, 15)
        ]
        for pts, f, opts in cases:
            rs = aaa_scalar(pts, f, opts)
            rv = set_valued_aaa(SampleSet(pts, f), opts)
            assert np.array_equal(np.sort_complex(rs.nodes), np.sort_complex(rv.nodes))
            ratio = rv.weights / rs.weights
            assert np.allclose(ratio, ratio[0], rtol=1e-10)
            assert abs(abs(ratio[0]) - 1) <= 1e-10

    def test_toy_common_denominator_degree6(self, toy1):
        r = set_valued_aaa(toy1.samples, AaaOptions(max_order=6))
        assert rmse(toy1.samples, r) <= 1e-8

    def test_support_points_never_reselected(self, toy1):
        r = set_valued_aaa(toy1.samples, AaaOptions(max_order=6))
        assert len(np.unique(r.nodes)) == r.nodes.size


class TestTinyInputs:
    """With tol=0 the loop stops only when the weight solve runs out of rows:
    scalar weights need j+1 remaining rows at order j."""

    @pytest.mark.parametrize("ell, order", [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (6, 2)])
    def test_scalar_weight_orders(self, ell, order):
        s = random_samples(ell)
        opts = AaaOptions(tol=0.0)
        assert aaa_scalar(s.points, s.values[:, 0, 0], opts).order == order
        assert set_valued_aaa(s, opts).order == order


class TestSurrogateAaa:
    def test_scalar_surrogate_equals_set_valued(self, scalar_onepole):
        pts, f = scalar_onepole
        s = SampleSet(pts, f)
        rs = surrogate_aaa(s, [1.0], [1.0])
        rv = set_valued_aaa(s)
        assert np.array_equal(rs.nodes, rv.nodes)
        for z in logspace_imaginary(1.5, 80, 7):
            assert np.allclose(rs(z), rv(z), rtol=1e-10)

    def test_rank_one_in_z_exact_at_order_one(self):
        pts = logspace_imaginary(1, 10, 12)
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = SampleSet(pts, G[None, :, :] / (pts[:, None, None] + 1))
        a, b = random_directions(2, 2, seed=1)
        r = surrogate_aaa(s, a, b)
        assert r.order <= 1
        assert rmse(s, r) <= 1e-12

    def test_toy_interpolation_at_support(self, toy1):
        a, b = random_directions(2, 2, seed=0)
        r = surrogate_aaa(toy1.samples, a, b, AaaOptions(max_order=6))
        lookup = {complex(z): F for z, F in zip(toy1.samples.points, toy1.samples.values)}
        for zk in r.nodes:
            assert np.array_equal(r(zk), lookup[complex(zk)])

    def test_zero_directions_rejected(self, toy1):
        with pytest.raises(ParameterError):
            surrogate_aaa(toy1.samples, [0.0, 0.0], [1.0, 0.0])


class TestRandomDirections:
    def test_unit_norm_and_deterministic(self):
        a1, b1 = random_directions(3, 4, seed=5)
        a2, b2 = random_directions(3, 4, seed=5)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert np.linalg.norm(a1) == pytest.approx(1.0)
        assert np.linalg.norm(b1) == pytest.approx(1.0)
