import numpy as np
import pytest

import blockrat.barycentric as bary
from blockrat import (
    BlockBaryA,
    BlockBaryB,
    BlockBaryC,
    EvaluationError,
    ParameterError,
    SampleSet,
    ScalarBarycentric,
    bary_poly_weights,
    logspace_imaginary,
    solve_weights_baryB,
    solve_weights_baryC,
)
from blockrat.block_aaa import block_aaa
from blockrat.aaa import AaaOptions
from tests.conftest import constant_samples


class TestScalarBarycentric:
    def test_order_zero_is_constant(self):
        r = ScalarBarycentric([2.0], [1.0], [7.0])
        assert r(0.5) == pytest.approx(7.0, rel=1e-14)
        assert r(100j) == pytest.approx(7.0, rel=1e-14)

    def test_interpolates_at_support(self):
        r = ScalarBarycentric([0.0, 1.0, 2.0], [1.0, -2.0, 1.0], [5.0, 6.0, 7.0])
        assert r(1.0) == 6.0

    def test_polynomial_weights_reproduce_square(self):
        nodes = np.array([0.0, 1.0, 2.0])
        r = ScalarBarycentric(nodes, bary_poly_weights(nodes), nodes**2)
        assert r(4.0) == pytest.approx(16.0, rel=1e-13)

    def test_zero_denominator_away_from_support(self):
        r = ScalarBarycentric([1.0, -1.0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(EvaluationError):
            r(0.0)  # 1/(z-1) + 1/(z+1) = 0 at z = 0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            ScalarBarycentric([0.0, 1.0], [0.0, 0.0], [1.0, 2.0])


class TestBlockBaryA:
    def test_order_zero(self):
        F = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=complex)
        r = BlockBaryA([0.0], [1.0], F)
        assert np.allclose(r(5j), F[0], rtol=1e-14)

    def test_support_interpolation(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(3, 2, 2)) + 0j
        r = BlockBaryA([0.0, 1.0, 2.0], [1.0, -2.0, 1.0], F)
        assert np.array_equal(r(1.0), F[1])

    def test_entrywise_matches_scalar(self):
        rng = np.random.default_rng(1)
        nodes = np.array([0.0, 1.0, 2.0])
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        F = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        r = BlockBaryA(nodes, w, F)
        z = 0.7 + 0.3j
        got = r(z)
        for a in range(2):
            for b in range(2):
                scalar = ScalarBarycentric(nodes, w, F[:, a, b])
                assert got[a, b] == pytest.approx(scalar(z), rel=1e-13)


class TestBlockBaryB:
    def test_order_zero(self):
        F = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=complex)
        W = np.array([np.eye(2) + np.diag([0.0, 1.0])])
        r = BlockBaryB([0.0], W, F)
        assert np.allclose(r(3j), F[0])

    def test_support_interpolation(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(2, 2, 2)) + 0j
        W = rng.normal(size=(2, 2, 2)) + 0j
        r = BlockBaryB([0.0, 1.0], W, F)
        assert np.array_equal(r(1.0), F[1])

    def test_scalar_weights_reduce_to_baryA(self):
        rng = np.random.default_rng(3)
        nodes = np.array([0.0, 1.0, 2.0])
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        F = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        rB = BlockBaryB(nodes, w[:, None, None] * np.eye(2), F)
        rA = BlockBaryA(nodes, w, F)
        for z in rng.normal(size=20) + 1j * rng.normal(size=20):
            a, b = rA(z), rB(z)
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)

    def test_weight_stack_normalized(self):
        W = np.array([3 * np.eye(2), 4 * np.eye(2)])
        r = BlockBaryB([0.0, 1.0], W, np.zeros((2, 2, 2)))
        assert np.linalg.norm(r.weights) == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_weights_raise_away_from_support(self):
        W = np.tile(np.diag([1.0, 0.0]), (3, 1, 1))
        r = BlockBaryB([0.0, 1.0, 2.0], W, np.ones((3, 2, 2)))
        with pytest.raises(EvaluationError):
            r(0.5j)

    @pytest.mark.parametrize("order", [5, 10, 15])
    def test_weight_layout_does_not_change_bits(self, toy2, order):
        # the same weights in block-AAA's column-major blocks, C order and
        # Fortran order give the same model, bit for bit
        fit = block_aaa(toy2.samples, AaaOptions(max_order=order)).model
        zs = toy2.samples.points
        models = [BlockBaryB(fit.nodes, layout(fit.weights), fit.values)
                  for layout in (np.asarray, np.ascontiguousarray, np.asfortranarray)]
        for r in models[1:]:
            assert r.weights.tobytes() == models[0].weights.tobytes()
            assert r.weighted.tobytes() == models[0].weighted.tobytes()
            assert r(zs).tobytes() == models[0](zs).tobytes()


class TestBlockBaryC:
    def test_common_factor_gives_constant(self):
        rng = np.random.default_rng(4)
        G = rng.normal(size=(2, 2)) + 0j
        D = rng.normal(size=(3, 2, 2)) + 0j
        C = np.einsum("kij,jl->kil", D, G)
        r = BlockBaryC([0.0, 1.0, 2.0], C, D)
        assert np.allclose(r(0.5j), G)

    def test_support_value_with_identity_denominator(self):
        rng = np.random.default_rng(5)
        C = rng.normal(size=(2, 2, 2)) + 0j
        D = np.tile(np.eye(2), (2, 1, 1))
        r = BlockBaryC([0.0, 1.0], C, D)
        # the joint normalization rescales C and D together; the quotient at
        # a support point is unaffected
        assert np.allclose(r(1.0), C[1])

    def test_reduces_to_baryB(self):
        rng = np.random.default_rng(6)
        nodes = np.array([0.0, 1.0, 2.0])
        W = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        F = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        rB = BlockBaryB(nodes, W, F)
        rC = BlockBaryC(nodes, np.einsum("kij,kjl->kil", W, F), W)
        z = 0.4 - 1.1j
        assert np.allclose(rB(z), rC(z), rtol=1e-11, atol=1e-12)

    def test_rank_deficient_denominator_raises_away_from_support(self):
        D = np.tile(np.diag([1.0, 0.0]), (3, 1, 1))
        r = BlockBaryC([0.0, 1.0, 2.0], np.ones((3, 2, 2)), D)
        with pytest.raises(EvaluationError):
            r(0.5j)


class TestSolveWeightsBaryB:
    def test_constant_function_zero_loewner(self):
        s = constant_samples(np.array([[1.0, 2.0], [3.0, 4.0]]))
        support = [(0.5j, s.values[0])]
        W = solve_weights_baryB(s.subset(range(1, s.ell)), *zip(*support))
        # Loewner matrix is exactly zero, any unit stack is optimal
        assert np.sqrt(sum(np.linalg.norm(w) ** 2 for w in W)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_case_matches_aaa_weights(self):
        pts = logspace_imaginary(1, 10, 8)
        vals = 1.0 / (pts + 1) + 1.0 / (pts + 2)
        s = SampleSet(pts, vals)
        support = [(pts[0], s.values[0]), (pts[4], s.values[4])]
        rem = s.subset([1, 2, 3, 5, 6, 7])
        W = solve_weights_baryB(rem, *zip(*support))
        w = np.array([Wk[0, 0] for Wk in W])
        # independent scalar solve: trailing right singular vector of the
        # transposed Loewner matrix
        nodes = np.array([pts[0], pts[4]])
        fsup = np.array([vals[0], vals[4]])
        L = (rem.values[:, 0, 0][:, None] - fsup[None, :]) / (rem.points[:, None] - nodes[None, :])
        _, _, vh = np.linalg.svd(L)
        ref = vh[-1].conj()
        ratio = w / ref
        assert np.allclose(ratio, ratio[0], rtol=1e-10)

    def test_support_collision_rejected(self):
        s = constant_samples(np.eye(2), ell=4)
        with pytest.raises(ParameterError):
            solve_weights_baryB(s, s.points[:1], s.values[:1])

    def test_toy_linearized_residual(self, toy1):
        # greedy order-5 support from block-AAA; re-solve and check the
        # linearized residual of the returned weight stack
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        model = res.model
        sel = {complex(z) for z in model.nodes}
        rem_idx = [i for i, z in enumerate(toy1.samples.points) if complex(z) not in sel]
        rem = toy1.samples.subset(rem_idx)
        support = list(zip(model.nodes, model.values))
        W = solve_weights_baryB(rem, *zip(*support))
        Wrow = np.hstack(W)
        # linearized residual ||[W0..Wd] L|| over the block Loewner matrix
        Lmat = np.vstack([
            np.hstack([(F - Fk) / (z - zk) for z, F in zip(rem.points, rem.values)])
            for (zk, Fk) in support
        ])
        assert np.linalg.norm(Wrow @ Lmat) <= 1e-10

    def test_stack_is_the_trailing_block_cut_into_weights(self, toy2, monkeypatch):
        s, nodes, values = toy2.samples.subset(range(3, 40)), toy2.samples.points[:3], toy2.samples.values[:3]
        seen = []
        solve = bary.trailing_left_singular_block
        monkeypatch.setattr(bary, "trailing_left_singular_block",
                            lambda M, m, overwrite=False: seen.append(solve(M, m, overwrite)) or seen[-1])
        W = solve_weights_baryB(s, nodes, values)
        assert W.shape == (3, 2, 2)
        # one block after another, each stored column by column as the kernel
        # returns it; BlockBaryB's bits depend on this layout
        assert W.transpose(0, 2, 1).flags.c_contiguous
        assert W.tobytes() == b"".join(seen[0][:, 2 * k : 2 * k + 2].tobytes() for k in range(3))


class TestSolveWeightsBaryC:
    def test_constant_recovery(self):
        G = np.array([[1.0, -2.0], [0.5, 3.0]])
        s = constant_samples(G, ell=10)
        model = solve_weights_baryC(s.subset(range(2, 10)), s.points[:2])
        for z in s.points[2:]:
            assert np.linalg.norm(model(z) - G) <= 1e-8

    def test_scalar_rational_recovery(self):
        pts = logspace_imaginary(1, 10, 12)
        f = (pts - 1) / (pts**2 + pts + 2)
        s = SampleSet(pts[3:], f[3:])
        model = solve_weights_baryC(s, pts[:3])
        err = max(abs(model(z)[0, 0] - fv) for z, fv in zip(pts[3:], f[3:]))
        assert err <= 1e-8

    def test_single_support_constant(self):
        G = np.array([[2.0, 1.0], [0.0, 1.0]])
        s = constant_samples(G, ell=6)
        model = solve_weights_baryC(s.subset(range(1, 6)), s.points[:1])
        assert np.allclose(np.linalg.solve(model.denom[0], model.numer[0]), G, atol=1e-10)

    def test_rectangular_rejected(self):
        s = SampleSet([1j, 2j], np.zeros((2, 2, 3)))
        with pytest.raises(ParameterError):
            solve_weights_baryC(s, [3j])

    def test_stacked_matrix_matches_block_loop(self, toy2, monkeypatch):
        # reference: fill the (k, i) blocks one at a time; bytes compared, signed zeros included
        s, nodes = toy2.samples.subset(range(3, 40)), toy2.samples.points[:3]
        seen = []
        solve = bary.trailing_left_singular_block
        # M is recorded before the kernel may factor it in place
        monkeypatch.setattr(bary, "trailing_left_singular_block",
                            lambda M, m, overwrite=False: seen.append(M.copy()) or solve(M, m, overwrite))
        solve_weights_baryC(s, nodes)
        inv = 1.0 / (s.points[None, :] - nodes[:, None])
        top = np.zeros((3 * 2, s.ell * 2), dtype=complex)
        bot = np.zeros((3 * 2, s.ell * 2), dtype=complex)
        for k in range(3):
            for i in range(s.ell):
                top[2 * k : 2 * k + 2, 2 * i : 2 * i + 2] = -inv[k, i] * np.eye(2)
                bot[2 * k : 2 * k + 2, 2 * i : 2 * i + 2] = inv[k, i] * s.values[i]
        assert seen[0].tobytes() == np.vstack([top, bot]).tobytes()


class TestInterpolationInvariants:
    def test_near_support_continuity(self, toy1):
        res = block_aaa(toy1.samples, AaaOptions(max_order=5))
        model = res.model
        for zk, Fk in zip(model.nodes, model.values):
            near = model(zk + 1e-8)
            assert np.linalg.norm(near - Fk) <= 1e-5 * (1 + np.linalg.norm(Fk))
