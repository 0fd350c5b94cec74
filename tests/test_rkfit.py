import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrat import (
    FitResult,
    NoiseSpec,
    NumericalError,
    ParameterError,
    RkfitOptions,
    SampleSet,
    add_noise,
    build_basis,
    logspace_imaginary,
    relocate_poles,
    rkfit_fit,
    rmse,
)
import blockrat.rkfit as rkfit
from blockrat.cli import PROBLEMS
from blockrat.rkfit import _leja_indices, _row_slabs
from tests.oracles import leja_indices_prod, relocation_blocks_explicit


class TestBuildBasis:
    def test_degree_zero_constant_column(self):
        pts = logspace_imaginary(1, 10, 9)
        basis = build_basis(pts, [], degree=0)
        assert basis.V.shape == (9, 1)
        assert np.allclose(basis.V[:, 0], 1 / np.sqrt(9))

    def test_polynomial_span_matches_vandermonde(self):
        pts = np.linspace(1, 2, 10) + 0.5j
        basis = build_basis(pts, [], degree=3)
        X = np.vander(pts / np.max(np.abs(pts)), 4, increasing=True)
        proj = basis.V @ (basis.V.conj().T @ X)
        assert np.linalg.norm(proj - X) <= 1e-8 * np.linalg.norm(X)

    def test_finite_pole_span(self):
        pts = logspace_imaginary(1, 10, 12)
        basis = build_basis(pts, [-1.0, -2.0])
        g = 1.0 / ((pts + 1) * (pts + 2))
        proj = basis.V @ (basis.V.conj().T @ g)
        assert np.linalg.norm(proj - g) <= 1e-10 * np.linalg.norm(g)

    def test_orthonormality(self):
        pts = logspace_imaginary(1, 100, 40)
        basis = build_basis(pts, [-1.0, -5.0], degree=6)
        G = basis.V.conj().T @ basis.V
        assert np.linalg.norm(G - np.eye(7)) <= 1e-10

    def test_pole_collision_rejected(self):
        pts = logspace_imaginary(1, 10, 5)
        with pytest.raises(ParameterError):
            build_basis(pts, [pts[2]])


class TestRelocatePoles:
    def test_fixed_point_at_true_poles(self):
        pts = logspace_imaginary(1, 10, 20)
        f = 1.0 / (pts + 1) + 1.0 / (pts + 2)
        basis = build_basis(pts, [-1.0, -2.0])
        new = np.sort_complex(relocate_poles(basis, [f]))
        assert np.linalg.norm(new - np.array([-2.0, -1.0])) <= 1e-8

    def test_degenerate_constant_misfit(self):
        pts = logspace_imaginary(1, 10, 10)
        basis = build_basis(pts, [], degree=1)
        new = relocate_poles(basis, [np.ones(10, dtype=complex)])
        assert new.size <= 1
        assert np.all(np.isfinite(new))

    def test_scale_invariance(self):
        pts = logspace_imaginary(1, 10, 20)
        f = 1.0 / (pts + 1) + 1.0 / (pts + 3)
        basis = build_basis(pts, [-0.5, -4.0])
        p1 = np.sort_complex(relocate_poles(basis, [f]))
        p2 = np.sort_complex(relocate_poles(basis, [7.3 * f]))
        assert np.linalg.norm(p1 - p2) <= 1e-8 * max(1.0, np.linalg.norm(p1))

    def test_svd_failure_is_numerical_error(self):
        pts = logspace_imaginary(1, 10, 12)
        f = 1.0 / (pts + 2)
        f[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            relocate_poles(build_basis(pts, [], degree=2), [f])


class TestRkfitFit:
    def test_known_pole_recovery_from_polynomial_start(self):
        pts = logspace_imaginary(1, 10, 10)
        s = SampleSet(pts, 1.0 / (pts + 1))
        res = rkfit_fit(s, RkfitOptions(degree=1, iterations=2))
        assert res.model.poles[0] == pytest.approx(-1.0, abs=1e-6)

    def test_start_at_true_poles_stays_put(self):
        pts = logspace_imaginary(1, 10, 20)
        s = SampleSet(pts, 1.0 / (pts + 2) + 2.0 / (pts + 3))
        res = rkfit_fit(s, RkfitOptions(degree=2, iterations=1, initial_poles=[-2.0, -3.0]))
        assert np.linalg.norm(np.sort_complex(res.model.poles) - [-3.0, -2.0]) <= 1e-12

    def test_toy1_degree6(self, toy1):
        res = rkfit_fit(toy1.samples, RkfitOptions(degree=6, iterations=5))
        assert rmse(toy1.samples, res.model) <= 1e-8
        assert len(res.errors) == 5

    def test_noisy_stagnation_near_noise_level(self):
        tau = 1e-2
        pts = logspace_imaginary(1e-1, 10, 500)
        clean = SampleSet(pts, (pts - 1) / (pts**2 + pts + 2))
        noisy = add_noise(clean, NoiseSpec(tau, 2023))
        res = rkfit_fit(noisy, RkfitOptions(degree=3, iterations=3))
        err = rmse(noisy, res.model)
        assert 0.3 * tau <= err <= 3 * tau
        # non-interpolatory: the residual spreads across points
        worst = max(
            np.linalg.norm(F - res.model(z), "fro")
            for z, F in zip(noisy.points, noisy.values)
        )
        assert worst <= 10 * err

    def test_constant_degree0(self):
        pts = logspace_imaginary(1, 10, 6)
        G = np.array([[2.0, 1.0], [0.0, -1.0]])
        s = SampleSet(pts, np.tile(G, (6, 1, 1)))
        res = rkfit_fit(s, RkfitOptions(degree=0, iterations=1))
        assert np.allclose(res.model.const, G)
        assert rmse(s, res.model) <= 1e-14

    def test_too_few_samples_rejected(self):
        pts = logspace_imaginary(1, 10, 5)
        s = SampleSet(pts, 1.0 / (pts + 1))
        with pytest.raises(ParameterError):
            rkfit_fit(s, RkfitOptions(degree=2, iterations=1))

    def test_bad_options_rejected(self):
        with pytest.raises(ParameterError):
            RkfitOptions(degree=-1)
        with pytest.raises(ParameterError):
            RkfitOptions(degree=2, iterations=0)


def test_one_basis_per_iteration(monkeypatch):
    # the first step, with every pole at infinity, finds roots in the basis it
    # was given, and the second, with 9 of 10 poles finite, reuses that basis
    from blockrat.cli import problem_buckling

    calls = []
    build = rkfit.build_basis
    monkeypatch.setattr(rkfit, "build_basis", lambda *a, **k: calls.append(a) or build(*a, **k))
    res = rkfit_fit(problem_buckling().samples, RkfitOptions(degree=10))
    assert len(calls) == len(res.errors) == 5


class TestPoleOnSamplePoint:
    def test_rkfit_returns_fit_result(self, toy1):
        res = rkfit_fit(toy1.samples, RkfitOptions(degree=2, iterations=2))
        assert type(res) is FitResult
        assert len(res.errors) == 2
        assert res.skipped == []

    def test_relocated_pole_on_sample_point_raises_at_fit_time(self, toy2, capfd):
        # on toy2 at degree 15 a relocated pole lands on the sample point 100i;
        # fitting residues there would hand infinite entries to LAPACK, which
        # prints its argument-check messages (xerbla) into stdout
        with pytest.raises(NumericalError, match="sample point"):
            rkfit_fit(toy2.samples, RkfitOptions(degree=15, iterations=5))
        ctypes.CDLL(None).fflush(None)  # flush C stdio, where LAPACK writes
        assert "LASCL" not in capfd.readouterr().out


class TestLejaIndices:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 16), st.sampled_from([0, 1, 100, 300]))
    def test_matches_np_prod_bytes(self, seed, ell, count, log10_scale):
        """Random points with mirrored copies (tied distances) and, at large
        scales, distance products that overflow to inf and tie there."""
        rng = np.random.default_rng(seed)
        pts = (rng.normal(size=ell) + 1j * rng.normal(size=ell)) * 10.0 ** rng.uniform(-1, 1, ell)
        pts = np.concatenate([pts, -pts[: ell // 2], [0.0]]) * 10.0**log10_scale
        count = min(count, pts.size)
        with np.errstate(over="ignore", invalid="ignore"):  # inf products, and inf * 0, in both
            assert _leja_indices(pts, count).tobytes() == leja_indices_prod(pts, count).tobytes()

    def test_log_grid(self):
        pts = logspace_imaginary(1, 1e4, 200)
        assert _leja_indices(pts, 16).tobytes() == leja_indices_prod(pts, 16).tobytes()


def _spied_matrices(monkeypatch):
    """The list each relocation appends its matrix to, the one whose trailing right singular vector it takes."""
    matrices = []
    trailing = rkfit.trailing_right_singular_vector
    monkeypatch.setattr(rkfit, "trailing_right_singular_vector", lambda M: matrices.append(M.copy()) or trailing(M))
    return matrices


class TestRowSlabs:
    """`relocate_poles` applies I - V V* in row slabs, with the explicit projector's bytes."""

    @pytest.mark.parametrize("d", [1, 5, 10, 15])  # 65-row slabs moved bits at degree 1 on two threads
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_every_relocation_is_the_explicit_projector_bytes(self, monkeypatch, problem, d):
        samples = PROBLEMS[problem]().samples
        calls = []
        relocate = rkfit.relocate_poles
        monkeypatch.setattr(rkfit, "relocate_poles", lambda basis, fs, poly=None: calls.append((basis, fs)) or relocate(basis, fs, poly))
        matrices = _spied_matrices(monkeypatch)
        try:
            rkfit_fit(samples, RkfitOptions(degree=d))
        except NumericalError:  # toy2 at some orders: a pole on a sample point, after the relocations
            pass
        assert len(calls) == len(matrices) > 0
        for (basis, fs), M in zip(calls, matrices):
            assert M.tobytes() == relocation_blocks_explicit(basis.V, fs).tobytes()

    @pytest.mark.parametrize("ell", [777, 1001])
    def test_slabs_of_two_heights(self, monkeypatch, ell):
        """ell is not a multiple of the slab height: the slabs are of two heights."""
        assert len({r1 - r0 for r0, r1 in _row_slabs(ell)}) == 2
        rng = np.random.default_rng(ell)
        pts = logspace_imaginary(1, 1e4, ell)
        fs = [rng.normal(size=ell) + 1j * rng.normal(size=ell) for _ in range(3)]
        matrices = _spied_matrices(monkeypatch)
        for d in (1, 6):
            basis = build_basis(pts, [], degree=d)
            relocate_poles(basis, fs)
            assert matrices.pop().tobytes() == relocation_blocks_explicit(basis.V, fs).tobytes()

    @pytest.mark.parametrize("ell", [1, 2, 63, 64, 65, 128, 500, 1000, 4097])
    def test_slabs_cover_the_rows_once_in_near_equal_heights(self, ell):
        slabs = _row_slabs(ell)
        assert [r0 for r0, _ in slabs] == [0] + [r1 for _, r1 in slabs[:-1]] and slabs[-1][1] == ell
        heights = [r1 - r0 for r0, r1 in slabs]
        assert max(heights) - min(heights) <= 1
        if len(slabs) > 1:
            assert min(heights) >= rkfit.SLAB_ROWS and 16 * ell * (min(heights) + 1) > rkfit.SLAB_BYTES
