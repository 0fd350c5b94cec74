import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrat import (
    EvaluationError,
    NoiseSpec,
    NumericalError,
    ParameterError,
    PoleResidue,
    SampleSet,
    VfOptions,
    add_noise,
    logspace_imaginary,
    rmse,
    vf_matrix,
    vf_scalar,
)
from blockrat.vecfit import _dedupe, _fit_residues, initial_poles
from tests.oracles import dedupe_loop


class TestPoleResidue:
    def test_no_poles_is_constant(self):
        D = np.array([[1.0, 2.0]])
        r = PoleResidue(D, [], np.zeros((0, 1, 2)))
        assert np.array_equal(r(3j), D)

    def test_single_pole(self):
        r = PoleResidue(np.zeros((1, 1)), [-1.0], np.array([[[2.0]]]))
        assert r(0.0)[0, 0] == pytest.approx(2.0)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(0)
        poles = np.array([-1.0, -2.0 + 1j, -3.0])
        C = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        D = rng.normal(size=(2, 2)) + 0j
        r = PoleResidue(D, poles, C)
        for z in rng.normal(size=10) + 1j * np.abs(rng.normal(size=10)):
            want = D + sum(C[k] / (z - poles[k]) for k in range(3))
            assert np.linalg.norm(r(z) - want) <= 1e-12 * np.linalg.norm(want)

    def test_evaluation_at_pole_raises(self):
        r = PoleResidue(np.zeros((1, 1)), [-1.0], np.array([[[2.0]]]))
        with pytest.raises(EvaluationError):
            r(-1.0)

    def test_duplicate_poles_rejected(self):
        with pytest.raises(ParameterError):
            PoleResidue(np.zeros((1, 1)), [-1.0, -1.0], np.zeros((2, 1, 1)))


class TestVfScalar:
    def test_closed_form_target(self):
        pts = logspace_imaginary(1, 10, 20)
        f = 3 + 1.0 / (pts + 2)
        r = vf_scalar(pts, f, 1, VfOptions(iterations=5))
        assert r.poles[0] == pytest.approx(-2.0, abs=1e-8)
        assert r.const[0, 0] == pytest.approx(3.0, abs=1e-8)
        assert r.residues[0, 0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_fixed_point_with_true_initial_poles(self):
        pts = logspace_imaginary(1, 10, 20)
        true_poles = np.array([-2.0, -3.0])
        f = 1.0 / (pts + 2) + 2.0 / (pts + 3)
        r = vf_scalar(pts, f, 2, VfOptions(iterations=1, initial_poles=true_poles))
        assert np.linalg.norm(np.sort_complex(r.poles) - np.sort_complex(true_poles)) <= 1e-10

    def test_noisy_data_stagnates_at_noise_level(self):
        tau = 1e-2
        pts = logspace_imaginary(1e-1, 10, 500)
        clean = SampleSet(pts, (pts - 1) / (pts**2 + pts + 2))
        noisy = add_noise(clean, NoiseSpec(tau, 2023))
        r = vf_scalar(noisy.points, noisy.values[:, 0, 0], 5, VfOptions(iterations=5))
        err = rmse(noisy, r)
        assert 0.5 * tau <= err <= 3 * tau

    def test_too_few_samples_rejected(self):
        pts = logspace_imaginary(1, 10, 4)
        with pytest.raises(ParameterError):
            vf_scalar(pts, np.ones(4), 2)

    @pytest.mark.parametrize("d", [-1, -2])
    @pytest.mark.parametrize("opts", [VfOptions(), VfOptions(initial_poles=np.zeros(0))], ids=["default", "no-poles"])
    def test_negative_degree_rejected(self, d, opts):
        pts = logspace_imaginary(1, 10, 20)
        with pytest.raises(ParameterError, match="degree must be >= 0"):
            vf_scalar(pts, 1.0 / (pts + 2), d, opts)
        with pytest.raises(ParameterError, match="degree must be >= 0"):
            vf_matrix(SampleSet(pts, np.ones((20, 2, 3))), d, opts)


class TestVfMatrix:
    def test_diagonal_equal_entries_match_scalar_poles(self):
        pts = logspace_imaginary(1, 10, 30)
        f = (pts + 3) / ((pts + 1) * (pts + 4))
        vals = np.zeros((30, 2, 2), dtype=complex)
        vals[:, 0, 0] = f
        vals[:, 1, 1] = f
        rm = vf_matrix(SampleSet(pts, vals), 2, VfOptions(iterations=5))
        rs = vf_scalar(pts, f, 2, VfOptions(iterations=5))
        assert np.linalg.norm(
            np.sort_complex(rm.poles) - np.sort_complex(rs.poles)
        ) <= 1e-8

    def test_toy1_degree6(self, toy1):
        r = vf_matrix(toy1.samples, 6, VfOptions(iterations=5))
        assert rmse(toy1.samples, r) <= 1e-6

    def test_constant_degree0(self):
        pts = logspace_imaginary(1, 10, 5)
        G = np.array([[1.0, -2.0], [0.0, 4.0]])
        s = SampleSet(pts, np.tile(G, (5, 1, 1)))
        r = vf_matrix(s, 0)
        assert np.allclose(r.const, G)

    def test_nonsymmetric_data_supported(self, toy2):
        r = vf_matrix(toy2.samples, 8, VfOptions(iterations=10))
        assert rmse(toy2.samples, r) <= 1e-6

    def test_stability_enforcement(self, toy1):
        r = vf_matrix(toy1.samples, 6, VfOptions(iterations=5, enforce_stability=True))
        assert np.all(r.poles.real <= 0)

    def test_pole_on_a_sample_point_raises_at_fit_time(self):
        # the odd start pole -sqrt(lo hi) = -1 is the sample point -1 of the
        # roots of unity, and VF keeps it; rmse would fail on it later
        z = np.exp(2j * np.pi * np.arange(20) / 20)
        with pytest.warns(UserWarning, match="rank-deficient"), pytest.raises(NumericalError, match="sample point"):
            vf_scalar(z, 1 / (z - 0.3 - 2j) + 2 / (z + 1.5), 1)

    def test_coinciding_start_poles_nudged_apart(self, toy1):
        given = np.array([-1, -1, -2 + 1j, -2 - 1j], dtype=complex)
        r = vf_matrix(toy1.samples, 4, VfOptions(iterations=1, initial_poles=given))
        assert np.unique(r.poles).size == 4
        assert np.array_equal(given, [-1, -1, -2 + 1j, -2 - 1j])


class TestFitResidues:
    """The final least-squares fit of VF and RKFIT, with the poles fixed."""

    def test_pole_in_the_window_of_a_sample_point_raises(self):
        z = logspace_imaginary(1, 10, 8)
        # off the point by 4 ulps of it: inside the window in which
        # PoleResidue reports the point as a pole, so the model is not evaluable
        poles = np.array([-1.0, z[3] * (1 + 4 * np.finfo(float).eps)])
        with pytest.raises(NumericalError, match="sample point"):
            _fit_residues(z, np.ones((8, 1, 1), dtype=complex), poles)

    def test_no_poles_gives_the_constant_model(self):
        # RKFIT at degree 0 fits with an empty pole set
        z = logspace_imaginary(1, 10, 8)
        values = np.arange(8 * 2 * 3).reshape(8, 2, 3) + 0j
        r = _fit_residues(z, values, np.array([], dtype=complex))
        assert r.poles.size == 0 and r.residues.shape == (0, 2, 3)
        assert np.allclose(r.const, values.mean(axis=0), rtol=1e-13)
        assert np.array_equal(r(z[:2]), np.stack([r.const] * 2))


class TestInitialPoles:
    def test_count_and_conjugate_pairs(self):
        pts = logspace_imaginary(1, 100, 50)
        poles = initial_poles(pts, 6)
        assert poles.size == 6
        assert np.allclose(np.sort_complex(poles), np.sort_complex(poles.conj()))

    def test_odd_degree_adds_real_pole(self):
        pts = logspace_imaginary(1, 100, 50)
        poles = initial_poles(pts, 5)
        assert poles.size == 5
        assert np.sum(np.abs(poles.imag) < 1e-14) == 1

    def test_degree_zero(self):
        assert initial_poles(logspace_imaginary(1, 10, 5), 0).size == 0


# a small pool, so that drawn poles often coincide; signed zeros and infinite
# parts are where a vectorized test could part from the loop's
_POLE_POOL = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1 + 2j, -1 - 2j, 1e-300j,
              1e300, np.inf, -np.inf, complex(0, np.inf), complex(np.inf, 1), complex(-1, -np.inf)]


class TestDedupe:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_POLE_POOL) | st.complex_numbers(max_magnitude=1e3), max_size=16))
    def test_matches_the_loop_bytes(self, poles):
        poles = np.array(poles, dtype=complex)
        with np.errstate(invalid="ignore"):  # inf - inf, in both
            assert _dedupe(poles.copy()).tobytes() == dedupe_loop(poles.copy()).tobytes()

    def test_distinct_poles_come_back_unchanged(self):
        poles = np.array([0.0, -0.0 + 1j, -1 - 2j, -1 + 2j, np.inf])
        with np.errstate(invalid="ignore"):
            assert _dedupe(poles.copy()).tobytes() == poles.tobytes()

    def test_duplicates_are_nudged_apart(self):
        poles = _dedupe(np.array([-1.0, -1.0, complex(-0.0, 0.0), 0.0]))
        assert np.unique(poles).size == 4
        assert poles.tobytes() == dedupe_loop(np.array([-1.0, -1.0, complex(-0.0, 0.0), 0.0])).tobytes()
