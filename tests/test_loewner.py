import numpy as np
import pytest

import blockrat.loewner as loewner

from blockrat import (
    EvaluationError,
    LoewnerModel,
    ParameterError,
    SampleSet,
    loewner_block,
    loewner_scalar,
    logspace_imaginary,
    model_poles,
    partition,
    rmse,
)
from blockrat.cli import PROBLEMS
from blockrat.kernels import singular_values, svd_full
from tests.oracles import loewner_block_with_temporaries, loewner_values


class TestPartition:
    def test_interleaved_by_magnitude(self):
        pts = np.array([1j, 2j, 3j, 4j])
        left, right = partition(pts, np.arange(4) + 0j)
        assert np.array_equal(left.points, [1j, 3j])
        assert np.array_equal(right.points, [2j, 4j])

    def test_odd_count_drops_last_with_warning(self):
        pts = logspace_imaginary(1, 10, 5)
        with pytest.warns(UserWarning):
            left, right = partition(pts, np.ones(5) + 0j)
        assert left.ell == right.ell == 2

    def test_both_halves_cover_the_range(self):
        pts = logspace_imaginary(1, 100, 40)
        left, right = partition(pts, np.ones(40) + 0j)
        full_gap = np.max(np.diff(np.log10(np.abs(pts))))
        for half in (left, right):
            mags = np.sort(np.log10(np.abs(half.points)))
            assert np.max(np.diff(mags)) <= 2 * full_gap + 1e-12

    def test_too_few_points_rejected(self):
        with pytest.raises(ParameterError):
            partition(np.array([1j]), np.array([1.0 + 0j]))


class TestLoewnerScalar:
    def test_single_pole_recovery(self):
        pts = logspace_imaginary(1, 10, 8)
        model = loewner_scalar(pts, 1.0 / (pts + 1), 1)
        s = SampleSet(pts, 1.0 / (pts + 1))
        assert rmse(s, model) <= 1e-10

    def test_constant_fit(self):
        pts = logspace_imaginary(1, 10, 8)
        model = loewner_scalar(pts, np.full(8, 2.5 + 0j), 1)
        for z in pts:
            assert abs(model(z)[0, 0] - 2.5) <= 1e-10

    def test_known_pole_location(self):
        pts = logspace_imaginary(1, 100, 20)
        model = loewner_scalar(pts, 2.0 / (pts + 1), 1)
        poles = model_poles(model)
        assert poles.size == 1
        assert poles[0] == pytest.approx(-1.0, abs=1e-8)

    def test_rank_warning_when_order_too_high(self):
        pts = logspace_imaginary(1, 10, 12)
        with pytest.warns(UserWarning):
            loewner_scalar(pts, 1.0 / (pts + 1), 4)

    def test_zero_data_keeps_order_one(self):
        pts = logspace_imaginary(1, 10, 12)
        with pytest.warns(UserWarning, match="numerical Loewner rank 0"):
            assert loewner_scalar(pts, np.zeros(12), 4).order == 1

    def test_zero_data_model_is_zero_everywhere(self):
        pts = logspace_imaginary(1, 10, 12)
        with pytest.warns(UserWarning, match="numerical Loewner rank 0"):
            model = loewner_scalar(pts, np.zeros(12), 3)
        assert model.order == 1
        assert rmse(SampleSet(pts, np.zeros(12)), model) == 0
        assert np.all(model(np.array([0, 1, -1j, 1e8])) == 0)
        assert model_poles(model).size == 0

    def test_zero_block_data_keeps_its_shape(self):
        samples = SampleSet(logspace_imaginary(1, 10, 12), np.zeros((12, 2, 3)))
        with pytest.warns(UserWarning, match="numerical Loewner rank 0"):
            model = loewner_block(samples, 2)
        assert model.shape == (2, 3)
        assert rmse(samples, model) == 0

    def test_loewner_numerical_rank_matches_type(self):
        pts = logspace_imaginary(1, 100, 20)
        f = (pts + 2) / ((pts + 1) * (pts + 3))  # type (1, 2)
        left, right = partition(pts, f)
        L = (left.values[:, 0, 0][:, None] - right.values[:, 0, 0][None, :]) / (
            left.points[:, None] - right.points[None, :]
        )
        s = np.linalg.svd(L, compute_uv=False)
        assert s[2] / s[0] <= 1e-10


class TestLoewnerBlock:
    @pytest.mark.parametrize("d", [0])
    def test_order_checked_before_svd(self, monkeypatch, d):
        def no_svd(M):
            raise AssertionError("SVD computed for an invalid order")

        monkeypatch.setattr(loewner, "svd_full", no_svd)
        pts = logspace_imaginary(1, 10, 8)
        with pytest.raises(ParameterError):
            loewner_block(SampleSet(pts, 1.0 / (pts + 1)), d)

    def test_scalar_reduction(self):
        pts = logspace_imaginary(1, 10, 10)
        f = (pts - 1) / (pts**2 + pts + 2)
        ms = loewner_scalar(pts, f, 2)
        mb = loewner_block(SampleSet(pts, f), 2)
        for z in logspace_imaginary(1.5, 8, 10):
            a, b = ms(z), mb(z)
            assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("d", [10, 15])
    @pytest.mark.parametrize("problem", ["toy1", "toy2"])
    def test_order_capped_at_pencil_rank(self, problem, d, request):
        # toy1 and toy2 have McMillan degree 8: an order-d fit is the order-8 one
        samples = request.getfixturevalue(problem).samples
        with pytest.warns(UserWarning, match=f"order {d} exceeds the numerical Loewner rank 8"):
            model = loewner_block(samples, d)
        assert model.order == 8
        assert model(samples.points).tobytes() == loewner_block(samples, 8)(samples.points).tobytes()
        assert rmse(samples, model) < 1e-13

    @pytest.mark.parametrize("d", [10, 15])
    @pytest.mark.parametrize("problem", ["toy1", "toy2"])
    def test_values_only_rank_matches_svd_full(self, problem, d, request, monkeypatch):
        # the cap reads rank([L Ls]) and rank([L; Ls]) from singular values alone
        pencils = []
        monkeypatch.setattr(loewner, "singular_values", lambda M: pencils.append(M) or singular_values(M))
        with pytest.warns(UserWarning):
            loewner_block(request.getfixturevalue(problem).samples, d)

        def rank(s):
            return int(np.sum(s > loewner.EPS_RANK * s[0]))

        assert len(pencils) == 2
        ranks = [rank(singular_values(M)) for M in pencils]
        assert ranks == [rank(svd_full(M)[1]) for M in pencils]
        assert min(ranks) == 8

    def test_order_above_the_partition_size_is_lowered_to_the_cap(self, toy1):
        p = toy1.samples.ell // 2
        with pytest.warns(UserWarning, match=f"order {p + 3} exceeds the numerical Loewner rank 8"):
            model = loewner_block(toy1.samples, p + 3)
        capped = loewner_block(toy1.samples, 8)
        for name in ("Er", "Ar", "Br", "Cr"):
            assert getattr(model, name).tobytes() == getattr(capped, name).tobytes()

    def test_toy1_order8(self, toy1):
        model = loewner_block(toy1.samples, 8)
        assert rmse(toy1.samples, model) <= 1e-6

    def test_constant_matrix(self):
        # an order-1 realization has a rank-1 transfer matrix, so a constant
        # fit at d = 1 requires rank-1 data
        pts = logspace_imaginary(1, 10, 8)
        G = np.outer([1.0, 0.5], [1.0, 2.0]) + 0j
        s = SampleSet(pts, np.tile(G, (8, 1, 1)))
        model = loewner_block(s, 1)
        for z in pts:
            assert np.linalg.norm(model(z) - G) <= 1e-8

    def test_constant_full_rank_matrix(self):
        # full-rank constants need the order to reach the matrix rank
        pts = logspace_imaginary(1, 10, 8)
        G = np.array([[1.0, 2.0], [0.5, -1.0]])
        s = SampleSet(pts, np.tile(G, (8, 1, 1)))
        model = loewner_block(s, 2)
        for z in pts:
            assert np.linalg.norm(model(z) - G) <= 1e-8


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def problem_samples(request):
    return PROBLEMS[request.param]().samples


@pytest.mark.filterwarnings("ignore:order .* exceeds the numerical Loewner rank")
def test_fit_and_values_are_the_earlier_bytes(problem_samples):
    """The in-place pencil, `svd_full` and `solve_checked` against the pencil
    from temporaries, `np.linalg.svd` and per-block solves, at orders 1-15."""
    z = problem_samples.points
    for d in range(1, 16):
        model = loewner_block(problem_samples, d)
        want = loewner_block_with_temporaries(problem_samples, d)
        assert [getattr(model, name).tobytes() for name in ("Er", "Ar", "Br", "Cr")] == [w.tobytes() for w in want]
        assert model(z).tobytes() == loewner_values(*want, z).tobytes()


class TestEvalLoewner:
    def test_off_grid_agreement(self):
        pts = logspace_imaginary(1, 10, 8)
        model = loewner_scalar(pts, 1.0 / (pts + 1), 1)
        for z in logspace_imaginary(1.3, 9, 5):
            assert abs(model(z)[0, 0] - 1.0 / (z + 1)) <= 1e-8

    def test_strictly_proper_decay(self):
        pts = logspace_imaginary(1, 10, 8)
        model = loewner_scalar(pts, 1.0 / (pts + 1), 1)
        assert np.linalg.norm(model(1e8j)) <= 1e-6

    def test_constant_model_output(self):
        model = LoewnerModel(
            Er=np.array([[1.0 + 0j]]),
            Ar=np.array([[0.0 + 0j]]),
            Br=np.array([[1.0 + 0j]]),
            Cr=np.array([[2.0 + 0j]]),
        )
        # R(z) = 2 * (0 - z)^-1 * 1 = -2/z
        assert model(1.0)[0, 0] == pytest.approx(-2.0)

    def test_singular_resolvent_raises(self):
        model = LoewnerModel(
            Er=np.array([[1.0 + 0j]]),
            Ar=np.array([[3.0 + 0j]]),
            Br=np.array([[1.0 + 0j]]),
            Cr=np.array([[1.0 + 0j]]),
        )
        with pytest.raises(EvaluationError):
            model(3.0)


class TestModelPoles:
    def test_two_pole_recovery(self):
        pts = logspace_imaginary(1e-1, 10, 30)
        model = loewner_scalar(pts, 1.0 / (pts**2 + 1), 2)
        poles = model_poles(model)
        assert poles.size == 2
        assert np.allclose(np.sort(poles.imag), [-1.0, 1.0], atol=1e-6)
        assert np.max(np.abs(poles.real)) <= 1e-6

    def test_trivial_pair(self):
        model = LoewnerModel(
            Er=np.eye(1) + 0j, Ar=np.array([[5.0 + 0j]]), Br=np.ones((1, 1)) + 0j, Cr=np.ones((1, 1)) + 0j
        )
        assert model_poles(model)[0] == pytest.approx(5.0)

    def test_evaluation_blows_up_near_poles(self):
        pts = logspace_imaginary(1, 100, 20)
        model = loewner_scalar(pts, 2.0 / (pts + 1), 1)
        pole = model_poles(model)[0]
        assert np.linalg.norm(model(pole + 1e-8)) >= 1e6
