import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrat import (
    ContractError,
    NoiseSpec,
    ParameterError,
    PoleResidue,
    SampleSet,
    aaa_scalar,
    add_noise,
    logspace_imaginary,
    rmse,
)
from blockrat.core import _distinct

# np.unique counts the four signed zeros as one value and the five NaNs as
# one more; infinities and signed zeros in 1 and 1j give the other ties
TIES = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
              complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.nan, np.nan), complex(np.nan, 1.0),
              complex(np.inf, 0.0), complex(-np.inf, 0.0), complex(0.0, np.inf), complex(np.inf, np.nan),
              complex(1.0, 0.0), complex(1.0, -0.0), 1j, complex(-0.0, 1.0), complex(1.0, 1.0)]

# errors whose square np.float64 ** 2 (C pow) rounds apart from x * x and
# np.square: 10 of these 20,000 normals
POW_NOT_MUL = [float(x) for x in np.abs(np.random.default_rng(0).normal(size=20_000)) if x**2 != x * x]


def _unique_says_repeated(x):
    return len(np.unique(x)) != x.size


class TestLogspaceImaginary:
    def test_three_points(self):
        pts = logspace_imaginary(1, 100, 3)
        assert np.allclose(pts, [1j, 10j, 100j])

    def test_endpoints_500(self):
        pts = logspace_imaginary(1e-1, 10, 500)
        assert pts.size == 500
        assert pts[0] == pytest.approx(0.1j)
        assert pts[-1] == pytest.approx(10j)

    def test_constant_ratio(self):
        pts = logspace_imaginary(1, 100, 100)
        ratios = pts.imag[1:] / pts.imag[:-1]
        assert np.allclose(ratios, 10 ** (2 / 99), rtol=1e-12)

    def test_bad_range(self):
        with pytest.raises(ParameterError):
            logspace_imaginary(10, 1, 5)
        with pytest.raises(ParameterError):
            logspace_imaginary(0, 1, 5)
        with pytest.raises(ParameterError):
            logspace_imaginary(1, 10, 1)


class TestSampleSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ParameterError):
            SampleSet([1j, 1j], np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_nonfinite_data_rejected(self, bad):
        vals = np.ones((3, 2, 2), dtype=complex)
        vals[1, 0, 1] = bad
        with pytest.raises(ParameterError):
            SampleSet([1j, 2j, 3j], vals)
        with pytest.raises(ParameterError):
            SampleSet([1j, bad, 3j], np.ones(3))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            SampleSet([1j, 2j], np.zeros((3, 1, 1)))

    def test_scalar_values_promoted(self):
        s = SampleSet([1j, 2j], [3.0, 4.0])
        assert s.shape == (1, 1)
        assert s.ell == 2

    def test_immutability(self):
        s = SampleSet([1j, 2j], [3.0, 4.0])
        with pytest.raises(ValueError):
            s.points[0] = 5j

    def test_subset(self):
        s = SampleSet([1j, 2j, 3j], [1.0, 2.0, 3.0])
        sub = s.subset([0, 2])
        assert np.array_equal(sub.points, [1j, 3j])

    def test_subset_is_read_only(self):
        sub = SampleSet([1j, 2j, 3j], [1.0, 2.0, 3.0]).subset(np.array([True, False, True]))
        assert np.array_equal(sub.values[:, 0, 0], [1.0, 3.0])
        with pytest.raises(ValueError):
            sub.values[0] = 5.0

    @pytest.mark.parametrize("indices", [[0, 0], [2, -1], np.zeros(3, dtype=bool)])
    def test_subset_rejects_repeated_points_and_empty_sets(self, indices):
        s = SampleSet([1j, 2j, 3j], [1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            s.subset(indices)

    @pytest.mark.parametrize("indices", [[], (), np.zeros(3, dtype=bool)], ids=["list", "tuple", "mask"])
    def test_empty_subset_is_a_parameter_error(self, indices):
        with pytest.raises(ParameterError, match="at least one point"):
            SampleSet([1j, 2j, 3j], [1.0, 2.0, 3.0]).subset(indices)


class TestDistinct:
    @pytest.mark.parametrize("x", [
        [], [1j], [np.nan], [1j, 2j], [1j, 1j], [0.0, -0.0], [complex(0.0, -0.0), 0.0],
        [np.nan, complex(0.0, np.nan)], [complex(np.nan, 1.0), complex(2.0, np.nan)], [np.nan, 1j],
        [np.inf, np.inf], [np.inf, -np.inf], [complex(np.inf, 1.0), complex(np.inf, 2.0)],
        [1j, 2j, 3j, 1j], [3j, np.nan, 1j, np.nan, 2j],
    ])
    def test_agrees_with_unique(self, x):
        x = np.array(x, dtype=complex)
        repeated = _unique_says_repeated(x)
        if repeated:
            with pytest.raises(ParameterError, match="^points must be pairwise distinct$"):
                _distinct(x, "points")
        else:
            assert _distinct(x, "points").tobytes() == x.tobytes()

    @given(st.lists(st.sampled_from(TIES) | st.complex_numbers(allow_nan=True, allow_infinity=True),
                    max_size=20))
    def test_agrees_with_unique_on_random_lists(self, xs):
        x = np.array(xs, dtype=complex)
        try:
            _distinct(x, "points")
            repeated = False
        except ParameterError:
            repeated = True
        assert repeated == _unique_says_repeated(x)


class TestIdentity:
    """Records that hold arrays compare by identity and hash by id."""

    def test_sample_set(self):
        s = SampleSet(logspace_imaginary(1, 10, 4), np.ones(4))
        same = SampleSet(s.points, s.values)
        assert s == s and s != same
        assert len({s, same, s}) == 2

    def test_model(self, toy1):
        a, b = (aaa_scalar(toy1.samples.points, toy1.samples.values[:, 0, 0]) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestRmse:
    def test_exact_model_gives_zero(self):
        pts = logspace_imaginary(1, 10, 5)
        vals = np.random.default_rng(0).normal(size=(5, 2, 2)) + 0j
        s = SampleSet(pts, vals)
        lookup = dict(zip(pts, vals))
        assert rmse(s, lambda z: lookup[z]) == 0.0

    def test_single_residual_frobenius(self):
        s = SampleSet([1j], np.array([[[3.0, 4.0], [0.0, 0.0]]], dtype=complex))
        assert rmse(s, lambda z: np.zeros((2, 2))) == pytest.approx(5.0)

    def test_matches_bruteforce_accumulation(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(3, 2, 3)) + 1j * rng.normal(size=(3, 2, 3))
        s = SampleSet([1j, 2j, 3j], vals)
        got = rmse(s, lambda z: np.zeros((2, 3)))
        acc = sum(abs(vals[i, a, b]) ** 2 for i in range(3) for a in range(2) for b in range(3))
        assert got == pytest.approx(np.sqrt(acc / 3), rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(6, 2, 2)) + 0j
        pts = logspace_imaginary(1, 10, 6)
        s = SampleSet(pts, vals)
        perm = [3, 0, 5, 1, 4, 2]
        assert rmse(s, lambda z: np.eye(2)) == pytest.approx(
            rmse(s.subset(perm), lambda z: np.eye(2)), rel=1e-14
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(POW_NOT_MUL), st.floats(0, 1e150)), min_size=1, max_size=100),
           st.booleans())
    def test_sum_is_the_point_order_loop(self, errors, evaluator):
        """The bits of squaring each point's error as np.float64 ** 2 and adding them in point order."""
        ell = len(errors)
        vals = np.array(errors, dtype=complex).reshape(ell, 1, 1)
        s = SampleSet(logspace_imaginary(1, 10, ell + 1)[:ell], vals)
        zero = PoleResidue(np.zeros((1, 1)), [], np.zeros((0, 1, 1)))
        acc = 0.0
        for F in vals:
            acc += np.linalg.norm(F, "fro") ** 2
        want = float(np.sqrt(acc / ell))
        got = rmse(s, zero if evaluator else (lambda z: np.zeros((1, 1))))
        assert got.hex() == want.hex()

    def test_shape_mismatch_raises(self):
        s = SampleSet([1j], np.zeros((1, 2, 2)))
        with pytest.raises(ContractError):
            rmse(s, lambda z: np.zeros((3, 3)))


class TestAddNoise:
    def test_zero_std_is_identity(self):
        s = SampleSet([1j, 2j], [3.0, 4.0])
        assert add_noise(s, NoiseSpec(0.0, 7)) is s

    def test_deterministic_for_fixed_seed(self):
        s = SampleSet(logspace_imaginary(1, 10, 20), np.ones(20) + 0j)
        a = add_noise(s, NoiseSpec(1e-2, 42))
        b = add_noise(s, NoiseSpec(1e-2, 42))
        assert np.array_equal(a.values, b.values)

    def test_points_unchanged(self):
        s = SampleSet(logspace_imaginary(1, 10, 20), np.ones(20) + 0j)
        assert np.array_equal(add_noise(s, NoiseSpec(1e-2, 0)).points, s.points)

    def test_empirical_std(self):
        s = SampleSet(logspace_imaginary(1, 10, 500), np.zeros(500) + 0j)
        noisy = add_noise(s, NoiseSpec(1e-2, 123))
        emp = np.std((noisy.values - s.values).real)
        assert 0.008 <= emp <= 0.012

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            NoiseSpec(-1.0)
