import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrat.core import NumericalError, ParameterError
from blockrat.kernels import (
    COND_LIMIT,
    finite_eigenvalues,
    gen_eig,
    lstsq,
    solve_checked,
    svd_full,
    trailing_left_singular_block,
    trailing_right_singular_vector,
)
from tests.oracles import companion_roots


class TestSvdFull:
    def test_identity(self):
        res = svd_full(np.eye(3))
        assert np.allclose(res.s, [1, 1, 1])

    def test_diag_with_zero(self):
        res = svd_full(np.diag([3.0, 0.0]))
        assert np.allclose(res.s, [3.0, 0.0])

    def test_random_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        res = svd_full(M)
        assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(5)) <= 1e-12
        assert np.linalg.norm(res.v.conj().T @ res.v - np.eye(7)) <= 1e-12
        S = np.zeros((5, 7))
        S[:5, :5] = np.diag(res.s)
        err = np.linalg.norm(M - res.u @ S @ res.v.conj().T) / np.linalg.norm(M)
        assert err <= 1e-10

    def test_large_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(200, 120)) + 1j * rng.normal(size=(200, 120))
        res = svd_full(M)
        S = np.zeros((200, 120))
        S[:120, :120] = np.diag(res.s)
        err = np.linalg.norm(M - res.u @ S @ res.v.conj().T) / np.linalg.norm(M)
        assert err <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(4)
        res = svd_full(rng.normal(size=(8, 8)))
        assert np.all(np.diff(res.s) <= 0)


class TestTrailingLeftSingularBlock:
    def test_m1_matches_trailing_vector(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        W = trailing_left_singular_block(M, 1)
        u = svd_full(M).u
        # equal to the trailing left singular vector up to a unimodular factor
        assert abs(abs(np.vdot(u[:, -1], W.conj().ravel())) - 1.0) <= 1e-12
        s = svd_full(M).s
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


def _cond_then_solve(S, T):
    """The reference: NaN unless S_i is finite with np.linalg.cond(S_i) <= COND_LIMIT."""
    X = np.full(T.shape, np.nan, dtype=complex)
    for i in range(len(S)):
        if np.isfinite(S[i]).all() and np.linalg.cond(S[i]) <= COND_LIMIT:
            X[i] = np.linalg.solve(S[i], T[i])
    return X


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
        assert solve_checked(S, T).tobytes() == _cond_then_solve(S, T).tobytes()

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
