import numpy as np
import pytest

from blockrat import (
    BlockBaryC,
    ParameterError,
    bary_poly_weights,
    build_pencil,
    nonlinear_eigs_baryC,
    pencil_eigs,
)
from blockrat.linearize import eval_node_polynomial


def interp_blocks(nodes, values):
    """Pencil coefficient blocks C_k = w_k * N_k for the matrix polynomial
    interpolating the values N_k at the nodes."""
    nodes = np.asarray(nodes, dtype=complex)
    w = bary_poly_weights(nodes)
    return w[:, None, None] * np.asarray(values, dtype=complex)


class TestBaryPolyWeights:
    def test_two_nodes(self):
        assert np.allclose(bary_poly_weights([0.0, 1.0]), [1.0, -1.0])

    def test_three_nodes(self):
        assert np.allclose(bary_poly_weights([0.0, 1.0, 2.0]), [0.5, -1.0, 0.5])

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        nodes = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = bary_poly_weights(nodes)
        for z in rng.normal(size=5) + 1j * rng.normal(size=5):
            total = sum(
                w[k] * np.prod(z - np.delete(nodes, k)) for k in range(5)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ParameterError):
            bary_poly_weights([1.0, 1.0])


def loop_pencil(C, nodes):
    """Block-by-block reference assembly of the pencil of `build_pencil`."""
    d, s = nodes.size - 1, C.shape[1]
    eye = np.eye(s)
    L0 = np.zeros((d * s, d * s), dtype=complex)
    L1 = np.zeros((d * s, d * s), dtype=complex)

    def blk(M, i, j):
        return M[i * s : (i + 1) * s, j * s : (j + 1) * s]

    for k in range(d - 1):
        blk(L0, 0, k)[:] = nodes[d] * C[k]
        blk(L1, 0, k)[:] = C[k]
    blk(L0, 0, d - 1)[:] = nodes[d] * C[d - 1] + nodes[d - 1] * C[d]
    blk(L1, 0, d - 1)[:] = C[d - 1] + C[d]
    for i in range(1, d):
        blk(L0, i, i - 1)[:] = nodes[i - 1] * eye
        blk(L0, i, i)[:] = -nodes[i] * eye
        blk(L1, i, i - 1)[:] = eye
        blk(L1, i, i)[:] = -eye
    return L0, L1


class TestBuildPencil:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_block_loop(self, d, s):
        rng = np.random.default_rng(10 * d + s)
        nodes = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        C = rng.normal(size=(d + 1, s, s)) + 1j * rng.normal(size=(d + 1, s, s))
        pencil = build_pencil(C, nodes)
        L0, L1 = loop_pencil(C, nodes)
        # byte comparison: signed zeros included
        assert pencil.L0.tobytes() == L0.tobytes()
        assert pencil.L1.tobytes() == L1.tobytes()

    def test_scalar_quadratic_roots(self):
        nodes = np.array([0.0, 1.0, 2.0])
        C = interp_blocks(nodes, (nodes**2 - 1)[:, None, None])
        eigs = np.sort(pencil_eigs(build_pencil(C, nodes)).real)
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-8)

    def test_linear_matrix_polynomial(self):
        rng = np.random.default_rng(1)
        G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        nodes = np.array([0.0, 1.0 + 0.5j])
        vals = np.array([z * np.eye(2) - G for z in nodes])
        C = interp_blocks(nodes, vals)
        got = np.sort_complex(pencil_eigs(build_pencil(C, nodes)))
        want = np.sort_complex(np.linalg.eigvals(G))
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))

    def test_unimodular_identity_has_no_finite_eigs(self):
        nodes = np.array([0.0, 1.0, 2.0])
        vals = np.tile(np.eye(2), (3, 1, 1))
        C = interp_blocks(nodes, vals)
        assert pencil_eigs(build_pencil(C, nodes)).size == 0

    def test_constant_numerator_rejected(self):
        with pytest.raises(ParameterError):
            build_pencil(np.ones((1, 2, 2)), [0.0])

    def test_singular_value_certificate(self):
        rng = np.random.default_rng(2)
        nodes = rng.normal(size=4) + 1j * rng.normal(size=4)
        C = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        eigs = pencil_eigs(build_pencil(C, nodes))
        assert eigs.size <= 3 * 2
        for lam in eigs:
            N = eval_node_polynomial(C, nodes, lam)
            s = np.linalg.svd(N, compute_uv=False)
            assert s[-1] <= 1e-8 * max(s[0], 1.0)

    def test_weight_rescale_invariance(self):
        rng = np.random.default_rng(3)
        nodes = rng.normal(size=3) + 1j * rng.normal(size=3)
        C = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        e1 = np.sort_complex(pencil_eigs(build_pencil(C, nodes)))
        e2 = np.sort_complex(pencil_eigs(build_pencil(2.7 * C, nodes)))
        assert np.linalg.norm(e1 - e2) <= 1e-8 * max(1.0, np.linalg.norm(e1))

    def test_node_permutation_invariance(self):
        rng = np.random.default_rng(4)
        nodes = rng.normal(size=4) + 1j * rng.normal(size=4)
        C = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        perm = [2, 0, 3, 1]
        e1 = np.sort_complex(pencil_eigs(build_pencil(C, nodes)))
        e2 = np.sort_complex(pencil_eigs(build_pencil(C[perm], nodes[perm])))
        assert e1.size == e2.size
        assert np.linalg.norm(e1 - e2) <= 1e-8 * max(1.0, np.linalg.norm(e1))


def _baryC_from_numerator_values(nodes, values):
    """BlockBaryC whose numerator node polynomial interpolates `values`."""
    C = interp_blocks(nodes, values)
    D = np.tile(np.eye(C.shape[1]), (len(nodes), 1, 1))
    return BlockBaryC(nodes, C, D)


class TestNonlinearEigsBaryC:
    def test_shifted_identity(self):
        nodes = np.array([0.0, 1.0, 2.0])
        vals = np.array([(z - 3) * np.eye(2) for z in nodes])
        model = _baryC_from_numerator_values(nodes, vals)
        eigs = nonlinear_eigs_baryC(model)
        assert eigs.size == 2
        assert np.allclose(eigs, 3.0, atol=1e-8)

    def test_constant_nonsingular_numerator(self):
        nodes = np.array([0.0, 1.0])
        G = np.array([[2.0, 1.0], [0.0, 1.0]])
        model = _baryC_from_numerator_values(nodes, np.tile(G, (2, 1, 1)))
        assert nonlinear_eigs_baryC(model).size == 0

    def test_diagonal_decoupling(self):
        nodes = np.array([0.0, 1.0, 2.0])
        vals = np.array([np.diag([z - 1, z + 2]) for z in nodes])
        model = _baryC_from_numerator_values(nodes, vals)
        eigs = np.sort(nonlinear_eigs_baryC(model).real)
        assert np.allclose(eigs, [-2.0, 1.0], atol=1e-8)

    def test_rectangular_rejected(self):
        nodes = np.array([0.0, 1.0])
        C = np.ones((2, 2, 3))
        D = np.tile(np.eye(2), (2, 1, 1))
        # BlockBaryC itself rejects the inconsistent shapes here, so construct
        # the error through the constructor
        with pytest.raises(ParameterError):
            nonlinear_eigs_baryC(BlockBaryC(nodes, C, D))
