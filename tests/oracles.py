"""Reference computations that only the tests use.

The first two are independent of the pencil linearization they check: the
matrix polynomial N(z) evaluated term by term, and polynomial roots from
numpy's companion matrix.  The next two are the plain loops that
`vecfit._dedupe` and `rkfit._leja_indices` must match byte for byte.  The
next three are the earlier assemblies of the weight matrices and of the
greedy loop's Loewner tensor, each built from temporaries, whose entries the
single-copy assemblies in `barycentric` and `aaa` must match byte for byte.
The next three are the singularity-checked solve as a per-block loop and
the earlier Loewner fit and evaluation, its pencil built from temporaries
and factored by `np.linalg.svd`, which `kernels` and `loewner` must match
byte for byte.  The last is RKFIT's relocation matrix with the explicit
ell x ell projector, which `rkfit.relocate_poles`'s row slabs must match
byte for byte.
"""

import warnings

import numpy as np

from blockrat.core import ParameterError
from blockrat.kernels import COND_LIMIT
from blockrat.loewner import EPS_RANK, partition

EPS_TRIM = 1e-13  # trailing polynomial coefficients below this (relative) are dropped


def companion_roots(coeffs):
    """All roots of the polynomial with ascending-degree coefficients."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0 or not np.any(c != 0):
        raise ParameterError("zero polynomial has no well-defined roots")
    cmax = np.max(np.abs(c))
    deg = c.size - 1
    while deg > 0 and abs(c[deg]) <= EPS_TRIM * cmax:
        deg -= 1
    if deg == 0:
        return np.array([], dtype=complex)
    return np.roots(c[deg::-1]).astype(complex)


def eval_node_polynomial(C, nodes, z):
    """N(z) = sum_k C_k * prod_{j != k} (z - z_j), evaluated directly."""
    C = np.asarray(C, dtype=complex)
    nodes = np.asarray(nodes, dtype=complex).ravel()
    out = np.zeros(C.shape[1:], dtype=complex)
    for k in range(nodes.size):
        out += C[k] * np.prod(z - np.delete(nodes, k))
    return out


def dedupe_loop(poles):
    """Nudge each pole that coincides with an earlier one until it is distinct."""
    poles = np.asarray(poles, dtype=complex)
    for i in range(poles.size):
        while np.any(np.abs(poles[:i] - poles[i]) == 0):
            poles[i] += 1e-8 * (1 + abs(poles[i]))
    return poles


def leja_indices_prod(points, count):
    """Greedy Leja selection, each distance product taken afresh with np.prod."""
    chosen = [int(np.argmax(np.abs(points)))]
    while len(chosen) < count:
        dist = np.prod(np.abs(points[:, None] - points[chosen][None, :]), axis=1)
        chosen.append(int(np.argmax(dist)))
    return np.array(chosen)


def baryC_matrix_stacked(samples, nodes):
    """bary-C's matrix [top; bottom], its two halves formed apart and then stacked."""
    d1, ell, n = nodes.size, samples.ell, samples.shape[1]
    inv = 1.0 / (samples.points[None, :] - nodes[:, None])
    top = ((-inv)[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(d1 * n, ell * n)
    bot = (inv[:, None, :, None] * samples.values.transpose(1, 0, 2)[None]).reshape(d1 * n, ell * n)
    return np.vstack([top, bot])


def baryB_matrix_reshaped(loewner):
    """bary-B's m(d+1) x ell*n matrix, the transposed reshape of the (d+1, ell, m, n) tensor."""
    d1, ell, m, n = loewner.shape
    return loewner.transpose(0, 2, 1, 3).reshape(d1 * m, ell * n)


def loewner_grown_by_concatenation(loewner, t, column):
    """The greedy loop's tensor without remaining point t, with the (1, ell - 1, m, n) column appended."""
    return np.concatenate([np.delete(loewner, t, axis=1), column])


def cond_then_solve(S, T):
    """NaN unless S_i is finite with np.linalg.cond(S_i) <= COND_LIMIT, S_i^-1 T_i otherwise."""
    X = np.full(T.shape, np.nan, dtype=complex)
    for i in range(len(S)):
        if np.isfinite(S[i]).all() and np.linalg.cond(S[i]) <= COND_LIMIT:
            X[i] = np.linalg.solve(S[i], T[i])
    return X


def loewner_block_with_temporaries(samples, d):
    """(Er, Ar, Br, Cr) of an order-d tangential Loewner fit: the pencil from
    temporaries, its SVD and the cap's singular values by `np.linalg.svd`."""
    m, n = samples.shape
    left, right = partition(samples.points, samples.values)
    cycle = np.arange(left.ell)
    ldir, rdir = np.eye(m, dtype=complex)[cycle % m], np.eye(n, dtype=complex)[cycle % n]
    x, y = left.points, right.points
    lFx = np.einsum("im,imn->in", ldir.conj(), left.values)
    Fyr = np.einsum("jmn,jn->jm", right.values, rdir)
    vx = np.einsum("in,jn->ij", lFx, rdir)
    vy = np.einsum("jm,im->ij", Fyr, ldir.conj())
    denom = x[:, None] - y[None, :]
    L = (vx - vy) / denom
    Ls = (x[:, None] * vx - y[None, :] * vy) / denom
    u, sigma, vh = np.linalg.svd(L)
    if d > int(np.sum(sigma > EPS_RANK * sigma[0])):
        warnings.warn(f"order {d} exceeds the numerical Loewner rank")
        for M in (np.hstack([L, Ls]), np.vstack([L, Ls])):
            s = np.linalg.svd(M, full_matrices=False, compute_uv=False)
            d = min(d, int(np.sum(s > EPS_RANK * s[0])))
    X = u[:, :d]
    Z = vh[:d].conj().T
    return X.conj().T @ L @ Z, X.conj().T @ Ls @ Z, X.conj().T @ lFx, Fyr.T @ Z


def loewner_values(Er, Ar, Br, Cr, z):
    """Cr (Ar - z Er)^-1 Br at each point of z, solved by `cond_then_solve`."""
    S = Ar - z[:, None, None] * Er[None]
    return Cr @ cond_then_solve(S, np.broadcast_to(Br, z.shape + Br.shape))


def relocation_blocks_explicit(V, sample_functions):
    """The stacked blocks (I - V V*) f_i V of an RKFIT relocation, the projector formed whole."""
    proj = V @ V.conj().T
    np.subtract(0, proj, out=proj)
    proj.flat[:: V.shape[0] + 1] += 1
    return np.vstack([proj @ (np.asarray(f, dtype=complex)[:, None] * V) for f in sample_functions])
