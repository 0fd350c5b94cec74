"""Barycentric rational representations: scalar and matrix-valued.

Three matrix-valued generalizations of the scalar barycentric form are
provided, with increasing generality:

* BlockBaryA: scalar weights w_k, matrix values F_k (interpolatory)
* BlockBaryB: matrix weights W_k acting on both numerator and denominator
  sums (interpolatory when all W_k are nonsingular)
* BlockBaryC: independent numerator matrices C_k and denominator matrices
  D_k (in general non-interpolatory)

The least-squares weight solvers for the B and C forms reduce to a trailing
left singular block of a (block) Loewner matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Evaluator, ParameterError
from .kernels import solve_checked, trailing_left_singular_block

__all__ = [
    "ScalarBarycentric",
    "BlockBaryA",
    "BlockBaryB",
    "BlockBaryC",
    "solve_weights_baryB",
    "solve_weights_baryC",
]


def _support_tol(nodes):
    # exact-support detection window
    return 10 * np.finfo(float).eps * max(np.max(np.abs(nodes)), 1.0)


def _check_nodes(nodes):
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if len(np.unique(nodes)) != nodes.size:
        raise ParameterError("support points must be pairwise distinct")
    return nodes


def _nearest(nodes, zs):
    """(on, off, k): which points lie on a support point, which lie off every
    support point, and the nearest node of each.

    A NaN point is neither on nor off: its block stays NaN, and it is left
    out of the divisions by z - z_k, which would only warn.
    """
    dist = np.abs(zs[:, None] - nodes[None, :])
    k = np.argmin(dist, axis=1)
    on = dist[np.arange(zs.size), k] <= _support_tol(nodes)
    return on, ~on & ~np.isnan(zs), k


def _sums(c, A):
    """sum_k c[i, k] A[k] for each row i of c, as an (N,) + A.shape[1:] stack.

    One (1, k) @ (k, m*n) product per row: the BLAS call that
    np.tensordot(c[i], A, axes=(0, 0)) makes, so the bits are those of the
    per-point sum.  A single (N, k) @ (k, m*n) product rounds differently.
    For k = 1 and m*n > 1, np.tensordot scales A[0] by c[i, 0] (a BLAS axpy),
    which rounds as a plain product does; c[:, :, None] gives c the ndim of
    A, (k, m, n), for the reason given in ScalarBarycentric.__call__.
    """
    if A.shape[0] == 1 and A[0].size > 1:
        return c[:, :, None] * A
    return (c[:, None, :] @ A.reshape(A.shape[0], -1)).reshape(c.shape[:1] + A.shape[1:])


def _scalar_weight_quotient(model, zs, numer):
    """sum_k c_k F_k / sum_k c_k with c_k = w_k/(z - z_k), and F_k itself at z_k.

    `numer(c)` forms the numerator sums of the rows of c.  NaN where the
    denominator sum vanishes.
    """
    on, off, k = _nearest(model.nodes, zs)
    R = np.full(zs.shape + model.values.shape[1:], np.nan, dtype=complex)
    R[on] = model.values[k[on]]
    off = np.flatnonzero(off)
    c = model.weights / (zs[off, None] - model.nodes)
    den = np.sum(c, axis=1)
    ok = den != 0
    R[off[ok]] = numer(c[ok]) / den[ok].reshape((-1,) + (1,) * (R.ndim - 1))
    return R


@dataclass(frozen=True)
class ScalarBarycentric(Evaluator):
    """r(z) = sum_k w_k f_k / (z - z_k)  /  sum_k w_k / (z - z_k)."""

    _undefined = "barycentric denominator vanishes at z = {z}"

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = _check_nodes(self.nodes)
        w = np.asarray(self.weights, dtype=complex).ravel()
        f = np.asarray(self.values, dtype=complex).ravel()
        if not (nodes.size == w.size == f.size):
            raise ParameterError("nodes, weights, values must have equal length")
        if not np.any(w != 0):
            raise ParameterError("at least one barycentric weight must be nonzero")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", f)

    @property
    def order(self):
        return self.nodes.size - 1

    def __call__(self, z):
        zs = self._points(z)
        # values[None] keeps both factors 2-D: numpy rounds a complex product
        # of size-1 operands of unequal ndim without fused multiply-add, so
        # one point alone would differ from the same point in a longer array
        return self._result(z, _scalar_weight_quotient(self, zs, lambda c: np.sum(c * self.values[None], axis=1)))


@dataclass(frozen=True)
class BlockBaryA(Evaluator):
    """Scalar-weight barycentric form with matrix values F_k."""

    _undefined = "barycentric denominator vanishes at z = {z}"

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray  # (d+1, m, n)

    def __post_init__(self):
        nodes = _check_nodes(self.nodes)
        w = np.asarray(self.weights, dtype=complex).ravel()
        F = np.asarray(self.values, dtype=complex)
        if F.ndim != 3 or F.shape[0] != nodes.size or w.size != nodes.size:
            raise ParameterError("need one weight and one m-by-n value per node")
        if not np.any(w != 0):
            raise ParameterError("at least one barycentric weight must be nonzero")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", F)

    @property
    def order(self):
        return self.nodes.size - 1

    @property
    def shape(self):
        return self.values.shape[1], self.values.shape[2]

    def __call__(self, z):
        zs = self._points(z)
        return self._result(z, _scalar_weight_quotient(self, zs, lambda c: _sums(c, self.values)))


@dataclass(frozen=True)
class BlockBaryB(Evaluator):
    """Matrix-weight barycentric form; the output of block-AAA.

    R(z) = (sum_k W_k/(z-z_k))^-1 (sum_k W_k F_k/(z-z_k)), with the weight
    stack [W_0, ..., W_d] normalized to unit Frobenius norm.
    """

    nodes: np.ndarray
    weights: np.ndarray  # (d+1, m, m)
    values: np.ndarray  # (d+1, m, n)
    weighted: np.ndarray = field(init=False, repr=False, compare=False)  # W_k F_k

    _undefined = "numerically singular matrix at z = {z}"

    def __post_init__(self):
        nodes = _check_nodes(self.nodes)
        W = np.asarray(self.weights, dtype=complex)
        F = np.asarray(self.values, dtype=complex)
        if W.ndim != 3 or W.shape[1] != W.shape[2] or W.shape[0] != nodes.size:
            raise ParameterError("need one square weight matrix per node")
        if F.ndim != 3 or F.shape[0] != nodes.size or F.shape[1] != W.shape[1]:
            raise ParameterError("value matrices inconsistent with weights")
        total = np.linalg.norm(W)
        if total == 0:
            raise ParameterError("weight stack must be nonzero")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", W / total)
        object.__setattr__(self, "values", F)
        object.__setattr__(self, "weighted", np.einsum("kij,kjl->kil", self.weights, F))

    @property
    def order(self):
        return self.nodes.size - 1

    @property
    def shape(self):
        return self.values.shape[1], self.values.shape[2]

    def __call__(self, z):
        zs = self._points(z)
        on, off, k = _nearest(self.nodes, zs)
        R = np.full(zs.shape + self.shape, np.nan, dtype=complex)
        R[on] = self.values[k[on]]
        c = 1.0 / (zs[off, None] - self.nodes)
        R[off] = solve_checked(_sums(c, self.weights), _sums(c, self.weighted))
        return self._result(z, R)


@dataclass(frozen=True)
class BlockBaryC(Evaluator):
    """Fully general barycentric quotient with numerator and denominator blocks.

    R(z) = (sum_k D_k/(z-z_k))^-1 (sum_k C_k/(z-z_k)); non-interpolatory in
    general, with R(z_k) = D_k^-1 C_k at the support points.
    """

    nodes: np.ndarray
    numer: np.ndarray  # (d+1, m, n)
    denom: np.ndarray  # (d+1, m, m)

    _undefined = "numerically singular matrix at z = {z}"

    def __post_init__(self):
        nodes = _check_nodes(self.nodes)
        C = np.asarray(self.numer, dtype=complex)
        D = np.asarray(self.denom, dtype=complex)
        if D.ndim != 3 or D.shape[1] != D.shape[2] or D.shape[0] != nodes.size:
            raise ParameterError("need one square denominator matrix per node")
        if C.ndim != 3 or C.shape[0] != nodes.size or C.shape[1] != D.shape[1]:
            raise ParameterError("numerator matrices inconsistent with denominators")
        total = np.sqrt(np.linalg.norm(C) ** 2 + np.linalg.norm(D) ** 2)
        if total == 0:
            raise ParameterError("coefficient stack must be nonzero")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "numer", C / total)
        object.__setattr__(self, "denom", D / total)

    @property
    def order(self):
        return self.nodes.size - 1

    @property
    def shape(self):
        return self.numer.shape[1], self.numer.shape[2]

    def __call__(self, z):
        zs = self._points(z)
        on, off, k = _nearest(self.nodes, zs)
        # a NaN point keeps a NaN S, which solve_checked turns into a NaN block
        S = np.full(zs.shape + self.denom.shape[1:], np.nan, dtype=complex)
        T = np.full(zs.shape + self.shape, np.nan, dtype=complex)
        S[on], T[on] = self.denom[k[on]], self.numer[k[on]]
        c = 1.0 / (zs[off, None] - self.nodes)
        S[off], T[off] = _sums(c, self.denom), _sums(c, self.numer)
        return self._result(z, solve_checked(S, T))


def _check_disjoint(points, nodes):
    if np.min(np.abs(points[:, None] - nodes[None, :])) == 0:
        raise ParameterError("support points must be disjoint from sample points")


def _loewner_tensor(samples, nodes, node_vals):
    """(d+1, ell, m, n) tensor of (F(lambda_i) - F_k)/(lambda_i - z_k)."""
    return (samples.values[None, :, :, :] - node_vals[:, None, :, :]) / (
        samples.points[None, :, None, None] - nodes[:, None, None, None]
    )


def solve_weights_baryB(samples, support):
    """Least-squares weight matrices for the bary-B form.

    `support` is a sequence of (z_k, F_k) pairs.  Assembles the block Loewner
    matrix with (k, i) block (F(lambda_i) - F_k)/(lambda_i - z_k) and returns
    the weight list from its trailing left singular block (unit Frobenius
    norm over the stack).
    """
    nodes = np.array([z for z, _ in support], dtype=complex)
    Fsup = np.array([F for _, F in support], dtype=complex)
    _check_nodes(nodes)
    _check_disjoint(samples.points, nodes)
    m, n = samples.shape
    L = _loewner_tensor(samples, nodes, Fsup)  # (d+1, ell, m, n)
    # stack to m(d+1) x ell*n
    Lmat = L.transpose(0, 2, 1, 3).reshape(nodes.size * m, samples.ell * n)
    W = trailing_left_singular_block(Lmat, m)
    return [W[:, k * m : (k + 1) * m] for k in range(nodes.size)]


def solve_weights_baryC(samples, nodes):
    """Least-squares bary-C fit: joint trailing block [C_0..C_d, D_0..D_d].

    Restricted to square samples (m == n); the stacked identity blocks in the
    linearized problem do not have well-defined dimensions otherwise.
    """
    m, n = samples.shape
    if m != n:
        raise ParameterError("bary-C solve requires square samples (m == n)")
    nodes = _check_nodes(nodes)
    _check_disjoint(samples.points, nodes)
    d1 = nodes.size
    ell = samples.ell
    inv = 1.0 / (samples.points[None, :] - nodes[:, None])  # (d+1, ell)
    # (k, i) blocks -inv[k, i] * I and inv[k, i] * F(lambda_i)
    top = ((-inv)[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(d1 * n, ell * n)
    bot = (inv[:, None, :, None] * samples.values.transpose(1, 0, 2)[None]).reshape(d1 * m, ell * n)
    W = trailing_left_singular_block(np.vstack([top, bot]), m)
    C = np.stack([W[:, k * n : (k + 1) * n] for k in range(d1)])
    D = np.stack([W[:, d1 * n + k * m : d1 * n + (k + 1) * m] for k in range(d1)])
    return BlockBaryC(nodes, C, D)
