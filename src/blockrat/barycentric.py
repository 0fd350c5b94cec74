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

from .core import Evaluator, ParameterError, _distinct
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


def _nearest(nodes, zs):
    """(on, off, k): which points lie on a node, which lie off every node, and
    the nearest node of each; the one window for support points and poles.

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


def _at_nodes(model, zs, values_at):
    """(R, off): values_at(k) at the points on a node z_k and NaN elsewhere, and
    the mask of the points off every node, where the quotient is to be formed."""
    on, off, k = _nearest(model.nodes, zs)
    R = np.full(zs.shape + model.shape, np.nan, dtype=complex)
    R[on] = values_at(k[on])
    return R, off


def _scalar_weight_quotient(model, zs, numer):
    """sum_k c_k F_k / sum_k c_k with c_k = w_k/(z - z_k), and F_k itself at z_k.

    `numer(c)` forms the numerator sums of the rows of c.  NaN where the
    denominator sum vanishes.
    """
    R, off = _at_nodes(model, zs, lambda k: model.values[k])
    off = np.flatnonzero(off)
    c = model.weights / (zs[off, None] - model.nodes)
    den = np.sum(c, axis=1)
    ok = den != 0
    R[off[ok]] = numer(c[ok]) / den[ok].reshape((-1,) + (1,) * (R.ndim - 1))
    return R


def _matrix_weight_quotient(model, zs, at_nodes, D, N):
    """(sum_k c_k D_k)^-1 (sum_k c_k N_k) with c_k = 1/(z - z_k), and at_nodes(k) at z_k.

    NaN at a NaN point and where the denominator sum is numerically singular.
    """
    R, off = _at_nodes(model, zs, at_nodes)
    c = 1.0 / (zs[off, None] - model.nodes)
    R[off] = solve_checked(_sums(c, D), _sums(c, N))
    return R


class _Barycentric(Evaluator):
    """The barycentric forms: order from the support points, shape from the values (() if scalar).

    The support points are checked and stored here, before a form checks
    its own weights and values against them.
    """

    def __post_init__(self):
        object.__setattr__(self, "nodes", _distinct(self.nodes, "support points"))

    @property
    def order(self):
        return self.nodes.size - 1

    @property
    def shape(self):
        return self.values.shape[1:]


class _ScalarWeights(_Barycentric):
    """The forms with one scalar weight per support point, not all zero."""

    _undefined = "barycentric denominator vanishes at z = {z}"

    def __post_init__(self):
        super().__post_init__()
        w = np.asarray(self.weights, dtype=complex).ravel()
        if w.size != self.nodes.size:
            raise ParameterError("need one weight per node")
        if not np.any(w != 0):
            raise ParameterError("at least one barycentric weight must be nonzero")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class ScalarBarycentric(_ScalarWeights):
    """r(z) = sum_k w_k f_k / (z - z_k)  /  sum_k w_k / (z - z_k)."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        f = np.asarray(self.values, dtype=complex).ravel()
        if f.size != self.nodes.size:
            raise ParameterError("need one value per node")
        object.__setattr__(self, "values", f)

    def __call__(self, z):
        zs = self._points(z)
        # values[None] keeps both factors 2-D: numpy rounds a complex product
        # of size-1 operands of unequal ndim without fused multiply-add, so
        # one point alone would differ from the same point in a longer array
        return self._result(z, _scalar_weight_quotient(self, zs, lambda c: np.sum(c * self.values[None], axis=1)))


@dataclass(frozen=True, eq=False)
class BlockBaryA(_ScalarWeights):
    """Scalar-weight barycentric form with matrix values F_k."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray  # (d+1, m, n)

    def __post_init__(self):
        super().__post_init__()
        F = np.asarray(self.values, dtype=complex)
        if F.ndim != 3 or F.shape[0] != self.nodes.size:
            raise ParameterError("need one m-by-n value per node")
        object.__setattr__(self, "values", F)

    def __call__(self, z):
        zs = self._points(z)
        return self._result(z, _scalar_weight_quotient(self, zs, lambda c: _sums(c, self.values)))


@dataclass(frozen=True, eq=False)
class BlockBaryB(_Barycentric):
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
        super().__post_init__()
        W = np.asarray(self.weights, dtype=complex)
        F = np.asarray(self.values, dtype=complex)
        if W.ndim != 3 or W.shape[1] != W.shape[2] or W.shape[0] != self.nodes.size:
            raise ParameterError("need one square weight matrix per node")
        if F.ndim != 3 or F.shape[0] != self.nodes.size or F.shape[1] != W.shape[1]:
            raise ParameterError("value matrices inconsistent with weights")
        # norm and einsum sum in memory order: read every stack as column-major
        # blocks, the layout solve_weights_baryB returns (for it, a view)
        W = np.ascontiguousarray(W.transpose(0, 2, 1)).transpose(0, 2, 1)
        total = np.linalg.norm(W)
        if total == 0:
            raise ParameterError("weight stack must be nonzero")
        object.__setattr__(self, "weights", W / total)
        object.__setattr__(self, "values", F)
        object.__setattr__(self, "weighted", np.einsum("kij,kjl->kil", self.weights, F))

    def __call__(self, z):
        zs = self._points(z)
        return self._result(z, _matrix_weight_quotient(self, zs, lambda k: self.values[k], self.weights, self.weighted))


@dataclass(frozen=True, eq=False)
class BlockBaryC(_Barycentric):
    """Fully general barycentric quotient with numerator and denominator blocks.

    R(z) = (sum_k D_k/(z-z_k))^-1 (sum_k C_k/(z-z_k)); non-interpolatory in
    general, with R(z_k) = D_k^-1 C_k at the support points.
    """

    nodes: np.ndarray
    numer: np.ndarray  # (d+1, m, n)
    denom: np.ndarray  # (d+1, m, m)

    _undefined = "numerically singular matrix at z = {z}"

    def __post_init__(self):
        super().__post_init__()
        C = np.asarray(self.numer, dtype=complex)
        D = np.asarray(self.denom, dtype=complex)
        if D.ndim != 3 or D.shape[1] != D.shape[2] or D.shape[0] != self.nodes.size:
            raise ParameterError("need one square denominator matrix per node")
        if C.ndim != 3 or C.shape[0] != self.nodes.size or C.shape[1] != D.shape[1]:
            raise ParameterError("numerator matrices inconsistent with denominators")
        total = np.sqrt(np.linalg.norm(C) ** 2 + np.linalg.norm(D) ** 2)
        if total == 0:
            raise ParameterError("coefficient stack must be nonzero")
        object.__setattr__(self, "numer", C / total)
        object.__setattr__(self, "denom", D / total)

    @property
    def shape(self):
        return self.numer.shape[1], self.numer.shape[2]

    def __call__(self, z):
        zs = self._points(z)
        return self._result(z, _matrix_weight_quotient(
            self, zs, lambda k: solve_checked(self.denom[k], self.numer[k]), self.denom, self.numer))


def _check_disjoint(points, nodes):
    if np.min(np.abs(points[:, None] - nodes[None, :])) == 0:
        raise ParameterError("support points must be disjoint from sample points")


def _loewner_tensor(samples, nodes, node_vals):
    """(d+1, ell, m, n) tensor of (F(lambda_i) - F_k)/(lambda_i - z_k)."""
    return (samples.values[None, :, :, :] - node_vals[:, None, :, :]) / (
        samples.points[None, :, None, None] - nodes[:, None, None, None]
    )


def solve_weights_baryB(samples, nodes, values, loewner=None):
    """Least-squares weight matrices for the bary-B form.

    `nodes` are the support points z_k and `values` the (d+1, m, n) stack of
    F_k.  Assembles the block Loewner matrix with (k, i) block
    (F(lambda_i) - F_k)/(lambda_i - z_k) and returns the (d+1, m, m) weight
    stack from its trailing left singular block (unit Frobenius norm over the
    stack).  Each W_k keeps the column-major layout of that block, the
    layout in which BlockBaryB reads any weight stack, so it takes this one
    without a copy.  `loewner`, if given, is that tensor as
    `_loewner_tensor(samples, nodes, values)` returns it; the greedy loop
    passes the one it keeps.
    """
    nodes = _distinct(nodes, "support points")
    values = np.asarray(values, dtype=complex)
    _check_disjoint(samples.points, nodes)
    m, n = samples.shape
    L = _loewner_tensor(samples, nodes, values) if loewner is None else loewner  # (d+1, ell, m, n)
    # stack to m(d+1) x ell*n
    Lmat = L.transpose(0, 2, 1, 3).reshape(nodes.size * m, samples.ell * n)
    W = trailing_left_singular_block(Lmat, m)
    return np.stack(np.hsplit(W, nodes.size))


def solve_weights_baryC(samples, nodes):
    """Least-squares bary-C fit: joint trailing block [C_0..C_d, D_0..D_d].

    Restricted to square samples (m == n); the stacked identity blocks in the
    linearized problem do not have well-defined dimensions otherwise.
    """
    m, n = samples.shape
    if m != n:
        raise ParameterError("bary-C solve requires square samples (m == n)")
    nodes = _distinct(nodes, "support points")
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
