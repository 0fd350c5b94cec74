"""Loewner framework: data partition, (shifted) Loewner assembly, and
truncated-SVD projection to a small (Er, Ar, Br, Cr) realization.

Block data is tangentially compressed with the standard basis vectors,
cycled over the partition points on both sides; scalar data is the 1x1 case.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Evaluator, ParameterError, SampleSet
from .kernels import finite_eigenvalues, singular_values, solve_checked, svd_full

EPS_RANK = 1e-12  # relative singular-value floor for the rank warning and the order cap

__all__ = ["LoewnerModel", "partition", "loewner_scalar", "loewner_block", "model_poles"]


@dataclass(frozen=True, eq=False)
class LoewnerModel(Evaluator):
    """Projected realization: R(z) = Cr (Ar - z Er)^-1 Br."""

    Er: np.ndarray  # (d, d)
    Ar: np.ndarray  # (d, d)
    Br: np.ndarray  # (d, n)
    Cr: np.ndarray  # (m, d)

    _undefined = "numerically singular matrix at z = {z}"

    @property
    def order(self):
        return self.Er.shape[0]

    @property
    def shape(self):
        return self.Cr.shape[0], self.Br.shape[1]

    def __call__(self, z):
        """R(z) = Cr (Ar - z Er)^-1 Br; NaN or EvaluationError on a singular resolvent."""
        zs = self._points(z)
        S = np.multiply(zs[:, None, None], self.Er[None])  # equal ndim: see ScalarBarycentric.__call__
        np.subtract(self.Ar, S, out=S)  # Ar - z Er, in the one buffer
        return self._result(z, self.Cr @ solve_checked(S, np.broadcast_to(self.Br, zs.shape + self.Br.shape)))


def partition(points, values):
    """Interleaved split into left/right halves of equal size.

    Points are ordered by ascending magnitude; odd-ranked points go left,
    even-ranked right, so both halves cover the full frequency range.  An
    odd trailing point is dropped with a warning.
    """
    points = np.asarray(points, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex)
    if points.size < 2:
        raise ParameterError("partition needs at least two points")
    order = np.argsort(np.abs(points), kind="stable")
    if points.size % 2 == 1:
        warnings.warn("odd number of points; dropping the last one for the partition")
        order = order[:-1]
    left, right = order[0::2], order[1::2]
    return SampleSet(points[left], values[left]), SampleSet(points[right], values[right])


def _project(data, V, W, d):
    """The order-d projection of the Loewner pencil of `data` (see `_pencil`)."""
    if d < 1:
        raise ParameterError("target order must be >= 1")
    # zgesdd destroys a Fortran-ordered L, so only C-ordered copies of the d
    # leading singular vectors outlive the SVD, in the layout numpy's SVD
    # returns its factors in: matmul rounds by layout
    u, sigma, vh = svd_full(_pencil(*data, order="F")[0], overwrite=True)
    X, Zh = np.ascontiguousarray(u[:, :d]), np.ascontiguousarray(vh[:d])
    del u, vh
    L, Ls = _pencil(*data)  # formed again, C-ordered, by the same operations
    numrank = int(np.sum(sigma > EPS_RANK * sigma[0]))
    if d > numrank:
        warnings.warn(f"order {d} exceeds the numerical Loewner rank {numrank}")
        if not (L.any() or Ls.any()):
            # a zero pencil (zero data): order 1 with a regular resolvent, zero everywhere
            return LoewnerModel(Er=np.zeros((1, 1), complex), Ar=np.ones((1, 1), complex),
                                Br=np.zeros((1, V.shape[1]), complex), Cr=np.zeros((W.shape[0], 1), complex))
        # cap d at the pencil's ranks, rank([L Ls]) and rank([L; Ls])
        for M in (np.hstack([L, Ls]), np.vstack([L, Ls])):
            s = singular_values(M)
            d = min(d, int(np.sum(s > EPS_RANK * s[0])))
    Xh = X[:, :d].conj().T
    Z = Zh[:d].conj().T
    return LoewnerModel(Er=Xh @ L @ Z, Ar=Xh @ Ls @ Z, Br=Xh @ V, Cr=W @ Z)


def _pencil(x, y, lFx, Fyr, ldir, rdir, order="C"):
    """(L, Ls) of the tangential data, L in `order`; Ls is None for a Fortran-ordered L.

    L = (vx - vy) / (x - y) and Ls = (x vx - y vy) / (x - y), with
    vx_ij = l_i* F(x_i) r_j and vy_ij = l_i* F(y_j) r_j, formed in place:
    Ls is written over vx.
    """
    vx = np.einsum("in,jn->ij", lFx, rdir)  # l_i* F(x_i) r_j
    vy = np.einsum("jm,im->ij", Fyr, ldir.conj())  # l_i* F(y_j) r_j
    denom = x[:, None] - y[None, :]
    L = np.subtract(vx, vy, order=order)
    np.divide(L, denom, out=L)
    if order == "F":
        return L, None
    np.multiply(x[:, None], vx, out=vx)
    np.multiply(y[None, :], vy, out=vy)
    Ls = np.subtract(vx, vy, out=vx)
    np.divide(Ls, denom, out=Ls)
    return L, Ls


def loewner_scalar(points, values, d):
    """Scalar Loewner fit of target order d; returns a 1x1 LoewnerModel."""
    return loewner_block(SampleSet(points, np.ravel(values)), d)


def loewner_block(samples, d):
    """Tangential block Loewner fit of target order d.

    The left and right direction vectors cycle through the standard basis
    vectors, one per partition point.  An order above the numerical rank of
    the Loewner pencil, the partition size among them, is lowered to that
    rank, with a warning.
    """
    m, n = samples.shape
    left, right = partition(samples.points, samples.values)
    cycle = np.arange(left.ell)
    ldir, rdir = np.eye(m, dtype=complex)[cycle % m], np.eye(n, dtype=complex)[cycle % n]
    lFx = np.einsum("im,imn->in", ldir.conj(), left.values)  # rows l_i* F(x_i)
    Fyr = np.einsum("jmn,jn->jm", right.values, rdir)  # columns F(y_j) r_j
    V = lFx  # (ell/2, n)
    W = Fyr.T  # (m, ell/2)
    return _project((left.points, right.points, lFx, Fyr, ldir, rdir), V, W, d)


def model_poles(model):
    """Finite generalized eigenvalues of (Ar, Er)."""
    return finite_eigenvalues(model.Ar, model.Er)
