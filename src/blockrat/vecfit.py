"""Vector fitting: iterative pole relocation in partial-fraction form.

Scalar VF linearizes r(z) = p(z)/q(z) with q constrained to 1 at infinity,
solves for numerator and denominator coefficients in the partial-fraction
basis of the current poles, and relocates poles to the zeros of q.  The
matrix extension stacks all m*n entries into one fit sharing a common
denominator (symmetry of the data is not required).
"""

from dataclasses import dataclass

import numpy as np

from .barycentric import _nearest, _sums
from .core import Evaluator, NumericalError, ParameterError, SampleSet, _distinct
from .kernels import lstsq

__all__ = ["PoleResidue", "VfOptions", "vf_scalar", "vf_matrix", "initial_poles"]


@dataclass(frozen=True, eq=False)
class PoleResidue(Evaluator):
    """R(z) = D + sum_k C_k / (z - xi_k) with matrix constant and residues."""

    const: np.ndarray  # (m, n)
    poles: np.ndarray  # (d,)
    residues: np.ndarray  # (d, m, n)

    _undefined = "evaluation at a pole: z = {z}"

    def __post_init__(self):
        D = np.atleast_2d(np.asarray(self.const, dtype=complex))
        xi = np.asarray(self.poles, dtype=complex).ravel()
        C = np.asarray(self.residues, dtype=complex)
        if C.size == 0:
            C = np.zeros((0,) + D.shape, dtype=complex)
        if C.ndim != 3 or C.shape[0] != xi.size or C.shape[1:] != D.shape:
            raise ParameterError("residue stack inconsistent with poles/constant")
        _distinct(xi, "poles")
        object.__setattr__(self, "const", D)
        object.__setattr__(self, "poles", xi)
        object.__setattr__(self, "residues", C)

    @property
    def shape(self):
        return self.const.shape

    def __call__(self, z):
        zs = self._points(z)
        R = np.broadcast_to(self.const, zs.shape + self.shape).copy()
        if self.poles.size:
            off = _nearest(self.poles, zs)[1]  # NaN points are left out of the division, which would only warn
            R[off] += _sums(1.0 / (zs[off, None] - self.poles), self.residues)
            R[~off] = np.nan
        return self._result(z, R)


def _cauchy(points, poles):
    return 1.0 / (points[:, None] - poles[None, :])


def _fit_residues(points, values, poles):
    """Least-squares constant and residues of a PoleResidue with fixed poles.

    `values` has shape (ell, m, n); every entry is fitted in the partial-
    fraction basis [1, 1/(z - xi_1), ..., 1/(z - xi_d)] of `poles`.  Raises
    NumericalError when a pole lies on a sample point, in the window in
    which PoleResidue reports a point as a pole: the model could not be
    evaluated there.
    """
    if poles.size and _nearest(poles, points)[0].any():
        raise NumericalError("a relocated pole lies on a sample point")
    ell, m, n = values.shape
    X = lstsq(np.column_stack([np.ones(ell), _cauchy(points, poles)]), values.reshape(ell, m * n))
    return PoleResidue(X[0].reshape(m, n), poles, X[1:].reshape(poles.size, m, n))


@dataclass(frozen=True)
class VfOptions:
    iterations: int = 5
    initial_poles: np.ndarray | None = None
    enforce_stability: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ParameterError("need at least one VF iteration")


def initial_poles(points, d):
    """Default starting poles: weakly damped conjugate pairs -beta/100 +- beta*i
    with beta logarithmically spaced across the sampled frequency band."""
    if d == 0:
        return np.array([], dtype=complex)
    mags = np.abs(points)
    lo, hi = max(mags.min(), 1e-12), mags.max()
    betas = np.logspace(np.log10(lo), np.log10(hi), max(d // 2, 1))
    poles = []
    for beta in betas[: d // 2]:
        poles.extend([-beta / 100 + 1j * beta, -beta / 100 - 1j * beta])
    if d % 2 == 1:
        poles.append(-np.sqrt(lo * hi))
    return np.array(poles[:d], dtype=complex)


def _dedupe(poles):
    poles = np.asarray(poles, dtype=complex)
    a, b = np.triu_indices(poles.size, 1)
    if not np.any(np.abs(poles[a] - poles[b]) == 0):  # the loop's own test, on all pairs at once
        return poles
    for i in range(poles.size):
        while np.any(np.abs(poles[:i] - poles[i]) == 0):
            poles[i] += 1e-8 * (1 + abs(poles[i]))
    return poles


def _start_poles(given, default):
    """The given start poles, deduplicated, or `default` when none are given."""
    return default if given is None else _dedupe(np.array(given, dtype=complex).ravel())


def _denominator_zeros(poles, coeffs):
    """Zeros of q(z) = 1 + sum_k coeffs_k/(z - poles_k): eigvals of diag(poles) - 1 coeffs^T."""
    return np.linalg.eigvals(np.diag(poles) - np.outer(np.ones(poles.size), coeffs))


def vf_scalar(points, values, d, opts=VfOptions()):
    """Vector fitting for scalar data; returns a 1x1 PoleResidue model."""
    return vf_matrix(SampleSet(points, np.ravel(values)), d, opts)


def vf_matrix(samples, d, opts=VfOptions()):
    """Matrix fitting with a common denominator over all m*n entries.

    Raises NumericalError when a final pole lies on a sample point, where the
    model could not be evaluated.
    """
    if samples.ell < 2 * d + 1:
        raise ParameterError(f"need at least {2 * d + 1} samples for degree {d}")
    points, values = samples.points, samples.values
    ell = points.size
    m, n = samples.shape
    ne = m * n
    fs = values.reshape(ell, ne)  # one column-major sample vector per point

    if d == 0:
        D = fs.mean(axis=0).reshape(m, n)
        return PoleResidue(D, [], np.zeros((0, m, n)))

    poles = _start_poles(opts.initial_poles, initial_poles(points, d))
    if poles.size != d:
        raise ParameterError(f"expected {d} initial poles, got {poles.size}")

    # unknowns: per-entry [c_1..c_d, c_0], then the shared [d_1..d_d];
    # rows: one block of ell sample rows per entry.  Only the Cauchy columns
    # change between iterations, so A is allocated once and they are rewritten
    A = np.zeros((ne, ell, ne * (d + 1) + d), dtype=complex)
    for i in range(ne):
        A[i, :, i * (d + 1) + d] = 1
    for _ in range(opts.iterations):
        P = _cauchy(points, poles)  # (ell, d)
        for i in range(ne):
            A[i, :, i * (d + 1) : i * (d + 1) + d] = P
        np.multiply(-fs.T[:, :, None], P, out=A[:, :, ne * (d + 1) :])
        sol = lstsq(A.reshape(ne * ell, -1), fs.T.ravel())
        poles = _dedupe(_denominator_zeros(poles, sol[ne * (d + 1) :]))
        if opts.enforce_stability:
            poles = _dedupe(np.where(poles.real > 0, -np.conj(poles), poles))  # reflect unstable poles
    return _fit_residues(points, values, poles)
