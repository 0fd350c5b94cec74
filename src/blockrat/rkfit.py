"""RKFIT-style pole relocation on sampled data.

The rational Krylov machinery is specialized to diagonal operators, so a
"basis" is simply an orthonormalized matrix of rational functions
lambda^k / q(lambda) sampled on the data points, with q the monic polynomial
over the current finite poles.  One relocation step finds the unit-norm
basis combination whose misfit against the data is smallest and takes the
roots of its numerator polynomial as the new poles.  Non-interpolatory: the
final model is a plain least squares fit in the partial-fraction basis of
the final poles.
"""

from dataclasses import dataclass

import numpy as np

from .core import FitResult, NumericalError, ParameterError, _distinct
from .kernels import lstsq, trailing_right_singular_vector
from .linearize import bary_poly_weights, build_pencil, pencil_eigs
from .vecfit import _cauchy, _dedupe, _denominator_zeros, _fit_residues, _start_poles

__all__ = ["RkfitOptions", "RationalBasis", "RkfitResult", "build_basis", "relocate_poles", "rkfit_fit"]


@dataclass(frozen=True)
class RkfitOptions:
    degree: int
    iterations: int = 5
    initial_poles: np.ndarray | None = None  # default: all poles at infinity

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("degree must be >= 0")
        if self.iterations < 1:
            raise ParameterError("need at least one RKFIT iteration")


@dataclass(frozen=True, eq=False)
class RationalBasis:
    """Orthonormal basis of {p(lambda)/q(lambda) : deg p <= d} on the points.

    Poles at infinity are simply omitted from q.  `scale` is the variable
    scaling used for the monomial columns before orthonormalization.
    """

    points: np.ndarray
    poles: np.ndarray
    V: np.ndarray  # (ell, d+1), V* V = I
    qvals: np.ndarray  # q evaluated on the points
    scale: float
    degree: int


def build_basis(points, poles, degree=None):
    points = _distinct(points, "sample points")
    poles = np.asarray(poles, dtype=complex).ravel()
    if poles.size and np.min(np.abs(points[:, None] - poles[None, :])) == 0:
        raise ParameterError("a pole collides with a sample point")
    d = poles.size if degree is None else degree
    if poles.size > d:
        raise ParameterError(f"{poles.size} poles exceed basis degree {d}")
    qvals = np.ones(points.size, dtype=complex)
    for xi in poles:
        qvals *= points - xi
    scale = max(np.max(np.abs(points)), 1.0)
    # incremental (Arnoldi-style) construction: one pole per step, with
    # classical Gram-Schmidt run twice; finite poles first, the remaining steps
    # multiply by the (scaled) variable.  Far better conditioned than
    # orthonormalizing monomial-over-q columns in one shot.
    ell = points.size
    V = np.empty((ell, d + 1), dtype=complex)
    V[:, 0] = 1.0 / np.sqrt(ell)
    for j in range(1, d + 1):
        if j <= poles.size:
            w = V[:, j - 1] / (points - poles[j - 1])
        else:
            w = V[:, j - 1] * (points / scale)
        Vh = V[:, :j].conj().T  # a conjugate copy: the strided V.conj()[:, :j].T rounds differently
        for _ in range(2):
            w = w - V[:, :j] @ (Vh @ w)
        norm = np.linalg.norm(w)
        if norm <= 1e3 * np.finfo(float).eps:
            raise NumericalError("rational basis breakdown: dependent direction")
        V[:, j] = w / norm
    return RationalBasis(points, poles, V, qvals, scale, d)


def _leja_indices(points, count):
    """Greedy Leja-style selection of well-spread interpolation nodes."""
    chosen = [int(np.argmax(np.abs(points)))]
    dist = np.ones(points.size)  # prod_c |z - z_c| over the chosen c, multiplied in the order chosen
    while len(chosen) < count:
        dist *= np.abs(points - points[chosen[-1]])
        chosen.append(int(np.argmax(dist)))
    return np.array(chosen)


def _polynomial_roots_from_values(points, pvals, Q):
    """Roots of the degree-<=d polynomial with samples `pvals` on `points`.

    Least-squares projection onto Q, the (ell, d+1) orthonormal polynomial
    basis of the points that `build_basis(points, [], d)` builds, then a
    barycentric-pencil eigenvalue problem on Leja nodes.  Avoids monomial
    coefficients, which are hopeless on wide log grids.
    """
    degree = Q.shape[1] - 1
    pfit = Q @ (Q.conj().T @ pvals)  # best degree-<=degree fit, by values
    if degree == 0:
        return np.array([], dtype=complex)
    idx = _leja_indices(points, degree + 1)
    nodes = points[idx]
    C = (bary_poly_weights(nodes) * pfit[idx]).reshape(-1, 1, 1)
    return pencil_eigs(build_pencil(C, nodes)).ravel()


def relocate_poles(basis, sample_functions, poly=None):
    """One RKFIT step: new poles from the minimal-misfit basis combination.

    `sample_functions` is a sequence of value vectors on the basis points
    (one per matrix entry for block data).  Returns up to `degree` finite
    poles (roots that escape to infinity drop out of the list).  `poly` is
    the pole-free basis `build_basis(basis.points, [], basis.degree)` when
    the caller has it; a step that needs it and is not given it builds it.
    """
    V = basis.V
    # I - V V^H in place, without an ell x ell identity; 0 - x rather than -x
    # keeps the +0 entries of eye - V V^H
    proj = V @ V.conj().T
    np.subtract(0, proj, out=proj)
    proj.flat[:: V.shape[0] + 1] += 1
    blocks = [proj @ (np.asarray(f, dtype=complex)[:, None] * V) for f in sample_functions]
    c = trailing_right_singular_vector(np.vstack(blocks))
    vhat = V @ c
    pvals = vhat * basis.qvals  # numerator samples of the degree-<=d rational vhat
    if np.max(np.abs(pvals)) <= 1e3 * np.finfo(float).eps * np.max(np.abs(basis.qvals)):
        raise NumericalError("relocation failed: numerator polynomial is numerically zero")
    if basis.poles.size == basis.degree and basis.degree > 0:
        # refit vhat in the partial-fraction basis of the current poles and
        # take its zeros; far better conditioned than polynomial root-finding
        # from values once a full pole set exists
        coef = lstsq(np.column_stack([np.ones(V.shape[0]), _cauchy(basis.points, basis.poles)]), vhat)
        delta, gamma = coef[0], coef[1:]
        if abs(delta) > 1e-13 * np.max(np.abs(coef)):
            roots = _denominator_zeros(basis.poles, gamma / delta)
            roots = roots[np.abs(roots) < 1e8 * basis.scale]
            return _dedupe(roots)
    if basis.poles.size == 0:
        poly = basis
    elif poly is None:
        poly = build_basis(basis.points, [], degree=basis.degree)
    return _dedupe(_polynomial_roots_from_values(basis.points, pvals, poly.V))


RkfitResult = FitResult  # an alias: block-AAA and RKFIT share one result type


def rkfit_fit(samples, opts):
    """Iterated RKFIT over all matrix entries with a common denominator.

    Raises NumericalError when a relocated pole lands on a sample point.
    """
    d = opts.degree
    if samples.ell < 2 * d + 2 and d > 0:
        raise ParameterError(f"need at least {2 * d + 2} samples for degree {d}")
    m, n = samples.shape
    fs = [samples.values[:, a, b] for a in range(m) for b in range(n)]
    poles = _start_poles(opts.initial_poles, np.array([], dtype=complex))

    from .core import rmse  # looked up at call time, so a rebound core.rmse is seen

    trace = []
    poly = None  # the pole-free basis, kept from a step with every pole at infinity
    for _ in range(opts.iterations):  # at least one, so `model` is always bound
        basis = build_basis(samples.points, poles, degree=d)
        if poles.size == 0:
            poly = basis
        poles = relocate_poles(basis, fs, poly)
        model = _fit_residues(samples.points, samples.values, poles)
        trace.append(rmse(samples, model))
    return FitResult(model, trace)
