"""Sample sets, sampling grids, noise injection, and the RMSE metric.

All fitters in this package consume a :class:`SampleSet`: a list of pairwise
distinct complex points together with one finite m-by-n complex matrix sample
per point.  Fitted models are "evaluators".  Every model class of the package
derives from :class:`Evaluator` and follows its contract:

* ``model(z)`` with a complex scalar z returns the m-by-n complex matrix at z
  (a complex scalar for ``ScalarBarycentric``), or raises ``EvaluationError``
  where the model cannot be evaluated there;
* ``model(zs)`` with a 1-D array of N points returns the (N, m, n) stack of
  values (shape (N,) for ``ScalarBarycentric``), with a NaN block exactly at
  the points where ``model(z)`` raises.

`rmse` also accepts any other callable that maps a scalar z to a matrix.
The package's records that hold arrays (sample sets, models, fit results)
compare by identity and hash by id.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterError",
    "ContractError",
    "EvaluationError",
    "NumericalError",
    "SampleSet",
    "Evaluator",
    "FitResult",
    "NoiseSpec",
    "logspace_imaginary",
    "rmse",
    "add_noise",
]


class ParameterError(ValueError):
    """Invalid argument to an operation (bad sizes, duplicates, bad ranges)."""


class ContractError(ParameterError):
    """Inconsistent objects passed together (e.g. dimension mismatch); a ParameterError."""


class EvaluationError(ArithmeticError):
    """A model could not be evaluated at the requested point."""


class NumericalError(RuntimeError):
    """A dense linear-algebra routine failed to converge."""


def _freeze(a):
    a.setflags(write=False)
    return a


def _distinct(x, what):
    """x as a 1-D complex array; ParameterError unless its entries are pairwise distinct.

    Equal means what np.unique counts as one value: +0 equals -0, and all
    complex NaNs are equal.  Decided by sorting, where equal values end up
    next to each other and NaNs last; np.unique would import numpy.ma.
    """
    x = np.asarray(x, dtype=complex).ravel()
    s = x.copy()
    s.sort()
    if x.size > 1 and (np.count_nonzero(s[1:] == s[:-1]) or s[-2] != s[-2]):
        raise ParameterError(f"{what} must be pairwise distinct")
    return x


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Pairwise distinct complex points with one m-by-n matrix sample each.

    Immutable after construction; the backing arrays are marked read-only.
    """

    points: np.ndarray  # shape (ell,), complex
    values: np.ndarray  # shape (ell, m, n), complex

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        vals = np.asarray(self.values, dtype=complex)
        if pts.size < 1:
            raise ParameterError("sample set needs at least one point")
        if vals.ndim == 1:  # scalar samples
            vals = vals.reshape(-1, 1, 1)
        if vals.ndim != 3:
            raise ParameterError("values must have shape (ell, m, n)")
        if vals.shape[0] != pts.size:
            raise ContractError(
                f"{pts.size} points but {vals.shape[0]} sample matrices"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ParameterError("sample points and values must be finite")
        _distinct(pts, "sample points")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def ell(self):
        return self.points.size

    @property
    def shape(self):
        """(m, n) of each sample matrix."""
        return self.values.shape[1], self.values.shape[2]

    def subset(self, indices):
        """New SampleSet restricted to the given point indices, each taken once.

        Rows of a valid set need no second check; only the indices are checked.
        """
        idx = np.arange(self.ell)[np.asarray(indices)]
        if idx.size == 0 or np.bincount(idx).max() > 1:
            raise ParameterError("a subset needs at least one point and each point at most once")
        sub = object.__new__(SampleSet)
        object.__setattr__(sub, "points", _freeze(self.points[idx]))
        object.__setattr__(sub, "values", _freeze(self.values[idx]))
        return sub


class Evaluator:
    """Base class of the package's fitted models; see the module docstring.

    A subclass computes its values on a 1-D array of points, NaN blocks where
    it cannot be evaluated, and returns `self._result(z, values)` from its own
    `__call__`.  Its class attribute `_undefined` is the message of its
    EvaluationError, a format string in z.
    """

    @staticmethod
    def _points(z):
        """z as a 1-D complex array (one point for a scalar z)."""
        zs = np.asarray(z, dtype=complex)
        if zs.ndim > 1:
            raise ParameterError(f"evaluate at a scalar or a 1-D array of points, got shape {zs.shape}")
        return zs.reshape(-1)

    def _result(self, z, values):
        """The whole stack for an array z; for a scalar z, its one value or EvaluationError."""
        if np.ndim(z) == 1:
            return values
        if np.isnan(values[0]).any():
            raise self._error_at(z)
        return values[0]

    def _error_at(self, z):
        return EvaluationError(self._undefined.format(z=z))


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted model and what its iterations saw; block-AAA and RKFIT return one."""

    model: Evaluator
    errors: list  # one per iteration: the greedy error (block-AAA), the refitted model's RMSE (RKFIT)
    skipped: list = field(default_factory=list)  # (iteration, point) pairs the greedy sweep could not evaluate


def frobenius_norms(R):
    """||R_i||_F of each block of an (N, m, n) stack.

    Bit for bit what np.linalg.norm(R[i], "fro") returns: that is the square
    root of re.re + im.im over the flattened block, one dot product each.
    """
    v = R.reshape(R.shape[0], 1, -1)
    re, im = v.real, v.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).reshape(-1)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian perturbation: std per real/imaginary component."""

    std: float
    seed: int = 0

    def __post_init__(self):
        if self.std < 0:
            raise ParameterError("noise standard deviation must be >= 0")


def logspace_imaginary(a, b, ell):
    """ell points i*10^t with t equally spaced in [log10(a), log10(b)].

    Requires 0 < a < b and ell >= 2.  First point is a*i, last is b*i.
    """
    if not (0 < a < b):
        raise ParameterError(f"need 0 < a < b, got a={a}, b={b}")
    if ell < 2:
        raise ParameterError(f"need at least 2 points, got ell={ell}")
    return 1j * np.logspace(np.log10(a), np.log10(b), ell)


def _check_output(shape, m, n):
    if shape != (m, n):
        raise ContractError(f"model output {shape} does not match samples {(m, n)}")


def rmse(samples, model):
    """Root mean squared Frobenius-norm error of `model` over `samples`.

    ( ell^-1 * sum_i ||F(lambda_i) - R(lambda_i)||_F^2 )^(1/2)

    An Evaluator is called once on all sample points; any other callable is
    called point by point.  The first point that cannot be evaluated raises
    the model's EvaluationError.
    """
    m, n = samples.shape
    if isinstance(model, Evaluator):
        R = np.asarray(model(samples.points), dtype=complex)
        if R.ndim == 1:  # ScalarBarycentric
            R = R.reshape(-1, 1, 1)
        _check_output(R.shape[1:], m, n)
        bad = np.flatnonzero(np.isnan(R).any(axis=(1, 2)))
        if bad.size:
            raise model._error_at(samples.points[bad[0]])
        errs = frobenius_norms(samples.values - R)
    else:
        errs = []
        for z, F in zip(samples.points, samples.values):
            R = np.atleast_2d(np.asarray(model(z), dtype=complex))
            _check_output(R.shape, m, n)
            errs.append(np.linalg.norm(F - R, "fro"))
    # squares through C pow, as np.float64 ** 2 takes them (np.square and
    # np.power round some differently), summed one by one in point order
    acc = np.cumsum(np.float_power(errs, 2))[-1]
    return float(np.sqrt(acc / samples.ell))


def add_noise(samples, spec):
    """Perturb every real and imaginary part by N(0, std^2), independently.

    Deterministic for a fixed seed (PCG64 generator); points are unchanged.
    """
    if spec.std == 0:
        return samples
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    shape = samples.values.shape
    noise = rng.normal(0.0, spec.std, shape) + 1j * rng.normal(0.0, spec.std, shape)
    return SampleSet(samples.points, samples.values + noise)
