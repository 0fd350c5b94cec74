"""Sample sets, sampling grids, noise injection, and the RMSE metric.

All fitters in this package consume a :class:`SampleSet`: a list of pairwise
distinct complex points together with one m-by-n complex matrix sample per
point.  Fitted models are "evaluators": callables mapping a complex scalar z
to an m-by-n complex matrix (1x1 for scalar data).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "ContractError",
    "EvaluationError",
    "NumericalError",
    "SampleSet",
    "NoiseSpec",
    "logspace_imaginary",
    "rmse",
    "add_noise",
]


class ParameterError(ValueError):
    """Invalid argument to an operation (bad sizes, duplicates, bad ranges)."""


class ContractError(ValueError):
    """Inconsistent objects passed together (e.g. dimension mismatch)."""


class EvaluationError(ArithmeticError):
    """A model could not be evaluated at the requested point."""


class NumericalError(RuntimeError):
    """A dense linear-algebra routine failed to converge."""


def _freeze(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
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
        if len(np.unique(pts)) != pts.size:
            raise ParameterError("sample points must be pairwise distinct")
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
        """New SampleSet restricted to the given point indices."""
        idx = np.asarray(indices)
        return SampleSet(self.points[idx], self.values[idx])


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


def rmse(samples, model):
    """Root mean squared Frobenius-norm error of `model` over `samples`.

    ( ell^-1 * sum_i ||F(lambda_i) - R(lambda_i)||_F^2 )^(1/2)
    """
    m, n = samples.shape
    acc = 0.0
    for z, F in zip(samples.points, samples.values):
        R = np.atleast_2d(np.asarray(model(z), dtype=complex))
        if R.shape != (m, n):
            raise ContractError(
                f"model output {R.shape} does not match samples {(m, n)}"
            )
        acc += np.linalg.norm(F - R, "fro") ** 2
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
