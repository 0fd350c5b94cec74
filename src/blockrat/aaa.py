"""The greedy AAA loop and its scalar-weight fitters: scalar, set-valued and
surrogate AAA.

Every AAA-family fitter, block-AAA included, runs `_greedy_driver`: pick the
sample point with the largest Frobenius-norm error, promote it to a support
point, and re-solve a linearized least squares problem for the barycentric
weights.  The driver owns the Loewner tensor
(F(lambda_i) - F_k)/(lambda_i - z_k) of the remaining points: each
iteration drops the picked point's row and appends the new support point's
column, so it divides O(ell*m*n) entries, not O(d*ell*m*n).  A family
supplies only its weight solve on that tensor, its barycentric form with the
order-0 fallback weights and its underdetermination guard.  Set-valued AAA
is the one scalar-weight family: scalar AAA is set-valued AAA on 1x1
samples, and surrogate AAA is scalar AAA on a^T F(z) b.
"""

from dataclasses import dataclass

import numpy as np

from .barycentric import BlockBaryA, ScalarBarycentric, _loewner_tensor
from .core import FitResult, ParameterError, SampleSet, frobenius_norms
from .kernels import trailing_right_singular_vector

__all__ = [
    "AaaOptions",
    "aaa_scalar",
    "set_valued_aaa",
    "surrogate_aaa",
    "random_directions",
]


@dataclass(frozen=True)
class AaaOptions:
    """Stopping control for the greedy AAA loop.

    tol, scaled by the largest sample norm, is compared against the greedy
    error.  max_order bounds the barycentric order (number of support points
    minus one).
    """

    tol: float = 1e-13
    max_order: int = 100

    def __post_init__(self):
        if self.max_order < 0:
            raise ParameterError("max_order must be >= 0")
        if self.tol < 0:
            raise ParameterError("tolerance must be >= 0")


def _greedy_driver(samples, opts, solve_weights, make_model, fallback_weights, rows_needed):
    """Shared AAA loop over a SampleSet; returns a FitResult.

    solve_weights(rest, nodes, node_vals, loewner) -> weights, from the
        remaining samples and their Loewner tensor
    make_model(nodes, weights, node_vals) -> evaluator of (N, m, n) stacks
    fallback_weights(k) -> weights of an order-0 model on k support points
    rows_needed(j) -> remaining points the order-j weight solve needs

    The error at a point is the Frobenius norm of its residual block.  Each
    iteration evaluates the current model once, on all remaining points.
    Points where it cannot be evaluated (NaN blocks) are skipped for
    selection in that iteration and recorded as (iteration, point) pairs.

    `loewner` is the C-contiguous (j+1, ell', m, n) `_loewner_tensor` of the
    remaining points and the support points, kept between iterations: a pick
    drops its row and appends its column, one division per (remaining point,
    entry), so the entries keep the bits of a full rebuild.  The new tensor
    is one allocation, filled by one copy of the kept rows and the column.
    """
    points, values = samples.points, samples.values
    threshold = opts.tol * frobenius_norms(values).max()

    remaining = np.ones(samples.ell, dtype=bool)
    mean = values.mean(axis=0)
    loewner = np.empty((0,) + values.shape, dtype=complex)  # rows follow `remaining`
    model = None
    sel: list[int] = []
    trace: list[float] = []
    skipped: list[tuple[int, complex]] = []

    while True:
        idx = np.flatnonzero(remaining)
        targets = values[idx]
        approx = mean if model is None else model(points[idx])
        errs = frobenius_norms(targets - approx)
        bad = np.isnan(errs)
        if bad.any():
            skipped.extend((len(sel), complex(z)) for z in points[idx[bad]])
            errs[bad] = -np.inf
        if not np.isfinite(errs).any():
            break
        t = int(np.argmax(errs))  # argmax takes the lowest index on ties
        pick = idx[t]
        trace.append(float(errs[t]))
        if model is not None and trace[-1] <= threshold:
            break
        sel.append(pick)
        remaining[pick] = False
        j = len(sel) - 1  # current order
        rem = np.flatnonzero(remaining)
        if rem.size < rows_needed(j):
            # weight LS becomes underdetermined; keep the previous model
            if model is None:
                model = make_model(points[sel], fallback_weights(len(sel)), values[sel])
            break
        rest = samples.subset(rem)
        grown = np.empty((j + 1, rem.size) + values.shape[1:], dtype=complex)
        grown[:j, :t], grown[:j, t:] = loewner[:, :t], loewner[:, t + 1:]
        grown[j] = _loewner_tensor(rest, points[[pick]], values[[pick]])[0]
        loewner = grown
        w = solve_weights(rest, points[sel], values[sel], loewner)
        model = make_model(points[sel], w, values[sel])
        if j >= opts.max_order:
            break
    return FitResult(model, trace, skipped)


def _stacked_loewner_weights(rest, nodes, node_vals, loewner):
    """Common weights: trailing right singular vector of the stacked
    entrywise Loewner matrices (one per matrix entry, over remaining points)."""
    # loewner: (j+1, ell', m, n)
    return trailing_right_singular_vector(loewner.transpose(2, 3, 1, 0).reshape(-1, nodes.size))


def aaa_scalar(points, values, opts=AaaOptions()):
    """Classic greedy AAA: set-valued AAA on 1x1 samples, as a ScalarBarycentric."""
    r = set_valued_aaa(SampleSet(points, np.ravel(values)), opts)
    return ScalarBarycentric(r.nodes, r.weights, r.values[:, 0, 0])


def set_valued_aaa(samples, opts=AaaOptions()):
    """AAA with common support points and weights for all matrix entries."""
    # the order-j weight solve needs j+1 remaining points
    return _greedy_driver(
        samples, opts, _stacked_loewner_weights, BlockBaryA, np.ones, lambda j: j + 1
    ).model


def surrogate_aaa(samples, a, b, opts=AaaOptions()):
    """AAA on the scalar surrogate a^T F(z) b, lifted back to matrix values.

    The returned BlockBaryA reuses the surrogate's support points and scalar
    weights with the full matrix samples at those points.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    m, n = samples.shape
    if a.size != m or b.size != n:
        raise ParameterError(f"direction vectors must have lengths {m} and {n}")
    if not np.any(a != 0) or not np.any(b != 0):
        raise ParameterError("direction vectors must be nonzero")
    f = np.einsum("i,kij,j->k", a, samples.values, b)
    scalar = set_valued_aaa(SampleSet(samples.points, f), opts)
    lookup = {complex(z): i for i, z in enumerate(samples.points)}
    idx = [lookup[complex(z)] for z in scalar.nodes]
    return BlockBaryA(scalar.nodes, scalar.weights, samples.values[idx])


def random_directions(m, n, seed=0):
    """Seeded unit-norm surrogate direction vectors (a, b)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=m) + 1j * rng.normal(size=m)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a / np.linalg.norm(a), b / np.linalg.norm(b)
