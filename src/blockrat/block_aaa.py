"""Block-AAA: the greedy AAA loop with matrix weights (bary-B form).

Unlike the set-valued and surrogate AAA variants, the denominator here is a
matrix-valued sum, so an order-d model can carry up to d*m poles.  Block-AAA
runs the shared loop of `aaa._greedy_driver` with the bary-B weight solve and
a guard that keeps going while any sample row remains.
"""

import numpy as np

from .aaa import AaaOptions, _greedy_driver
from .barycentric import BlockBaryB, solve_weights_baryB
from .core import FitResult

__all__ = ["BlockAaaResult", "block_aaa"]

BlockAaaResult = FitResult  # an alias: block-AAA and RKFIT share one result type


def block_aaa(samples, opts=AaaOptions()):
    """Fit a BlockBaryB model by greedy support selection.

    Returns a FitResult: the model, the greedy error of each iteration, and
    the (iteration, point) pairs skipped for selection because the current
    denominator sum is numerically singular there.
    """
    m = samples.shape[0]
    return _greedy_driver(
        samples,
        opts,
        solve_weights_baryB,
        BlockBaryB,
        lambda k: np.tile(np.eye(m) / np.sqrt(k * m), (k, 1, 1)),
        lambda j: 1,
    )
