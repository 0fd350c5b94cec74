"""Block-AAA: the greedy AAA loop with matrix weights (bary-B form).

Unlike the set-valued and surrogate AAA variants, the denominator here is a
matrix-valued sum, so an order-d model can carry up to d*m poles.  Block-AAA
runs the shared loop of `aaa._greedy_driver` with the bary-B weight solve and
a guard that keeps going while any sample row remains.
"""

from dataclasses import dataclass, field

import numpy as np

from .aaa import AaaOptions, _greedy_driver
from .barycentric import BlockBaryB, solve_weights_baryB

__all__ = ["BlockAaaResult", "block_aaa"]


@dataclass(frozen=True)
class BlockAaaResult:
    model: BlockBaryB
    errors: list  # greedy max-norm error per iteration
    skipped: list = field(default_factory=list)  # (iteration, point) pairs with singular denominators


def _block_weights(rest, nodes, node_vals):
    return np.stack(solve_weights_baryB(rest, list(zip(nodes, node_vals))))


def block_aaa(samples, opts=AaaOptions()):
    """Fit a BlockBaryB model by greedy support selection.

    Returns the model together with the per-iteration greedy error trace.
    Points where the current denominator sum is numerically singular are
    skipped for selection in that iteration and recorded as diagnostics.
    """
    m = samples.shape[0]
    return BlockAaaResult(*_greedy_driver(
        samples,
        opts,
        _block_weights,
        BlockBaryB,
        lambda k: np.tile(np.eye(m) / np.sqrt(k * m), (k, 1, 1)),
        lambda j: 1,
    ))
