"""The greedy loop's Loewner tensor: grown by one column per iteration, with
the bits of a full rebuild.

`aaa._greedy_driver` keeps the (j+1, ell', m, n) tensor of the remaining
points between iterations and hands it to the family's weight solve.  These
tests rebuild it from scratch at every iteration and compare bytes.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockrat import AaaOptions, SampleSet, block_aaa, logspace_imaginary, set_valued_aaa
from blockrat import aaa
from blockrat.barycentric import _loewner_tensor, solve_weights_baryB

# the package exports the function block_aaa under its module's name
block_module = importlib.import_module("blockrat.block_aaa")

SHAPES = st.sampled_from([(1, 1), (1, 2), (2, 2), (3, 2)])
FAMILIES = {
    # family -> (module, name of its weight solve there, fitter)
    "set-valued": (aaa, "_stacked_loewner_weights", set_valued_aaa),
    "block": (block_module, "solve_weights_baryB", lambda s, o: block_aaa(s, o).model),
}


def _samples(seed, ell, shape):
    rng = np.random.default_rng(seed)
    pts = logspace_imaginary(1, 10, ell)
    vals = rng.normal(size=(ell,) + shape) + 1j * rng.normal(size=(ell,) + shape)
    return SampleSet(pts, vals)


def _fit_recording(family, samples, opts, check):
    """Fit with the family's weight solve wrapped so that `check` sees each call."""
    module, name, fit = FAMILIES[family]
    solve = getattr(module, name)

    def recording(*args):
        check(*args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, recording)
        return fit(samples, opts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SHAPES, st.integers(3, 40), st.sampled_from([0.0, 1e-13]),
       st.integers(0, 40), st.sampled_from(sorted(FAMILIES)))
def test_kept_tensor_is_the_full_rebuild(seed, shape, ell, tol, max_order, family):
    s = _samples(seed, ell, shape)
    calls = []

    def check(rest, nodes, node_vals, loewner):
        full = _loewner_tensor(rest, nodes, node_vals)
        # the remaining points, in sample order, are the tensor's rows
        assert np.array_equal(rest.points, s.points[~np.isin(s.points, nodes)])
        assert loewner.shape == full.shape == (nodes.size, rest.ell) + shape
        assert loewner.flags.c_contiguous
        assert loewner.tobytes() == full.tobytes()
        calls.append(nodes.size)

    model = _fit_recording(family, s, AaaOptions(tol=tol, max_order=max_order), check)
    # one solve per support point the final model carries, unless it is an
    # order-0 fallback that no solve produced
    assert calls == list(range(1, len(calls) + 1))
    assert model.nodes.size in (len(calls), len(calls) + 1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_iteration_divides_one_support_column(family, toy1, monkeypatch):
    sizes, solves = [], []
    build = aaa._loewner_tensor
    monkeypatch.setattr(aaa, "_loewner_tensor", lambda rest, nodes, vals: sizes.append(nodes.size) or build(rest, nodes, vals))
    _fit_recording(family, toy1.samples, AaaOptions(max_order=6), lambda *args: solves.append(1))
    assert len(solves) >= 3
    assert sizes == [1] * len(solves)


@pytest.mark.parametrize("problem, shape, max_order", [
    ("toy1", None, 15), ("toy2", None, 15), ("random", (3, 2), 20), ("random", (1, 1), 10),
])
def test_baryB_stack_matches_the_public_solve(problem, shape, max_order, request):
    s = _samples(7, 30, shape) if problem == "random" else request.getfixturevalue(problem).samples
    calls = []

    def check(rest, nodes, node_vals, loewner):
        driven = solve_weights_baryB(rest, nodes, node_vals, loewner)
        public = solve_weights_baryB(rest, nodes, node_vals)
        # BlockBaryB's bits depend on the stack's layout as well as its values
        assert driven.strides == public.strides
        assert driven.tobytes() == public.tobytes()
        calls.append(nodes.size)

    _fit_recording("block", s, AaaOptions(max_order=max_order), check)
    assert calls
