"""The peak memory of the pole-residue fitters on `buckling` at degree 15.

tracemalloc traces numpy's array allocations, not the buffers numpy.linalg
allocates inside its gufuncs.  Each fitter holds its large arrays once:
`vf_matrix` its 2000 x 79 system, which zgelsd factors in place;
`rkfit_fit` one row slab of the 500 x 500 projector I - V V* at a time;
`loewner_block` L, which zgesdd destroys, with U, V* and zgesdd's real
workspace; and the model's evaluation its (500, 15, 15) resolvent stack,
screened in chunks.
"""

import numpy as np
import pytest

from blockrat import RkfitOptions, kernels, loewner_block, rkfit_fit, vf_matrix
from blockrat.cli import problem_buckling
from tests.conftest import peak_bytes

MiB = 2**20
D = 15


@pytest.fixture(scope="module")
def buckling():
    return problem_buckling().samples


class TestPeakMemory:
    """Peaks before this layout: Loewner fit 7.51 MiB, its evaluation 4.0 stacks,
    RKFIT 5.55 MiB; VF's copy of its system inside `np.linalg.lstsq` was not traced."""

    def test_loewner_fit(self, buckling):
        if kernels._zgesdd() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgesdd")
        assert peak_bytes(lambda: loewner_block(buckling, D)) <= 6.0 * MiB

    def test_loewner_evaluation(self, buckling):
        model = loewner_block(buckling, D)
        stack = 16 * buckling.ell * D * D
        assert peak_bytes(lambda: model(buckling.points)) <= 2.1 * stack

    def test_rkfit(self, buckling):
        assert peak_bytes(lambda: rkfit_fit(buckling, RkfitOptions(degree=D))) <= 2.5 * MiB

    def test_vf_holds_its_system_once(self, buckling, monkeypatch):
        if kernels._zgelsd() is None:
            pytest.skip("numpy's linalg has no bundled OpenBLAS with zgelsd")

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq reached")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        m, n = buckling.shape
        system = 16 * (m * n * buckling.ell) * (m * n * (D + 1) + D)
        assert peak_bytes(lambda: vf_matrix(buckling, D)) <= 1.25 * system
