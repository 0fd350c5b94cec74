"""The input rules every fitter and model shares, at each site that applies them."""

import numpy as np
import pytest

from blockrat import (
    BlockBaryA,
    BlockBaryB,
    BlockBaryC,
    ContractError,
    ParameterError,
    ScalarBarycentric,
    aaa_scalar,
    build_basis,
    build_pencil,
    logspace_imaginary,
    loewner_scalar,
    solve_weights_baryB,
    solve_weights_baryC,
    vf_scalar,
)
from tests.conftest import constant_samples

DUP = np.array([1j, 2j, 1j])
ONES = np.ones((3, 1, 1))


def test_contract_error_is_a_parameter_error():
    assert issubclass(ContractError, ParameterError)


@pytest.mark.parametrize("fit", [
    lambda pts, vals: aaa_scalar(pts, vals),
    lambda pts, vals: vf_scalar(pts, vals, 1),
    lambda pts, vals: loewner_scalar(pts, vals, 1),
], ids=["aaa_scalar", "vf_scalar", "loewner_scalar"])
def test_scalar_length_mismatch_is_a_parameter_error(fit):
    pts = logspace_imaginary(1, 10, 6)
    with pytest.raises(ParameterError, match="^6 points but 5 sample matrices$"):
        fit(pts, 1.0 / (pts[:5] + 1))


@pytest.mark.parametrize("fit", [
    lambda pts, vals: aaa_scalar(pts, vals),
    lambda pts, vals: vf_scalar(pts, vals, 2),
    lambda pts, vals: loewner_scalar(pts, vals, 2),
], ids=["aaa_scalar", "vf_scalar", "loewner_scalar"])
def test_scalar_values_as_a_column_fit_as_the_flat_vector(fit):
    pts = logspace_imaginary(1, 10, 12)
    f = 1.0 / (pts + 1) + 1.0 / (pts + 3)
    flat, column = fit(pts, f), fit(pts, f[:, None])
    assert type(column) is type(flat)
    assert {k: np.asarray(v).tobytes() for k, v in vars(column).items()} == \
        {k: np.asarray(v).tobytes() for k, v in vars(flat).items()}


@pytest.mark.parametrize("call, what", [
    (lambda: ScalarBarycentric(DUP, np.ones(3), np.ones(3)), "support points"),
    (lambda: BlockBaryA(DUP, np.ones(3), ONES), "support points"),
    (lambda: BlockBaryB(DUP, ONES, ONES), "support points"),
    (lambda: BlockBaryC(DUP, ONES, ONES), "support points"),
    (lambda: solve_weights_baryB(constant_samples(np.eye(1)), DUP, ONES), "support points"),
    (lambda: solve_weights_baryC(constant_samples(np.eye(1)), DUP), "support points"),
    (lambda: build_pencil(ONES, DUP), "nodes"),
    (lambda: build_basis(DUP, []), "sample points"),
], ids=["ScalarBarycentric", "BlockBaryA", "BlockBaryB", "BlockBaryC",
        "solve_weights_baryB", "solve_weights_baryC", "build_pencil", "build_basis"])
def test_duplicate_points_message(call, what):
    with pytest.raises(ParameterError, match=f"^{what} must be pairwise distinct$"):
        call()


PTS = np.array([1j, 2j, 3j])


@pytest.mark.parametrize("call, message", [
    (lambda: ScalarBarycentric(PTS, np.ones(2), np.ones(3)), "^need one weight per node$"),
    (lambda: BlockBaryA(PTS, np.ones(2), ONES), "^need one weight per node$"),
    (lambda: ScalarBarycentric(PTS, np.zeros(3), np.ones(3)), "^at least one barycentric weight must be nonzero$"),
    (lambda: BlockBaryA(PTS, np.zeros(3), ONES), "^at least one barycentric weight must be nonzero$"),
    (lambda: ScalarBarycentric(PTS, np.ones(3), np.ones(2)), "^need one value per node$"),
    (lambda: BlockBaryA(PTS, np.ones(3), ONES[:2]), "^need one m-by-n value per node$"),
], ids=["ScalarBarycentric-weights", "BlockBaryA-weights", "ScalarBarycentric-zero", "BlockBaryA-zero",
        "ScalarBarycentric-values", "BlockBaryA-values"])
def test_scalar_weight_forms_check_weights_and_values(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
