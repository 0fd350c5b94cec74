"""Rational approximation of matrix-valued functions on discrete complex sets.

Fitters: scalar/set-valued/surrogate AAA, block-AAA with matrix weights,
vector fitting, RKFIT-style pole relocation, and the (block) Loewner
framework; plus a pencil linearization for nonlinear-eigenvalue extraction
and a benchmark CLI (`blockrat-fit`).
"""

from .aaa import AaaOptions, aaa_scalar, random_directions, set_valued_aaa, surrogate_aaa
from .barycentric import (
    BlockBaryA,
    BlockBaryB,
    BlockBaryC,
    ScalarBarycentric,
    solve_weights_baryB,
    solve_weights_baryC,
)
from .block_aaa import BlockAaaResult, block_aaa
from .core import (
    ContractError,
    EvaluationError,
    FitResult,
    NoiseSpec,
    NumericalError,
    ParameterError,
    SampleSet,
    add_noise,
    logspace_imaginary,
    rmse,
)
from .linearize import Pencil, bary_poly_weights, build_pencil, nonlinear_eigs_baryC, pencil_eigs
from .loewner import LoewnerModel, loewner_block, loewner_scalar, model_poles, partition
from .rkfit import RationalBasis, RkfitOptions, RkfitResult, build_basis, relocate_poles, rkfit_fit
from .vecfit import PoleResidue, VfOptions, vf_matrix, vf_scalar

__version__ = "0.1.0"
