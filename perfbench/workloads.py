"""Workloads of the blockrat benchmark: their cells, their inputs and one cell's run.

A cell is one (problem, method, order) fit with the arguments that
`blockrat-fit` passes (tol 1e-13, iters 5), followed by an `rmse` score
against the problem samples.  On `buckling`, a `block-eigs` cell also refits
in bary-C form on block-AAA's support nodes and extracts the nonlinear
eigenvalues of the refit, which is the paper's end use.

Every fitter and model is reached through its defining module at call time,
so a traced pass sees the span wrappers of `tracing.py`; an untraced pass
runs the modules as they are.
"""

import importlib
import time
import warnings
from dataclasses import dataclass

import numpy as np

# by module name: `blockrat.block_aaa` as a package attribute is the function
MODULES = {
    name: importlib.import_module(f"blockrat.{name}")
    for name in ("aaa", "barycentric", "block_aaa", "cli", "core", "kernels",
                 "linearize", "loewner", "rkfit", "vecfit")
}
_aaa, _bary, _block, _cli, _core = (MODULES[n] for n in ("aaa", "barycentric", "block_aaa", "cli", "core"))
_linearize, _loewner, _rkfit, _vecfit = (MODULES[n] for n in ("linearize", "loewner", "rkfit", "vecfit"))

# the arguments `blockrat-fit` passes by default
TOL = 1e-13
ITERS = 5
ORDERS = (5, 10, 15)
CLI_NOISE_SEED = 2023  # `scalar-noise` noise seed of the CLI; workload seed 0 maps to it
EIG_RADIUS = 5.0  # eigenvalues of the bary-C refit compared against the reference

ALL_PROBLEMS = ("toy1", "toy2", "buckling", "scalar-noise")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "block-eigs": [("block-aaa", ("buckling", "toy1", "toy2"))],
    "scalar-weights": [
        ("aaa-scalar", ("scalar-noise",)),
        ("set-valued-aaa", ALL_PROBLEMS),
        ("surrogate-aaa", ALL_PROBLEMS),
    ],
    "pole-residue": [
        ("vf", ALL_PROBLEMS),
        ("rkfit", ALL_PROBLEMS),
        ("loewner", ALL_PROBLEMS),
    ],
}


@dataclass(frozen=True)
class Cell:
    problem: str
    method: str
    order: int

    @property
    def key(self):
        return f"{self.problem}/{self.method}/{self.order}"

    def seed_dependent(self):
        """True when the workload seed changes this cell's inputs."""
        return self.problem == "scalar-noise" or self.method == "surrogate-aaa"


@dataclass
class Outcome:
    """What one cell produced, and how long it took."""

    status: str  # "ok", or the name of the exception the cell raised
    detail: str = ""
    order: int | None = None  # achieved order of the fitted model
    rmse: float | None = None
    eigs: np.ndarray | None = None  # finite eigenvalues of the bary-C refit
    iterations: int = 0  # greedy iterations (block-AAA)
    skipped: int = 0  # points skipped for a singular denominator (block-AAA)
    fit_s: float = 0.0
    cell_s: float = 0.0


@dataclass
class Inputs:
    problems: dict  # problem name -> blockrat.cli.Problem
    direction_seed: int
    scale: dict  # problem name -> largest sample norm


def cells(workload):
    return [Cell(p, method, order)
            for method, problems in WORKLOADS[workload]
            for p in problems
            for order in ORDERS]


def make_inputs(workload, seed):
    """Sample the problems a workload uses; `seed` 0 reproduces the CLI defaults."""
    names = {c.problem for c in cells(workload)}
    samplers = {
        "toy1": _cli.problem_toy1,
        "toy2": _cli.problem_toy2,
        "buckling": _cli.problem_buckling,
        "scalar-noise": lambda: _cli.problem_scalar_noise(seed=CLI_NOISE_SEED + seed),
    }
    problems = {name: samplers[name]() for name in sorted(names)}
    scale = {name: float(np.max(np.linalg.norm(p.samples.values, axis=(1, 2))))
             for name, p in problems.items()}
    return Inputs(problems, seed, scale)


def _fit(method, samples, order, direction_seed):
    """One fitter call as `blockrat-fit` makes it; returns (model, block-AAA result or None)."""
    opts = _aaa.AaaOptions(tol=TOL, max_order=order)
    if method == "aaa-scalar":
        m, n = samples.shape
        if (m, n) != (1, 1):
            raise _core.ParameterError("aaa-scalar requires 1x1 samples")
        return _aaa.aaa_scalar(samples.points, samples.values[:, 0, 0], opts), None
    if method == "set-valued-aaa":
        return _aaa.set_valued_aaa(samples, opts), None
    if method == "surrogate-aaa":
        a, b = _aaa.random_directions(*samples.shape, direction_seed)
        return _aaa.surrogate_aaa(samples, a, b, opts), None
    if method == "block-aaa":
        result = _block.block_aaa(samples, opts)
        return result.model, result
    if method == "vf":
        return _vecfit.vf_matrix(samples, order, _vecfit.VfOptions(iterations=ITERS)), None
    if method == "rkfit":
        result = _rkfit.rkfit_fit(samples, _rkfit.RkfitOptions(degree=order, iterations=ITERS))
        return result.model, None
    if method == "loewner":
        return _loewner.loewner_block(samples, order), None
    raise ValueError(f"unknown method {method!r}")


def _model_order(model):
    if isinstance(model, _vecfit.PoleResidue):
        return int(model.poles.size)
    return int(model.order)


def _baryC_eigs(samples, nodes):
    """Refit in bary-C form on `nodes` and return its nonlinear eigenvalues."""
    rest = np.flatnonzero(~np.isin(samples.points, nodes))
    model = _bary.solve_weights_baryC(samples.subset(rest), nodes)
    return np.asarray(_linearize.nonlinear_eigs_baryC(model), dtype=complex)


def run_cell(cell, inputs):
    """Fit, score and (on `block-eigs` buckling cells) extract eigenvalues.

    Any exception ends the cell and is recorded by type, as `blockrat-fit`
    records it in its status column.
    """
    samples = inputs.problems[cell.problem].samples
    out = Outcome("ok")
    t0 = time.perf_counter()
    t_fit = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, block = _fit(cell.method, samples, cell.order, inputs.direction_seed)
            t_fit = time.perf_counter()
            out.order = _model_order(model)
            if block is not None:
                out.iterations, out.skipped = len(block.errors), len(block.skipped)
            out.rmse = _core.rmse(samples, model)
            if block is not None and cell.problem == "buckling":
                out.eigs = _baryC_eigs(samples, model.nodes)
    except Exception as e:  # a failing cell is counted and the pass goes on
        out.status, out.detail = type(e).__name__, str(e)
    t1 = time.perf_counter()
    out.fit_s = (t_fit if t_fit is not None else t1) - t0
    out.cell_s = t1 - t0
    return out
