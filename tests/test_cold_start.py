"""Every fit and every generalized eigenproblem runs on numpy alone.

Importing blockrat, sampling the built-in problems and fitting with all
seven methods load no scipy module.  Neither do the generalized
eigenproblems (`kernels.gen_eig`, the QZ step) of RKFIT's pole relocation,
the bary-C nonlinear eigenvalues and the Loewner poles: they call `zggev` in
the OpenBLAS that numpy's wheel bundles, so the process maps that one
OpenBLAS library and no second one (scipy's wheel ships its own).  A later
`import scipy.linalg` gives the same pairs as `gen_eig`.  numpy.ma is not
loaded either (np.unique would), and importing `blockrat.cli` does not load
argparse or csv, which only its `main` and CSV writers use.  A fresh
interpreter is needed to see this, since the test session itself has all of
these loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockrat
from blockrat import kernels

SRC = Path(blockrat.__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

import numpy as np

from blockrat import (AaaOptions, block_aaa, kernels, loewner_block, model_poles, nonlinear_eigs_baryC,
                      solve_weights_baryC)
from blockrat.cli import METHODS, PROBLEMS, run_sweep

cli_loaded = sorted(m for m in ("argparse", "csv") if m in sys.modules)

eigenproblems = []
gen_eig = kernels.gen_eig
kernels.gen_eig = lambda A, B: eigenproblems.append(len(A)) or gen_eig(A, B)

problems = {name: make() for name, make in PROBLEMS.items()}
statuses = {}
for name, problem in problems.items():
    methods = [m for m in METHODS if m != "aaa-scalar" or problem.samples.shape == (1, 1)]
    for r in run_sweep(problem, methods, [3], repeats=1):
        statuses[f"{name}/{r.method}"] = r.status
rkfit_eigenproblems = len(eigenproblems)

samples = problems["buckling"].samples
nodes = block_aaa(samples, AaaOptions(max_order=5)).model.nodes
rest = np.flatnonzero(~np.isin(samples.points, nodes))
baryC_eigs = nonlinear_eigs_baryC(solve_weights_baryC(samples.subset(rest), nodes))
poles = model_poles(loewner_block(samples, 3))

scipy_modules = sorted(m for m in sys.modules if m.startswith("scipy"))
ma_loaded = "numpy.ma" in sys.modules
with open("/proc/self/maps", encoding="utf-8") as maps:
    openblas = sorted({line.split()[-1] for line in maps if "openblas" in line})

import scipy.linalg

rng = np.random.default_rng(0)
A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
same_pairs = np.array(gen_eig(A, B)).tobytes() == np.column_stack([alpha, beta]).tobytes()

print(json.dumps({"statuses": statuses, "cli_loaded": cli_loaded, "rkfit_eigenproblems": rkfit_eigenproblems,
                  "eigenproblems": len(eigenproblems), "eigenvalues": [len(baryC_eigs), len(poles)],
                  "scipy_modules": scipy_modules, "ma_loaded": ma_loaded, "openblas": openblas,
                  "same_pairs": same_pairs}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs Linux's /proc/self/maps")
@pytest.mark.skipif(kernels._zggev() is None, reason="numpy's linalg has no bundled OpenBLAS with zggev")
def test_scipy_loads_only_at_the_first_generalized_eigenproblem():
    # where numpy's OpenBLAS has zggev, that is never: scipy is only imported
    # at the end of SCRIPT, for the byte comparison
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    # all seven methods, on every problem they accept
    assert len(out["statuses"]) == 4 * 6 + 1
    assert set(out["statuses"].values()) == {"ok"}, out["statuses"]
    assert out["cli_loaded"] == []
    # RKFIT's relocation, the bary-C refit and the Loewner poles each solved one
    assert out["rkfit_eigenproblems"] > 0
    assert out["eigenproblems"] == out["rkfit_eigenproblems"] + 2
    assert min(out["eigenvalues"]) > 0
    assert out["scipy_modules"] == []
    assert not out["ma_loaded"]
    assert len(out["openblas"]) == 1, out["openblas"]
    assert out["same_pairs"]
