"""scipy loads only at the first generalized eigenproblem.

Importing blockrat, sampling the built-in problems and fitting with the AAA
family, vector fitting and the Loewner framework run on numpy alone; scipy
is imported by `kernels.gen_eig`, the QZ step.  A fresh interpreter is
needed to see this, since the test session itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import blockrat

SRC = Path(blockrat.__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

import numpy as np

from blockrat import RkfitOptions, rkfit_fit
from blockrat.cli import PROBLEMS, run_sweep
from blockrat.kernels import gen_eig

MATRIX_METHODS = ["set-valued-aaa", "surrogate-aaa", "block-aaa", "vf", "loewner"]

problems = {name: make() for name, make in PROBLEMS.items()}
statuses = {}
for name, problem in problems.items():
    methods = MATRIX_METHODS + (["aaa-scalar"] if problem.samples.shape == (1, 1) else [])
    for r in run_sweep(problem, methods, [3], repeats=1):
        statuses[f"{name}/{r.method}"] = r.status
numpy_only = sorted(m for m in sys.modules if m.startswith("scipy"))

rkfit_fit(problems["toy1"].samples, RkfitOptions(degree=3, iterations=1))
linalg_loaded = "scipy.linalg" in sys.modules

import scipy.linalg

rng = np.random.default_rng(0)
A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
same_pairs = np.array(gen_eig(A, B)).tobytes() == np.column_stack([alpha, beta]).tobytes()

print(json.dumps({"statuses": statuses, "scipy_modules": numpy_only,
                  "linalg_loaded": linalg_loaded, "same_pairs": same_pairs}))
"""


def test_scipy_loads_only_at_the_first_generalized_eigenproblem():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    # the six numpy-only families, on every problem they accept
    assert len(out["statuses"]) == 4 * 5 + 1
    assert set(out["statuses"].values()) == {"ok"}, out["statuses"]
    assert out["scipy_modules"] == []
    assert out["linalg_loaded"]
    assert out["same_pairs"]
