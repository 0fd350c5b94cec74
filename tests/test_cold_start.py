"""scipy loads only at the first generalized eigenproblem, and then only its LAPACK wrapper.

Importing blockrat, sampling the built-in problems and fitting with the AAA
family, vector fitting and the Loewner framework run on numpy alone.  The
first generalized eigenproblem (`kernels.gen_eig`, the QZ step) imports the
top-level `scipy` and loads the extension module `scipy.linalg._flapack`,
but not the `scipy.linalg` package, which would import numpy.ma and some
330 other modules.  A later `import scipy.linalg` still sets its `_flapack`
attribute and gives the same pairs as `gen_eig`.  numpy.ma is not loaded
either (np.unique would), and importing `blockrat.cli` does not load
argparse or csv, which only its `main` and CSV writers use.  A fresh
interpreter is needed to see this, since the test session itself has all of
these loaded.
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

cli_loaded = sorted(m for m in ("argparse", "csv") if m in sys.modules)

MATRIX_METHODS = ["set-valued-aaa", "surrogate-aaa", "block-aaa", "vf", "loewner"]

problems = {name: make() for name, make in PROBLEMS.items()}
statuses = {}
for name, problem in problems.items():
    methods = MATRIX_METHODS + (["aaa-scalar"] if problem.samples.shape == (1, 1) else [])
    for r in run_sweep(problem, methods, [3], repeats=1):
        statuses[f"{name}/{r.method}"] = r.status
numpy_only = sorted(m for m in sys.modules if m.startswith("scipy"))
ma_loaded = "numpy.ma" in sys.modules

rkfit_fit(problems["toy1"].samples, RkfitOptions(degree=3, iterations=1))
linalg_loaded = "scipy.linalg" in sys.modules
ma_after_eig = "numpy.ma" in sys.modules

import scipy.linalg

rng = np.random.default_rng(0)
A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
same_pairs = np.array(gen_eig(A, B)).tobytes() == np.column_stack([alpha, beta]).tobytes()
flapack_attr = hasattr(scipy.linalg, "_flapack")

print(json.dumps({"statuses": statuses, "scipy_modules": numpy_only, "cli_loaded": cli_loaded, "ma_loaded": ma_loaded,
                  "linalg_loaded": linalg_loaded, "ma_after_eig": ma_after_eig, "flapack_attr": flapack_attr,
                  "same_pairs": same_pairs}))
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
    assert not out["ma_loaded"]
    assert out["cli_loaded"] == []
    # after the first generalized eigenproblem: neither the scipy.linalg
    # package nor numpy.ma is loaded, and a later `import scipy.linalg` is as
    # it would be without blockrat
    assert not out["linalg_loaded"]
    assert not out["ma_after_eig"]
    assert out["flapack_attr"]
    assert out["same_pairs"]
