"""Benchmark harness: built-in problems, sample-file ingestion, method sweeps,
and CSV reporting of RMSE and wall time.

Built-in problems are the desk-scale experiments: two 2x2 rational toy
functions, the 2x2 buckling-plate function, and a noisy scalar rational
function.  Externally sampled data (e.g. SLICOT transfer functions) can be
ingested through the documented text format; those RMSE/timing tables are
not reproducible without the data files.
"""

import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .aaa import AaaOptions, aaa_scalar, random_directions, set_valued_aaa, surrogate_aaa
from .block_aaa import block_aaa
from .core import FitResult, NoiseSpec, ParameterError, SampleSet, add_noise, logspace_imaginary, rmse
from .loewner import loewner_block
from .rkfit import RkfitOptions, rkfit_fit
from .vecfit import VfOptions, vf_matrix

__all__ = [
    "Problem",
    "RunRecord",
    "problem_toy1",
    "problem_toy2",
    "problem_buckling",
    "problem_scalar_noise",
    "save_samples",
    "load_samples",
    "run_sweep",
    "write_csv",
    "main",
    "METHODS",
]


@dataclass(frozen=True, eq=False)
class Problem:
    """A named sample set, with the clean function behind it when that is analytic.

    `truth`, when given, maps a point to its (m, n) value and a 1-D array of
    N points to the (N, m, n) stack of values, as every built-in problem
    function does; `run_sweep(..., against_truth=True)` calls it once on all
    the sample points.
    """

    name: str
    samples: SampleSet
    truth: object = None


@dataclass
class RunRecord:
    method: str
    order: int
    rmse: float
    time_ms: float
    status: str = "ok"
    trace: list = field(default_factory=list)


def _block2(a, b, c, d):
    """[[a, b], [c, d]] as a complex 2x2 matrix, or an (N, 2, 2) stack for entries of N values each."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2, dtype=complex)


def _toy1_value(z):
    off = (3 - z) / (z**2 + z - 5)
    return _block2(2 / (z + 1), off, off, (2 + z**2) / (z**3 + 3 * z**2 - 1))


def _toy2_value(z):
    F = _toy1_value(z)
    F[..., 0, 1] = (3 - z) / (z**2 + z + 5)
    return F


def _buckling_value(z):
    # the off-diagonal numerator reads 2z (the symbol printed there is unbound)
    diag = z * (1 - 2 * z / np.tan(2 * z)) / (np.tan(z) - z)
    off = z * (2 * z - np.sin(2 * z)) / (np.sin(2 * z) * (np.tan(z) - z))
    return _block2(diag + 10, off, off, diag + 4)


def _sample(fn, points):
    """A problem function maps a point to its value and a 1-D array of points to the stack of values."""
    return SampleSet(points, fn(points))


def problem_toy1(ell=100):
    """Symmetric 2x2 rational toy function on [1, 100]i."""
    pts = logspace_imaginary(1, 100, ell)
    return Problem("toy1", _sample(_toy1_value, pts), _toy1_value)


def problem_toy2(ell=100):
    """Nonsymmetric variant of toy1: the (1,2) denominator becomes z^2+z+5."""
    pts = logspace_imaginary(1, 100, ell)
    return Problem("toy2", _sample(_toy2_value, pts), _toy2_value)


def problem_buckling(ell=500):
    """2x2 buckling-plate function on [1e-2, 10]i."""
    pts = logspace_imaginary(1e-2, 10, ell)
    return Problem("buckling", _sample(_buckling_value, pts), _buckling_value)


def _scalar_noise_value(z):
    return np.asarray((z - 1) / (z**2 + z + 2), dtype=complex)[..., None, None]


def problem_scalar_noise(ell=500, tau=1e-2, seed=2023):
    """Noisy scalar rational samples on [1e-1, 10]i; truth stays clean."""
    pts = logspace_imaginary(1e-1, 10, ell)
    clean = _sample(_scalar_noise_value, pts)
    noisy = add_noise(clean, NoiseSpec(tau, seed))
    return Problem("scalar-noise", noisy, _scalar_noise_value)


PROBLEMS = {
    "toy1": problem_toy1,
    "toy2": problem_toy2,
    "buckling": problem_buckling,
    "scalar-noise": problem_scalar_noise,
}


def save_samples(samples, path):
    """Write the documented text format: header `m n ell`, then per point one
    `re im` line for the point followed by m rows of n `re im` entry pairs."""
    m, n = samples.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n} {samples.ell}\n")
        for z, F in zip(samples.points, samples.values):
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")
            for row in F:
                fh.write(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row) + "\n")


def load_samples(path):
    """Parse and validate the text format written by `save_samples`; errors name the file line."""
    with open(path, encoding="utf-8") as fh:
        rows = [(no, ln.split()) for no, ln in enumerate(fh, 1) if ln.strip()]
    head_no, head = rows[0] if rows else (1, [])
    try:
        m, n, ell = (int(t) for t in head)
        if min(m, n, ell) < 1:
            raise ValueError(f"sizes must be positive, got {m} {n} {ell}")
    except ValueError as e:
        raise ParameterError(f"{path}:{head_no}: bad header (want 'm n ell'): {e}") from e
    expect = 1 + ell * (1 + m)  # checked before the width table, whose size the header alone sets
    if len(rows) != expect:
        raise ParameterError(f"{path}: expected {expect} lines, found {len(rows)}")
    # floats per line after the header: per point, `re im` then m rows of n pairs
    widths = ([2] + [2 * n] * m) * ell
    floats = []
    for (no, toks), width in zip(rows[1:], widths):
        try:
            if len(toks) != width:
                raise ValueError(f"want {width} floats, found {len(toks)}")
            floats.extend(float(t) for t in toks)
        except ValueError as e:
            raise ParameterError(f"{path}:{no}: {e}") from e
    # each (re, im) pair read as one complex128, sign of zero kept
    entries = np.array(floats, dtype=float).view(complex).reshape(ell, 1 + m * n)
    points, values = entries[:, 0].copy(), entries[:, 1:].copy().reshape(ell, m, n)
    seen = {}
    for i, z in enumerate(points):
        if complex(z) in seen:
            raise ParameterError(f"{path}: duplicate point at block {i} (first at block {seen[complex(z)]})")
        seen[complex(z)] = i
    return SampleSet(points, values)


def _aaa_scalar(samples, order, tol, **_):
    if samples.shape != (1, 1):
        raise ParameterError("aaa-scalar requires 1x1 samples")
    return aaa_scalar(samples.points, samples.values[:, 0, 0], AaaOptions(tol=tol, max_order=order))


# method name -> fit(samples, order, tol=, iters=, seed=) -> evaluator or FitResult;
# each method builds the options it reads, so a bad --tol or --iters fails only its cells
_FITTERS = {
    "aaa-scalar": _aaa_scalar,
    "set-valued-aaa": lambda s, order, tol, **_: set_valued_aaa(s, AaaOptions(tol=tol, max_order=order)),
    "surrogate-aaa": lambda s, order, tol, seed, **_: surrogate_aaa(
        s, *random_directions(*s.shape, seed), AaaOptions(tol=tol, max_order=order)),
    "block-aaa": lambda s, order, tol, **_: block_aaa(s, AaaOptions(tol=tol, max_order=order)),
    "vf": lambda s, order, iters, **_: vf_matrix(s, order, VfOptions(iterations=iters)),
    "rkfit": lambda s, order, iters, **_: rkfit_fit(s, RkfitOptions(degree=order, iterations=iters)),
    "loewner": lambda s, order, **_: loewner_block(s, order),
}
METHODS = tuple(_FITTERS)


def run_sweep(problem, methods, orders, tol=1e-13, iters=5, seed=0, repeats=20,
              against_truth=False):
    """Fit every (method, order) cell; errors in a cell are recorded, not raised.

    Timing is the wall-clock average over `repeats` runs of the fit alone.
    RMSE is measured against the problem samples, or against fresh samples of
    the clean truth when `against_truth` is set and a truth function exists.
    Raises ParameterError, before any fit, on an unknown method or repeats < 1.
    """
    methods, orders = list(methods), list(orders)  # each is read more than once
    for method in methods:
        if method not in _FITTERS:
            raise ParameterError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats}")
    target = problem.samples
    if against_truth and problem.truth is not None:
        target = _sample(problem.truth, problem.samples.points)
    records = []
    for method in methods:
        for order in orders:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    t0 = time.perf_counter()
                    for _ in range(repeats):
                        fit = _FITTERS[method](problem.samples, order, tol=tol, iters=iters, seed=seed)
                    elapsed = (time.perf_counter() - t0) / repeats
                    if not isinstance(fit, FitResult):
                        fit = FitResult(fit, [])
                    err = rmse(target, fit.model)
                records.append(RunRecord(method, order, err, 1e3 * elapsed, "ok", fit.errors))
            except Exception as e:  # per-cell failure keeps the sweep going
                records.append(RunRecord(method, order, float("nan"), 0.0, f"error: {e}"))
    return records


def _write_table(path, header, rows):
    """Write one CSV table, with LF line ends, to the file `path` or else to stdout."""
    import csv  # imported here, like argparse in `main`: importing blockrat.cli loads neither
    from contextlib import nullcontext

    with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def write_csv(problem_name, records, path, with_trace=False):
    """Write the results table to `path` (stdout when it is None) and, with
    `with_trace`, each cell's per-iteration errors to `<path>.trace.csv`."""
    _write_table(path, ["problem", "method", "order", "rmse", "time_ms", "status"],
                 ([problem_name, r.method, r.order, f"{r.rmse:.17g}", f"{r.time_ms:.6g}", r.status]
                  for r in records))
    if with_trace:
        _write_table(f"{path}.trace.csv", ["problem", "method", "order", "iteration", "value"],
                     ([problem_name, r.method, r.order, it, f"{val:.17g}"]
                      for r in records for it, val in enumerate(r.trace)))


def _parse_orders(spec):
    """The orders of `--orders`: one order or an inclusive range a:b, each >= 0.

    Raises ValueError, with a message for the usage line, on anything else.
    """
    first, colon, last = spec.partition(":")
    try:
        a, b = int(first), int(last if colon else first)
    except ValueError:
        raise ValueError(f"--orders: {spec!r} is neither an order nor a range a:b") from None
    if a < 0:
        raise ValueError(f"--orders: orders must be >= 0, got {a}")
    if a > b:
        raise ValueError(f"--orders: the range {spec!r} is empty")
    return list(range(a, b + 1))


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(
        prog="blockrat-fit",
        description="Fit matrix-valued rational approximants and report RMSE/timing as CSV.",
    )
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", choices=sorted(PROBLEMS), help="built-in problem")
    src.add_argument("--input", help="sample file in the documented text format")
    ap.add_argument("--method", required=True, help="comma-separated subset of: " + ",".join(METHODS))
    ap.add_argument("--orders", required=True, help="order range a:b (inclusive) or a single order")
    ap.add_argument("--tol", type=float, default=1e-13, help="greedy stopping tolerance (AAA family)")
    ap.add_argument("--iters", type=int, default=5, help="iterations for vf/rkfit")
    ap.add_argument("--noise", type=float, default=None, help="additive Gaussian noise std")
    ap.add_argument("--seed", type=int, default=0, help="seed for noise and surrogate directions")
    ap.add_argument("--repeats", type=int, default=20, help="timing repetitions per cell")
    ap.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    ap.add_argument("--trace", action="store_true", help="also emit per-iteration traces to <out>.trace.csv")
    ap.add_argument("--against-truth", action="store_true",
                    help="measure RMSE against the clean truth when available")
    args = ap.parse_args(argv)
    if args.trace and not args.out:
        ap.error("--trace writes <out>.trace.csv and needs --out")

    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    try:
        if not methods:
            raise ParameterError(f"--method names no method (choose from {', '.join(METHODS)})")
        if args.problem:
            problem = PROBLEMS[args.problem]()
        else:
            problem = Problem(args.input, load_samples(args.input))
        if args.noise is not None:
            problem = Problem(problem.name, add_noise(problem.samples, NoiseSpec(args.noise, args.seed)),
                              problem.truth)
        orders = _parse_orders(args.orders)
        # an output file that cannot be written is a usage error before the first fit
        for path in filter(None, [args.out, args.trace and f"{args.out}.trace.csv"]):
            open(path, "a", encoding="utf-8").close()
        records = run_sweep(problem, methods, orders, tol=args.tol, iters=args.iters,
                            seed=args.seed, repeats=args.repeats, against_truth=args.against_truth)
    except (ValueError, OSError) as e:  # ParameterError is a ValueError
        ap.error(str(e))
    write_csv(problem.name, records, args.out, with_trace=args.trace)
    return 2 if any(r.status != "ok" for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
