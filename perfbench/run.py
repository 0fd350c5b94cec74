"""The blockrat benchmark: closed-loop sweeps of fitter cells, end to end and per layer.

    python3 perfbench/run.py --workload block-eigs --seed 0 --seconds 20 --trace 0

One client runs one cell after another in this process.  A pass runs every
cell of the workload once; one untimed warm-up pass comes first, then passes
repeat until they have taken `--seconds`.  BLAS threads are capped at the
number of CPUs this process may use.  Set-up (import plus problem sampling)
is timed in fresh interpreters started in between the untraced passes.

With `--trace 0` the run is untraced and reports the end-to-end metrics.
With `--trace 1` the first half of the time runs untraced passes and the
second half traced ones, which wrap calls into blockrat's public functions
in spans (see tracing.py); it reports the per-layer metrics, and writes the
spans of the last traced pass to perfbench/out/.

Every pass is checked against the warm-up pass, and the warm-up pass against
reference.json (see check.py).  The workload seed sets the `scalar-noise`
noise (seed 2023 + SEED) and the surrogate directions (seed SEED); seed 0
gives the `blockrat-fit` defaults.  For another seed, cells whose inputs
depend on it are reported as unchecked against the reference.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 1 when any
check fails, 2 when the benchmark cannot run.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
TAIL_BEYOND = 10  # a reported tail percentile has at least this many passes beyond it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("sweep_s", "s"),
    ("fit_s", "s"),
    ("max_cell_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_metadata(nproc):
    import numpy as np
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
    }


def setup_probe(workload, seed):
    """One set-up (import plus problem sampling) timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def native_stdout_to_stderr():
    """Send what native code writes to file descriptor 1 to stderr instead.

    LAPACK prints its "illegal value" messages (from a failing rkfit cell) on
    standard output, which must carry only this script's report.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def run_pass(cells, inputs, run_cell):
    """One pass over the cells; returns ({cell: Outcome}, wall seconds)."""
    outcomes = {}
    t0 = time.perf_counter()
    for cell in cells:
        outcomes[cell] = run_cell(cell, inputs)
    return outcomes, time.perf_counter() - t0


def timed_passes(seconds, one_pass, between=None, count=0):
    """Repeat `one_pass` until the passes have taken `seconds` (at least one pass).

    `between` runs `count` times in between passes, outside the timed passes,
    spread over the run so that slow drifts of a shared machine reach its
    samples as they reach the passes.  Returns (pass results, `between` results).
    """
    results, extra = [], []
    busy = 0.0
    while not results or busy < seconds:
        results.append(one_pass())
        busy += results[-1][1]
        while len(extra) < count and busy >= len(extra) * seconds / count:
            extra.append(between())
    while len(extra) < count:
        extra.append(between())
    return results, extra


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND values beyond it,
    or None when that percentile would not lie above the median."""
    n = len(values)
    k = n - TAIL_BEYOND - 1
    if k < (n - 1) / 2:
        return None
    return 100.0 * (k + 1) / n, sorted(values)[k]


def report_failures(outcomes):
    """Print the failing cells of one pass, grouped by exception type."""
    by_type = {}
    for cell, o in outcomes.items():
        if o.status != "ok":
            by_type.setdefault(o.status, []).append(f"{cell.key} ({o.detail})")
    print(f"# failing cells per pass: {sum(map(len, by_type.values()))} of {len(outcomes)}")
    for kind, items in sorted(by_type.items()):
        print(f"#   {kind}: {len(items)}")
        for item in items:
            print(f"#     {item}")


def end_to_end(passes, walls):
    """Per-pass timings, as (metric, per-pass values)."""
    return [
        ("sweep_s", walls),
        ("fit_s", [sum(o.fit_s for o in p.values()) for p in passes]),
        ("max_cell_s", [max(o.cell_s for o in p.values()) for p in passes]),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    nproc = cap_blas_threads()
    if not (SRC / "blockrat" / "__init__.py").is_file():
        print(f"error: blockrat source tree not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not check.REFERENCE.is_file():
        print(f"error: reference outcomes {check.REFERENCE} are missing", file=sys.stderr)
        return 2

    cells = workloads.cells(args.workload)
    print(f"# workload {args.workload}: {len(cells)} cells, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# meta " + json.dumps(run_metadata(nproc)))
    inputs = workloads.make_inputs(args.workload, args.seed)

    def untraced():
        return run_pass(cells, inputs, workloads.run_cell)

    traced, layers = [], []
    with native_stdout_to_stderr():
        warm, _ = untraced()
        if args.trace:
            tracer = tracing.Tracer()
            traced_cell = tracer.wrap(workloads.run_cell, "cell", tracing.cell_attrs)

            def traced_pass():
                tracer.reset()
                with tracer.installed():
                    result = run_pass(cells, inputs, traced_cell)
                layers.append(tracing.layer_metrics(tracer.spans, result[0]))
                return result

            plain, _ = timed_passes(args.seconds / 2, untraced)
            traced, _ = timed_passes(args.seconds / 2, traced_pass)
        else:
            plain, setups = timed_passes(args.seconds, untraced,
                                         lambda: setup_probe(args.workload, args.seed), SETUP_PROBES)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        print(f"# spans of the last traced pass: {spans_file.relative_to(ROOT)}")

    passes = [p for p, _ in plain + traced]
    problems, checked, unchecked = check.check_outcomes(
        args.workload, args.seed, warm, passes, inputs)
    print(f"# correctness: {len(passes)} passes agree with the warm-up pass: "
          f"{not any(p.startswith('pass') for p in problems)}; "
          f"reference checked for {checked} cells; {unchecked} cells whose inputs "
          f"depend on the seed are unchecked at seed {args.seed}")
    for line in problems:
        print(f"# MISMATCH {line}")
    report_failures(warm)

    attempted = sum(len(p) for p in passes)
    failed = sum(o.status != "ok" for p in passes for o in p.values())
    plain_passes = [p for p, _ in plain]
    plain_walls = [w for _, w in plain]
    print(f"# timings over {len(plain)} untraced passes: median, tail percentile")
    for name, values in end_to_end(plain_passes, plain_walls):
        t = tail(values)
        tail_txt = f"p{t[0]:.0f} {t[1]:.6f} s" if t else f"no tail (needs {2 * TAIL_BEYOND + 1}+ passes)"
        print(f"#   {name}: median {statistics.median(values):.6f} s, {tail_txt}, n={len(values)}")

    if args.trace:
        units = dict(tracing.PER_LAYER)
        # counts repeat exactly from pass to pass; times are medians over the passes
        metrics = {name: layers[-1][name] if units[name] in ("count", "bytes")
                   else statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["tracing_overhead_s"] = (statistics.median(w for _, w in traced)
                                         - statistics.median(plain_walls))
        print(f"# per-layer metrics: medians over {len(traced)} traced passes")
    else:
        units = dict(END_TO_END)
        metrics = {name: statistics.median(values)
                   for name, values in end_to_end(plain_passes, plain_walls)}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = (attempted - failed) / attempted
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
