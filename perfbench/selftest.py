"""Checks of the benchmark itself (not part of the package test suite):

    python3 -m pytest -q perfbench/selftest.py

They confirm that the benchmark computes what `blockrat-fit` computes, that
the reference gate passes and detects a mismatch, that per-layer counts
repeat exactly, that tracing leaves the package as it found it, and that the
traced split matches the one the workloads were chosen for.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 3)


@pytest.fixture(scope="module", params=[(w, s) for w in workloads.WORKLOADS for s in SEEDS],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def swept(request):
    workload, seed = request.param
    inputs = workloads.make_inputs(workload, seed)
    outcomes, _ = run.run_pass(workloads.cells(workload), inputs, workloads.run_cell)
    return workload, seed, inputs, outcomes


@functools.cache
def traced(workload):
    """Two traced passes of a workload at seed 0: (outcomes, spans, layer metrics) each."""
    inputs = workloads.make_inputs(workload, 0)
    tracer = tracing.Tracer()
    traced_cell = tracer.wrap(workloads.run_cell, "cell", tracing.cell_attrs)
    passes = []
    for _ in range(2):
        tracer.reset()
        with tracer.installed():
            outcomes, _ = run.run_pass(workloads.cells(workload), inputs, traced_cell)
        passes.append((outcomes, tracer.spans, tracing.layer_metrics(tracer.spans, outcomes)))
    return passes


def test_cells_match_cli_sweep(swept):
    """Each cell's status and RMSE are what `blockrat-fit` reports for it."""
    workload, seed, inputs, outcomes = swept
    for cell, got in outcomes.items():
        problem = inputs.problems[cell.problem]
        (want,) = workloads.MODULES["cli"].run_sweep(
            problem, [cell.method], [cell.order], seed=seed, repeats=1)
        assert (got.status == "ok") == (want.status == "ok"), (cell, got.status, want.status)
        if got.status == "ok":
            assert abs(got.rmse - want.rmse) <= check.RMSE_REL_TOL * inputs.scale[cell.problem], cell
        else:
            assert want.status == f"error: {got.detail}", cell


def test_reference_gate_passes(swept):
    workload, seed, inputs, outcomes = swept
    problems, checked, unchecked = check.check_outcomes(
        workload, seed, outcomes, [outcomes], inputs)
    assert problems == []
    assert checked + unchecked == len(outcomes)
    assert unchecked == (0 if seed == 0 else sum(c.seed_dependent() for c in outcomes))


def test_failures_at_seed_0():
    """The cells that fail today, by exception type; none is dropped from the workload."""
    reference = check.load_reference()
    failing = {w: {k: r["status"] for k, r in cells.items() if r["status"] != "ok"}
               for w, cells in reference.items()}
    assert failing["block-eigs"] == {} and failing["scalar-weights"] == {}
    assert len(reference["pole-residue"]) == 36
    assert failing["pole-residue"] == {
        **{f"{p}/rkfit/{d}": "EvaluationError" for p in ("toy1", "toy2") for d in (10, 15)},
        "toy2/rkfit/15": "LinAlgError",
        **{f"{p}/loewner/{d}": "EvaluationError" for p in ("toy1", "toy2") for d in (10, 15)},
    }


def test_gate_detects_mismatch():
    want = check.load_reference()["block-eigs"]["buckling/block-aaa/15"]
    scale = workloads.make_inputs("block-eigs", 0).scale["buckling"]
    assert check.compare(want, want, scale) == []
    assert check.compare({**want, "order": 14}, want, scale)
    assert check.compare({**want, "rmse": want["rmse"] + 1e-11 * scale}, want, scale)
    moved = [list(e) for e in want["eigs"]]
    moved[0][0] += 1e-4  # an isolated eigenvalue near -3.75
    assert check.compare({**want, "eigs": moved}, want, scale)
    assert check.compare({**want, "eigs": want["eigs"][1:]}, want, scale)
    assert check.compare({"status": "EvaluationError", "detail": "x"}, want, scale)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    passes = traced(workload)
    units = dict(tracing.PER_LAYER)
    counts = [{k: v for k, v in layer.items() if units[k] in ("count", "bytes")}
              for _, _, layer in passes]
    assert counts[0] == counts[1]


def test_tracing_restores_package():
    traced("pole-residue")
    for mod, attr, _, _ in tracing.FUNCTIONS:
        assert not hasattr(getattr(workloads.MODULES[mod], attr), "__wrapped__"), (mod, attr)
    for mod, cls, _ in tracing.MODELS:
        assert not hasattr(getattr(workloads.MODULES[mod], cls).__call__, "__wrapped__"), cls


def _within(spans, root):
    """Indices of the direct children of span `root`."""
    return [i for i, s in enumerate(spans) if s[1] == root]


def test_block_aaa_split():
    """On buckling at order 15, weight solves plus greedy evaluation cover >= 90% of block-AAA."""
    for _, spans, _ in traced("block-eigs"):
        cell = next(i for i, s in enumerate(spans)
                    if s[0] == "cell" and s[5]["cell"] == "buckling/block-aaa/15")
        fit = next(i for i in _within(spans, cell) if spans[i][0] == "block_aaa.fit")
        covered = sum(spans[i][3] - spans[i][2] for i in _within(spans, fit)
                      if spans[i][0] in ("barycentric.solve_weights_baryB", "barycentric.eval"))
        assert covered >= 0.9 * (spans[fit][3] - spans[fit][2])


def test_scalar_weights_split():
    """On scalar-weights, barycentric evaluation takes more than 60% of the fit time."""
    for outcomes, _, layer in traced("scalar-weights"):
        assert layer["barycentric.eval.s"] > 0.6 * sum(o.fit_s for o in outcomes.values())


def test_refuses_to_run_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it exits nonzero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "block-eigs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
