"""Correctness gate: compare cell outcomes with each other and with the reference.

`reference.json` holds, for workload seed 0, each cell's status and, for
cells that succeed, the achieved order, the RMSE and (on `block-eigs`
buckling cells) the eigenvalues of the bary-C refit with |lambda| < 5.
`record_reference.py` writes it.

Tolerances:
- achieved order: exact;
- RMSE: 1e-12 times the problem's largest sample norm;
- eigenvalues: 1e-6 * max(1, |lambda|) for eigenvalues with |lambda| >= 0.1;
  1e-3 absolute for the cluster with |lambda| < 0.1.  That cluster sits
  next to the smallest sample point 0.01i and is ill-conditioned: changing
  only the BLAS thread count from 2 to 1 moves its members by up to 3e-5,
  while the isolated eigenvalues move by about 1e-8.
"""

import json
import math
from pathlib import Path

import numpy as np

from workloads import EIG_RADIUS

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RMSE_REL_TOL = 1e-12
EIG_REL_TOL = 1e-6
EIG_CLUSTER_RADIUS = 0.1
EIG_CLUSTER_TOL = 1e-3


def record(outcome):
    """The JSON-ready part of an outcome that the gate compares."""
    rec = {"status": outcome.status}
    if outcome.status != "ok":
        rec["detail"] = outcome.detail
        return rec
    rec["order"] = outcome.order
    rec["rmse"] = outcome.rmse
    if outcome.eigs is not None:
        small = outcome.eigs[np.abs(outcome.eigs) < EIG_RADIUS]
        rec["eigs"] = [[float(z.real), float(z.imag)] for z in np.sort_complex(small)]
    return rec


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _eig_tol(lam):
    if abs(lam) < EIG_CLUSTER_RADIUS:
        return EIG_CLUSTER_TOL
    return EIG_REL_TOL * max(1.0, abs(lam))


def _eig_mismatch(got, want):
    """Match each wanted eigenvalue to the nearest unmatched one computed."""
    got = [complex(re, im) for re, im in got]
    want = [complex(re, im) for re, im in want]
    if len(got) != len(want):
        return f"{len(got)} eigenvalues with |lambda| < {EIG_RADIUS}, want {len(want)}"
    for lam in sorted(want, key=_eig_tol):
        k = min(range(len(got)), key=lambda i: abs(got[i] - lam))
        if abs(got[k] - lam) > _eig_tol(lam):
            return f"eigenvalue {lam:.10g}: nearest computed {got[k]:.10g}"
        got.pop(k)
    return None


def compare(got, want, scale):
    """Mismatches between outcome records `got` and `want`; empty when they agree.

    A cell that `want` records as failing has no requirement: a fix that
    makes it succeed is not a mismatch, though it must give a finite RMSE.
    """
    if want["status"] != "ok":
        if got["status"] == "ok" and not math.isfinite(got["rmse"]):
            return [f"rmse {got['rmse']} is not finite"]
        return []
    if got["status"] != "ok":
        return [f"failed with {got['status']}: {got['detail']}"]
    out = []
    if got["order"] != want["order"]:
        out.append(f"order {got['order']}, want {want['order']}")
    if not abs(got["rmse"] - want["rmse"]) <= RMSE_REL_TOL * scale:
        out.append(f"rmse {got['rmse']!r}, want {want['rmse']!r}")
    if ("eigs" in got) != ("eigs" in want):
        out.append("eigenvalues present on one side only")
    elif "eigs" in want:
        msg = _eig_mismatch(got["eigs"], want["eigs"])
        if msg:
            out.append(msg)
    return out


def sane(cell, got):
    """Checks for a cell that no reference covers (a seed-dependent cell at seed != 0)."""
    if got["status"] != "ok":
        return []
    out = []
    if not math.isfinite(got["rmse"]):
        out.append(f"rmse {got['rmse']} is not finite")
    if not 0 <= got["order"] <= cell.order:
        out.append(f"order {got['order']} outside [0, {cell.order}]")
    return out


def check_outcomes(workload, seed, warm, passes, inputs):
    """All mismatches: every pass against the warm-up pass, the warm-up against the reference.

    Returns (mismatch lines, number of cells checked against the reference,
    number left unchecked because their inputs depend on a seed other than 0).
    """
    problems = []
    warm_rec = {cell: record(o) for cell, o in warm.items()}
    for i, outcomes in enumerate(passes, 1):
        for cell, o in outcomes.items():
            got, want = record(o), warm_rec[cell]
            scale = inputs.scale[cell.problem]
            if got["status"] != want["status"]:
                diffs = [f"status {got['status']}, warm-up had {want['status']}"]
            else:
                diffs = compare(got, want, scale)
            problems += [f"pass {i} {cell.key}: {d}" for d in diffs]
    reference = load_reference()[workload]
    checked = unchecked = 0
    for cell, got in warm_rec.items():
        if seed != 0 and cell.seed_dependent():
            unchecked += 1
            diffs = sane(cell, got)
        else:
            checked += 1
            want = reference.get(cell.key)
            diffs = (compare(got, want, inputs.scale[cell.problem]) if want
                     else ["no reference outcome recorded"])
        problems += [f"reference {cell.key}: {d}" for d in diffs]
    return problems, checked, unchecked
