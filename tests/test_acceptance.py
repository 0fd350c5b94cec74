"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or in captured output on failure).
"""

import pathlib
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from blockrat import (
    AaaOptions,
    BlockBaryA,
    BlockBaryB,
    NoiseSpec,
    RkfitOptions,
    SampleSet,
    VfOptions,
    aaa_scalar,
    add_noise,
    bary_poly_weights,
    block_aaa,
    build_pencil,
    loewner_block,
    loewner_scalar,
    logspace_imaginary,
    pencil_eigs,
    rkfit_fit,
    rmse,
    set_valued_aaa,
    vf_matrix,
)
from blockrat.cli import problem_toy1, problem_toy2, problem_buckling
from tests.oracles import companion_roots, eval_node_polynomial

NOISE_SEED = 2023  # documented fixed seed for the noise study


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_toy1_recovery():
    toy1 = problem_toy1()
    t0 = time.perf_counter()
    e_block = rmse(toy1.samples, block_aaa(toy1.samples, AaaOptions(max_order=5)).model)
    e_sv = rmse(toy1.samples, set_valued_aaa(toy1.samples, AaaOptions(max_order=6)))
    e_rk = rmse(toy1.samples, rkfit_fit(toy1.samples, RkfitOptions(degree=6, iterations=5)).model)
    e_lo = rmse(toy1.samples, loewner_block(toy1.samples, 8))
    elapsed = time.perf_counter() - t0
    ok = e_block <= 1e-10 and e_sv <= 1e-8 and e_rk <= 1e-8 and e_lo <= 1e-6 and elapsed <= 10
    _report(
        1,
        ok,
        f"toy1 rmse block-aaa={e_block:.2e} sv-aaa={e_sv:.2e} rkfit={e_rk:.2e} "
        f"loewner={e_lo:.2e} in {elapsed:.1f}s",
    )


def test_criterion_2_toy2_recovery():
    toy2 = problem_toy2()
    e_block = rmse(toy2.samples, block_aaa(toy2.samples, AaaOptions(max_order=5)).model)
    e_sv = rmse(toy2.samples, set_valued_aaa(toy2.samples, AaaOptions(max_order=8)))
    e_rk = rmse(toy2.samples, rkfit_fit(toy2.samples, RkfitOptions(degree=8, iterations=5)).model)
    e_vf = rmse(toy2.samples, vf_matrix(toy2.samples, 8, VfOptions(iterations=10)))
    ok = e_block <= 1e-10 and e_sv <= 1e-8 and e_rk <= 1e-8 and e_vf <= 1e-6
    _report(
        2,
        ok,
        f"toy2 rmse block-aaa={e_block:.2e} sv-aaa={e_sv:.2e} rkfit={e_rk:.2e} vf={e_vf:.2e}",
    )


def test_criterion_3_noise_study():
    tau = 1e-2
    pts = logspace_imaginary(1e-1, 10, 500)
    clean = SampleSet(pts, (pts - 1) / (pts**2 + pts + 2))
    noisy = add_noise(clean, NoiseSpec(tau, NOISE_SEED))
    rk = rkfit_fit(noisy, RkfitOptions(degree=5, iterations=3)).model
    e_rk = rmse(noisy, rk)
    aaa = aaa_scalar(noisy.points, noisy.values[:, 0, 0], AaaOptions(max_order=5))
    e_aaa_truth = rmse(clean, aaa)
    ok = 0.5 * tau <= e_rk <= 3 * tau and e_aaa_truth >= 3 * e_rk
    _report(
        3,
        ok,
        f"rkfit-vs-noisy={e_rk:.3e} (target [{0.5 * tau:.0e}, {3 * tau:.0e}]), "
        f"aaa-vs-truth={e_aaa_truth:.3e} (>= 3x rkfit), seed={NOISE_SEED}",
    )


def test_criterion_4_buckling():
    prob = problem_buckling()
    e_block = rmse(prob.samples, block_aaa(prob.samples, AaaOptions(max_order=10)).model)
    e_sv = rmse(prob.samples, set_valued_aaa(prob.samples, AaaOptions(max_order=10)))
    ok = e_block <= 1e-9 and e_sv <= 1e-6
    _report(4, ok, f"buckling rmse block-aaa={e_block:.2e} sv-aaa={e_sv:.2e}")


def test_criterion_5_interpolation_invariants():
    worst_rel = 0.0
    exact = True
    for prob in (problem_toy1(), problem_toy2()):
        lookup = {complex(z): F for z, F in zip(prob.samples.points, prob.samples.values)}
        models = [
            set_valued_aaa(prob.samples, AaaOptions(max_order=6)),
            block_aaa(prob.samples, AaaOptions(max_order=5)).model,
        ]
        from blockrat import random_directions, surrogate_aaa

        a, b = random_directions(2, 2, seed=0)
        models.append(surrogate_aaa(prob.samples, a, b, AaaOptions(max_order=6)))
        for model in models:
            for zk in model.nodes:
                Fk = lookup[complex(zk)]
                exact &= bool(np.array_equal(model(zk), Fk))
                rel = np.linalg.norm(model(zk + 1e-8) - Fk) / (1 + np.linalg.norm(Fk))
                worst_rel = max(worst_rel, rel)
    ok = exact and worst_rel <= 1e-5
    _report(5, ok, f"support values exact={exact}, worst near-support rel err={worst_rel:.2e}")


def _det_roots_oracle(C, nodes, degree):
    """Roots of det N(z) independent of the pencil: interpolate det on a
    circle, take companion roots, then polish each root by Newton iteration
    on det N(z) using det'/det = tr(N^-1 N')."""
    K = degree
    zs = 2.0 * np.exp(2j * np.pi * np.arange(K + 1) / (K + 1))
    dets = np.array([np.linalg.det(eval_node_polynomial(C, nodes, z)) for z in zs])
    coeffs = np.polynomial.polynomial.polyfit(zs, dets, K)
    roots = companion_roots(coeffs)

    def deriv(z):
        out = np.zeros(C.shape[1:], dtype=complex)
        for k in range(nodes.size):
            others = np.delete(nodes, k)
            dk = sum(np.prod(z - np.delete(others, j)) for j in range(others.size))
            out += C[k] * dk
        return out

    polished = []
    for z in roots:
        for _ in range(20):
            N = eval_node_polynomial(C, nodes, z)
            try:
                tr = np.trace(np.linalg.solve(N, deriv(z)))
            except np.linalg.LinAlgError:
                break
            if tr == 0:
                break
            dz = 1.0 / tr
            z = z - dz
            if abs(dz) < 1e-15 * max(1.0, abs(z)):
                break
        polished.append(z)
    return np.array(polished)


def test_criterion_6_linearization_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        s = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        nodes = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        vals = rng.normal(size=(d + 1, s, s)) + 1j * rng.normal(size=(d + 1, s, s))
        C = bary_poly_weights(nodes)[:, None, None] * vals
        eigs = pencil_eigs(build_pencil(C, nodes))
        roots = _det_roots_oracle(C, nodes, d * s)
        assert roots.size == eigs.size
        D = np.abs(roots[:, None] - eigs[None, :])
        r, c = linear_sum_assignment(D)
        worst = max(worst, float(D[r, c].max()))
    ok = worst <= 1e-7
    _report(6, ok, f"20 random pencils, max optimal-pairing distance {worst:.2e} (<= 1e-7)")


def test_criterion_7_small_instance_consistency():
    pts = logspace_imaginary(1, 100, 20)
    f = (pts - 1) / (pts**2 + pts + 2)
    s = SampleSet(pts, f)

    # set-valued AAA reduces to scalar AAA on 1x1 data
    rs = aaa_scalar(pts, f, AaaOptions(max_order=3))
    rv = set_valued_aaa(s, AaaOptions(max_order=3))
    same_support = np.array_equal(np.sort_complex(rs.nodes), np.sort_complex(rv.nodes))

    # block Loewner reduces to scalar Loewner
    ml = loewner_scalar(pts, f, 2)
    mb = loewner_block(s, 2)
    e_loewner = max(
        np.linalg.norm(ml(z) - mb(z)) for z in logspace_imaginary(1.5, 90, 10)
    )

    # matrix weights that are scalar multiples of I reduce bary-B to bary-A
    rng = np.random.default_rng(0)
    nodes = np.array([0.0, 1.0, 2.0])
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    F = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    rA = BlockBaryA(nodes, w, F)
    rB = BlockBaryB(nodes, w[:, None, None] * np.eye(2), F)
    e_bary = max(
        np.linalg.norm(rA(z) - rB(z)) for z in rng.normal(size=10) + 1j * rng.normal(size=10)
    )

    ok = same_support and e_loewner <= 1e-12 and e_bary <= 1e-12
    _report(
        7,
        ok,
        f"sv-aaa/scalar support match={same_support}, loewner diff={e_loewner:.1e}, "
        f"baryB/baryA diff={e_bary:.1e}",
    )


def test_criterion_8_nonreproducible_disclosure():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    ok = "not reproducible" in text and "timing" in text
    _report(8, ok, "README discloses non-reproducible external-data tables and timings")
