"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from opsplit import operators as ops
from opsplit.calculus import (
    INParams,
    compose_cocoercive_chain,
    compose_general,
    compose_kappa_theta,
)
from opsplit.figures import class_region, composition_region_exact
from opsplit.operators import ScaledIdentity, SubspaceNormalPlusScale
from opsplit.splitting import build_dr, build_fb, dr_operator, iterate, plan_dr, plan_fb
from opsplit.verifier import (
    check_membership,
    check_composition_identity,
    random_certified_composition,
    run_named_case,
)

from conftest import (disk_contains, marked_points, random_monotone_affine, raster_contains,
                      step_ratios)


def _report(n, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, detail


def test_criterion_1_composition_calculus_consistency():
    # 1000 random conic-normalized pairs satisfying the two-factor theorem
    # hypotheses: the general and scale-normalized routes agree to 1e-12
    # relative, in under a second.
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    while n < 1000:
        t1, t2 = rng.uniform(0.05, 1.6, size=2)
        if t1 * t2 >= 0.995:
            continue
        n += 1
        p1, p2 = INParams(1.0 - t1, t1), INParams(1.0 - t2, t2)
        general = compose_general(p1, p2)
        scaled = compose_kappa_theta(p1, p2)
        ka = scaled.delta * (1.0 - scaled.alpha)
        kb = scaled.delta * scaled.alpha
        worst = max(
            worst,
            abs(ka - general.alpha) / max(1.0, abs(general.alpha)),
            abs(kb - general.beta) / abs(general.beta),
        )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"worst relative gap {worst:.2e} over 1000 pairs in {elapsed:.3f}s",
    )


def test_criterion_2_firmly_nonexpansive_pair():
    got = compose_general(INParams(0.5, 0.5), INParams(0.5, 0.5))
    exact = got.alpha == 1.0 / 3.0 and got.beta == 2.0 / 3.0
    chain = compose_cocoercive_chain([1.0, 1.0])
    same_class = chain.delta == 1.0 and chain.alpha == 2.0 / 3.0
    back = chain.to_in()
    consistent = math.isclose(back.alpha, got.alpha, abs_tol=1e-15) and math.isclose(
        back.beta, got.beta, abs_tol=1e-15
    )
    _report(
        2,
        exact and same_class and consistent,
        f"composition ({got.alpha}, {got.beta}), chain ({chain.delta}, {chain.alpha})",
    )


def test_criterion_3_empirical_certification():
    rng = np.random.default_rng(3)
    kinds = ("averaged-averaged", "conic-conic", "scaled-averaged-cocoercive")
    t0 = time.perf_counter()
    worst = -math.inf
    for i in range(200):
        op, cert, params = random_certified_composition(kinds[i % 3], rng)
        rep = check_membership(op, cert, pairs=10_000)
        worst = max(worst, rep.worst_violation)
        assert rep.passed, (kinds[i % 3], params, rep.worst_violation)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        worst <= 1e-9 and elapsed < 30.0,
        f"200 certified compositions, worst violation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_counterexample_agreement():
    kappa_case = run_named_case("ex-cases-i")  # theta=pi/2, eps=delta=1 -> a1=a2=2
    chain_case = run_named_case("chain-reject")  # eps=1, delta=2, a1=0.25
    ok = (
        kappa_case.guard_rejected
        and kappa_case.empirical_failed
        and kappa_case.details["kappa"] == -4.0
        and kappa_case.details["monotonicity_slack"] <= -0.4 + 1e-6
        and chain_case.guard_rejected
        and chain_case.empirical_failed
        and chain_case.details["monotonicity_slack"] <= -0.45 + 1e-6
    )
    _report(
        4,
        ok,
        f"slacks {kappa_case.details['monotonicity_slack']:.3f} / "
        f"{chain_case.details['monotonicity_slack']:.3f}",
    )


def test_criterion_5_dr_averagedness():
    rng = np.random.default_rng(5)
    worst = -math.inf
    for i in range(20):
        mu = rng.uniform(0.5, 3.0)
        omega = rng.uniform(0.0, 0.8) * mu
        hi = math.inf if omega == 0.0 else (mu - omega) / (2.0 * mu * omega)
        gamma = rng.uniform(0.05, 0.95) * min(hi, 5.0)
        plan = plan_dr(mu, omega, gamma)
        dim = 2 if i % 4 else 6
        a = random_monotone_affine(mu, dim, rng)
        b = random_monotone_affine(-omega, dim, rng)
        t = build_dr(plan, a, b)
        alpha = (mu - omega) / (2.0 * (mu - omega - gamma * mu * omega))
        assert math.isclose(alpha, plan.averaged_alpha, rel_tol=1e-12)
        rep = check_membership(t, INParams(1.0 - alpha, alpha), pairs=10_000)
        worst = max(worst, rep.worst_violation)
        assert rep.passed, (mu, omega, gamma, rep.worst_violation)
    _report(5, worst <= 1e-9, f"20 random DR instances, worst violation {worst:.2e}")


def test_criterion_6_dr_divergence_boundary():
    a = SubspaceNormalPlusScale(np.array([[1.0, 0.0]]), mu=2.0)
    b = ScaledIdentity(-1.0, dim=2)
    plan = plan_dr(2.0, 1.0, 0.1)
    t = build_dr(plan, a, b)
    log_conv = iterate(t, np.array([1.0, 1.0]), max_iter=10_000, tol_fix=1e-10)
    converged = log_conv.converged and log_conv.step_norms[-1] <= 1e-10 * (
        1.0 + np.linalg.norm(log_conv.final)
    )
    log_div = iterate(dr_operator(a, b, 0.6), np.array([0.0, 1.0]), max_iter=200)
    _report(
        6,
        converged and log_div.diverged,
        f"gamma=0.1 converged in {log_conv.n_iter} iters; "
        f"gamma=0.6 flagged at {log_div.n_iter} <= 200",
    )


def test_criterion_7_fb_tightness():
    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    t = build_fb(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-1.0, dim=2))
    log = iterate(t, np.array([1.0, 0.0]))
    worst_i = max(abs(r - 0.75) for r in step_ratios(log))

    planb = plan_fb("Ib", mu=2.0, omega=1.0, beta=1.0, gamma=0.45)
    tb = build_fb(planb, ScaledIdentity(3.0, dim=2), ScaledIdentity(-1.0, dim=2))
    logb = iterate(tb, np.array([1.0, 0.0]))
    worst_ib = max(abs(r - 7.0 / 11.0) for r in step_ratios(logb))
    assert abs(abs(planb.delta) - 7.0 / 11.0) <= 1e-12
    _report(
        7,
        worst_i <= 1e-12 and worst_ib <= 1e-12,
        f"per-step rate gaps {worst_i:.2e} (case I), {worst_ib:.2e} (case Ib)",
    )


def test_criterion_8_composition_identity_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        r1 = ops.matrix_op(rng.standard_normal((2, 2)), rng.standard_normal(2))
        r2 = ops.matrix_op(rng.standard_normal((2, 2)), rng.standard_normal(2))
        lam = rng.uniform(-1.0, 2.0)
        worst = max(worst, check_composition_identity(r1, r2, lam, pairs=200))
    _report(8, worst <= 1e-10, f"worst scaled residual {worst:.2e} over 100 triples")


def _sampled_displacements(p1, p2, count, rng):
    th1 = rng.uniform(0.0, 2.0 * np.pi, count)
    th2 = rng.uniform(0.0, 2.0 * np.pi, count)
    refl = rng.random(count) < 0.5
    u1 = np.column_stack([np.cos(th1), np.sin(th1)])
    u1[refl, 1] *= -1.0
    q = np.column_stack([p1.alpha + p1.beta * u1[:, 0], p1.beta * u1[:, 1]])
    nq = np.linalg.norm(q, axis=1)
    u2 = np.column_stack([np.cos(th2), np.sin(th2)])
    return p2.alpha * q + p2.beta * nq[:, None] * u2


def test_criterion_9_figure_soundness():
    rng = np.random.default_rng(9)
    t0 = time.perf_counter()
    pairs = (
        (INParams(0.5, 0.5), INParams(0.5, 0.5)),
        (INParams(0.3, 0.7), INParams(0.4, 0.6)),
        (INParams(-0.7, 1.7), INParams(0.55, 0.45)),
    )
    details = []
    ok = True
    for p1, p2 in pairs:
        raster = composition_region_exact(p1, p2, 512)
        disk = class_region(compose_general(p1, p2))
        violating = int((~disk_contains(disk, marked_points(raster))).sum())
        pts = _sampled_displacements(p1, p2, 10_000, rng)
        missed = sum(
            0 if raster_contains(raster, pt, dilate=1) else 1 for pt in pts
        )
        details.append(f"violating={violating} missed={missed}")
        ok = ok and violating == 0 and missed == 0
    elapsed = time.perf_counter() - t0
    _report(9, ok and elapsed < 60.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    env_cmd = [sys.executable, "-m", "opsplit.cli"]

    def run(*args):
        return subprocess.run(env_cmd + list(args), capture_output=True, text=True)

    inst = tmp_path / "fb.json"
    inst.write_text(
        json.dumps(
            {
                "A": {"kind": "scaled_identity", "c": 2.0, "dim": 2},
                "B": {"kind": "scaled_identity", "c": -1.0, "dim": 2},
                "mu": 2.0,
                "omega": 1.0,
                "beta": 1.0,
                "case": "I",
            }
        )
    )
    csvs, sums, svgs, verifies = [], [], [], []
    for tag in ("a", "b"):
        log = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.json"
        r = run(
            "solve-fb", "--instance", str(inst), "--gamma", "0.2", "--x0", "1,0",
            "--log", str(log), "--summary", str(summary),
        )
        assert r.returncode == 0
        csvs.append(log.read_bytes())
        sums.append(summary.read_bytes())
        svg = tmp_path / f"{tag}.svg"
        r = run("figure", "--preset", "conic-conic-1.7-0.45", "--out", str(svg),
                "--resolution", "128")
        assert r.returncode == 0
        svgs.append(svg.read_bytes())
        vj = tmp_path / f"v{tag}.json"
        r = run("verify", "--suite", "random", "--seed", "13", "--count", "6",
                "--json", str(vj))
        assert r.returncode == 0
        verifies.append(vj.read_bytes())
    ok = csvs[0] == csvs[1] and sums[0] == sums[1] and svgs[0] == svgs[1] and (
        verifies[0] == verifies[1]
    )
    _report(10, ok, "CSV, summary JSON, SVG and verify JSON all byte-identical")
