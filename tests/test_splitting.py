"""Splitting plans, operator assembly, iteration driver, rate measurement."""

import math

import numpy as np
import pytest

from opsplit.calculus import INParams, ScaledConic
from opsplit.errors import DomainError, NumericError, StepSizeError
from opsplit.operators import Op, ScaledIdentity, SubspaceNormalPlusScale, identity, scale
from opsplit.splitting import (
    GammaRange,
    build_dr,
    build_fb,
    dr_operator,
    dr_shadow_ops,
    fb_operator,
    iterate,
    plan_dr,
    plan_fb,
    rate_report,
    write_csv,
)
from opsplit.verifier import check_membership

from conftest import random_monotone_affine


def scaling_demo(mu=2.0, omega=1.0):
    """Subspace normal cone plus strong shift against a negative identity."""
    a = SubspaceNormalPlusScale(np.array([[1.0, 0.0]]), mu=mu)
    b = ScaledIdentity(-omega, dim=2)
    return a, b


# ---------------------------------------------------------------------------
# DR planning


def test_plan_dr_unbounded_when_omega_zero():
    plan = plan_dr(1.0, 0.0, gamma=123.0)
    assert plan.averaged_alpha == 0.5
    assert plan.gamma_range.hi is None


def test_plan_dr_value():
    plan = plan_dr(2.0, 1.0, gamma=0.1)
    assert math.isclose(plan.averaged_alpha, 0.625, rel_tol=1e-15)
    assert math.isclose(plan.nu, 1.25, rel_tol=1e-15)


def test_plan_dr_range_error_carries_interval():
    with pytest.raises(StepSizeError) as e:
        plan_dr(2.0, 1.0, gamma=0.3)
    assert e.value.interval.hi == 0.25
    with pytest.raises(DomainError):
        plan_dr(1.0, 1.0, gamma=0.1)
    with pytest.raises(DomainError):
        plan_dr(2.0, 1.0, gamma=0.1, lambda_relax=1.0)


def test_plan_dr_relaxed_range_scales_with_lambda():
    # lambda = 1/4 widens the interval to 3/4*(mu-omega)/(mu*omega)
    plan = plan_dr(2.0, 1.0, gamma=0.35, lambda_relax=0.25)
    assert math.isclose(plan.gamma_range.hi, 0.375, rel_tol=1e-15)
    assert math.isclose(plan.averaged_alpha, 0.25 * 1.0 / (1.0 - 0.7), rel_tol=1e-12)


def test_gamma_range_membership():
    rng = GammaRange(0.4, 2.0 / 3.0, lo_closed=True)
    assert rng.contains(0.4) and rng.contains(0.5) and not rng.contains(2.0 / 3.0)
    assert str(rng).startswith("[0.4, ")


# ---------------------------------------------------------------------------
# DR assembly


def test_build_dr_scalar_instance():
    mu, omega, gamma = 2.0, 1.0, 0.1
    plan = plan_dr(mu, omega, gamma)
    t = build_dr(plan, ScaledIdentity(mu, dim=2), ScaledIdentity(-omega, dim=2))
    factor = 0.5 * (
        1.0
        + (1.0 + gamma * omega) * (1.0 - gamma * mu)
        / ((1.0 - gamma * omega) * (1.0 + gamma * mu))
    )
    x = np.array([1.0, -2.0])
    assert np.max(np.abs(t(x) - factor * x)) < 1e-15
    assert t.certificate == INParams(1.0 - plan.averaged_alpha, plan.averaged_alpha)


def test_raw_dr_zero_specs_give_identity():
    t = dr_operator(ScaledIdentity(0.0, dim=2), ScaledIdentity(0.0, dim=2), 0.5)
    x = np.array([0.3, 0.4])
    assert np.allclose(t(x), x)


def test_build_dr_scaling_demo_closed_form(rng):
    mu, omega, gamma = 2.0, 1.0, 0.1
    a, b = scaling_demo(mu, omega)
    plan = plan_dr(mu, omega, gamma)
    t = build_dr(plan, a, b)
    cu = (1.0 + gamma * omega) / ((1.0 - gamma * omega) * (1.0 + gamma * mu))
    cid = gamma * omega / (1.0 - gamma * omega)
    xs = rng.standard_normal((30, 2))
    proj = xs.copy()
    proj[:, 1] = 0.0
    assert np.max(np.abs(t(xs) - (cu * proj - cid * xs))) < 1e-14


def test_build_dr_modulus_mismatch():
    plan = plan_dr(2.0, 1.0, gamma=0.1)
    with pytest.raises(DomainError):
        build_dr(plan, ScaledIdentity(1.0, dim=2), ScaledIdentity(-1.0, dim=2))
    with pytest.raises(DomainError):
        build_dr(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-2.0, dim=2))


def test_build_dr_order_swap():
    plan = plan_dr(2.0, 1.0, gamma=0.1, order="B_strong")
    t = build_dr(plan, ScaledIdentity(-1.0, dim=2), ScaledIdentity(2.0, dim=2))
    assert t.certificate == INParams(0.375, 0.625)


# ---------------------------------------------------------------------------
# FB planning


def test_plan_fb_case_i_monotone_sum():
    plan = plan_fb("I", mu=0.0, omega=0.0, beta=1.0, gamma=1.0)
    assert math.isclose(plan.nu, 0.5, rel_tol=1e-15)
    assert plan.delta == 1.0
    assert math.isclose(plan.averaged_alpha, 2.0 / 3.0, rel_tol=1e-15)
    assert not plan.contraction


def test_plan_fb_case_i_contraction():
    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    assert math.isclose(plan.delta, 0.75, rel_tol=1e-15)
    assert plan.contraction


def test_plan_fb_case_ib():
    plan = plan_fb("Ib", mu=2.0, omega=1.0, beta=1.0, gamma=0.45)
    assert math.isclose(plan.delta, -7.0 / 11.0, rel_tol=1e-14)
    assert plan.contraction and plan.averaged_alpha is None
    assert plan.gamma_range.lo == 0.4 and plan.gamma_range.lo_closed


def test_plan_fb_case_ib_boundary_rejection():
    # gamma = 0.5 sits inside the typeset interval but pushes the factor to -1
    with pytest.raises(DomainError) as e:
        plan_fb("Ib", mu=2.0, omega=1.0, beta=1.0, gamma=0.5)
    assert "]-1, 0]" in str(e.value)


def test_plan_fb_case_ranges():
    with pytest.raises(StepSizeError):
        plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.5)
    with pytest.raises(StepSizeError):
        plan_fb("Ib", mu=2.0, omega=1.0, beta=1.0, gamma=0.3)
    with pytest.raises(DomainError):
        plan_fb("I", mu=1.0, omega=2.0, beta=1.0, gamma=0.1)
    with pytest.raises(DomainError):
        plan_fb("nope", mu=1.0, omega=0.0, beta=1.0, gamma=0.1)


def test_plan_fb_case_ii():
    plan = plan_fb("II", mu=1.0, omega=0.5, beta=1.0, beta_bar=2.0, gamma=0.5)
    assert math.isclose(plan.nu, 0.5 * 2.0 / (2.0 * 1.25), rel_tol=1e-15)
    assert math.isclose(plan.delta, 1.25 / 1.5, rel_tol=1e-15)
    with pytest.raises(DomainError):
        plan_fb("II", mu=1.0, omega=0.5, beta=1.0, beta_bar=1.4, gamma=0.5)


def test_plan_fb_case_iib():
    plan = plan_fb("IIb", mu=1.0, omega=0.0, beta=1.0, beta_bar=1.5, gamma=1.5)
    assert -1.0 < plan.delta <= 0.0
    assert plan.contraction


def test_plan_fb_case_iii():
    plan = plan_fb("III", mu=2.0, omega=0.0, beta=1.0, beta_bar=3.0, gamma=1.0)
    assert math.isclose(plan.delta, 2.0 / 3.0, rel_tol=1e-15)
    with pytest.raises(DomainError):
        plan_fb("III", mu=0.5, omega=0.0, beta=1.0, beta_bar=3.0, gamma=1.0)


def test_plan_fb_case_iiib():
    plan = plan_fb("IIIb", mu=2.0, omega=0.0, beta=1.0, beta_bar=4.0, gamma=1.5)
    assert -1.0 < plan.delta <= 0.0 and plan.contraction


# ---------------------------------------------------------------------------
# FB assembly


def test_build_fb_tight_scalar():
    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    t = build_fb(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-1.0, dim=2))
    x = np.array([1.0, 2.0])
    assert np.max(np.abs(t(x) - 0.75 * x)) < 1e-15
    assert t.certificate == ScaledConic(plan.delta, plan.nu)


def test_build_fb_negative_factor_scalar():
    plan = plan_fb("Ib", mu=2.0, omega=1.0, beta=1.0, gamma=0.45)
    t = build_fb(plan, ScaledIdentity(3.0, dim=2), ScaledIdentity(-1.0, dim=2))
    x = np.array([1.0, 0.0])
    assert np.max(np.abs(t(x) - (1.0 - 0.45 * 3.0) / 0.55 * x)) < 1e-15


def test_fb_zero_specs_give_identity():
    t = fb_operator(ScaledIdentity(0.0, dim=2), ScaledIdentity(0.0, dim=2), 1.0)
    x = np.array([0.1, -0.2])
    assert np.allclose(t(x), x)


def test_build_fb_membership(rng):
    plan = plan_fb("I", mu=1.0, omega=0.5, beta=2.0, gamma=0.3)
    a = random_monotone_affine(1.0, 2, rng)  # mu-monotone forward operator
    b = ScaledIdentity(-0.5, dim=2)
    # the forward part must also honor the cocoercivity bound; a generic
    # affine map need not, so use the worst-case scalar instance instead
    t = build_fb(plan, ScaledIdentity(1.0, dim=2), b)
    rep = check_membership(t, t.certificate, pairs=2000)
    assert rep.passed


# ---------------------------------------------------------------------------
# iteration


def test_iterate_identity_stops_immediately():
    from opsplit.operators import identity

    log = iterate(identity(2), np.array([1.0, 2.0]))
    assert log.converged and log.n_iter == 1
    assert np.allclose(log.final, [1.0, 2.0])


def test_iterate_divergence_flag():
    a, b = scaling_demo()
    t = dr_operator(a, b, 0.6)
    log = iterate(t, np.array([0.0, 1.0]), max_iter=200)
    assert log.diverged and log.n_iter < 200


def test_iterate_oscillation_never_converges():
    a, b = scaling_demo()
    t = dr_operator(a, b, 0.5)  # factor exactly -1 off the subspace
    log = iterate(t, np.array([0.0, 1.0]), max_iter=300)
    assert not log.converged and not log.diverged
    steps = log.step_norms
    assert max(abs(s - steps[0]) for s in steps) < 1e-12


def test_iterate_converges_inside_range():
    a, b = scaling_demo()
    plan = plan_dr(2.0, 1.0, 0.1)
    t = build_dr(plan, a, b)
    log = iterate(t, np.array([1.0, 1.0]), max_iter=10_000)
    assert log.converged
    assert log.step_norms[-1] <= 1e-10 * (1.0 + np.linalg.norm(log.final))


def test_iterate_shadow_gap_tracks_step_norm():
    a, b = scaling_demo()
    gamma = 0.1
    plan = plan_dr(2.0, 1.0, gamma)
    t = build_dr(plan, a, b)
    log = iterate(t, np.array([1.0, 1.0]), track_shadow=True, A=a, B=b, gamma=gamma)
    # J_A x - J_B R_A x = (Id - T)x at lambda = 1/2
    for k in range(1, min(20, len(log.step_norms))):
        assert abs(log.shadow_gaps[k - 1] - log.step_norms[k - 1]) < 1e-12
    assert log.shadow_gaps[-1] < 1e-6


def _reference_iterate(T, x0, max_iter, tol_fix=1e-10, divergence_factor=1e6,
                       growth_window=50):
    """The plain loop: both norms taken with ``np.linalg.norm`` at every step
    and every iterate scanned for non-finite entries."""
    x = np.asarray(x0, dtype=float)
    steps, converged, diverged = [], False, False
    norm_cap = divergence_factor * (1.0 + float(np.linalg.norm(x)))
    growth, k = 0, 0
    for k in range(1, max_iter + 1):
        x_new = T(x)
        if not np.all(np.isfinite(x_new)):
            raise NumericError("non-finite", iteration=k)
        step = float(np.linalg.norm(x_new - x))
        steps.append(step)
        if step <= tol_fix * (1.0 + float(np.linalg.norm(x))):
            converged = True
            break
        growth = growth + 1 if (len(steps) >= 2 and step > steps[-2]) else 0
        x = x_new
        if float(np.linalg.norm(x)) > norm_cap:
            diverged = True
            break
        if growth >= growth_window:
            diverged = True
            break
    return steps, converged, diverged, k


def _nan_on_call(n):
    calls = [0]

    def fn(x):
        calls[0] += 1
        return np.full_like(x, np.nan) if calls[0] == n else 0.9 * x
    return Op(fn, 2)


@pytest.mark.parametrize("case", ["converge", "oscillate", "norm", "growth",
                                  "overflow", "nan", "inf"])
def test_iterate_stopping_matches_reference_loop(case):
    a, b = scaling_demo()
    cap = 1e250 if case == "growth" else 1e6

    def make():
        return {
            "converge": lambda: (dr_operator(a, b, 0.1), [1.0, 1.0]),
            "oscillate": lambda: (dr_operator(a, b, 0.5), [0.0, 1.0]),
            "norm": lambda: (scale(1.5, identity(2)), [1.0, -2.0]),
            "growth": lambda: (scale(1.5, identity(2)), [1.0, -2.0]),
            # finite entries whose norm overflows: diverged, not a numeric failure
            "overflow": lambda: (scale(1e200, identity(2)), [1.0, 1.0]),
            "nan": lambda: (_nan_on_call(7), [1.0, 2.0]),
            "inf": lambda: (scale(1e300, identity(2)), [1e10, 1.0]),
        }[case]()

    with np.errstate(over="ignore"):
        try:
            want = _reference_iterate(*make(), 300, divergence_factor=cap)
        except NumericError as exc:
            with pytest.raises(NumericError) as got:
                iterate(*make(), max_iter=300, divergence_factor=cap)
            assert got.value.iteration == exc.iteration
            return
        log = iterate(*make(), max_iter=300, divergence_factor=cap)
    assert (log.step_norms, log.converged, log.diverged, log.n_iter) == want
    reason = {"converge": "", "oscillate": "no convergence", "norm": "iterate norm",
              "growth": "step norm grew", "overflow": "iterate norm"}[case]
    assert log.reason.startswith(reason)
    if case == "overflow":
        assert log.n_iter == 1


@pytest.mark.parametrize("order", ["A_strong", "B_strong"])
def test_iterate_shadow_gaps_match_shadow_ops(order, rng):
    a = random_monotone_affine(0.8, 4, rng)
    b = SubspaceNormalPlusScale(rng.standard_normal((2, 4)), mu=-0.2)
    if order == "B_strong":
        a, b = b, a
    gamma = 0.4
    t = dr_operator(a, b, gamma)
    log = iterate(t, rng.standard_normal(4), max_iter=200, track_shadow=True,
                  A=a, B=b, gamma=gamma)
    s0, s1 = dr_shadow_ops(a, b, gamma)
    for pt, gap in zip(log.points, log.shadow_gaps):
        want = float(np.linalg.norm(s0(pt) - s1(pt)))
        # the gap is a difference of two points: its rounding scales with them
        scale_ = max(want, float(np.linalg.norm(s0(pt))), float(np.linalg.norm(s1(pt))))
        assert abs(gap - want) <= 1e-12 * scale_


def test_iterate_rejects_bad_x0():
    from opsplit.operators import identity

    with pytest.raises(DomainError):
        iterate(identity(2), np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# rates


def test_rate_report_fb_tight():
    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    t = build_fb(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-1.0, dim=2))
    log = iterate(t, np.array([1.0, 0.0]))
    rep = rate_report(log, plan)
    assert abs(rep.empirical_rate - 0.75) < 1e-12
    assert rep.satisfied
    for r in log.ratios:
        assert abs(r - 0.75) < 1e-12


def test_rate_report_needs_steps():
    from opsplit.operators import identity

    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    log = iterate(identity(2), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        rate_report(log, plan)


def test_rate_report_divergent():
    a, b = scaling_demo()
    t = dr_operator(a, b, 0.6)
    log = iterate(t, np.array([0.0, 1.0]), max_iter=200)
    plan = plan_dr(2.0, 1.0, 0.1)
    rep = rate_report(log, plan)
    assert not rep.satisfied and "diverged" in rep.reason


def test_rate_report_dr_averaged(rng):
    mu, omega, gamma = 2.0, 1.0, 0.1
    plan = plan_dr(mu, omega, gamma)
    a = random_monotone_affine(mu, 2, rng)
    b = random_monotone_affine(-omega, 2, rng)
    t = build_dr(plan, a, b)
    log = iterate(t, rng.standard_normal(2))
    rep = rate_report(log, plan)
    assert rep.satisfied and rep.empirical_rate <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# invariants


def test_dr_zero_duality_and_asymptotic_regularity(rng):
    # 20 random affine instances: steps decrease, shadows close the gap, and
    # the resolvent of A maps the fixed point onto a zero of A + B.
    mu, omega = 1.5, 0.5
    for _ in range(20):
        gamma = rng.uniform(0.05, 0.9) * (mu - omega) / (2 * mu * omega)
        plan = plan_dr(mu, omega, gamma)
        a = random_monotone_affine(mu, 2, rng)
        b = random_monotone_affine(-omega, 2, rng)
        t = build_dr(plan, a, b)
        log = iterate(t, rng.standard_normal(2), max_iter=20_000, tol_fix=1e-12,
                      track_shadow=True, A=a, B=b, gamma=gamma)
        assert log.converged
        steps = log.step_norms
        for k in range(2, len(steps)):
            assert steps[k] <= steps[k - 1] * (1.0 + 1e-9)
        assert log.shadow_gaps[-1] <= 1e-6
        z = a.resolvent(gamma)(log.final)
        residual = np.linalg.norm(a.forward()(z) + b.forward()(z))
        assert residual <= 1e-6


def test_fb_zero_duality(rng):
    mu, omega = 2.0, 0.5
    for _ in range(5):
        plan = plan_fb("I", mu=mu, omega=omega, beta=1.0, gamma=0.3)
        a = ScaledIdentity(mu, dim=2)
        b = random_monotone_affine(-omega, 2, rng)
        t = build_fb(plan, a, b)
        log = iterate(t, rng.standard_normal(2), tol_fix=1e-12)
        assert log.converged
        x = log.final
        residual = np.linalg.norm(a.forward()(x) + b.forward()(x))
        assert residual <= 1e-6


def test_range_necessity():
    a, b = scaling_demo()
    # inside the certified interval: converges
    for gamma in (0.05, 0.1, 0.2):
        log = iterate(dr_operator(a, b, gamma), np.array([1.0, 1.0]), max_iter=20_000)
        assert log.converged
    # at and beyond 1/(2*omega): the orthogonal factor reaches -1 and below
    log = iterate(dr_operator(a, b, 0.5), np.array([0.0, 1.0]), max_iter=300)
    assert not log.converged
    for gamma in (0.55, 0.7, 0.9):
        log = iterate(dr_operator(a, b, gamma), np.array([0.0, 1.0]), max_iter=300)
        assert log.diverged


def test_csv_log_columns(tmp_path):
    a, b = scaling_demo()
    gamma = 0.1
    plan = plan_dr(2.0, 1.0, gamma)
    t = build_dr(plan, a, b)
    log = iterate(t, np.array([1.0, 1.0]), max_iter=50, x_star=np.zeros(2),
                  track_shadow=True, A=a, B=b, gamma=gamma)
    path = tmp_path / "log.csv"
    write_csv(log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,step_norm,err_norm,shadow_gap"
    assert lines[1].startswith("0,,")
    assert len(lines) == len(log.points) + 1
