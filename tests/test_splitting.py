"""Splitting plans, operator assembly, iteration driver, rate measurement."""

import csv
import json
import math
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsplit import operators as ops
from opsplit.calculus import INParams, ScaledConic
from opsplit.errors import DomainError, NumericError, StepSizeError
from opsplit.operators import Op, ScaledIdentity, SubspaceNormalPlusScale, identity, scale
from opsplit.splitting import (
    _BLOCK,
    _CSV_ROWS,
    DR_ORDERS,
    FB_CASES,
    GammaRange,
    IterLog,
    SplitPlan,
    _required_moduli,
    _row_norms,
    build_dr,
    build_fb,
    dr_operator,
    dr_shadow_ops,
    fb_operator,
    iterate,
    plan_dr,
    plan_fb,
    rate_report,
    solve,
    write_csv,
)
from opsplit.verifier import check_membership

import exact
from conftest import random_monotone_affine, step_ratios


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


def test_plan_dr_takes_an_exact_step_past_the_float_range():
    # gamma*mu is 2e308: past the float range, so the float plan refuses it,
    # but an int or Fraction product is exact and the plan is nu = 1.
    for mu, gamma in ((2, 10**308), (Fraction(2), Fraction(10**308))):
        plan = plan_dr(mu, 0, gamma)
        assert plan.nu == 1 and plan.averaged_alpha == 0.5
    with pytest.raises(DomainError, match=r"gamma\*mu overflows"):
        plan_dr(2.0, 0.0, 1e308)


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


# Per FB case: plan arguments, specs meeting the case's moduli, and specs
# that miss one of them.
_FB_MODULI_CASES = {
    "I": (dict(mu=2.0, omega=1.0, beta=1.0, gamma=0.2), (2.0, -1.0), (0.5, -1.0)),
    "II": (dict(mu=1.0, omega=0.5, beta=1.0, beta_bar=2.0, gamma=0.5), (-0.5, 1.0), (0.5, 0.5)),
    "III": (dict(mu=2.0, beta=1.0, beta_bar=3.0, gamma=1.0), (-1.0, 2.0), (0.5, 1.0)),
}


@pytest.mark.parametrize("case", sorted(_FB_MODULI_CASES))
def test_build_fb_modulus_mismatch(case):
    kwargs, (ca, cb), (bad_a, bad_b) = _FB_MODULI_CASES[case]
    plan = plan_fb(case, **kwargs)
    build_fb(plan, ScaledIdentity(ca, dim=2), ScaledIdentity(cb, dim=2))
    with pytest.raises(DomainError, match="modulus mismatch"):
        build_fb(plan, ScaledIdentity(bad_a, dim=2), ScaledIdentity(bad_b, dim=2))


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
# FB planning against the case-by-case reference

# The six-case planner as it was before cases II and III shared one formula,
# kept as the reference for every message, interval and constant.


def _reference_require(cond, msg):
    if not cond:
        raise DomainError(msg)


def _reference_fb_constants(case, mu, omega, beta, beta_bar, gamma):
    if case == "I":
        return gamma * beta / (2.0 * (1.0 - gamma * mu)), (1.0 - gamma * mu) / (1.0 - gamma * omega)
    if case == "Ib":
        return (
            gamma * beta / (2.0 * (gamma * (mu + beta) - 1.0)),
            (1.0 - gamma * (mu + beta)) / (1.0 - gamma * omega),
        )
    if case == "II":
        return gamma * beta_bar / (2.0 * (1.0 + gamma * omega)), (1.0 + gamma * omega) / (1.0 + gamma * mu)
    if case == "IIb":
        return (
            gamma * beta_bar / (2.0 * (gamma * beta_bar - gamma * omega - 1.0)),
            (1.0 + gamma * omega - gamma * beta_bar) / (1.0 + gamma * mu),
        )
    if case == "III":
        return gamma * beta_bar / (2.0 * (1.0 + gamma * beta)), (1.0 + gamma * beta) / (1.0 + gamma * mu)
    # IIIb
    return (
        gamma * beta_bar / (2.0 * (gamma * beta_bar - gamma * beta - 1.0)),
        (1.0 + gamma * beta - gamma * beta_bar) / (1.0 + gamma * mu),
    )


def _reference_plan_fb(case, mu, omega=0.0, gamma=None, beta=None, beta_bar=None):
    _reference_require(case in FB_CASES, f"unknown forward-backward case {case!r}")
    _reference_require(gamma is not None, "gamma is required")
    _reference_require(beta is not None and beta > 0.0, f"requires beta > 0, got {beta}")
    _reference_require(omega >= 0.0, f"requires omega >= 0, got {omega}")

    if case in ("I", "Ib"):
        if case == "I":
            _reference_require(mu >= omega, f"case I requires mu >= omega, got {mu} < {omega}")
            rng = GammaRange(0.0, 2.0 / (beta + 2.0 * mu))
        else:
            _reference_require(mu > omega, f"case Ib requires mu > omega, got {mu} <= {omega}")
            rng = GammaRange(2.0 / (beta + 2.0 * mu), 2.0 / (beta + mu), lo_closed=True)
    elif case in ("II", "IIb"):
        _reference_require(beta_bar is not None, "cases II/IIb require beta_bar")
        _reference_require(
            beta_bar > max(beta, mu + omega),
            f"requires beta_bar > max(beta, mu+omega) = {max(beta, mu + omega)}, got {beta_bar}",
        )
        if case == "II":
            _reference_require(mu >= omega, f"case II requires mu >= omega, got {mu} < {omega}")
            rng = GammaRange(0.0, 2.0 / (beta_bar - 2.0 * omega))
        else:
            _reference_require(mu > omega, f"case IIb requires mu > omega, got {mu} <= {omega}")
            rng = GammaRange(
                2.0 / (beta_bar - 2.0 * omega),
                2.0 / (beta_bar - mu - omega),
                lo_closed=True,
            )
    else:  # III / IIIb
        _reference_require(beta_bar is not None, "cases III/IIIb require beta_bar")
        if case == "III":
            _reference_require(mu >= beta, f"case III requires mu >= beta, got {mu} < {beta}")
            _reference_require(beta_bar > 2.0 * beta, f"requires beta_bar > 2*beta, got {beta_bar}")
            rng = GammaRange(0.0, 2.0 / (beta_bar - 2.0 * beta))
        else:
            _reference_require(mu > beta, f"case IIIb requires mu > beta, got {mu} <= {beta}")
            _reference_require(beta_bar > mu + beta, f"requires beta_bar > mu+beta, got {beta_bar}")
            rng = GammaRange(
                2.0 / (beta_bar - 2.0 * beta),
                2.0 / (beta_bar - mu - beta),
                lo_closed=True,
            )

    if not rng.contains(gamma):
        raise StepSizeError(
            f"step size {gamma} outside case {case} interval {rng}", interval=rng
        )
    nu, delta = _reference_fb_constants(case, mu, omega, beta, beta_bar, gamma)
    b_case = case.endswith("b")
    if b_case:
        # The gamma interval alone does not pin the factor into ]-1, 0] when
        # omega > 0; reject at the boundary rather than certify a non-contraction.
        if not (-1.0 < delta <= 0.0):
            raise DomainError(
                f"case {case} factor {delta} outside ]-1, 0]; "
                f"no contraction certified at gamma={gamma}"
            )
        _reference_require(0.0 < nu <= 1.0, f"internal: nu = {nu} outside ]0,1]")
        averaged_alpha = None
    else:
        _reference_require(0.0 < nu < 1.0, f"internal: nu = {nu} outside ]0,1[")
        _reference_require(0.0 < delta <= 1.0, f"internal: delta = {delta} outside ]0,1]")
        averaged_alpha = 1.0 - delta * (1.0 - nu) / (2.0 - nu)
    return SplitPlan(
        method="FB",
        case=case,
        mu=mu,
        omega=omega,
        gamma=gamma,
        gamma_range=rng,
        nu=nu,
        delta=delta,
        averaged_alpha=averaged_alpha,
        contraction=abs(delta) < 1.0,
        beta=beta,
        beta_bar=beta_bar,
    )


# Free values reach every rejection and the extremes of the float range;
# _SMALL and _POSITIVE values meet the hypotheses often enough to reach the
# constants.
_SMALL = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 1e-17, 0.0]) | st.floats(0.0, 8.0)
_POSITIVE = st.sampled_from([0.5, 1.0, 2.0, 1e-17]) | st.floats(1e-3, 8.0)
_PLAN_VALUES = _SMALL | st.floats(-1.0, 8.0) | st.floats(allow_nan=False, allow_infinity=False)


def _gamma_near_ends(draw, planner, *args, **kwargs):
    """A step size at or next to an end of ``planner``'s interval, or inside
    it; anywhere when the hypotheses fail before the interval is formed."""
    try:
        planner(*args, gamma=math.nan, **kwargs)
    except StepSizeError as exc:
        lo, hi = exc.interval.lo, exc.interval.hi
    except DomainError:
        return draw(_PLAN_VALUES)
    ends = [e for e in (lo, hi) if e is not None and math.isfinite(e)]
    near = [g for e in ends for g in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    inside = st.floats(lo, hi) if len(ends) == 2 and lo <= hi else _POSITIVE
    # both ends overflow (case Ib at a subnormal mu and beta: [inf, inf[)
    return draw(st.sampled_from(near) | inside if near else inside)


@st.composite
def _fb_inputs(draw):
    case = draw(st.sampled_from(FB_CASES))
    if draw(st.booleans()):
        mu, omega, beta = draw(_PLAN_VALUES), draw(_PLAN_VALUES), draw(_PLAN_VALUES)
        beta_bar = draw(st.none() | _PLAN_VALUES)
    else:
        # mu and beta_bar above the cases' lower bounds, some by 1e-17
        omega, beta = draw(_SMALL), draw(_POSITIVE)
        mu = max(omega, beta) + draw(_POSITIVE)
        beta_bar = mu + max(omega, beta) + draw(_POSITIVE)
    kwargs = dict(case=case, mu=mu, omega=omega, beta=beta, beta_bar=beta_bar)
    return dict(kwargs, gamma=_gamma_near_ends(draw, _reference_plan_fb, **kwargs))


@st.composite
def _dr_inputs(draw):
    mu, omega = draw(_PLAN_VALUES), draw(_PLAN_VALUES)
    lam = draw(st.sampled_from([0.5, 1e-17]) | st.floats(0.0, 1.0))
    kwargs = dict(mu=mu, omega=omega, lambda_relax=lam, order=draw(st.sampled_from(DR_ORDERS)))
    return dict(kwargs, gamma=_gamma_near_ends(draw, plan_dr, **kwargs))


def _outcome(planner, inputs):
    """The plan's JSON form, or the type and message of what it raised."""
    try:
        return repr(planner(**inputs).to_json())
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# The two inputs the reference divided by zero on, Ib at gamma*omega > 1,
# which it rejected by its factor check, and a case III plan.
@settings(max_examples=300, deadline=None)
@given(_fb_inputs())
@example(dict(case="Ib", mu=1.5, omega=1.0, beta=0.1, beta_bar=None, gamma=1.0))
@example(dict(case="Ib", mu=1.0, omega=0.0, beta=1e-17, beta_bar=None, gamma=1.0))
@example(dict(case="Ib", mu=1.5, omega=1.0, beta=0.1, beta_bar=None, gamma=1.1))
@example(dict(case="III", mu=2.0, omega=0.0, beta=1.0, beta_bar=3.0, gamma=1.0))
def test_plan_fb_matches_the_case_by_case_reference(inputs):
    want, got = _outcome(_reference_plan_fb, inputs), _outcome(plan_fb, inputs)
    if want[0] is ZeroDivisionError:
        assert got[0] is DomainError
    elif got != want:
        assert inputs["case"] == "Ib" and inputs["gamma"] * inputs["omega"] >= 1.0
        assert want[0] is DomainError and got[0] is DomainError
        assert got[1].startswith("case Ib requires gamma*omega < 1")


@settings(max_examples=300, deadline=None)
@given(st.one_of(_fb_inputs().map(lambda kw: (plan_fb, kw)),
                 _dr_inputs().map(lambda kw: (plan_dr, kw))))
@example((plan_fb, dict(case="Ib", mu=1.5, omega=1.0, beta=0.1, beta_bar=None, gamma=1.0)))
@example((plan_fb, dict(case="Ib", mu=1.0, omega=0.0, beta=1e-17, beta_bar=None, gamma=1.0)))
# 1 - lambda rounds to 1 and mu - omega - gamma*mu*omega to 0
@example((plan_dr, dict(mu=5.0, omega=4.9, gamma=0.004081632653061209, lambda_relax=1e-17,
                        order="A_strong")))
# mu*omega underflows to 0
@example((plan_dr, dict(mu=0.3, omega=5e-324, gamma=1.0, lambda_relax=0.5, order="A_strong")))
# gamma*omega rounds to 1, in either order: the planner's gamma*omega != 1 guard
@example((plan_dr, dict(mu=1e300, omega=1.94633949057541e-104, gamma=5.1378498193260365e103,
                        lambda_relax=1e-17, order="B_strong")))
@example((plan_dr, dict(mu=4.5918183751375215e111, omega=2.882132678302105e93,
                        gamma=3.469652898107073e-94, lambda_relax=1e-17, order="A_strong")))
# gamma*mu overflows: at omega = 0 the interval is unbounded, and when mu*omega
# is subnormal its end is inf
@example((plan_dr, dict(mu=2.0, omega=0.0, gamma=1e308, lambda_relax=0.5, order="A_strong")))
@example((plan_dr, dict(mu=2.0, omega=1e-323, gamma=1.7976931348623157e308,
                        lambda_relax=1e-3, order="A_strong")))
def test_planners_raise_only_domain_errors(call):
    planner, inputs = call
    try:
        plan = planner(**inputs)
    except DomainError:
        return
    constants = [plan.nu, plan.delta] + [plan.averaged_alpha] * (plan.averaged_alpha is not None)
    assert all(math.isfinite(c) for c in constants), plan
    assert plan.nu > 0.0, plan


# ---------------------------------------------------------------------------
# DR constants against their exact values
#
# plan_dr's nu is the DR path's only source of constants. The paper's second
# route to it, the conic composition of the two reflected resolvents, is
# checked here in exact arithmetic; in floats it loses about 8 digits as
# a1*a2 -> 1, where omega/mu -> 1.

_NEAR_ONE = st.floats(0.99, 0.999)


@st.composite
def _dr_valid(draw, ratios=st.just(0.0) | st.floats(0.01, 0.999) | _NEAR_ONE,
              lambdas=st.sampled_from([1e-3, 0.5]) | st.floats(1e-3, 0.999)):
    """Inputs ``plan_dr`` accepts, where every float step rounds relatively
    (no underflow or overflow): ``mu`` in [1e-2, 1e2], ``omega = mu*ratio``
    and ``gamma`` a share of at least 1e-6 of the interval's end, or its last
    float."""
    mu = draw(st.floats(1e-2, 1e2))
    omega, lam = mu * draw(ratios), draw(lambdas)
    try:
        plan_dr(mu, omega, math.nan, lam)
    except StepSizeError as exc:
        hi = exc.interval.hi
    if hi is None:
        gamma = draw(st.floats(1e-3, 1e3))
    else:
        below = math.nextafter(hi, 0.0)
        gamma = draw(st.just(below) | st.floats(1e-6, 1.0).map(lambda f: min(hi * f, below)))
    return dict(mu=mu, omega=omega, gamma=gamma, lambda_relax=lam,
                order=draw(st.sampled_from(DR_ORDERS)))


@settings(max_examples=200, deadline=None)
@given(_dr_valid())
def test_dr_nu_is_the_conic_composition_exactly(inputs):
    nu = exact.dr_nu(inputs["mu"], inputs["omega"], inputs["gamma"])
    for order in DR_ORDERS:
        rho_a, rho_b = _required_moduli(order, inputs["mu"], inputs["omega"])
        a1 = exact.reflected_conic(inputs["gamma"], rho_a)
        a2 = exact.reflected_conic(inputs["gamma"], rho_b)
        assert exact.conic_alpha(a1, a2) == nu


# The rounding bound of plan_dr's constants, with u = 2**-53. The inputs are
# exact, so d = fl(mu - omega) = x(1 + e0) with |e0| <= u whatever the
# conditioning of mu - omega (Sterbenz makes it exact where omega >= mu/2).
# With y = gamma*mu*omega, t = fl(fl(gamma*mu)*omega) = y(1 + th) with
# |th| <= 2u + u**2, and z = x - y > 0 the exact denominator. The subtraction
# d - t has condition number (x + y)/z = 2nu* - 1, but d is also the
# numerator, so its error cancels but for y's share y/z = nu* - 1:
#     d/(d - t) = nu* (1 + e0)/(1 + (x e0 - y th)/z),
# whose relative error is (y/z)|th - e0| <= 3u(nu* - 1) to first order.
# Rounding d - t and the quotient adds 2u, so
#     |nu - nu*| <= (3(nu* - 1) + 2) u nu*,
# and averaged_alpha = fl(lambda*nu) adds one more u. The terms of second
# order, of size (nu* u)**2, are covered by the factor 1 + 2**-30 while nu*
# is at most about 1/lambda <= 1e3 (a gamma at the interval's last float can
# lie a few ulps past the exact end).
_U = Fraction(1, 2**53)
_SLACK = 1 + Fraction(1, 2**30)


@settings(max_examples=300, deadline=None)
@given(_dr_valid())
def test_dr_constants_lie_within_their_rounding_bound(inputs):
    plan = plan_dr(**inputs)
    nu = exact.dr_nu(inputs["mu"], inputs["omega"], inputs["gamma"])
    rel = (3 * (nu - 1) + 2) * _U * _SLACK
    assert abs(Fraction(plan.nu) - nu) <= rel * nu
    alpha = Fraction(inputs["lambda_relax"]) * nu
    assert abs(Fraction(plan.averaged_alpha) - alpha) <= (rel + _U) * _SLACK * alpha


# Near-equal moduli, at the interval's last float and inside it: where the
# float conic route to nu loses about 8 digits.
_NEAR_EQUAL = dict(mu=0.01972509537269139, omega=0.019695644106618136, lambda_relax=0.5)


@settings(max_examples=200, deadline=None)
@given(_dr_valid(), st.just(0.0) | st.floats(0.0, 2.0), st.just(0.0) | st.floats(0.0, 2.0))
@example(dict(_NEAR_EQUAL, gamma=math.nextafter(0.03790396774326983, 0.0), order="A_strong"),
         0.0, 0.0)
@example(dict(_NEAR_EQUAL, gamma=0.0018772050770655114, order="B_strong"), 0.0, 0.0)
@example(dict(mu=9.36020915299378, omega=9.240117270596512, gamma=0.0013871266138155772,
              lambda_relax=1e-3, order="A_strong"), 0.0, 0.0)
def test_dr_disk_from_stronger_specs_lies_inside_the_planned_disk(inputs, extra_a, extra_b):
    plan = plan_dr(**inputs)
    mu, lam, gamma = inputs["mu"], inputs["lambda_relax"], inputs["gamma"]
    rho_a, rho_b = _required_moduli(plan.order, mu, inputs["omega"])
    a, b = ScaledIdentity(rho_a + extra_a * mu, dim=2), ScaledIdentity(rho_b + extra_b * mu, dim=2)
    assert a.rho >= rho_a and b.rho >= rho_b
    # A scaled identity states its modulus exactly (rho_error 0), so build_dr
    # accepts it only at or above the plan's: one ulp below is refused.
    for low_a, low_b in ((math.nextafter(rho_a, -math.inf), b.rho),
                         (a.rho, math.nextafter(rho_b, -math.inf))):
        with pytest.raises(DomainError, match="modulus mismatch"):
            build_dr(plan, ScaledIdentity(low_a, dim=2), ScaledIdentity(low_b, dim=2))
    t = build_dr(plan, a, b)
    assert t.certificate == INParams(1.0 - plan.averaged_alpha, plan.averaged_alpha)
    # The planned disk INParams(1 - lam nu, lam nu) is the relaxed nu-conic disk.
    center, radius = exact.relaxed_conic_disk(
        lam, exact.dr_nu(mu, inputs["omega"], gamma))
    spec_nu = exact.conic_alpha(exact.reflected_conic(gamma, a.rho),
                                exact.reflected_conic(gamma, b.rho))
    spec_center, spec_radius = exact.relaxed_conic_disk(lam, spec_nu)
    assert abs(spec_center - center) + spec_radius <= radius


def test_modulus_check_forgives_an_affine_spec_only_its_rounding_bound():
    # An affine spec's rho comes from an eigensolver, so U diag U^T with
    # modulus exactly 2 may report a rho a few ulps below 2; its rho_error
    # absorbs that, and nothing more.
    plan = plan_dr(2.0, 1.0, gamma=0.1)
    rng = np.random.default_rng(3)
    for d in (2, 3, 16):
        b = ScaledIdentity(-1.0, dim=d)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = ops.Affine(q @ np.diag(np.r_[2.0, rng.uniform(2.0, 6.0, d - 1)]) @ q.T)
            assert abs(a.rho - 2.0) <= a.rho_error < 1e-12
            build_dr(plan, a, b)
    # A diagonal matrix states its modulus exactly, so 1e-13 short is refused.
    a = ops.Affine(np.diag([2.0 - 1e-13, 4.0]))
    assert a.rho == 2.0 - 1e-13 and a.rho_error < 1e-13
    with pytest.raises(DomainError, match="modulus mismatch: A must be 2.0-monotone"):
        build_dr(plan, a, ScaledIdentity(-1.0, dim=2))


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


@pytest.mark.parametrize("step", [lambda x: np.append(x, 0.0), lambda x: x[None, :],
                                  lambda x: float(x[0])])
def test_iterate_rejects_a_map_that_changes_the_shape(step):
    # iterate calls T.fn on T's own output and checks each block's shape once
    with pytest.raises(DomainError, match=r"^T must map \(2,\) vectors to \(2,\) vectors$"):
        iterate(Op(step, 2), np.array([1.0, 2.0]), max_iter=5)


def test_iterate_identity_stops_immediately():
    from opsplit.operators import identity

    log = iterate(identity(2), np.array([1.0, 2.0]))
    assert log.converged and log.n_iter == 1
    assert np.allclose(log.final, [1.0, 2.0])
    # the first step is exactly 0, which a zero tolerance accepts
    assert iterate(identity(2), np.array([1.0, 2.0]), tol_fix=0.0, max_iter=5).converged


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


def _dr_instances(rng):
    # (A, B, order): a dense strongly monotone A against each kind of
    # weakly monotone B, at d = 2, 5 and 16, and the same pairs swapped
    mu, omega = 2.0, 1.0
    for d in (2, 5, 16):
        c = rng.standard_normal((d, d))
        weak = [
            ops.QuadraticGradient(-omega * np.eye(d) + c.T @ c / (4 * d), rng.standard_normal(d)),
            ScaledIdentity(-omega, dim=d),
            SubspaceNormalPlusScale(rng.standard_normal((max(1, d // 2), d)), mu=-omega),
            ops.Affine(-omega * np.eye(d) + (c - c.T), rng.standard_normal(d)),
        ]
        for b in weak:
            a = random_monotone_affine(mu, d, rng)
            yield a, b, "A_strong"
            yield b, a, "B_strong"


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
def test_dr_shadow_gap_is_the_step_over_two_lambda(lam):
    # With T = (1 - lam) Id + lam R_B R_A and R = 2J - Id,
    #   x - T x = lam (x - R_B R_A x) = 2 lam (J_A x - J_B R_A x),
    # so shadow_gaps[k] = step_norms[k] / (2 lam) in exact arithmetic.  The
    # two sides are computed along different routes (dr_operator against
    # dr_shadow_ops), each a fixed chain of affine maps (resolvents,
    # reflections, the relaxation) applied to x_k.  An affine map in floats
    # errs by at most about d eps (|M| |x| + |b|) per entry, and each map
    # here has norm and offset O(1), so both sides err by C d eps (1 + |x_k|)
    # with C a product of these norms, of order one; dividing the step by
    # 2 lam >= 0.6 scales its part by at most 5/3.  On these 72 runs the
    # largest ratio to d eps (1 + |x_k|) is 0.76 (at lam = 0.3); the test
    # allows 4.  A transcription error in either route (J_A for R_A, swapped
    # factors or relaxation weights) leaves a difference of the order of the
    # step.
    rng = np.random.default_rng(20)
    eps = np.finfo(float).eps
    mu, omega = 2.0, 1.0
    for a, b, order in _dr_instances(rng):
        d = a.dim
        gamma = rng.uniform(0.05, 0.95) * (1.0 - lam) * (mu - omega) / (mu * omega)
        t = build_dr(plan_dr(mu, omega, gamma, lam, order=order), a, b)
        log = iterate(t, 10.0 * rng.standard_normal(d), max_iter=2000, track_shadow=True,
                      A=a, B=b, gamma=gamma)
        assert len(log.shadow_gaps) == len(log.step_norms) + 1
        for k, step in enumerate(log.step_norms):
            bound = 4.0 * eps * d * (1.0 + np.linalg.norm(log.points[k]))
            assert abs(log.shadow_gaps[k] - step / (2.0 * lam)) <= bound, (d, order, k)


def _nan_on_call(n):
    calls = [0]

    def fn(x):
        calls[0] += 1
        return np.full_like(x, np.nan) if calls[0] == n else 0.9 * x
    return Op(fn, 2)


@pytest.mark.parametrize("case", ["converge", "oscillate", "norm", "growth",
                                  "overflow", "large-x0", "nan", "inf"])
def test_iterate_stopping_matches_reference_loop(case):
    a, b = scaling_demo()

    def make():
        return {
            "converge": lambda: (dr_operator(a, b, 0.1), [1.0, 1.0]),
            "oscillate": lambda: (dr_operator(a, b, 0.5), [0.0, 1.0]),
            "norm": lambda: (scale(1.5, identity(2)), [1.0, -2.0]),
            # ||x_51|| = 1.05^51 ||x0|| stays far below the norm cap
            "growth": lambda: (scale(1.05, identity(2)), [1.0, -2.0]),
            # finite entries whose squares overflow: diverged, not a numeric failure
            "overflow": lambda: (scale(1e200, identity(2)), [1.0, 1.0]),
            # the square of every iterate and step norm of the run overflows
            "large-x0": lambda: (dr_operator(a, b, 0.1), [1e200, -1e200]),
            "nan": lambda: (_nan_on_call(7), [1.0, 2.0]),
            "inf": lambda: (scale(1e300, identity(2)), [1e10, 1.0]),
        }[case]()

    with np.errstate(over="ignore"):
        try:
            want = _unblocked_iterate(*make(), max_iter=300)
        except NumericError as exc:
            with pytest.raises(NumericError) as got:
                iterate(*make(), max_iter=300)
            assert got.value.iteration == exc.iteration
            return
        log = iterate(*make(), max_iter=300)
    _assert_same_log(log, want)
    reason = {"converge": "", "oscillate": "no convergence", "norm": "iterate norm",
              "growth": "step norm grew", "overflow": "iterate norm",
              "large-x0": "no convergence"}[case]
    assert log.reason.startswith(reason)
    if case == "overflow":
        assert log.n_iter == 1
    if case == "growth":
        assert log.n_iter == 51


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


@pytest.mark.parametrize("order", ["A_strong", "B_strong"])
def test_tracked_dr_solve_inverts_each_dense_spec_once(order, rng, monkeypatch):
    # build_dr and the shadow maps share each spec's resolvent at gamma.
    d, gamma = 6, 0.1
    a = random_monotone_affine(2.0, d, rng)
    c = rng.standard_normal((d, d))
    b = ops.QuadraticGradient(-np.eye(d) + c.T @ c / (4 * d), rng.standard_normal(d))
    if order == "B_strong":
        a, b = b, a
    x0 = rng.standard_normal(d)

    def fresh(spec):
        return type(spec)(spec.matrix.copy(), spec.offset.copy())

    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(m) or inv(m))
    t = build_dr(plan_dr(2.0, 1.0, gamma, order=order), a, b)
    log = iterate(t, x0, track_shadow=True, A=a, B=b, gamma=gamma)
    assert len(calls) == 2
    assert a.resolvent(gamma).certificate == fresh(a).resolvent(gamma).certificate
    assert b.resolvent(gamma).certificate == fresh(b).resolvent(gamma).certificate
    # Separate specs for the operator and the shadow maps (4 inversions) give
    # the same bits.
    fa, fb = fresh(a), fresh(b)
    want = iterate(build_dr(plan_dr(2.0, 1.0, gamma, order=order), fa, fb), x0,
                   track_shadow=True, A=fresh(fa), B=fresh(fb), gamma=gamma)
    assert log.converged and log.n_iter == want.n_iter
    assert log.shadow_gaps == want.shadow_gaps
    assert log.step_norms == want.step_norms


# ---------------------------------------------------------------------------
# blocked iteration against the unblocked loop


def _unblocked_iterate(T, x0, max_iter=10_000, tol_fix=1e-10, x_star=None, gap=None,
                       divergence_factor=1e6, growth_window=50):
    """``iterate`` before its bookkeeping was blocked: every norm, error and
    shadow gap taken one step at a time, the log filled as the loop goes.
    ``gap`` is the fused shadow-gap op that ``track_shadow`` builds."""
    def norm(v):
        # rescaled by the largest |entry| where the square overflows on finite entries
        n = math.sqrt(v.dot(v))
        if math.isinf(n) and np.isfinite(v).all():
            s = float(np.abs(v).max())
            n = s * math.sqrt((v / s).dot(v / s))
        return n

    x = np.asarray(x0, dtype=float)
    log = IterLog(err_norms=[] if x_star is not None else None,
                  shadow_gaps=[] if gap is not None else None)
    target = None if x_star is None else np.asarray(x_star, dtype=float)
    x_norm = norm(x)
    norm_cap = divergence_factor * (1.0 + x_norm)

    def record(pt):
        log.points.append(pt)
        if target is not None:
            log.err_norms.append(float(np.linalg.norm(pt - target)))
        if gap is not None:
            log.shadow_gaps.append(norm(gap(pt)))

    record(x)
    growth = 0
    last_step = math.inf
    for k in range(1, max_iter + 1):
        x_new = T(x)
        new_norm = norm(x_new)
        if not math.isfinite(new_norm) and not np.all(np.isfinite(x_new)):
            raise NumericError(f"non-finite iterate at iteration {k}", iteration=k)
        step = norm(x_new - x)
        log.step_norms.append(step)
        record(x_new)
        log.n_iter = k
        if step <= tol_fix * (1.0 + x_norm):
            log.converged = True
            break
        growth = growth + 1 if step > last_step else 0
        last_step = step
        x, x_norm = x_new, new_norm
        if x_norm > norm_cap:
            log.diverged = True
            log.reason = f"iterate norm exceeded {norm_cap:g} at iteration {k}"
            break
        if growth >= growth_window:
            log.diverged = True
            log.reason = f"step norm grew for {growth_window} consecutive iterations"
            break
    if not log.converged and not log.diverged:
        log.reason = f"no convergence within {max_iter} iterations"
    return log


def _assert_same_log(got, want):
    """Everything bit-equal except shadow gaps, which the blocked loop takes
    as one batched product and so may differ in the last bits."""
    assert (got.n_iter, got.converged, got.diverged, got.reason) == (
        want.n_iter, want.converged, want.diverged, want.reason)
    assert got.step_norms == want.step_norms
    assert got.err_norms == want.err_norms
    assert len(got.points) == len(want.points)
    assert all(np.array_equal(a, b) for a, b in zip(got.points, want.points))
    if want.shadow_gaps is None:
        assert got.shadow_gaps is None
        return
    assert len(got.shadow_gaps) == len(want.shadow_gaps)
    for pt, g, w in zip(want.points, got.shadow_gaps, want.shadow_gaps):
        assert abs(g - w) <= 1e-12 * (1.0 + float(np.linalg.norm(pt)))


def _counted(fn, dim=2):
    """A fresh ``Op`` returning ``fn(call_number, x)`` and its call counter."""
    calls = [0]

    def step(x):
        calls[0] += 1
        return fn(calls[0], x)
    return Op(step, dim), calls


def _converge_at(k):
    # oscillates with a constant step, then repeats x (a zero step) at call k
    return _counted(lambda c, x: x if c >= k else -x)


STOP_AT = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK]


@pytest.mark.parametrize("k", STOP_AT)
@pytest.mark.parametrize("kind", ["converge", "norm", "growth"])
def test_blocked_stop_matches_unblocked_loop(kind, k):
    x0 = np.array([1.0, 0.0])
    if kind == "converge":
        make = lambda: _converge_at(k)[0]
    elif kind == "norm":
        # oscillates with a constant step, then jumps past the cap 2e6 at call k
        make = lambda: _counted(lambda c, x: 1e7 * x if c == k else -x)[0]
    else:
        # steps shrink until call k - 50, then grow from call k - 49 on, so
        # the counter reaches 50 at step k
        make = lambda: _counted(lambda c, x: 0.9 * x if c < k - 50 else 1.1 * x)[0]
    log = iterate(make(), x0, max_iter=5 * _BLOCK)
    _assert_same_log(log, _unblocked_iterate(make(), x0, max_iter=5 * _BLOCK))
    assert log.n_iter == k
    assert log.converged == (kind == "converge") and log.diverged == (kind != "converge")


@pytest.mark.parametrize("max_iter", [0, 1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 7,
                                      3 * _BLOCK - 5, np.int64(_BLOCK + 2)])
def test_blocked_max_iter_not_a_multiple_of_block(max_iter):
    t, calls = _counted(lambda c, x: -x)
    log = iterate(t, np.array([1.0, 2.0]), max_iter=max_iter)
    _assert_same_log(log, _unblocked_iterate(_counted(lambda c, x: -x)[0],
                                             np.array([1.0, 2.0]), max_iter=max_iter))
    assert log.n_iter == max_iter and calls[0] == max_iter
    assert log.reason == f"no convergence within {max_iter} iterations"


@pytest.mark.parametrize("start", [_BLOCK - 10, 2 * _BLOCK - 49, 2 * _BLOCK - 1])
def test_blocked_growth_run_spans_block_boundary(start):
    def fn(c, x):
        return 0.9 * x if c < start else 1.1 * x

    log = iterate(_counted(fn)[0], np.array([1.0, -1.0]), max_iter=5 * _BLOCK)
    _assert_same_log(log, _unblocked_iterate(_counted(fn)[0], np.array([1.0, -1.0]),
                                             max_iter=5 * _BLOCK))
    assert log.reason.startswith("step norm grew")
    # the run of growing steps starts in one block and ends in the next
    assert (log.n_iter - 50) // _BLOCK < (log.n_iter - 1) // _BLOCK


@pytest.mark.parametrize("resets", [(_BLOCK - 24,), (_BLOCK - 24, _BLOCK + 1)])
def test_blocked_growth_counter_carries_across_blocks(resets):
    # steps grow by 1.05 except at the reset calls, whose smaller step sets
    # the counter back to 0: it is carried over the first block boundary, and
    # a reset just past that boundary restarts it
    def fn(c, x):
        return 1.01 * x if c in resets else 1.05 * x

    log = iterate(_counted(fn)[0], np.array([1.0, 0.0]), max_iter=5 * _BLOCK)
    _assert_same_log(log, _unblocked_iterate(_counted(fn)[0], np.array([1.0, 0.0]),
                                             max_iter=5 * _BLOCK))
    assert log.diverged and log.n_iter == resets[-1] + 50


@pytest.mark.parametrize("n", [1, _BLOCK // 2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_blocked_nan_raises_at_the_same_iteration(n):
    with pytest.raises(NumericError) as want:
        _unblocked_iterate(_nan_on_call(n), np.array([1.0, 2.0]), max_iter=5 * _BLOCK)
    with pytest.raises(NumericError) as got:
        iterate(_nan_on_call(n), np.array([1.0, 2.0]), max_iter=5 * _BLOCK)
    assert got.value.iteration == want.value.iteration == n
    assert str(got.value) == str(want.value)


def _raising_after(k, stop):
    """Oscillates; at call ``k`` converges when ``stop`` holds; raises on
    every call after ``k``."""
    def fn(c, x):
        if c > k:
            raise RuntimeError(f"call {c}")
        return x if (stop and c == k) else -x
    return _counted(fn)


@pytest.mark.parametrize("k", [1, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 3])
def test_T_raising_after_the_stop_does_not_escape(k):
    t, calls = _raising_after(k, stop=True)
    log = iterate(t, np.array([1.0, 2.0]), max_iter=5 * _BLOCK)
    assert log.converged and log.n_iter == k and len(log.points) == k + 1
    assert calls[0] <= k + 1  # the first raising call ends the block


@pytest.mark.parametrize("k", [0, _BLOCK // 2, _BLOCK, _BLOCK + 3])
def test_T_raising_before_any_stop_is_reraised(k):
    with pytest.raises(RuntimeError, match=f"call {k + 1}$"):
        iterate(_raising_after(k, stop=False)[0], np.array([1.0, 2.0]), max_iter=5 * _BLOCK)
    # a non-finite iterate before the raising call is reported first
    def fn(c, x):
        if c == k + 2:
            raise RuntimeError("late")
        return np.full_like(x, np.nan) if c == k + 1 else -x
    with pytest.raises(NumericError) as got:
        iterate(_counted(fn)[0], np.array([1.0, 2.0]), max_iter=5 * _BLOCK)
    assert got.value.iteration == k + 1


def test_blocked_extra_steps_emit_no_warnings():
    # the run stops at step 1; the steps computed past it overflow to inf
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        log = iterate(scale(1e100, identity(2)), np.array([1.0, 1.0]), max_iter=_BLOCK)
    assert log.diverged and log.n_iter == 1 and len(log.points) == 2


def test_blocked_err_norms_bit_equal(rng):
    for d in (1, 3, 16):
        a = random_monotone_affine(2.0, d, rng)
        b = random_monotone_affine(-1.0, d, rng)
        t = build_dr(plan_dr(2.0, 1.0, 0.1), a, b)
        x_star = rng.standard_normal(d)
        x0 = rng.standard_normal(d)
        gap = ops.difference(*dr_shadow_ops(a, b, 0.1))
        log = iterate(t, x0, x_star=x_star, track_shadow=True, A=a, B=b, gamma=0.1)
        want = _unblocked_iterate(t, x0, x_star=x_star, gap=gap)
        _assert_same_log(log, want)
        assert log.converged and log.n_iter > _BLOCK
        assert log.err_norms == [float(np.linalg.norm(p - x_star)) for p in log.points]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    # up to 1.5, so that some runs pass the norm cap before 50 growing steps
    factor=st.floats(0.5, 1.5),
    max_iter=st.integers(0, 3 * _BLOCK),
    tol_fix=st.sampled_from([1e-10, 1e-4, 1e-2]),
    with_star=st.booleans(),
    with_gap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_iterate_matches_unblocked_loop(d, factor, max_iter, tol_fix, with_star,
                                                with_gap, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    t = ops._affine(d, factor * q, rng.standard_normal(d))
    x0 = rng.standard_normal(d)
    x_star = rng.standard_normal(d) if with_star else None
    kw = {"max_iter": max_iter, "tol_fix": tol_fix, "x_star": x_star}
    gap, shadow = None, {}
    if with_gap:
        a = random_monotone_affine(0.5, d, rng)
        b = random_monotone_affine(-0.2, d, rng)
        gap = ops.difference(*dr_shadow_ops(a, b, 0.3))
        shadow = {"track_shadow": True, "A": a, "B": b, "gamma": 0.3}
    _assert_same_log(iterate(t, x0, **kw, **shadow), _unblocked_iterate(t, x0, gap=gap, **kw))


def test_iterate_from_a_norm_whose_square_overflows():
    # ||x0||^2 = 1e400: the norms used to read as inf, and the stop test
    # step <= tol*(1 + inf) passed at iteration 1
    plan = plan_fb("I", mu=2, omega=1, beta=1, gamma=0.2)
    t = build_fb(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-1.0, dim=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = iterate(t, [1e200, 0.0])
    assert log.converged and log.n_iter > 1000
    assert np.linalg.norm(log.final - iterate(t, [1.0, 0.0]).final) <= 1e-6
    assert log.step_norms[0] == 0.25e200  # the first step is x0/4


def test_row_norms_rescale_only_overflowing_rows():
    m = np.array([[3.0, 4.0], [1e200, 1e200], [1e308, 1e308], [1.5e308, 1.5e308],
                  [math.nan, 1.0], [math.inf, 0.0], [0.1, 0.2]])
    with np.errstate(all="ignore"):
        got = _row_norms(m)
    assert got[0] == 5.0 and got[6] == math.sqrt(m[6].dot(m[6]))
    for i in (1, 2):
        assert got[i] == pytest.approx(math.hypot(*m[i]), rel=1e-15)
    assert math.isinf(got[3]) and math.isnan(got[4]) and math.isinf(got[5])


def test_iterate_rejects_bad_x0():
    from opsplit.operators import identity

    with pytest.raises(DomainError):
        iterate(identity(2), np.array([1.0, 2.0, 3.0]))


# Each of these used to run: a nan x0 failed at the first step as a
# NumericError that blamed T, a nan x_star logged nan errors, a negative
# max_iter or a tol_fix below 0 (or nan) reported "no convergence", and a
# float max_iter failed in range() with a TypeError.
@pytest.mark.parametrize("x0, kwargs, message", [
    ([math.nan, 0.0], {}, "x0 must be finite"),
    ([1.0, -math.inf], {}, "x0 must be finite"),
    ([1.0, 2.0], dict(x_star=[math.nan, 0.0], max_iter=12), "x_star must be finite"),
    ([1.0, 2.0], dict(max_iter=-3), "max_iter must be >= 0, got -3"),
    ([1.0, 2.0], dict(max_iter=2.5), "max_iter must be an integer, got 2.5"),
    ([1.0, 2.0], dict(max_iter=True), "max_iter must be an integer, got True"),
    ([1.0, 2.0], dict(max_iter="1"), "max_iter must be an integer, got '1'"),
    ([1.0, 2.0], dict(max_iter=None), "max_iter must be an integer, got None"),
    ([1.0, 2.0], dict(tol_fix=-1.0, max_iter=5), "tol_fix must be a finite number >= 0, got -1.0"),
    ([1.0, 2.0], dict(tol_fix=math.nan, max_iter=5), "tol_fix must be a finite number >= 0, got nan"),
    ([1.0, 2.0], dict(tol_fix=math.inf), "tol_fix must be a finite number >= 0, got inf"),
    # a norm past the float range used to read as inf and pass the stop test
    ([1.5e308, 1.5e308], {},
     "x0's norm inf is too large: the divergence cap 1e6*(1 + ||x0||) overflows"),
    ([1e303, 0.0], {},
     "x0's norm 1e+303 is too large: the divergence cap 1e6*(1 + ||x0||) overflows"),
], ids=["x0-nan", "x0-inf", "x-star-nan", "max-iter-negative", "max-iter-float",
        "max-iter-bool", "max-iter-str", "max-iter-none", "tol-negative", "tol-nan", "tol-inf",
        "x0-past-float-range", "x0-norm-past-cap"])
def test_iterate_rejects_bad_solver_inputs(x0, kwargs, message):
    with pytest.raises(DomainError) as e:
        iterate(identity(2), x0, **kwargs)
    assert str(e.value) == message


@pytest.mark.parametrize("x_star", [np.zeros(3), np.zeros(1), np.zeros((2, 1)), 0.0])
def test_iterate_rejects_an_x_star_of_another_shape(x_star):
    # (1,), (2, 1) and scalar targets used to broadcast against the iterates
    with pytest.raises(DomainError, match=r"x_star must have shape \(2,\)"):
        iterate(identity(2), np.array([1.0, 2.0]), x_star=x_star)


# ---------------------------------------------------------------------------
# rates


def test_rate_report_fb_tight():
    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    t = build_fb(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-1.0, dim=2))
    log = iterate(t, np.array([1.0, 0.0]))
    rep = rate_report(log, plan)
    assert abs(rep.empirical_rate - 0.75) < 1e-12
    assert rep.satisfied
    for r in step_ratios(log):
        assert abs(r - 0.75) < 1e-12


def test_rate_report_needs_steps():
    from opsplit.operators import identity

    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    log = iterate(identity(2), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        rate_report(log, plan)


def test_rate_report_needs_a_converged_run_or_a_known_fixed_point():
    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    t = build_fb(plan, ScaledIdentity(2.0, dim=2), ScaledIdentity(-1.0, dim=2))
    log = iterate(t, np.array([1.0, 0.0]), max_iter=12)
    assert not log.converged and not log.diverged and len(log.step_norms) == 12
    with pytest.raises(DomainError) as e:
        rate_report(log, plan)
    assert str(e.value) == "rate report needs a converged run or a known fixed point"


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
# solve: the pipeline the solve-* commands run


def _solve_config(method, gamma, force=False, max_iter=10_000, **fields):
    """The resolved configuration ``cli`` builds for ``_solve_specs``: the
    scaling demo for DR, ``2*Id`` forward against ``-Id`` for FB."""
    a = ({"kind": "subspace_normal", "basis": [[1.0, 0.0]], "mu": 2.0} if method == "DR"
         else {"kind": "scaled_identity", "c": 2.0, "dim": 2})
    inst = {"A": a, "B": {"kind": "scaled_identity", "c": -1.0, "dim": 2},
            "mu": 2.0, "omega": 1.0, "beta": 1.0, **fields}
    config = {"instance": inst, "method": method, "gamma": gamma, "x0": "0,1",
              "max_iter": max_iter, "tol": 1e-10, "force": force}
    config.update({"lambda": 0.5, "order": "A_strong"} if method == "DR" else {"case": "I"})
    return config


def _solve_specs(config):
    from opsplit.cli import spec_from_json

    return spec_from_json(config["instance"]["A"]), spec_from_json(config["instance"]["B"])


def test_solve_rejected_plan_returns_the_record_and_no_log():
    config = _solve_config("DR", 0.6)
    record, log = solve(*_solve_specs(config), config, np.array([0.0, 1.0]), None)
    assert log is None
    assert record == {"config": config, "valid_interval": "]0.0, 0.25[",
                      "error": "step size 0.6 outside certified interval ]0.0, 0.25["}
    # a rejection without a step-size interval (case I needs mu >= omega)
    config = _solve_config("FB", 0.2, mu=0.5)
    record, log = solve(*_solve_specs(config), config, np.array([0.0, 1.0]), None)
    assert log is None and sorted(record) == ["config", "error"]


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("method,field,message", [
    ("DR", {"order": "sideways"}, "unknown order 'sideways'"),
    ("FB", {"case": "V"}, "unknown forward-backward case 'V'"),
])
def test_solve_rejects_an_unknown_order_or_case_before_planning(method, field, message, force):
    # gamma = 0.6 is outside both intervals: the check must come before the
    # plan's rejection record and before the unplanned operator under force
    config = {**_solve_config(method, 0.6, force=force), **field}
    with pytest.raises(DomainError, match=message):
        solve(*_solve_specs(config), config, np.array([0.0, 1.0]), None)


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("x_star, message", [
    ([0.0, 0.0, 0.0], "x_star must have shape (2,), got (3,)"),
    ([math.nan, 0.0], "x_star must be finite"),
], ids=["shape", "nan"])
def test_solve_rejects_a_bad_x_star_before_planning(x_star, message, force):
    # gamma = 0.6 is outside the DR interval, and the order is unknown: solve
    # used to report the order; past that check, the plan's rejection record
    # (or, under force, a run of the unplanned operator) came first
    config = {**_solve_config("DR", 0.6, force=force), "order": "sideways"}
    with pytest.raises(DomainError) as e:
        solve(*_solve_specs(config), config, np.array([0.0, 1.0]), x_star)
    assert str(e.value) == message


@pytest.mark.parametrize("method,gamma", [("DR", 0.6), ("FB", 0.6)])
def test_solve_forced_run_has_no_plan_and_no_rate(method, gamma):
    config = _solve_config(method, gamma, force=True, max_iter=300)
    summary, log = solve(*_solve_specs(config), config, np.array([0.0, 1.0]), np.zeros(2))
    assert summary["config"] is config
    assert summary["plan"] is None and summary["rate"] is None
    assert summary["result"]["iterations"] == log.n_iter > 10
    assert summary["result"]["final"] == log.final.tolist()


def test_solve_rates_a_cut_off_run_from_its_known_fixed_point():
    # Stopped by max_iter before it converges, so only x_star (which gives
    # the log its err_norms) lets the run be rated.
    config = _solve_config("DR", 0.1, max_iter=12)
    a, b = _solve_specs(config)
    x0 = np.array([1.0, 2.0])
    summary, log = solve(a, b, config, x0, np.zeros(2))
    assert not (log.converged or log.diverged) and log.n_iter == 12
    assert len(log.err_norms) == len(log.shadow_gaps) == 13
    assert summary["rate"] == asdict(rate_report(log, plan_dr(2.0, 1.0, 0.1)))
    assert summary["plan"] == plan_dr(2.0, 1.0, 0.1).to_json()
    unrated, log = solve(a, b, config, x0, None)
    assert log.err_norms is None and unrated["rate"] is None


@pytest.mark.parametrize("method,gamma,force,code", [
    ("DR", 0.1, False, 0), ("FB", 0.2, False, 0), ("DR", 0.6, True, 0), ("DR", 0.6, False, 2),
])
def test_solve_summary_is_the_cli_stdout(method, gamma, force, code, tmp_path, capsys):
    from opsplit.cli import _dump, main

    config = _solve_config(method, gamma, force=force, max_iter=300)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(config["instance"]))
    args = [f"solve-{method.lower()}", "--instance", str(path), "--gamma", repr(gamma),
            "--x0", "0,1", "--max-iter", "300"] + ["--force"] * force
    assert main(args) == code
    summary, _ = solve(*_solve_specs(config), config, np.array([0.0, 1.0]), None)
    assert capsys.readouterr().out == _dump(summary) + "\n"


def _tight_fb_specs(kind_a, kind_b, d, mu, omega, beta, s, rng):
    """Specs meeting FB case I/Ib: ``A - mu*Id`` is ``1/beta``-cocoercive (within
    ``beta/2`` of ``(beta/2)*Id``) and ``B`` is ``(-omega)``-monotone.  Both
    keep one random unit vector ``e``, with ``A e = (mu + beta*(1+s)/2) e`` and
    ``B e = -omega*e``; for ``s`` = -1 (case I) or +1 (case Ib) the FB map
    scales ``e`` by exactly the certified factor."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    u = q * np.sign(np.diag(r))  # e is its first column
    on_e = np.zeros((d, d))
    on_e[0, 0] = 1.0
    off_e = np.eye(d) - on_e
    if kind_a == "scaled_identity":
        a = ScaledIdentity(mu + 0.5 * beta * (1.0 + s), dim=d)
    else:
        k = rng.standard_normal((d, d))
        k = off_e @ (k + k.T if kind_a == "quadratic" else k) @ off_e
        k *= rng.uniform(0.0, 1.0) / np.linalg.norm(k, 2)
        m = u @ (mu * np.eye(d) + 0.5 * beta * (np.eye(d) + s * on_e + k)) @ u.T
        a = ops.QuadraticGradient(0.5 * (m + m.T)) if kind_a == "quadratic" else ops.Affine(m)
    g = rng.standard_normal((d, d))
    if kind_b == "scaled_identity":
        return a, ScaledIdentity(-omega, dim=d)
    if kind_b == "subspace_normal":
        basis = np.vstack([u[:, 0], rng.standard_normal((d // 2, d))])
        return a, SubspaceNormalPlusScale(basis, mu=-omega)
    mono = g @ g.T / d + (g - g.T if kind_b == "affine" else 0.0)
    m = u @ (-omega * np.eye(d) + off_e @ mono @ off_e) @ u.T
    return a, ops.QuadraticGradient(0.5 * (m + m.T)) if kind_b == "quadratic" else ops.Affine(m)


@pytest.mark.parametrize("d", [2, 7, 16])
@pytest.mark.parametrize("kind_b", ["affine", "scaled_identity", "subspace_normal", "quadratic"])
@pytest.mark.parametrize("kind_a", ["affine", "scaled_identity", "quadratic"])
def test_fb_certified_rate_is_the_spectral_radius(kind_a, kind_b, d):
    # T x = M x + c contracts no faster than rho(M), so a sound certified rate
    # is at least rho(M); on these instances it is attained on e
    rng = np.random.default_rng(1000 * d + 7)
    for case, s in (("I", -1.0), ("Ib", 1.0)):
        for _ in range(3):
            mu = rng.uniform(0.5, 2.0)
            omega = mu * rng.uniform(0.1, 0.8)
            beta = rng.uniform(0.5, 4.0)
            lo, hi = 0.0, 2.0 / (beta + 2.0 * mu)
            if case == "Ib":
                lo, hi = hi, 2.0 / (beta + mu + omega)  # keeps the factor in ]-1, 0]
            gamma = lo + rng.uniform(0.05, 0.95) * (hi - lo)
            plan = plan_fb(case, mu=mu, omega=omega, beta=beta, gamma=gamma)
            t = build_fb(plan, *_tight_fb_specs(kind_a, kind_b, d, mu, omega, beta, s, rng))
            log = iterate(t, rng.standard_normal(d), max_iter=40, tol_fix=0.0,
                          x_star=np.zeros(d))
            certified = rate_report(log, plan).certified_rate
            m = t.matrix
            rho = abs(m) if isinstance(m, float) else float(np.max(np.abs(np.linalg.eigvals(m))))
            assert rho <= certified * (1.0 + 1e-12), (case, plan, rho)
            assert rho >= certified * (1.0 - 1e-9), (case, plan, rho)


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


def _csv_writer_reference(log, path):
    """``write_csv`` as it was: one ``csv.writer`` row per point."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "step_norm", "err_norm", "shadow_gap"])
        for k in range(len(log.points)):
            row = [k]
            row.append(repr(log.step_norms[k - 1]) if k >= 1 else "")
            row.append(repr(log.err_norms[k]) if log.err_norms is not None else "")
            row.append(repr(log.shadow_gaps[k]) if log.shadow_gaps is not None else "")
            w.writerow(row)


ODD_VALUES = [math.inf, -math.inf, math.nan, 5e-324, -0.0, 0.0, 1e16, 1e-5, 0.1,
              1.7976931348623157e308, 123456789.12345679, 2.5]


@pytest.mark.parametrize("errs", [False, True])
@pytest.mark.parametrize("gaps", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, len(ODD_VALUES) + 1, _CSV_ROWS, _CSV_ROWS + 1,
                               2 * _CSV_ROWS + 5])
def test_write_csv_bytes_match_csv_writer(tmp_path, errs, gaps, n):
    reps = n // len(ODD_VALUES) + 2
    vals = (ODD_VALUES * reps)[: max(n - 1, 0)]
    log = IterLog(points=[np.zeros(2)] * n, step_norms=vals,
                  err_norms=(ODD_VALUES[::-1] * reps)[:n] if errs else None,
                  shadow_gaps=((ODD_VALUES[3:] + ODD_VALUES) * reps)[:n] if gaps else None)
    write_csv(log, tmp_path / "got.csv")
    _csv_writer_reference(log, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == n + 1


def _csv_columns(path):
    with open(path, newline="") as fh:
        return list(zip(*csv.reader(fh)))


@pytest.mark.parametrize("method", ["DR", "FB"])
def test_cli_solve_csv_matches_unblocked_loop(tmp_path, method):
    from opsplit.cli import main

    rng = np.random.default_rng(7)
    d = 5
    a = random_monotone_affine(2.0, d, rng)
    b = random_monotone_affine(-1.0, d, rng)
    gamma = 0.1
    inst = {"A": {"kind": "affine", "matrix": a.matrix.tolist(), "offset": a.offset.tolist()},
            "B": {"kind": "affine", "matrix": b.matrix.tolist(), "offset": b.offset.tolist()},
            "mu": 2.0, "omega": 1.0, "beta": 1.0, "case": "I", "x_star": [0.0] * d}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    x0 = ",".join(map(repr, rng.standard_normal(d).tolist()))
    out = tmp_path / "got.csv"
    assert main([f"solve-{method.lower()}", "--instance", str(path), "--gamma", str(gamma),
                 "--x0", x0, "--log", str(out)]) == 0

    from opsplit.cli import spec_from_json
    sa, sb = spec_from_json(inst["A"]), spec_from_json(inst["B"])
    if method == "DR":
        t = build_dr(plan_dr(2.0, 1.0, gamma), sa, sb)
        gap = ops.difference(*dr_shadow_ops(sa, sb, gamma))
    else:
        t = build_fb(plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=gamma), sa, sb)
        gap = None
    want_log = _unblocked_iterate(t, np.array([float(v) for v in x0.split(",")]),
                                  x_star=np.zeros(d), gap=gap)
    assert want_log.converged and want_log.n_iter > _BLOCK
    want = tmp_path / "want.csv"
    _csv_writer_reference(want_log, want)
    if method == "FB":
        assert out.read_bytes() == want.read_bytes()
    got_cols, want_cols = _csv_columns(out), _csv_columns(want)
    assert got_cols[:3] == want_cols[:3]  # k, step_norm, err_norm
    gaps = [float(v) for v in got_cols[3][1:] if v]
    assert len(gaps) == (len(want_log.points) if method == "DR" else 0)
    for g, w in zip(gaps, want_log.shadow_gaps or []):
        assert abs(g - w) <= 1e-12 * (1.0 + w)
