"""The planners and composition rules on ``Fraction`` inputs.

``plan_dr``, ``plan_fb``, ``resolvent_class``, ``ScaledConic.to_in`` and the
composition rules write every arithmetic literal as an int, so the code that
computes in floats computes exactly when its inputs are ``Fraction``s.  The
property below runs each of them on ``Fraction(x)`` of its float draws.  It
checks that every field computed from the inputs is a ``Fraction`` (a float
literal would make it a float), and that each value and each decision is the
one of the independent transcriptions in ``tests/exact.py``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsplit.calculus import (
    INParams,
    ScaledConic,
    compose_chain,
    compose_cocoercive_chain,
    compose_conic,
    compose_general,
    compose_kappa_theta,
    compose_scaled_averaged_cocoercive,
    delta_bundle,
    resolvent_class,
)
from opsplit.errors import DomainError, GuardError, StepSizeError
from opsplit.splitting import DR_ORDERS, FB_CASES, plan_dr, plan_fb

import exact

F = Fraction
HALF = F(1, 2)


def _fractions(kwargs):
    return {k: v if v is None or isinstance(v, str) else F(v) for k, v in kwargs.items()}


def _run(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, exc)`` for the ``DomainError`` raised."""
    try:
        return fn(*args, **kwargs), None
    except DomainError as exc:
        return None, exc


def _all_fractions(*values):
    return all(type(v) is Fraction for v in values)


# ---------------------------------------------------------------------------
# Draws.  Values with one or two decimals are where a float interval end most
# often rounds to the wrong side of the exact one.

_DECIMAL = st.integers(1, 800).map(lambda k: k / 100)
_VALUE = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-17]) | st.floats(0.0, 8.0) | _DECIMAL
_POSITIVE = st.sampled_from([0.5, 1.0, 2.0, 1e-17]) | st.floats(1e-3, 8.0) | _DECIMAL


def _near(lo, hi):
    """A step size at the double nearest an exact end or one or two doubles
    from it, or inside ``[lo, hi]``; ends past the float range are left out."""
    near = []
    for e in (lo, hi):
        if e is not None and abs(e) < 1e300:
            f = float(e)
            below, above = math.nextafter(f, -math.inf), math.nextafter(f, math.inf)
            near += [math.nextafter(below, -math.inf), below, f, above]
    if len(near) == 8 and lo <= hi:
        return st.sampled_from(near) | st.floats(float(lo), float(hi))
    return st.sampled_from(near) | _POSITIVE if near else _POSITIVE


@st.composite
def _fb_call(draw):
    case = draw(st.sampled_from(FB_CASES))
    if draw(st.integers(0, 3)) == 0:
        mu, omega, beta, beta_bar = (draw(_VALUE) for _ in range(4))
    else:
        omega, beta = draw(_VALUE), draw(_POSITIVE)
        mu = max(omega, beta) + draw(st.just(0.0) | _POSITIVE)
        beta_bar = mu + max(omega, beta) + draw(_POSITIVE)
    kwargs = dict(case=case, mu=mu, omega=omega, beta=beta, beta_bar=beta_bar)
    try:
        lo, hi, _ = exact.fb_interval(case, mu, omega, beta, beta_bar)
    except ZeroDivisionError:
        return _check_plan_fb, dict(kwargs, gamma=draw(_POSITIVE))
    return _check_plan_fb, dict(kwargs, gamma=draw(_near(lo, hi)))


@st.composite
def _dr_call(draw):
    if draw(st.integers(0, 3)) == 0:
        mu, omega, lam = draw(_VALUE), draw(_VALUE), draw(_VALUE)
    else:
        mu = draw(st.floats(1e-2, 1e2) | _DECIMAL)
        omega = draw(st.just(0.0) | st.floats(0.01, 0.999).map(lambda r: mu * r))
        lam = draw(st.sampled_from([0.5, 1e-3]) | st.floats(1e-3, 0.999))
    kwargs = dict(mu=mu, omega=omega, lambda_relax=lam, order=draw(st.sampled_from(DR_ORDERS)))
    try:
        hi = exact.dr_gamma_end(mu, omega, lam)
    except ZeroDivisionError:
        hi = None
    gamma = draw(_POSITIVE if hi is None else _near(F(0), hi))
    return _check_plan_dr, dict(kwargs, gamma=gamma)


_ALPHA = st.sampled_from([0.0, 0.5, 1.0, -1.0]) | st.floats(-3.0, 1.5)
_BETA = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)
_SCALE = st.sampled_from([1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0).filter(lambda d: d != 0.0)
_CONIC = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-3, 3.0)
_AVERAGED = st.sampled_from([0.5, 0.25]) | st.floats(1e-3, 0.999)


# ---------------------------------------------------------------------------
# Checks, one per function, each against tests/exact.py


def _check_plan_fb(kwargs):
    case, f = kwargs["case"], _fractions(kwargs)
    del f["case"]
    plan, exc = _run(plan_fb, case, **f)
    g, mu, omega, beta, bb = f["gamma"], f["mu"], f["omega"], f["beta"], f["beta_bar"]
    if not exact.fb_hypotheses(case, mu, omega, beta, bb):
        assert type(exc) is DomainError, (plan, exc)
        return
    lo, hi, closed = exact.fb_interval(case, mu, omega, beta, bb)
    b_case = case.endswith("b")
    if not ((lo <= g if closed else lo < g) and g < hi):
        assert type(exc) is StepSizeError, (plan, exc)
        assert (exc.interval.lo, exc.interval.hi, exc.interval.lo_closed) == (lo, hi, closed)
        assert _all_fractions(exc.interval.hi, *[exc.interval.lo] * b_case)
        return
    nu, delta = exact.fb_constants(case, mu, omega, beta, bb, g)
    if case == "Ib" and g * omega >= 1:
        assert str(exc).startswith("case Ib requires gamma*omega < 1"), exc
        return
    if b_case and not -1 < delta <= 0:
        assert str(exc).startswith(f"case {case} factor "), exc
        return
    assert exc is None, exc
    assert (plan.nu, plan.delta) == (nu, delta)
    assert (plan.gamma_range.lo, plan.gamma_range.hi) == (lo, hi)
    assert plan.contraction is (abs(delta) < 1)
    if b_case:
        assert plan.averaged_alpha is None
        assert _all_fractions(plan.nu, plan.delta, plan.gamma_range.lo, plan.gamma_range.hi)
    else:
        # The delta-scaled composition of the nu-averaged backward step with
        # the 1/2-averaged forward one.
        assert plan.averaged_alpha == 1 - delta * (1 - exact.conic_alpha(nu, HALF))
        assert 0 < plan.averaged_alpha < 1
        assert _all_fractions(plan.nu, plan.delta, plan.averaged_alpha, plan.gamma_range.hi)


def _check_plan_dr(kwargs):
    f = _fractions(kwargs)
    plan, exc = _run(plan_dr, **f)
    mu, omega, g, lam = f["mu"], f["omega"], f["gamma"], f["lambda_relax"]
    if not (omega >= 0 and mu > omega and 0 < lam < 1):
        assert type(exc) is DomainError, (plan, exc)
        return
    hi = exact.dr_gamma_end(mu, omega, lam)
    if not (0 < g and (hi is None or g < hi)):
        assert type(exc) is StepSizeError, (plan, exc)
        assert exc.interval.hi == hi and (hi is None or type(exc.interval.hi) is Fraction)
        return
    assert exc is None, exc
    nu = exact.dr_nu(mu, omega, g)
    assert (plan.nu, plan.averaged_alpha, plan.gamma_range.hi) == (nu, lam * nu, hi)
    # Inside the exact interval the operator is averaged.
    assert 0 < plan.averaged_alpha < 1
    assert _all_fractions(plan.nu, plan.averaged_alpha, *[hi] * (hi is not None))


def _check_resolvent_class(rho):
    rho = F(rho)
    got, exc = _run(resolvent_class, rho)
    if not rho > -1:
        assert type(exc) is DomainError
        return
    conic = exact.reflected_conic(1, rho)
    assert got.resolvent.value == 1 / conic and got.reflected.value == conic
    assert got.reflected_lipschitz == (2 * conic - 1 if rho <= 0 else None)
    assert _all_fractions(got.resolvent.value, got.reflected.value,
                          *[got.reflected_lipschitz] * (rho <= 0))


def _check_coupling_rules(a1, b1, a2, b2):
    """``delta_bundle``, ``compose_general`` and ``compose_kappa_theta`` on one pair."""
    p1, p2 = INParams(F(a1), F(b1)), INParams(F(a2), F(b2))
    a1, b1, a2, b2 = p1.alpha, p1.beta, p2.alpha, p2.beta
    bundle, exc = _run(delta_bundle, p1, p2)
    if not (a1 < 1 and a2 < 1 and a2 * (a2 - 1) <= b2**2):
        assert type(exc) is DomainError
    else:
        d1, d2, d3, d4 = exact.coupling(a1, b1, a2, b2)
        assert (bundle.d1, bundle.d2, bundle.d3, bundle.degenerate) == (d1, d2, d3, d4 is None)
        assert _all_fractions(bundle.d1, bundle.d2, bundle.d3, *[bundle.d4] * (d4 is not None))
        general, exc = _run(compose_general, p1, p2)
        if d4 is None or not (d1 + d2 > 0 and d3 - d4 + d3 * d4 >= 0 and d4 > -1):
            assert type(exc) is GuardError
        else:
            assert bundle.d4 == d4 and general.alpha == d4 / (1 + d4)
            assert type(general.alpha) is Fraction
            # The one step off the rationals: beta is sqrt(d3 - d4 + d3*d4)/(1 + d4),
            # the root taken of the radicand rounded to a double (which may
            # be subnormal).
            want = (d3 - d4 + d3 * d4) / (1 + d4) ** 2
            bound = F(1, 2**48) * want + F(1, 2**1074) / (1 + d4) ** 2
            assert abs(F(general.beta) ** 2 - want) <= bound
    kappa, exc = _run(compose_kappa_theta, p1, p2)
    if not (b1 > 0 and b2 > 0 and a1 + b1 > 0 and a2 + b2 > 0):
        assert type(exc) is DomainError
        return
    try:
        alpha = exact.conic_alpha(b1 / (a1 + b1), b2 / (a2 + b2))
    except ValueError:
        assert type(exc) is GuardError
        return
    assert (kappa.delta, kappa.alpha) == ((a1 + b1) * (a2 + b2), alpha)
    assert _all_fractions(kappa.delta, *[kappa.alpha] * (alpha != 1))


def _check_conic_rules(d1, a1, d2, a2, coco):
    """``ScaledConic.to_in``, ``compose_conic`` and
    ``compose_scaled_averaged_cocoercive``."""
    c1, c2 = ScaledConic(F(d1), F(a1)), ScaledConic(F(d2), F(a2))
    p = c1.to_in()
    center, radius = exact.relaxed_conic_disk(1, c1.alpha)
    assert (p.alpha, p.beta) == (c1.delta * center, abs(c1.delta) * radius)
    assert _all_fractions(p.alpha, p.beta)
    got, exc = _run(compose_conic, c1, c2)
    try:
        alpha = exact.conic_alpha(c1.alpha, c2.alpha)
    except ValueError:
        assert type(exc) is GuardError
    else:
        assert (got.delta, got.alpha) == (c1.delta * c2.delta, alpha)
        assert _all_fractions(got.delta, *[got.alpha] * (max(c1.alpha, c2.alpha) != 1))
    got, exc = _run(compose_scaled_averaged_cocoercive, c1, F(coco))
    if not (0 < c1.alpha < 1 and coco > 0):
        assert type(exc) is DomainError
        return
    assert (got.delta, got.alpha) == (F(coco) * c1.delta, exact.conic_alpha(c1.alpha, HALF))
    assert _all_fractions(got.delta, got.alpha)


def _check_chains(factors, r, betas):
    """``compose_chain`` against the conic rule folded over the chain, and
    ``compose_cocoercive_chain``."""
    items = [ScaledConic(F(d), F(a)) for d, a in factors]
    r %= len(items)
    got, exc = _run(compose_chain, items, r)
    others = [c.alpha for i, c in enumerate(items) if i != r]
    if not all(0 < a < 1 for a in others):
        assert type(exc) is DomainError
    else:
        abar = others[0]
        for a in others[1:]:
            abar = exact.conic_alpha(abar, a)
        try:
            alpha = exact.conic_alpha(abar, items[r].alpha)
        except ValueError:
            assert type(exc) is GuardError
        else:
            assert (got.delta, got.alpha) == (math.prod(c.delta for c in items), alpha)
            assert _all_fractions(got.delta, *[got.alpha] * (items[r].alpha != 1))
    bs = [F(b) for b in betas]
    got = compose_cocoercive_chain(bs)
    # The scale is exact; the parameter m/(1 + m) is a float.
    assert got.delta == math.prod(bs) and type(got.delta) is Fraction
    assert math.isclose(got.alpha, len(bs) / (1 + len(bs)))


_CALLS = st.one_of(
    _fb_call(),
    _dr_call(),
    st.tuples(st.just(_check_resolvent_class),
              st.tuples(st.sampled_from([-1.0, -0.5, 0.0]) | st.floats(-2.0, 4.0))),
    st.tuples(st.just(_check_coupling_rules), st.tuples(_ALPHA, _BETA, _ALPHA, _BETA)),
    st.tuples(st.just(_check_conic_rules),
              st.tuples(_SCALE, _CONIC | _AVERAGED, _SCALE, _CONIC | _AVERAGED, _POSITIVE)),
    st.tuples(st.just(_check_chains),
              st.tuples(st.lists(st.tuples(_SCALE, _AVERAGED | _CONIC), min_size=2, max_size=4),
                        st.integers(0, 3), st.lists(_POSITIVE, min_size=1, max_size=4))),
)


@settings(max_examples=600, deadline=None)
@given(_CALLS)
# The float plan's averaged_alpha is 1.0000000000000553 at this interval end;
# the exact one is below 1.
@example((_check_plan_dr, dict(mu=1.0736655095381538, omega=0.9772213828189983,
                               gamma=0.09182888474461935, lambda_relax=1e-3, order="A_strong")))
@example((_check_plan_fb, dict(case="I", mu=4.1, omega=0.0, beta=0.87, beta_bar=None,
                               gamma=0.22050716648291072)))
# a_r*abar is just below 1 here, where a rounded abar would reject the chain.
@example((_check_chains, ([(1.0, 0.6), (1.0, 0.6), (1.0, 1.3333333333333333)], 2, [1.0])))
# Inside case Ib's interval, but gamma*omega >= 1: J_gB is not single-valued.
@example((_check_plan_fb, dict(case="Ib", mu=1.5, omega=1.0, beta=0.1, beta_bar=None,
                               gamma=1.1)))
def test_planners_and_rules_compute_exactly_on_fractions(call):
    check, args = call
    if isinstance(args, dict):
        check(args)
    else:
        check(*args)


def test_an_exact_plan_rejects_a_step_past_its_end_that_the_float_plan_accepts():
    # gamma lies 3.9e-18 past the exact end 2/(beta + 2 mu); the float end
    # 2.0/(beta + 2.0*mu) rounds up past gamma, so the float plan accepts it.
    kwargs = dict(mu=4.1, omega=0.0, gamma=0.22050716648291072, beta=0.87)
    with pytest.raises(StepSizeError) as e:
        plan_fb("I", **_fractions(kwargs))
    end = 2 / (F(0.87) + 2 * F(4.1))
    assert e.value.interval.hi == end and F(0.22050716648291072) - end > 0
    assert plan_fb("I", **kwargs).gamma_range.hi > 0.22050716648291072
