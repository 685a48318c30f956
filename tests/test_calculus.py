"""Descriptor arithmetic: conversions, coupling coefficients, compositions.

Derived expected values are frozen from a 40-digit mpmath re-evaluation of
the closed forms (the oracle lives in ``_mp_bundle`` / ``_mp_general`` below
and is kept independent of the package code).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as mpsqrt

from opsplit.calculus import (
    ClassLabel,
    DeltaBundle,
    INParams,
    Kind,
    ScaledConic,
    averaged_refactor,
    certify,
    classify,
    compose_chain,
    compose_cocoercive_chain,
    compose_conic,
    compose_general,
    compose_kappa_theta,
    compose_scaled_averaged_cocoercive,
    delta_bundle,
    displacement_class,
    from_label,
    lipschitz_shift,
    naive_lipschitz,
    rescale_averaged,
    resolvent_class,
)
from opsplit.errors import DomainError, GuardError

mp.dps = 40


def _mp_bundle(a1, b1, a2, b2):
    a1, b1, a2, b2 = map(mpf, (a1, b1, a2, b2))
    q1 = ((1 - a1) ** 2 - b1 * b1) / (1 - a1)
    q2 = ((1 - a2) ** 2 - b2 * b2) / (1 - a2)
    d1 = a1 / (1 - a1) * (1 - q2)
    d2 = a2 / (1 - a2)
    d3 = 1 - (q1 * (1 - q2) + q2)
    return d1, d2, d3, d1 * d2 / (d1 + d2)


def _mp_general(a1, b1, a2, b2):
    d1, d2, d3, d4 = _mp_bundle(a1, b1, a2, b2)
    return d4 / (1 + d4), mpsqrt(d3 - d4 + d3 * d4) / (1 + d4)


# ---------------------------------------------------------------------------
# labels and conversions


def test_from_label_examples():
    assert from_label(ClassLabel.cocoercive(1 / 1.4)) == INParams(0.7, 0.7)
    assert from_label(ClassLabel.nonexpansive()) == INParams(0.0, 1.0)
    assert from_label(ClassLabel.averaged(0.5)) == INParams(0.5, 0.5)
    assert from_label(ClassLabel.lipschitz(0.8)) == INParams(0.0, 0.8)
    assert from_label(ClassLabel.conic(1.7)) == INParams(-0.7, 1.7)
    assert from_label(ClassLabel.scaled_conic(2.0, 0.75)) == INParams(0.5, 1.5)
    assert from_label(ClassLabel.neg_conic(2.0)) == INParams(1.0, 2.0)


def test_label_range_errors():
    with pytest.raises(DomainError):
        ClassLabel.averaged(1.0)
    with pytest.raises(DomainError):
        ClassLabel.conic(0.0)
    with pytest.raises(DomainError):
        ClassLabel.contraction(1.0)
    with pytest.raises(DomainError):
        ClassLabel.cocoercive(-0.5)
    with pytest.raises(DomainError):
        ClassLabel.scaled_conic(0.0, 0.5)
    with pytest.raises(DomainError):
        INParams(0.0, -0.1)
    with pytest.raises(DomainError):
        ScaledConic(1.0, 0.0)


def _frozen_label_json(label: ClassLabel) -> dict:
    """A label's JSON form as the CLI wrote it before ``ClassLabel.to_json``."""
    out = {"kind": label.kind.value}
    if label.value is not None:
        out["value"] = label.value
    if label.scale is not None:
        out["scale"] = label.scale
    return out


def test_label_to_json_keeps_the_cli_bytes():
    labels = [
        ClassLabel.lipschitz(0.8), ClassLabel.nonexpansive(), ClassLabel.averaged(0.7),
        ClassLabel.conic(1.7), ClassLabel.cocoercive(1 / 1.4), ClassLabel.contraction(0.0),
        ClassLabel.scaled_conic(-2.0, 0.75), ClassLabel.neg_conic(2.0),
    ]
    assert {l.kind for l in labels} == set(Kind)
    for label in labels:
        assert json.dumps(label.to_json()) == json.dumps(_frozen_label_json(label)), label


@pytest.mark.parametrize(
    "make",
    [
        lambda v: INParams(v, 1.0),
        lambda v: INParams(0.5, v),
        lambda v: ScaledConic(v, 0.5),
        lambda v: ScaledConic(1.0, v),
    ],
    ids=["INParams.alpha", "INParams.beta", "ScaledConic.delta", "ScaledConic.alpha"],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_descriptors_reject_non_finite_fields(make, value):
    with pytest.raises(DomainError):
        make(value)


def test_classify_averaged_when_sum_rounds_to_one():
    # 1.0 - 0.7 == 0.30000000000000004, but 0.3 + 0.7 == 1.0
    got = classify(INParams(0.3, 0.7))
    assert ClassLabel.averaged(0.7) in got
    assert ClassLabel.conic(0.7) in got


def test_classify_averaged_sweep_round_trips():
    for v in np.linspace(0.0005, 0.9995, 2000):
        label = ClassLabel.averaged(float(v))
        assert label in classify(from_label(label))


def test_classify_firmly_nonexpansive():
    got = classify(INParams(0.5, 0.5))
    assert ClassLabel.lipschitz(1.0) in got
    assert ClassLabel.nonexpansive() in got
    assert ClassLabel.averaged(0.5) in got
    assert ClassLabel.cocoercive(1.0) in got
    assert ClassLabel.conic(0.5) in got
    assert ClassLabel.scaled_conic(1.0, 0.5) in got
    assert ClassLabel.contraction(1.0 - 1e-16) not in got


def test_classify_lipschitz_08():
    got = classify(INParams(0.0, 0.8))
    assert ClassLabel.lipschitz(0.8) in got
    assert ClassLabel.contraction(0.8) in got
    assert ClassLabel.nonexpansive() in got
    assert ClassLabel.scaled_conic(0.8, 1.0) in got  # conic 1 via scale 0.8
    assert not any(l.kind is Kind.AVERAGED for l in got)


def test_classify_conic_17():
    got = classify(INParams(-0.7, 1.7))
    assert ClassLabel.lipschitz(2.4) in got
    assert ClassLabel.conic(1.7) in got
    assert ClassLabel.scaled_conic(1.0, 1.7) in got
    assert not any(l.kind in (Kind.NONEXPANSIVE, Kind.CONTRACTION) for l in got)


def _labels_match(expected: ClassLabel, got: set, tol=1e-12) -> bool:
    conic_like = {Kind.CONIC: 1.0, Kind.NEG_CONIC: -1.0}
    for l in got:
        if l.kind is expected.kind:
            if expected.value is None:
                return True
            ok = math.isclose(l.value, expected.value, rel_tol=tol, abs_tol=tol)
            if expected.scale is not None:
                ok = ok and math.isclose(l.scale, expected.scale, rel_tol=tol, abs_tol=tol)
            if ok:
                return True
        # plain conic labels are scale +-1 scaled-conic labels
        if expected.kind in conic_like and l.kind is Kind.SCALED_CONIC:
            if math.isclose(l.scale, conic_like[expected.kind], rel_tol=tol) and math.isclose(
                l.value, expected.value, rel_tol=tol, abs_tol=tol
            ):
                return True
    return False


label_strategy = st.one_of(
    st.builds(ClassLabel.lipschitz, st.floats(0.01, 100.0)),
    st.just(ClassLabel.nonexpansive()),
    st.builds(ClassLabel.averaged, st.floats(0.01, 0.99)),
    st.builds(ClassLabel.conic, st.floats(0.01, 50.0)),
    st.builds(ClassLabel.cocoercive, st.floats(0.01, 50.0)),
    st.builds(ClassLabel.contraction, st.floats(0.0, 0.99)),
    st.builds(
        ClassLabel.scaled_conic,
        st.floats(0.01, 20.0),
        st.floats(0.01, 20.0),
    ),
    st.builds(ClassLabel.neg_conic, st.floats(0.01, 50.0)),
)


@given(label_strategy)
def test_classify_inverts_from_label(label):
    assert _labels_match(label, classify(from_label(label)))


# An int or Fraction past the float range is not finite, as its float would
# not be; math.isfinite of such a value raises OverflowError.
@pytest.mark.parametrize("make", [
    lambda: INParams(10**400, 1.0),
    lambda: INParams(0.0, Fraction(10**400)),
    lambda: ScaledConic(10**400, 0.5),
    lambda: ScaledConic(10**308, 3).to_in(),
], ids=["int-alpha", "fraction-beta", "int-delta", "int-to-in"])
def test_a_descriptor_past_the_float_range_is_not_finite(make):
    with pytest.raises(DomainError, match="descriptor must be finite"):
        make()


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_scaled_conic_roundtrip_positive_scale(delta, alpha):
    p = ScaledConic(delta, alpha).to_in()
    recon_scale = p.alpha + p.beta
    assert math.isclose(recon_scale, delta, rel_tol=1e-12)
    assert math.isclose(p.beta / recon_scale, alpha, rel_tol=1e-12)


def test_resolvent_class():
    res, refl, lip = resolvent_class(0.0)
    assert res == ClassLabel.cocoercive(1.0)
    assert refl == ClassLabel.neg_conic(1.0)
    assert lip == 1.0
    res, refl, lip = resolvent_class(-0.5)
    assert res == ClassLabel.cocoercive(0.5)
    assert refl == ClassLabel.neg_conic(2.0)
    assert lip == 3.0
    res, refl, lip = resolvent_class(1.0)
    assert res == ClassLabel.cocoercive(2.0)
    assert refl == ClassLabel.neg_conic(0.5)
    assert lip is None
    with pytest.raises(DomainError):
        resolvent_class(-1.0)


# ---------------------------------------------------------------------------
# coupling coefficients and the general composition


def test_delta_bundle_firmly_nonexpansive_pair():
    b = delta_bundle(INParams(0.5, 0.5), INParams(0.5, 0.5))
    ref = _mp_bundle("0.5", "0.5", "0.5", "0.5")
    assert b == DeltaBundle(1.0, 1.0, 1.0, 0.5, degenerate=False)
    for got, want in zip((b.d1, b.d2, b.d3, b.d4), ref):
        assert abs(got - float(want)) < 1e-15


def test_delta_bundle_nonexpansive_pair_degenerates():
    b = delta_bundle(INParams(0.0, 1.0), INParams(0.0, 1.0))
    assert (b.d1, b.d2, b.d3, b.d4) == (0.0, 0.0, 1.0, 0.0)
    assert b.degenerate


def test_delta_bundle_d2_value():
    b = delta_bundle(INParams(0.3, 0.7), INParams(0.4, 0.6))
    assert math.isclose(b.d2, 2.0 / 3.0, rel_tol=1e-15)


def test_delta_bundle_preconditions():
    with pytest.raises(DomainError):
        delta_bundle(INParams(1.0, 0.5), INParams(0.5, 0.5))
    with pytest.raises(DomainError):
        delta_bundle(INParams(0.5, 0.5), INParams(1.5, 0.5))
    # a2*(a2-1) > b2^2
    with pytest.raises(DomainError):
        delta_bundle(INParams(0.0, 1.0), INParams(-2.0, 1.0))


def test_compose_general_firmly_nonexpansive_pair():
    got = compose_general(INParams(0.5, 0.5), INParams(0.5, 0.5))
    assert got.alpha == 1.0 / 3.0 and got.beta == 2.0 / 3.0
    # matches the classical averaged composition constant
    assert math.isclose(got.beta, (0.5 + 0.5 - 2 * 0.25) / (1 - 0.25), rel_tol=1e-15)


def test_compose_general_mixed_pair_oracle():
    got = compose_general(INParams(0.3, 0.7), INParams(0.5, 0.5))
    a, b = _mp_general("0.3", "0.7", "0.5", "0.5")
    assert abs(got.alpha - float(a)) < 1e-15
    assert abs(got.beta - float(b)) < 1e-15
    assert got.alpha + got.beta <= 1.0 + 1e-15


def test_compose_general_conic_pair_oracle():
    got = compose_general(INParams(-0.7, 1.7), INParams(0.55, 0.45))
    assert math.isclose(got.alpha, -77.0 / 47.0, rel_tol=1e-14)
    assert math.isclose(got.beta, 124.0 / 47.0, rel_tol=1e-14)


def test_compose_general_guard_errors_are_distinct():
    with pytest.raises(GuardError) as e:
        compose_general(INParams(0.0, 1.0), INParams(0.0, 1.0))
    assert e.value.hypothesis == "d1+d2 > 0"
    assert naive_lipschitz(INParams(0.0, 1.0), INParams(0.0, 1.0)) == 1.0
    # conic pair with parameter product above one trips the d4 bound
    with pytest.raises(GuardError) as e:
        compose_general(INParams(-0.7, 1.7), INParams(0.3, 0.7))
    assert e.value.hypothesis == "d4 > -1"


# ---------------------------------------------------------------------------
# scale-normalized composition


def test_compose_kappa_theta_firmly_nonexpansive_pair():
    got = compose_kappa_theta(INParams(0.5, 0.5), INParams(0.5, 0.5))
    assert got.delta == 1.0 and got.alpha == 2.0 / 3.0


def test_compose_kappa_theta_unit_ratio_branch():
    got = compose_kappa_theta(INParams(0.0, 1.0), INParams(0.2, 0.8))
    assert got.delta == 1.0 and got.alpha == 1.0


def test_compose_kappa_theta_unit_ratio_is_exactly_one():
    # t2 = 0.9/0.9 = 1, so theta = 1; the product branch's quotient
    # (t1 + 1 - 2 t1)/(1 - t1) rounds to 0.9999999999999997 at t1 = 2/3
    got = compose_kappa_theta(INParams(1.0, 2.0), INParams(0.0, 0.9))
    assert got.alpha == 1.0 and got.delta == 2.7
    for b in (0.1, 0.3, 0.7, 1.9, 7.0):
        assert compose_kappa_theta(INParams(1.0, b), INParams(0.0, 0.9)).alpha == 1.0
        assert compose_kappa_theta(INParams(0.0, 0.9), INParams(1.0, b)).alpha == 1.0


def test_compose_kappa_theta_values():
    got = compose_kappa_theta(INParams(0.4, 0.7), INParams(0.3, 0.6))
    assert math.isclose(got.delta, 0.99, rel_tol=1e-15)
    assert math.isclose(got.alpha, 45.0 / 57.0, rel_tol=1e-14)


def test_compose_kappa_theta_rejections():
    with pytest.raises(DomainError):
        compose_kappa_theta(INParams(0.5, 0.0), INParams(0.5, 0.5))
    with pytest.raises(DomainError):
        compose_kappa_theta(INParams(-2.0, 1.0), INParams(0.5, 0.5))
    with pytest.raises(GuardError):
        compose_kappa_theta(INParams(-0.7, 1.7), INParams(0.3, 0.7))


# ---------------------------------------------------------------------------
# conic compositions


def test_compose_conic_values():
    got = compose_conic(ScaledConic(1.0, 1.7), ScaledConic(1.0, 0.45))
    assert math.isclose(got.alpha, 0.62 / 0.235, rel_tol=1e-12)
    got = compose_conic(ScaledConic(1.0, 0.5), ScaledConic(1.0, 0.5))
    assert math.isclose(got.alpha, 2.0 / 3.0, rel_tol=1e-15)


def test_compose_conic_branch_consistency_at_one():
    # alpha1 = 1: the product branch and the max branch coincide
    got = compose_conic(ScaledConic(1.0, 1.0), ScaledConic(1.0, 0.5))
    assert got.alpha == 1.0


def test_compose_conic_unit_factor_is_exactly_one():
    # the quotient (1 - a2)/(1 - a2) rounds below 1 for this a2, which would
    # certify an averaged map where the theorem gives only a nonexpansive one
    got = compose_conic(ScaledConic(1.0, 1.0), ScaledConic(1.0, 0.5307942336954935))
    assert got.alpha == 1.0
    got = compose_conic(ScaledConic(1.0, 0.5307942336954935), ScaledConic(1.0, 1.0))
    assert got.alpha == 1.0


def test_compose_conic_averaged_iff_both_averaged():
    got = compose_conic(ScaledConic(1.0, 0.7), ScaledConic(1.0, 0.6))
    assert got.alpha < 1.0
    got = compose_conic(ScaledConic(1.0, 1.2), ScaledConic(1.0, 0.3))
    assert got.alpha >= 1.0


@settings(max_examples=200)
@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
def test_compose_conic_averagedness_predicate(a1, a2):
    if a1 * a2 >= 0.999:
        return
    got = compose_conic(ScaledConic(1.0, a1), ScaledConic(1.0, a2))
    assert (got.alpha < 1.0) == (a1 < 1.0 and a2 < 1.0)


def test_compose_conic_guard():
    with pytest.raises(GuardError):
        compose_conic(ScaledConic(1.0, 2.0), ScaledConic(1.0, 2.0))


def test_compose_conic_accepts_unit_factor_and_product_just_below_one():
    c1 = ScaledConic(1.0, 0.9999)
    compose_conic(c1, ScaledConic(1.0, 1.0))  # max = 1 branch, fine
    compose_conic(c1, ScaledConic(1.0, 1.0001))  # product 0.99999... < 1


def test_compose_conic_scales_multiply():
    got = compose_conic(ScaledConic(-2.0, 0.5), ScaledConic(3.0, 0.5))
    assert got.delta == -6.0 and math.isclose(got.alpha, 2.0 / 3.0, rel_tol=1e-15)


def test_compose_scaled_averaged_cocoercive():
    got = compose_scaled_averaged_cocoercive(ScaledConic(1.0, 0.5), 1.0)
    assert got.delta == 1.0 and math.isclose(got.alpha, 2.0 / 3.0, rel_tol=1e-15)
    got = compose_scaled_averaged_cocoercive(ScaledConic(2.0, 0.75), 1.5)
    assert got.delta == 3.0 and math.isclose(got.alpha, 0.8, rel_tol=1e-15)
    # near-identity averaged factor keeps the cocoercive class
    got = compose_scaled_averaged_cocoercive(ScaledConic(1.0, 1e-9), 1.0)
    assert math.isclose(got.alpha, 0.5, rel_tol=1e-8)
    with pytest.raises(DomainError):
        compose_scaled_averaged_cocoercive(ScaledConic(1.0, 1.5), 1.0)


def test_certify_ladder_order():
    # both scaled-conic: the sharp conic rule
    got = certify(ScaledConic(1.0, 0.5), ScaledConic(-2.0, 0.5))
    assert got == (ScaledConic(-2.0, 2.0 / 3.0), "conic")
    # (alpha, beta) pairs skip the conic rule
    p = INParams(0.5, 0.5)
    assert certify(p, p) == (INParams(1.0 / 3.0, 2.0 / 3.0), "two-factor-bound")
    # nonexpansive factors degenerate d1+d2 = 0: the scale-normalised bound
    got = certify(INParams(0.0, 1.0), INParams(0.0, 0.8))
    assert got == (ScaledConic(0.8, 1.0), "scale-normalized-bound")
    # a failed conic rule (product 1.5625) falls through to the (alpha, beta) rules
    c = ScaledConic(-2.0, 1.25)
    with pytest.raises(GuardError):
        compose_conic(c, c)
    assert certify(c, c) == (compose_general(c.to_in(), c.to_in()), "two-factor-bound")


def test_certify_reraises_the_last_rule():
    p1, p2 = from_label(ClassLabel.conic(1.7)), from_label(ClassLabel.conic(0.7))
    with pytest.raises(GuardError, match="kappa-theta"):
        certify(p1, p2)
    p = from_label(ClassLabel.neg_conic(0.5))
    with pytest.raises(DomainError, match="alpha\\+beta > 0"):
        certify(p, p)


def test_descriptor_protocol():
    p = INParams(-0.5, 1.5)
    assert p.to_in() is p
    assert p.to_json() == {"type": "in", "alpha": -0.5, "beta": 1.5}
    c = ScaledConic(-2.0, 0.75)
    assert c.to_json() == {"type": "scaled-conic", "delta": -2.0, "alpha": 0.75}
    assert naive_lipschitz(c, p) == c.to_in().lipschitz * p.lipschitz == 4.0


def test_compose_chain_examples():
    pair = compose_chain([ScaledConic(1.0, 0.5), ScaledConic(1.0, 0.5)], 0)
    assert pair.delta == 1.0 and math.isclose(pair.alpha, 2.0 / 3.0, rel_tol=1e-15)
    three = compose_chain([ScaledConic(1.0, 0.5)] * 3, 0)
    assert math.isclose(three.alpha, 0.75, rel_tol=1e-15)
    assert compose_chain([ScaledConic(1.0, 0.5)] * 3, np.int64(0)) == three


def test_compose_chain_rejects_counterexample():
    # eps=1, delta=2, a1=0.25 -> a2=3.25, a3=0.75; a_r * abar = 2.5
    items = [ScaledConic(1.0, 0.25), ScaledConic(1.0, 3.25), ScaledConic(1.0, 0.75)]
    with pytest.raises(GuardError) as e:
        compose_chain(items, 1)
    assert "2.5" in str(e.value)


def test_compose_chain_domain_errors():
    with pytest.raises(DomainError):
        compose_chain([ScaledConic(1.0, 0.5)], 0)
    with pytest.raises(DomainError):
        compose_chain([ScaledConic(1.0, 0.5), ScaledConic(1.0, 1.5)], 0)


@pytest.mark.parametrize("r, message", [
    (True, "index r must be an integer, got True"),
    (1.0, "index r must be an integer, got 1.0"),
    ("1", "index r must be an integer, got '1'"),
    (None, "index r must be an integer, got None"),
    (-1, "index r=-1 out of range for chain of length 2"),
], ids=["bool", "float", "str", "none", "negative"])
def test_compose_chain_index_is_an_integer(r, message):
    # True ran as index 1; 1.0 and "1" failed with a TypeError
    with pytest.raises(DomainError) as e:
        compose_chain([ScaledConic(1.0, 0.5), ScaledConic(1.0, 0.5)], r)
    assert str(e.value) == message


def test_compose_cocoercive_chain():
    assert compose_cocoercive_chain([1.0]) == ScaledConic(1.0, 0.5)
    two = compose_cocoercive_chain([1.0, 1.0])
    assert two.delta == 1.0 and two.alpha == 2.0 / 3.0
    chain = compose_chain([ScaledConic(1.0, 0.5)] * 2, 0)
    assert math.isclose(two.alpha, chain.alpha, rel_tol=1e-15)
    four = compose_cocoercive_chain([1.0, 2.0, 1.0, 2.0])
    assert four.delta == 4.0 and math.isclose(four.alpha, 0.8, rel_tol=1e-15)
    with pytest.raises(DomainError):
        compose_cocoercive_chain([])


# ---------------------------------------------------------------------------
# single-operator algebra


def test_rescale_averaged():
    labels = rescale_averaged(0.5, 0.8)
    assert labels[0] == ClassLabel.averaged(1.0 - 0.8 * 0.5)
    assert ClassLabel.contraction(0.8) in labels
    assert rescale_averaged(0.5, 1.0) == [ClassLabel.averaged(0.5)]
    with pytest.raises(DomainError):
        rescale_averaged(0.5, 1.2)


def test_averaged_refactor():
    got = averaged_refactor(0.5, 2.0)
    assert got.delta == 2.0 and got.alpha == 0.25


def test_displacement_class():
    assert displacement_class(ClassLabel.conic(1.0)) == ClassLabel.cocoercive(0.5)
    assert displacement_class(ClassLabel.averaged(0.25)) == ClassLabel.cocoercive(2.0)
    with pytest.raises(DomainError):
        displacement_class(ClassLabel.lipschitz(1.0))


def test_lipschitz_shift():
    shifted, rho = lipschitz_shift(2.0)
    assert shifted == ClassLabel.cocoercive(0.25)
    assert rho == -2.0


# ---------------------------------------------------------------------------
# cross-theorem properties

normalized_param = st.floats(0.05, 1.6)


@settings(max_examples=200)
@given(normalized_param, normalized_param)
def test_general_and_kappa_theta_agree_on_normalized_pairs(t1, t2):
    # On conic-normalized factors (alpha + beta = 1) the two routes compute
    # the same decomposition.  Stay clear of the degenerate product boundary
    # where both routes lose digits to the same cancellation.
    if t1 * t2 >= 0.98:
        return
    p1, p2 = INParams(1.0 - t1, t1), INParams(1.0 - t2, t2)
    general = compose_general(p1, p2)
    scaled = compose_kappa_theta(p1, p2)
    a2, b2 = scaled.delta * (1.0 - scaled.alpha), scaled.delta * scaled.alpha
    assert math.isclose(general.alpha, a2, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(general.beta, b2, rel_tol=1e-12)


@settings(max_examples=100)
@given(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=6))
def test_chain_matches_pairwise_fold(alphas):
    items = [ScaledConic(1.0, a) for a in alphas]
    chain = compose_chain(items, 0)
    acc = items[0]
    for item in items[1:]:
        acc = compose_conic(acc, item)
    assert math.isclose(chain.alpha, acc.alpha, rel_tol=1e-12)
    assert math.isclose(chain.delta, acc.delta, rel_tol=1e-12)


def test_chain_matches_fold_with_one_conic_factor():
    items = [ScaledConic(1.0, 1.5), ScaledConic(1.0, 0.3), ScaledConic(1.0, 0.2)]
    chain = compose_chain(items, 0)
    acc = items[0]
    for item in items[1:]:
        acc = compose_conic(acc, item)
    assert math.isclose(chain.alpha, acc.alpha, rel_tol=1e-12)
