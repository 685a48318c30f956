"""Sampled membership checks, the composition identity oracle, named cases."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from opsplit import operators as ops
from opsplit import verifier
from opsplit.calculus import ClassLabel, INParams, ScaledConic
from opsplit.errors import DomainError
from opsplit.operators import Op, build_in_operator, build_rotation, identity, matrix_op
from opsplit.sampling import DEFAULT_SEED, _row_dot, pair_samples
from opsplit.verifier import (
    COMPOSITION_KINDS,
    _in_violations,
    check_composition_identity,
    check_membership,
    check_monotone,
    fit_tightest,
    random_certified_composition,
    random_orthogonal,
    run_named_case,
    run_named_suite,
    run_random_suite,
)

mp.dps = 40

FAMILIES = ("lipschitz", "averaged", "conic", "cocoercive")


def _moments(dx, dt):
    # ||x-y||^2, ||Tx-Ty||^2 and <x-y, Tx-Ty> per pair, as the verifier reduces them
    return _row_dot(dx, dx), _row_dot(dt, dt), _row_dot(dx, dt)


# ---------------------------------------------------------------------------
# membership


def test_identity_is_strictly_identity_class():
    rep = check_membership(identity(2), INParams(1.0, 0.0), pairs=500)
    assert rep.passed and rep.worst_violation <= 0.0


def test_rotation_is_exactly_nonexpansive():
    rep = check_membership(build_rotation(1.3), INParams(0.0, 1.0), pairs=500)
    assert rep.passed
    assert abs(rep.worst_violation) < 1e-12  # isometry: the bound is an equality


def test_composed_firmly_nonexpansive_pair(rng):
    r1 = ops.compose(
        build_in_operator(0.5, 0.5, random_orthogonal(rng)),
        build_in_operator(0.5, 0.5, random_orthogonal(rng)),
    )
    rep = check_membership(r1, INParams(1.0 / 3.0, 2.0 / 3.0), pairs=10_000)
    assert rep.passed


def test_membership_fails_for_false_claim():
    t = ops.scale(1.5, identity(2))
    rep = check_membership(t, INParams(0.0, 1.0), pairs=200)
    assert not rep.passed and rep.worst_violation > 1.0


@pytest.mark.parametrize("check", ["membership", "monotone"])
def test_worst_pair_is_a_copy_of_the_cached_sample(check):
    T = ops.scale(1.5, build_rotation(1.3))

    def run():
        if check == "membership":
            return check_membership(T, INParams(0.0, 1.0), pairs=300)
        return check_monotone(T, 1.0, pairs=300)

    first = run()
    x, y = first.worst_pair
    assert x.flags.writeable and y.flags.writeable
    x_saved, y_saved = x.copy(), y.copy()
    xs, ys = pair_samples(300, 2, seed=DEFAULT_SEED)
    xs_saved, ys_saved = xs.copy(), ys.copy()
    x[:] = 1e9
    y[:] = -1e9
    assert np.array_equal(xs, xs_saved) and np.array_equal(ys, ys_saved)
    second = run()
    assert second.worst_violation == first.worst_violation
    assert np.array_equal(second.worst_pair[0], x_saved)
    assert np.array_equal(second.worst_pair[1], y_saved)


def test_checks_and_fits_share_one_reduction():
    rng = np.random.default_rng(3)
    for kind in COMPOSITION_KINDS:
        T, cert, _ = random_certified_composition(kind, rng)
        other = random_certified_composition(kind, rng)[0]
        misses = verifier._sample.cache_info().misses
        # keywords or positions: one cache key
        for t, pairs, seed in [(T, 1000, 5), (other, 1000, 5), (other, 1001, 5), (other, 1001, 6)]:
            check_membership(t, cert, pairs=pairs, seed=seed)
            for family in FAMILIES:
                try:
                    fit_tightest(t, family, pairs, seed)
                except DomainError:
                    pass
            check_monotone(t, 0.0, pairs, seed=seed)
        # one evaluation of _sample per (T, pairs, seed), each change of one
        # of them evaluating again
        evaluations = verifier._sample.cache_info().misses - misses
        assert evaluations == 4, (kind, evaluations)


def test_cached_moments_are_read_only():
    T = ops.scale(1.5, build_rotation(1.3))
    check_membership(T, INParams(0.0, 1.0), pairs=300)
    hits = verifier._sample.cache_info().hits
    moments = verifier._sample(T, 300, DEFAULT_SEED)[2]
    assert verifier._sample.cache_info().hits == hits + 1
    for m in moments:
        with pytest.raises(ValueError, match="read-only"):
            m[0] = 0.0


def _unmemoised_call(call, T, cert, pairs, seed):
    # The result of one check or fit, as a tuple of exact values, with the
    # sample evaluated and reduced afresh for this call.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_sample", verifier._sample.__wrapped__)
        return _call_key(call, T, cert, pairs, seed)


def _call_key(call, T, cert, pairs, seed):
    if call == "membership":
        rep = check_membership(T, cert, pairs, seed)
    elif call == "monotone":
        rep = check_monotone(T, 0.25, pairs, seed)
    else:
        try:
            return ("fit", float(fit_tightest(T, call, pairs, seed).value).hex())
        except DomainError as exc:
            return ("raised", str(exc))
    x, y = rep.worst_pair
    return (rep.pairs_tested, float(rep.worst_violation).hex(), rep.passed,
            x.tobytes(), y.tobytes())


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(COMPOSITION_KINDS),
    st.sampled_from([100, 700, 2000]),
    st.lists(st.sampled_from(("membership", "monotone") + FAMILIES), min_size=1, max_size=8),
)
def test_memoised_checks_and_fits_equal_unmemoised_ones(seed, kind, pairs, calls):
    # Any order of checks and fits on one (T, pairs, seed) gives, bit for bit,
    # what each gives on a sample evaluated and reduced for it alone; and
    # membership and monotonicity equal the formulas they document.
    T, cert, _ = random_certified_composition(kind, np.random.default_rng(seed))
    got = [_call_key(call, T, cert, pairs, seed) for call in calls]
    assert got == [_unmemoised_call(call, T, cert, pairs, seed) for call in calls]
    xs, ys = pair_samples(pairs, T.dim, seed=seed)
    dx, dt = xs - ys, T(xs) - T(ys)
    nd, ndt, ip = np.sum(dx * dx, axis=1), np.sum(dt * dt, axis=1), np.sum(dx * dt, axis=1)
    p = cert.to_in()
    a, b = p.alpha, p.beta
    v = (ndt - 2.0 * a * ip - (b - a) * (b + a) * nd) / nd
    if isinstance(cert, ScaledConic):
        v /= cert.delta**2
    for call, key in zip(calls, got):
        if call in ("membership", "monotone"):
            w = v if call == "membership" else 0.25 - ip / nd
            i = int(np.argmax(w))
            assert float.fromhex(key[1]) == w[i] and key[2] == (w[i] <= 1e-9)
            assert key[3] == xs[i].tobytes()


def test_membership_does_not_cancel_at_large_parameters():
    # INParams(1 - q, q) has b^2 - a^2 = 2q - 1; squaring each term loses
    # ~ulp(q^2) ~ 1e-6, far above tol, while (b - a)(b + a) is exact here
    q = 123456.789
    rep = check_membership(matrix_op(np.diag([1.0, 0.0])), INParams(1.0 - q, q))
    assert rep.passed and rep.worst_violation == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.floats(-2.0, 2.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 10.0),
)
def test_conic_violations_reduce_to_in_violations(seed, dim, log_m, sign, log_delta, a):
    # (1/delta) T is a-conic iff T is in to_in(): per pair the in-violation
    # that check_membership reports for a ScaledConic, divided by delta^2,
    # is the conic characterization's violation of T' = T/delta, up to
    # rounding relative to the size of their terms
    rng = np.random.default_rng(seed)
    T = matrix_op(10.0**log_m * rng.standard_normal((dim, dim)), rng.standard_normal(dim))
    c = ScaledConic(sign * 10.0**log_delta, a)
    xs, ys = pair_samples(100, dim, seed=seed)
    dx, dt = xs - ys, T(xs) - T(ys)
    # (1-a)||(Id-T')x - (Id-T')y||^2 + a||T'x-T'y||^2 - a||x-y||^2, normalized
    dts = dt / c.delta
    nd = _row_dot(dx, dx)
    conic = ((1.0 - a) * _row_dot(dx - dts, dx - dts) + a * _row_dot(dts, dts) - a * nd) / nd
    got = _in_violations(_moments(dx, dt), c.to_in()) / c.delta**2
    r = np.sum(dt * dt, axis=1) / np.sum(dx * dx, axis=1)
    bound = 1e-12 * (a + abs(1.0 - a)) * (1.0 + r / c.delta**2)
    assert np.all(np.abs(got - conic) <= bound)
    rep = check_membership(T, c, pairs=100, seed=seed)
    assert abs(rep.worst_violation - np.max(conic)) <= np.max(bound)


def test_membership_scaled_conic_descriptor(rng):
    a, d = 0.7, -2.0
    t = ops.scale(d, build_in_operator(1 - a, a, random_orthogonal(rng)))
    rep = check_membership(t, ScaledConic(d, a), pairs=2000)
    assert rep.passed
    rep = check_membership(t, ScaledConic(d, a / 2), pairs=2000)
    assert not rep.passed


@pytest.mark.parametrize("T, match", [
    (ops.scale(1e200, identity(2)), "moments of T\\(x\\) - T\\(y\\) overflow"),
    (identity(2), "delta\\*\\*2 overflows"),
])
def test_membership_rejects_a_scaled_conic_check_that_overflows(T, match):
    # T = 1e200*Id is in the class, but ||Tx - Ty||^2 overflows; on Id the
    # moments are finite and delta**2 overflows.  Neither may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            check_membership(T, ScaledConic(1e200, 0.5), pairs=200)


@pytest.mark.parametrize("check, pairs", [
    (lambda pairs: check_membership(identity(2), INParams(1.0, 0.0), pairs=pairs), 0),
    (lambda pairs: check_monotone(identity(2), 1.0, pairs=pairs), -5),
    (lambda pairs: pair_samples(pairs, 2), 0),
])
def test_too_few_pairs_is_a_domain_error(check, pairs):
    # as fit_tightest rejects fewer than 100 pairs
    with pytest.raises(DomainError, match="at least one pair"):
        check(pairs)


@pytest.mark.parametrize("check, message", [
    (lambda: check_membership(identity(2), INParams(1.0, 0.0), pairs=10, seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: check_membership(identity(2), INParams(1.0, 0.0), pairs=10, seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: check_membership(identity(2), INParams(1.0, 0.0), pairs=10.0),
     "pairs must be an integer, got 10.0"),
    (lambda: check_monotone(identity(2), 1.0, pairs=10, seed=-1), "seed must be >= 0, got -1"),
    (lambda: check_monotone(identity(2), 1.0, pairs=10, seed=True),
     "seed must be an integer, got True"),
    (lambda: fit_tightest(identity(2), "lipschitz", pairs=100, seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: fit_tightest(identity(2), "lipschitz", pairs=100.5),
     "pairs must be an integer, got 100.5"),
    (lambda: fit_tightest(identity(2), "lipschitz", pairs="x"), "pairs must be an integer, got 'x'"),
    (lambda: fit_tightest(identity(2), "lipschitz", pairs=None), "pairs must be an integer, got None"),
    (lambda: fit_tightest(identity(2), "lipschitz", pairs=True), "pairs must be an integer, got True"),
    (lambda: pair_samples(10, 2.0), "dim must be an integer, got 2.0"),
    (lambda: pair_samples(10, True), "dim must be an integer, got True"),
    (lambda: pair_samples(None, 2), "pairs must be an integer, got None"),
    (lambda: pair_samples(10, 2, seed="1"), "seed must be an integer, got '1'"),
    (lambda: run_random_suite(count=2.5), "count must be an integer >= 1, got 2.5"),
    (lambda: run_random_suite(count=-1), "count must be an integer >= 1, got -1"),
    (lambda: run_random_suite(count=True), "count must be an integer >= 1, got True"),
    (lambda: run_random_suite(count="1"), "count must be an integer >= 1, got '1'"),
    (lambda: run_random_suite(count=1, seed=-1), "seed must be an integer >= 0, got -1"),
    (lambda: run_random_suite(count=1, seed=None), "seed must be an integer >= 0, got None"),
], ids=["membership-seed-negative", "membership-seed-float", "membership-pairs-float",
        "monotone-seed-negative", "monotone-seed-bool", "fit-seed-negative", "fit-pairs-float",
        "fit-pairs-str", "fit-pairs-none", "fit-pairs-bool", "pair_samples-dim-float",
        "pair_samples-dim-bool", "pair_samples-pairs-none", "pair_samples-seed-str",
        "random-count-float", "random-count-negative", "random-count-bool", "random-count-str",
        "random-seed-negative", "random-seed-none"])
def test_a_non_integer_size_or_a_negative_seed_is_a_domain_error(check, message):
    # each but the bool seed and fit_tightest's bool pairs used to fail inside
    # numpy or Python with a ValueError or a TypeError; True ran as seed 1 and
    # as count 1, a negative count returned no reports, and True pairs read as
    # fewer than 100
    with pytest.raises(DomainError) as e:
        check()
    assert str(e.value) == message


def test_numpy_integer_sizes_and_seeds_are_accepted():
    xs, ys = pair_samples(np.int64(10), np.int32(2), seed=np.uint8(3))
    want = pair_samples(10, 2, seed=3)
    assert np.array_equal(xs, want[0]) and np.array_equal(ys, want[1])
    t = ops.scale(0.75, identity(2))
    assert (fit_tightest(t, "lipschitz", pairs=np.int64(100), seed=np.int64(3))
            == fit_tightest(t, "lipschitz", pairs=100, seed=3))
    assert run_random_suite(count=np.int64(1), seed=np.int64(5)) == run_random_suite(1, 5)


@pytest.mark.parametrize("check", [
    lambda op: check_membership(op, INParams(1.0, 0.0), pairs=10),
    lambda op: check_monotone(op, 0.0, pairs=10),
    lambda op: pair_samples(10, op.dim),
], ids=["membership", "monotone", "pair_samples"])
def test_a_sample_without_dimensions_is_a_domain_error(check):
    with pytest.raises(DomainError, match="at least one dimension, got 0"):
        check(Op(lambda x: x, 0))


# ---------------------------------------------------------------------------
# monotonicity


def test_monotone_scaled_identity():
    f = ops.ScaledIdentity(2.0, dim=2).forward()
    assert check_monotone(f, 2.0, pairs=500).passed
    assert not check_monotone(f, 2.1, pairs=500).passed


def test_monotone_rotation_boundary():
    s = build_rotation(math.pi / 2)
    assert check_monotone(s, 0.0, pairs=500).passed
    assert not check_monotone(s, 0.1, pairs=500).passed


def test_monotone_chain_counterexample_displacement():
    rep = run_named_case("chain-reject")
    assert rep.guard_rejected and rep.empirical_failed
    assert abs(rep.details["monotonicity_slack"] - (-0.5)) < 1e-12


# ---------------------------------------------------------------------------
# characterization equivalence


def characterization_violations(T: Op, p: INParams, xs, ys, variant: str) -> np.ndarray:
    """Normalized violations of the four equivalent membership inequalities.

    Variants ``b``..``e`` express nonexpansiveness of the residual factor via
    the image difference, the displacement difference, or convex mixtures of
    both; all four are algebraically equal and must agree numerically.
    """
    a, b = p.alpha, p.beta
    dx = xs - ys
    dt = T(xs) - T(ys)
    dd = dx - dt
    nd = _row_dot(dx, dx)
    ndt = _row_dot(dt, dt)
    ndd = _row_dot(dd, dd)
    ip_x_t = _row_dot(dx, dt)
    ip_t_d = _row_dot(dt, dd)
    if variant == "b":
        lhs = ndt - 2.0 * a * ip_x_t - (b * b - a * a) * nd
    elif variant == "c":
        lhs = (1.0 - 2.0 * a) * ndt - 2.0 * a * ip_t_d - (b * b - a * a) * nd
    elif variant == "d":
        lhs = (2.0 * a - 1.0) * ndd - 2.0 * (1.0 - a) * ip_t_d - (b * b - (1.0 - a) ** 2) * nd
    else:
        lhs = (1.0 - a) * ndt + a * ndd - (b * b - a * (a - 1.0)) * nd
    return lhs / nd


def test_characterizations_agree(rng):
    # 100 random certified operators: the four equivalent inequalities agree
    xs, ys = pair_samples(200, 2, seed=11)
    for _ in range(100):
        a = rng.uniform(-1.5, 0.99)
        b = rng.uniform(0.0, 2.0)
        orth = random_orthogonal(rng)(np.eye(2)).T
        t = matrix_op(a * np.eye(2) + b * orth)
        p = INParams(a, b)
        views = [characterization_violations(t, p, xs, ys, v) for v in "bcde"]
        for v in views[1:]:
            assert np.allclose(v, views[0], atol=1e-9)
        passes = [bool(np.max(v) <= 1e-9) for v in views]
        assert len(set(passes)) == 1


# ---------------------------------------------------------------------------
# composition identity


def test_identity_operators_zero_residual():
    # dyadic relaxation weights make the cancellation exact in floats
    for lam in (0.0, 0.25, 0.5, 1.0):
        assert check_composition_identity(identity(2), identity(2), lam, pairs=200) == 0.0
    assert check_composition_identity(identity(2), identity(2), 0.37, pairs=200) <= 1e-14


def test_rotation_pair_identity_residual():
    s = build_rotation(math.pi / 2)
    res = check_composition_identity(s, ops.negate(s), 0.3, pairs=500)
    assert res <= 1e-12


def test_random_affine_identity_residual(rng):
    for _ in range(20):
        r1 = matrix_op(rng.standard_normal((2, 2)), rng.standard_normal(2))
        r2 = matrix_op(rng.standard_normal((2, 2)), rng.standard_normal(2))
        lam = rng.uniform(-1.0, 2.0)
        assert check_composition_identity(r1, r2, lam, pairs=300) <= 1e-10


def test_identity_against_highprecision_rederivation(rng):
    # one instance recomputed at 40 digits: both sides agree to ~1e-35
    m1, b1 = rng.standard_normal((2, 2)), rng.standard_normal(2)
    m2, b2 = rng.standard_normal((2, 2)), rng.standard_normal(2)
    lam = mpf("0.37")
    x = [mpf("0.3"), mpf("-1.2")]
    y = [mpf("2.1"), mpf("0.7")]

    def apply(m, b, v):
        return [
            mpf(m[0][0]) * v[0] + mpf(m[0][1]) * v[1] + mpf(b[0]),
            mpf(m[1][0]) * v[0] + mpf(m[1][1]) * v[1] + mpf(b[1]),
        ]

    def sub(u, v):
        return [u[0] - v[0], u[1] - v[1]]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    r1x, r1y = apply(m1, b1, x), apply(m1, b1, y)
    r21x, r21y = apply(m2, b2, r1x), apply(m2, b2, r1y)
    dx = sub(x, y)
    d1 = sub(r1x, r1y)
    d21 = sub(r21x, r21y)
    drl = [(1 - lam) * dx[i] + lam * d21[i] for i in range(2)]
    ddl = sub(dx, drl)
    lhs = dot(drl, ddl)
    rhs = (
        (1 - 2 * lam) * dot(dx, ddl)
        + lam * lam * dot([dx[i] + d1[i] for i in range(2)], sub(dx, d1))
        + lam * lam * dot([d1[i] + d21[i] for i in range(2)], sub(d1, d21))
    )
    assert abs(lhs - rhs) < mpf("1e-34")


# ---------------------------------------------------------------------------
# tightest-class fitting


def test_fit_lipschitz_scaled_identity():
    lab = fit_tightest(ops.scale(0.75, identity(2)), "lipschitz", pairs=500)
    assert abs(lab.value - 0.75) <= 1e-6


def test_fit_lipschitz_fb_tight_map():
    from opsplit.splitting import build_fb, plan_fb

    plan = plan_fb("I", mu=2.0, omega=1.0, beta=1.0, gamma=0.2)
    t = build_fb(plan, ops.ScaledIdentity(2.0, dim=2), ops.ScaledIdentity(-1.0, dim=2))
    lab = fit_tightest(t, "lipschitz", pairs=500)
    assert abs(lab.value - plan.delta) <= 1e-6


def test_fit_conic_fails_on_counterexample():
    rot = build_rotation(math.pi / 2)
    r1 = build_in_operator(-1.0, 2.0, rot)
    r2 = build_in_operator(-1.0, 2.0, ops.negate(rot))
    with pytest.raises(DomainError, match="not in family"):
        fit_tightest(ops.compose(r2, r1), "conic", pairs=500)


def test_fit_never_exceeds_construction(rng):
    for _ in range(10):
        a = rng.uniform(0.1, 0.9)
        t = build_in_operator(1 - a, a, random_orthogonal(rng))
        lab = fit_tightest(t, "averaged", pairs=500)
        assert lab.value <= a + 1e-6
    t = ops.scale(0.5, ops.shift(1.0, random_orthogonal(rng)))  # 1-cocoercive
    lab = fit_tightest(t, "cocoercive", pairs=500)
    assert 1.0 / lab.value <= 1.0 + 1e-6  # fitted diameter at most 1


def test_fit_rejects_small_samples():
    with pytest.raises(DomainError):
        fit_tightest(identity(2), "lipschitz", pairs=10)


def test_fit_rejects_unknown_family_before_evaluating_T(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("called before the family was checked")

    monkeypatch.setattr(verifier, "pair_samples", boom)
    with pytest.raises(DomainError, match="unknown family"):
        fit_tightest(Op(boom, 2), "contractive")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("check", FAMILIES + ("membership", "monotone"))
def test_fit_rejects_non_finite_images(bad, check):
    # fits and both checks reject them by one rule; a few rows only, and at
    # (inf, -inf) <x-y, Tx-Ty> would form inf - inf, as T(x) - T(y) does where
    # both points of a pair map to the same infinity, which must not surface
    # as a floating-point warning before the DomainError
    def fn(x):
        y = 0.5 * x
        y[x[..., 0] > 2.0] = [bad, -bad]
        y[x[..., 1] > 1.0] = bad
        return y

    T = Op(fn, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            if check == "membership":
                check_membership(T, INParams(0.0, 1.0), pairs=2000)
            elif check == "monotone":
                check_monotone(T, 0.0, pairs=2000)
            else:
                fit_tightest(T, check, pairs=2000)


def _reference_moments(T, pairs, seed):
    xs, ys = pair_samples(pairs, T.dim, seed=seed)
    dx = xs - ys
    dt = T(xs) - T(ys)
    return np.sum(dx * dx, axis=1), np.sum(dt * dt, axis=1), np.sum(dx * dt, axis=1)


def _reference_violations(moments, family, param):
    """The frozen membership values of ``_bisect_fit`` at ``param``.

    Returned with ``8 eps * sum|terms| / ||x-y||^2`` per pair, which bounds
    how far this formula and ``verifier._in_violations`` together can round
    away from the exact value on the same moments.
    """
    if family == "lipschitz":
        p = INParams(0.0, param)
    elif family in ("averaged", "conic"):
        p = INParams(1.0 - param, param)
    else:
        p = INParams(param / 2.0, param / 2.0)
    a, b = p.alpha, p.beta
    nd, ndt, ip = moments
    v = (ndt - 2.0 * a * ip - (b * b - a * a) * nd) / nd
    err = 8.0 * np.finfo(float).eps * (ndt + abs(2.0 * a * ip) + (b * b + a * a) * nd) / nd
    return v, err


# The frozen reference's own family -> label map, so that it does not follow
# production's ``verifier._FAMILIES``.
_REFERENCE_LABELS = {
    "lipschitz": ClassLabel.lipschitz,
    "averaged": ClassLabel.averaged,
    "conic": ClassLabel.conic,
    "cocoercive": lambda q: ClassLabel.cocoercive(1.0 / q),
}


def _bisect_fit(T, family, pairs=10_000, tol=1e-9, seed=DEFAULT_SEED):
    """Reference: the bisection ``fit_tightest`` used before the closed form.

    Frozen with the membership formula of that time, which forms ``b^2 - a^2``
    by squaring each term, so it does not follow later changes to
    ``verifier._in_violations``.
    """
    moments = _reference_moments(T, pairs, seed)

    def passes(param):
        return float(np.max(_reference_violations(moments, family, param)[0])) <= tol

    lo, hi = 1e-6, 1.0 - 1e-12 if family == "averaged" else 1e6
    if passes(lo):
        return _REFERENCE_LABELS[family](lo)
    if not passes(hi):
        raise DomainError(f"not in family {family!r} at sampled pairs")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return _REFERENCE_LABELS[family](hi)


def _fit_or_none(fit, T, family, seed):
    try:
        return fit(T, family, pairs=2000, seed=seed)
    except DomainError:
        return None


def _check_against_bisection(T, family, seed):
    tested = []

    def recording(moments, p):
        tested.append(p)
        return _in_violations(moments, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_in_violations", recording)
        got = _fit_or_none(fit_tightest, T, family, seed)
    want = _fit_or_none(_bisect_fit, T, family, seed)
    assert (got is None) == (want is None), (family, got, want)
    if got is None:
        return
    # the returned class is the last one tested, and it passes on the pairs
    p = tested[-1]
    q = 2.0 * p.alpha if family == "cocoercive" else p.beta  # the fitted parameter
    assert got.value == (1.0 / q if family == "cocoercive" else q)
    xs, ys = pair_samples(2000, T.dim, seed=seed)
    moments = _moments(xs - ys, T(xs) - T(ys))
    assert np.max(_in_violations(moments, p)) <= 1e-9
    if abs(got.value - want.value) <= 1e-12 * want.value:
        return
    # Where the binding pair is near-tangent (c close to 1), the reference's
    # b*b - a*a cancels and can reject a fit that (b - a)(b + a) accepts; its
    # bisection then stops above the fit.  Only there may the two differ: the
    # fit must be tighter, on the boundary of the production test, and below
    # the bisection by at most what rounding explains.
    ref = _reference_moments(T, 2000, seed)
    assert np.max(_reference_violations(ref, family, q)[0]) > 1e-9, (family, got, want)
    q_want = 1.0 / want.value if family == "cocoercive" else want.value
    assert q < q_want, (family, got, want)
    descriptor, _ = verifier._FAMILIES[family]
    below = descriptor(math.nextafter(q, 0.0))
    assert np.max(_in_violations(moments, below)) > 1e-9, (family, got, want)
    # The bisection rejected the float below its result.  A pair that does so
    # while production accepts q lies within its two rounding errors of tol at
    # both ends, so the gap is at most err / |dv/dq|: its conditioning.
    v, err = _reference_violations(ref, family, math.nextafter(q_want, 0.0))
    nd, _, ip = ref
    c = ip / nd
    if family == "lipschitz":
        slope = np.full_like(c, 2.0 * q_want)
    else:
        slope = c if family == "cocoercive" else 2.0 * (1.0 - c)
    holding = v > 1e-9
    with np.errstate(divide="ignore"):
        gap = float(np.max(err[holding] / np.abs(slope[holding]), initial=0.0))
    assert q_want - q <= gap, (family, got, want, gap)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(COMPOSITION_KINDS))
# near-tangent binding pair: the reference formula rejects the fit
@example(seed=15884376, kind="averaged-averaged")
def test_fit_matches_bisection_on_random_compositions(seed, kind):
    T = random_certified_composition(kind, np.random.default_rng(seed))[0]
    for family in FAMILIES:
        _check_against_bisection(T, family, seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.8))
def test_fit_matches_bisection_on_expansive_rotation(seed, theta):
    # c = 1.5*cos(theta) > 1 on every pair: averaged and conic are refuted
    T = ops.scale(1.5, build_rotation(theta))
    for family in FAMILIES:
        _check_against_bisection(T, family, seed)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0), st.sampled_from([0.0, 1e-16, 2e-15]))
def test_fit_cocoercive_matches_bisection_with_non_positive_pairs(seed, k, s):
    # the axis pairs along the second direction have c = -s <= 0; at s = 2e-15
    # they refute the family at the bracket's upper end
    _check_against_bisection(matrix_op(np.diag([k, -s])), "cocoercive", seed)


def test_fit_conic_of_projection_ignores_float_noise_at_large_parameters():
    # Id on the first axis: at conic parameters near 1e6, q^2 - (1-q)^2 rounds
    # by ~1e-4, far above tol, so the sampled test is noisy there and the
    # bisection settled near 1e6; the projection is 1/2-conic.
    T = matrix_op(np.diag([1.0, 0.0]))
    assert 0.5 - 1e-6 <= fit_tightest(T, "conic").value <= 0.5
    assert _bisect_fit(T, "conic").value > 1e5


def test_fit_makes_few_membership_passes(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _in_violations(*args)

    monkeypatch.setattr(verifier, "_in_violations", counted)
    rng = np.random.default_rng(5)
    for _ in range(4):
        for kind in COMPOSITION_KINDS:
            T = random_certified_composition(kind, rng)[0]
            for family in FAMILIES:
                calls[0] = 0
                try:
                    fit_tightest(T, family)
                except DomainError:
                    pass
                assert 1 <= calls[0] <= 10, (kind, family, calls[0])


def test_lipschitz_fit_and_certificates_match_exact_affine_oracle():
    # T x = M x + b: the tightest Lipschitz constant is sigma_max(M), and T is
    # in INParams(a, b) iff lambda_max(M^T M - a(M + M^T) + (a^2 - b^2) I) <= 0
    rng = np.random.default_rng(13)
    for i in range(30):
        T, cert, _ = random_certified_composition(COMPOSITION_KINDS[i % 3], rng)
        m = T.matrix
        assert isinstance(m, np.ndarray)
        sigma = float(np.linalg.norm(m, 2))
        fit = fit_tightest(T, "lipschitz").value
        assert sigma * (1.0 - 1e-6) <= fit <= sigma * (1.0 + 1e-12), (i, fit, sigma)
        p = cert.to_in()
        gram = m.T @ m - p.alpha * (m + m.T) + (p.alpha**2 - p.beta**2) * np.eye(len(m))
        assert np.linalg.eigvalsh(gram)[-1] <= 1e-9 * (1.0 + sigma**2), (i, cert)


# ---------------------------------------------------------------------------
# named cases


def test_named_suite_all_agree():
    for rep in run_named_suite():
        assert rep.agree, (rep.name, rep.to_json())


def test_kappa_sign_details():
    rep = run_named_case("kappa-sign")
    assert rep.details["kappa"] == -4.0
    assert rep.guard_rejected and rep.empirical_failed
    assert rep.details["monotonicity_slack"] <= -0.4 + 1e-6


def test_kappa_sign_positive_instance_accepts():
    rep = verifier._rotation_counterexample(math.pi / 2, 0.5, 0.5)
    assert not rep.guard_rejected and not rep.empirical_failed and rep.agree


def test_ex_cases_parameters_propagate():
    rep = run_named_case("ex-cases-i")
    assert rep.params["alpha1"] == 2.0 and rep.params["alpha2"] == 2.0
    assert rep.details["kappa"] == -4.0


def test_dr_divergence_case_variants():
    rep = run_named_case("dr-divergence")
    assert rep.agree and rep.details["diverged"]
    osc = verifier._case_dr_divergence(gamma=0.5)
    assert osc.agree and not osc.details["diverged"]  # oscillation, factor -1
    assert abs(osc.details["orthogonal_factor"] + 1.0) < 1e-15
    ok = verifier._case_dr_divergence(gamma=0.1)
    assert ok.agree and not ok.guard_rejected and not ok.empirical_failed


def test_fb_tight_cases():
    rep = run_named_case("fb-tight-contraction")
    assert rep.agree and abs(rep.details["empirical_rate"] - 0.75) <= 1e-12
    rep = run_named_case("fb-tight-negative")
    assert rep.agree and abs(rep.details["empirical_rate"] - 7.0 / 11.0) <= 1e-12


def test_unknown_case_rejected():
    with pytest.raises(DomainError):
        run_named_case("nope")


# ---------------------------------------------------------------------------
# random guard soundness


def test_random_suite_reproducible():
    a = run_random_suite(count=6, seed=7)
    b = run_random_suite(count=6, seed=7)
    assert a == b
    assert all(r["passed"] for r in a)


def test_guard_soundness_thousand_draws(rng):
    # across the certified composition families, every guard-approved
    # descriptor passes membership on rotation-family operators
    for i in range(1000):
        kind = ("averaged-averaged", "conic-conic", "scaled-averaged-cocoercive")[i % 3]
        op, cert, _ = random_certified_composition(kind, rng)
        rep = check_membership(op, cert, pairs=1000)
        assert rep.passed, (kind, cert, rep.worst_violation)
