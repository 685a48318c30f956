"""Evaluatable operators: rotations, resolvents, proximal maps, combinators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsplit import calculus, sampling
from opsplit.calculus import INParams, ScaledConic
from opsplit.errors import BuildError, DomainError, GuardError
from opsplit.operators import (
    Affine,
    Op,
    QuadraticGradient,
    ScaledIdentity,
    SubspaceNormalPlusScale,
    build_in_operator,
    build_rotation,
    compose,
    difference,
    identity,
    negate,
    relax,
    rotation_matrix,
    scale,
    shift,
)
from opsplit.sampling import pair_samples
from opsplit.verifier import check_membership

from conftest import random_monotone_affine


def grid_argmin(objective, lo=-6.0, hi=6.0, n=2_000_001):
    """Brute-force 1D minimizer used as the prox oracle."""
    ys = np.linspace(lo, hi, n)
    return ys[int(np.argmin(objective(ys)))]


# ---------------------------------------------------------------------------
# rotations and decomposition builders


def test_rotation_quarter_turn():
    s = build_rotation(math.pi / 2)
    assert np.allclose(s(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)
    # S^2 = -Id
    x = np.array([0.3, -1.7])
    assert np.allclose(compose(s, s)(x), -x, atol=1e-15)


def test_rotation_zero_angle_is_identity():
    r = build_rotation(0.0)
    x = np.array([2.0, -1.0])
    assert np.allclose(r(x), x)
    assert r.certificate == INParams(0.0, 1.0)


def test_rotation_scale_certificate():
    r = scale(-2.5, build_rotation(0.3))
    assert r.certificate == INParams(0.0, 2.5)
    x = np.array([0.4, -1.3])
    assert np.array_equal(r(x), (-2.5 * rotation_matrix(0.3)) @ x)


def test_build_in_operator():
    rot = build_rotation(1.0)
    t = build_in_operator(0.25, 0.75, rot)
    x = np.array([1.0, 2.0])
    assert np.allclose(t(x), 0.25 * x + 0.75 * rot(x))
    assert t.certificate == INParams(0.25, 0.75)


def test_build_in_operator_zero_map_is_cocoercive():
    t = build_in_operator(0.5, 0.5, negate(identity(2)))
    assert np.allclose(t(np.array([3.0, -4.0])), 0.0)
    rep = check_membership(t, INParams(0.5, 0.5), pairs=1000)
    assert rep.passed


def test_build_in_operator_requires_nonexpansive_certificate():
    bad = scale(2.0, identity(2))  # certified 2-Lipschitz
    with pytest.raises(BuildError):
        build_in_operator(0.5, 0.5, bad)
    with pytest.raises(BuildError):
        build_in_operator(0.5, 0.5, identity(2).__class__(lambda x: x, 2))


# ---------------------------------------------------------------------------
# resolvents


def test_scaled_identity_resolvent():
    spec = ScaledIdentity(-0.5, dim=2)
    j = spec.resolvent(1.0)  # 1/(1 - 1*0.5) = 2
    assert np.allclose(j(np.array([1.0, 2.0])), [2.0, 4.0])
    r = spec.reflected_resolvent(1.0)
    assert np.allclose(r(np.array([1.0, 0.0])), [3.0, 0.0])


@pytest.mark.parametrize("c, gamma", [(-0.5, 1.0), (-0.25, 2.0), (-0.3, 1.5), (0.0, 1.0)])
def test_reflected_lipschitz_is_attained_by_a_scaled_identity(c, gamma):
    # For gamma*c in ]-1, 0] the reflected resolvent of c*Id is the scalar
    # (1 - gamma c)/(1 + gamma c): resolvent_class's Lipschitz constant, attained.
    lip = calculus.resolvent_class(gamma * c).reflected_lipschitz
    r = ScaledIdentity(c, dim=3).reflected_resolvent(gamma)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(r(x), (1.0 - gamma * c) / (1.0 + gamma * c) * x, rtol=1e-15, atol=0.0)
    assert math.isclose(lip, (1.0 - gamma * c) / (1.0 + gamma * c), rel_tol=1e-15)
    assert check_membership(r, INParams(0.0, lip)).passed
    assert not check_membership(r, INParams(0.0, lip * (1.0 - 1e-9))).passed


def test_subspace_normal_resolvent():
    spec = SubspaceNormalPlusScale(np.array([[1.0, 0.0]]), mu=3.0)
    j = spec.resolvent(1.0)
    assert np.allclose(j(np.array([2.0, 5.0])), [0.5, 0.0])
    r = spec.reflected_resolvent(1.0)
    # (2/(1+g*mu)) P_U - Id
    assert np.allclose(r(np.array([2.0, 5.0])), [2.0 * 0.5 - 2.0, -5.0])


def test_affine_zero_resolvent_is_identity():
    spec = Affine(np.zeros((3, 3)))
    j = spec.resolvent(0.7)
    x = np.array([1.0, -2.0, 3.0])
    assert np.allclose(j(x), x)


def test_resolvent_single_valuedness_guard():
    with pytest.raises(DomainError):
        ScaledIdentity(-2.0, dim=2).resolvent(1.0)  # gamma*rho = -2
    ScaledIdentity(-2.0, dim=2).resolvent(0.4)  # fine: -0.8 > -1


def test_reflected_identity(rng):
    spec = random_monotone_affine(0.3, 4, rng)
    j, r = spec.resolvent(0.5), spec.reflected_resolvent(0.5)
    xs = rng.standard_normal((50, 4))
    assert np.max(np.abs(2.0 * j(xs) - xs - r(xs))) < 1e-12


def test_resolvent_firm_nonexpansiveness(rng):
    # monotone specs give firmly nonexpansive (1-cocoercive) resolvents
    for spec in (
        random_monotone_affine(0.0, 2, rng),
        random_monotone_affine(1.2, 2, rng),
        ScaledIdentity(2.0, dim=2),
    ):
        j = spec.resolvent(0.8)
        rep = check_membership(j, INParams(0.5, 0.5), pairs=10_000)
        assert rep.passed, rep.worst_violation


def test_resolvent_certificates_hold(rng):
    spec = random_monotone_affine(-0.4, 2, rng)
    for op in (spec.resolvent(0.5), spec.reflected_resolvent(0.5)):
        rep = check_membership(op, op.certificate, pairs=1000)
        assert rep.passed, (op, rep.worst_violation)


@pytest.mark.parametrize("build", [
    lambda: Affine(np.zeros((0, 0))),
    lambda: QuadraticGradient(np.zeros((0, 0))),
    lambda: SubspaceNormalPlusScale([]),
    lambda: SubspaceNormalPlusScale(np.zeros((1, 0)), mu=1.0),
], ids=["affine", "quadratic", "subspace-normal-empty", "subspace-normal-no-columns"])
def test_every_spec_has_a_dimension(build):
    with pytest.raises(DomainError, match="dim must be a positive integer, got 0"):
        build()


@pytest.mark.parametrize("dim", [0, -1, True, 2.0, "2", None])
def test_scaled_identity_dim_is_a_positive_integer(dim):
    with pytest.raises(DomainError, match=f"dim must be a positive integer, got {dim!r}"):
        ScaledIdentity(1.0, dim=dim)


def test_scaled_identity_takes_a_numpy_integer_dim():
    # used to be rejected as "dim must be a positive integer, got np.int64(2)"
    spec = ScaledIdentity(3.0, dim=np.int64(2))
    assert type(spec.dim) is int and spec.dim == 2
    assert spec.forward()(np.array([1.0, -2.0])).tolist() == [3.0, -6.0]


@pytest.mark.parametrize("offset", [np.zeros(3), np.zeros((2, 1)), np.float64(1.0)])
def test_affine_offset_shape_checked(offset):
    with pytest.raises(DomainError, match="offset must have shape"):
        Affine(np.eye(2), offset)
    with pytest.raises(DomainError, match="offset must have shape"):
        QuadraticGradient(np.eye(2), offset)


# ---------------------------------------------------------------------------
# proximal mappings: the resolvent of a quadratic's gradient


def test_prox_concave_quadratic_matches_grid_search():
    lam = 0.5
    gamma = 1.0
    p = QuadraticGradient(np.array([[-lam]])).resolvent(gamma)
    x0 = 1.3
    oracle = grid_argmin(lambda y: -0.5 * lam * y * y + (x0 - y) ** 2 / (2 * gamma))
    got = p(np.array([x0]))[0]
    assert abs(got - x0 / (1.0 - gamma * lam)) < 1e-12
    assert abs(got - oracle) < 1e-5  # grid resolution


def test_prox_convex_quadratic():
    mu = 2.0
    p = QuadraticGradient(mu * np.eye(2)).resolvent(0.5)
    x = np.array([1.0, -3.0])
    assert np.allclose(p(x), x / (1.0 + 0.5 * mu))


def test_prox_linear_tilt():
    b = np.array([0.5, -1.0])
    p = QuadraticGradient(np.zeros((2, 2)), b).resolvent(0.25)
    x = np.array([1.0, 1.0])
    assert np.allclose(p(x), x - 0.25 * b)


def test_prox_step_range():
    # f = -x^2 is 2-hypoconvex: its prox is single-valued exactly for gamma < 1/2
    g = QuadraticGradient(np.array([[-2.0]]))
    assert g.rho == -2.0
    g.resolvent(math.nextafter(0.5, 0.0))
    with pytest.raises(DomainError, match="not single-valued"):
        g.resolvent(0.5)
    # a convex quadratic: any positive step
    QuadraticGradient(np.eye(1)).resolvent(1e6)


def test_prox_surrogate_strongly_convex():
    # Where the resolvent exists, f + ||x - .||^2/(2*gamma) is strongly convex.
    g = QuadraticGradient(np.array([[-2.0, 0.0], [0.0, -0.5]]))
    gamma = 0.4
    g.resolvent(gamma)
    evals = np.linalg.eigvalsh(g.matrix + np.eye(2) / gamma)
    assert evals[0] > 0.0


def test_quadratic_gradient_rejects_asymmetric_matrix():
    with pytest.raises(DomainError, match="must be symmetric"):
        QuadraticGradient(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# combinators


def test_negate_involution(rng):
    op = scale(0.5, build_rotation(0.7))
    xs = rng.standard_normal((10, 2))
    assert np.allclose(negate(negate(op))(xs), op(xs))


def test_compose_dimension_mismatch():
    with pytest.raises(DomainError):
        compose(identity(2), identity(3))


@pytest.mark.parametrize("op", [identity(2), Op(lambda x: x, 2)], ids=["affine", "closure"])
@pytest.mark.parametrize("x", [5.0, np.float64(5.0), np.ones((2, 3))],
                         ids=["float", "float64", "rows-of-3"])
def test_op_rejects_an_input_without_its_dimension(op, x):
    with pytest.raises(DomainError, match="dimension mismatch: operator expects 2"):
        op(x)


def test_relax_and_shift_pointwise():
    op = scale(3.0, identity(2))
    x = np.array([1.0, 2.0])
    assert np.allclose(relax(0.25, op)(x), 0.75 * x + 0.25 * 3.0 * x)
    assert np.allclose(shift(-1.0, op)(x), 3.0 * x - x)


def test_compose_certificate_is_certified(rng):
    a1, a2 = 0.5, 0.5
    r1 = build_in_operator(1 - a1, a1, build_rotation(0.9))
    r2 = build_in_operator(1 - a2, a2, build_rotation(-2.1))
    t = compose(r2, r1)
    assert t.certificate == INParams(1.0 / 3.0, 2.0 / 3.0)
    rep = check_membership(t, t.certificate, pairs=1000)
    assert rep.passed


def test_compose_certificate_falls_back_to_lipschitz():
    c1 = build_in_operator(-1.0, 2.0, build_rotation(0.4))
    c2 = build_in_operator(-1.0, 2.0, negate(build_rotation(0.4)))
    t = compose(c2, c1)
    assert t.certificate == INParams(0.0, 9.0)


def _reference_compose_cert(outer, inner):
    """Reference: the fallback ladder spelled out with its descriptor branches."""
    if outer is None or inner is None:
        return None
    p_out = outer.to_in() if isinstance(outer, ScaledConic) else outer
    p_in = inner.to_in() if isinstance(inner, ScaledConic) else inner
    if isinstance(outer, ScaledConic) and isinstance(inner, ScaledConic):
        try:
            return calculus.compose_conic(inner, outer)
        except (GuardError, DomainError):
            pass
    try:
        return calculus.compose_general(p_in, p_out)
    except (GuardError, DomainError):
        pass
    try:
        return calculus.compose_kappa_theta(p_in, p_out)
    except (GuardError, DomainError):
        return INParams(0.0, calculus.naive_lipschitz(p_in, p_out))


# Boundary descriptors: unit conic parameters (the max = 1 branches), the
# degenerate d1+d2 = 0 pair, alpha+beta = 0 and the README's guard rejection.
_edge_descriptors = st.sampled_from(
    [
        INParams(0.0, 1.0),
        INParams(0.5, 0.5),
        INParams(-0.5, 0.5),
        INParams(1.0, 0.0),
        INParams(-0.7, 1.7),
        INParams(0.3, 0.7),
        ScaledConic(1.0, 1.0),
        ScaledConic(-1.0, 1.0),
        ScaledConic(1.0, 1.7),
        ScaledConic(-2.0, 1.25),
        ScaledConic(1.0, 0.7),
    ]
)
_descriptors = st.one_of(
    st.none(),
    _edge_descriptors,
    st.builds(INParams, st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
    st.builds(
        ScaledConic,
        st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
        st.floats(0.01, 3.0),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_descriptors, _descriptors)
def test_compose_certificate_matches_reference_ladder(outer_cert, inner_cert):
    outer = Op(lambda x: x, 2, outer_cert)
    inner = Op(lambda x: x, 2, inner_cert)
    got = compose(outer, inner).certificate
    expected = _reference_compose_cert(outer_cert, inner_cert)
    assert type(got) is type(expected) and got == expected


def test_compose_falls_back_where_the_coupling_coefficients_overflow():
    huge = calculus.from_label(calculus.ClassLabel.conic(1e200))
    with pytest.raises(DomainError, match="overflow"):
        calculus.delta_bundle(huge, huge)
    outer = Op(lambda x: x, 2, INParams(0.5, 0.5))
    assert compose(outer, Op(lambda x: x, 2, huge)).certificate == INParams(0.0, 2e200)


def test_scale_keeps_scaled_conic_structure():
    op = identity(2)
    op.certificate = ScaledConic(2.0, 0.5)
    assert scale(-3.0, op).certificate == ScaledConic(-6.0, 0.5)


def test_chain_counterexample_composition_formula(rng):
    # R3 R2 R1 with eps=1, delta=2, a1=0.25 reduces to a single linear map
    eps, delta, a1 = 1.0, 2.0, 0.25
    a2 = a1 + delta + eps
    s = build_rotation(math.pi / 2)
    r1 = build_in_operator(1 - a1, a1, negate(s))
    r2 = build_in_operator(1 - a2, a2, s)
    r3 = compose(s, scale(-1.0 / delta, identity(2)))
    r = compose(r3, compose(r2, r1))
    xs = rng.standard_normal((20, 2))
    smat = np.array([[0.0, -1.0], [1.0, 0.0]])
    coef = (a1 + a2 - 2 * a1 * a2 - 1.0) / delta
    expected = ((eps + delta) / delta) * xs + coef * xs @ smat.T
    assert np.max(np.abs(r(xs) - expected)) < 1e-12


# ---------------------------------------------------------------------------
# modulus estimation


def test_estimate_rho_exact_kinds():
    assert Affine(np.diag([2.0, 3.0])).rho == 2.0
    assert ScaledIdentity(-1.0, dim=2).rho == -1.0
    skew = Affine(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert abs(skew.rho) < 1e-12


def test_estimate_rho_sampled_matches_exact(rng):
    # the smallest sampled <x-y, Fx-Fy>/||x-y||^2 of a rotation by pi/2 is 0
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = Op(lambda x: x @ m.T, 2)
    xs, ys = pair_samples(500, 2)
    dx, df = xs - ys, op(xs) - op(ys)
    assert abs(np.min(np.sum(dx * df, axis=1) / np.sum(dx * dx, axis=1))) < 1e-12


def test_pair_samples_are_deterministic():
    a = pair_samples(100, 2, seed=7)
    b = pair_samples(100, 2, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.all(np.linalg.norm(a[0] - a[1], axis=1) > 0)


def test_pair_samples_are_read_only_and_equal_a_fresh_draw():
    fresh = sampling._draw.__wrapped__
    for key in [(50, 3, 1), (50, 3, 2), (50, 3, 1)]:
        xs, ys = pair_samples(*key[:2], seed=key[2])
        want = fresh(*key)
        assert np.array_equal(xs, want[0]) and np.array_equal(ys, want[1]), key
        assert not xs.flags.writeable and not ys.flags.writeable
        with pytest.raises(ValueError):
            xs[0, 0] = 1.0
    a = pair_samples(40, 2)
    b = pair_samples(40, 2, seed=sampling.DEFAULT_SEED)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _draw_with_linalg_norm(pairs, dim, seed):
    """The draw as it was before ``_row_dot``: rows kept by ``np.linalg.norm``."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((pairs, dim))
    ys = rng.standard_normal((pairs, dim))
    eye = np.eye(dim)
    ax_x = np.concatenate([eye, eye, -eye])
    ax_y = np.concatenate([np.zeros((dim, dim)), -eye, np.zeros((dim, dim))])
    xs = np.concatenate([xs, ax_x])
    ys = np.concatenate([ys, ax_y])
    keep = np.linalg.norm(xs - ys, axis=1) > 1e-14
    return xs[keep], ys[keep]


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_pair_samples_equal_the_linalg_norm_draw(dim):
    # and the draw's x - y and ||x - y||^2 equal those formed from the pairs,
    # bit for bit, on both of _row_dot's paths (dim 9 goes to np.sum)
    for pairs, seed in [(1, 0), (100, 7), (2000, 13), (5000, sampling.DEFAULT_SEED)]:
        xs, ys = pair_samples(pairs, dim, seed=seed)
        want_x, want_y = _draw_with_linalg_norm(pairs, dim, seed)
        assert xs.shape == want_x.shape == (pairs + 3 * dim, dim)
        assert xs.tobytes() == want_x.tobytes() and ys.tobytes() == want_y.tobytes()
        _, _, dx, nd = sampling._draw(pairs, dim, seed)
        want_dx = xs - ys
        assert dx.tobytes() == want_dx.tobytes()
        assert nd.tobytes() == np.sum(want_dx * want_dx, axis=1).tobytes()
        assert not dx.flags.writeable and not nd.flags.writeable


def _row_dot_operand(rng, m, n, width, zero_share):
    """Signs at random, and magnitudes log-uniform over ``width`` decades
    about a row centre, itself log-uniform, all within 1e-150 to 1e150: so no
    product or row sum overflows or turns subnormal, and narrow windows make
    the rounding depend on the order of the sum.  A share of the entries are
    exact zeros that keep their sign."""
    centre = rng.uniform(-150.0 + width, 150.0 - width, (m, 1))
    x = rng.choice([-1.0, 1.0], (m, n)) * 10.0 ** (centre + rng.uniform(-width, width, (m, n)))
    zero = rng.random((m, n)) < zero_share
    x[zero] = np.copysign(0.0, x[zero])
    return x


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 64), st.sampled_from([0.5, 8.0, 150.0]),
       st.sampled_from([0.0, 0.2, 0.9]), st.integers(0, 2**32 - 1))
def test_row_dot_is_bit_equal_to_np_sum(n, m, width, zero_share, seed):
    # A zero may differ in sign: a row whose products are all -0.0 sums to
    # -0.0 in _row_dot and to +0.0 in np.sum, which starts a row at +0.0.
    rng = np.random.default_rng(seed)
    a = _row_dot_operand(rng, m, n, width, zero_share)
    b = _row_dot_operand(rng, m, n, width, zero_share)
    got = sampling._row_dot(a, b)
    want = np.sum(a * b, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape == (m,)
    same_bits = got.view(np.int64) == want.view(np.int64)
    assert np.all(same_bits | ((got == 0.0) & (want == 0.0))), (got, want)


# ---------------------------------------------------------------------------
# affine fusion


def _spec(kind, n, rng):
    """A spec of ``kind`` with modulus in [0, 1], so every resolvent exists
    and every resolvent and reflection is nonexpansive."""
    if kind == "affine":
        return random_monotone_affine(rng.uniform(0.0, 1.0), n, rng)
    if kind == "scaled_identity":
        return ScaledIdentity(rng.uniform(0.0, 1.0), dim=n)
    if kind == "subspace_normal":
        basis = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        return SubspaceNormalPlusScale(basis, mu=rng.uniform(0.0, 1.0))
    c = rng.standard_normal((n, n))
    return QuadraticGradient(c @ c.T / n + rng.uniform(0.0, 1.0) * np.eye(n),
                             rng.standard_normal(n))


def _dense_leaf(spec, which, gamma, n):
    """``(M, b)`` of a spec's forward map, resolvent or reflected resolvent,
    computed with plain numpy from the spec's defining data."""
    eye = np.eye(n)
    if isinstance(spec, SubspaceNormalPlusScale):
        u, s, _ = np.linalg.svd(np.atleast_2d(spec.basis).T, full_matrices=False)
        u = u[:, s > 1e-12 * s[0]]
        k, kb = u @ u.T / (1.0 + gamma * spec.mu), np.zeros(n)
    else:
        if isinstance(spec, ScaledIdentity):
            m, b = spec.c * eye, np.zeros(n)
        else:
            m, b = spec.matrix, spec.offset
        if which == "forward":
            return m, b
        k = np.linalg.inv(eye + gamma * m)
        kb = -k @ (gamma * b)
    if which == "resolvent":
        return k, kb
    return 2.0 * k - eye, 2.0 * kb


def _leaf_op(spec, which, gamma):
    if which == "forward":
        return spec.forward()
    if which == "resolvent":
        return spec.resolvent(gamma)
    return spec.reflected_resolvent(gamma)


KINDS = ("affine", "scaled_identity", "subspace_normal", "quadratic")
_coef = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
_leaf = st.tuples(st.just("leaf"), st.sampled_from(KINDS),
                  st.sampled_from(("forward", "resolvent", "reflected")))
_tree = st.recursive(
    _leaf,
    lambda t: st.one_of(
        st.tuples(st.just("compose"), t, t),
        st.tuples(st.just("scale"), _coef, t),
        st.tuples(st.just("negate"), t),
        st.tuples(st.just("relax"), _coef, t),
        st.tuples(st.just("shift"), _coef, t),
        # build_in_operator needs a nonexpansive N: a reflected resolvent
        st.tuples(st.just("in"), _coef, st.floats(0.0, 2.0),
                  st.tuples(st.just("leaf"), st.sampled_from(KINDS), st.just("reflected"))),
    ),
    max_leaves=6,
)


def _build(tree, n, gamma, rng, fused):
    """``(op, ref)`` for a tree: ``ref(x, mag)`` evaluates it with the dense
    leaves and also returns ``mag``, a bound on the magnitude of every term
    summed, against which rounding is measured.  With ``fused=False`` every
    leaf is re-wrapped as a plain closure, so nothing folds."""
    tag = tree[0]
    if tag == "leaf":
        kind, which = tree[1], tree[2]
        if kind == "subspace_normal" and which == "forward":
            which = "resolvent"  # set-valued: no forward map
        spec = _spec(kind, n, rng)
        op = _leaf_op(spec, which, gamma)
        if not fused:
            op = Op(op.fn, op.dim, op.certificate)
        m, b = _dense_leaf(spec, which, gamma, n)
        return op, lambda x, mag: (x @ m.T + b, mag @ np.abs(m).T + np.abs(b))
    if tag == "compose":
        (o, ro), (i, ri) = (_build(t, n, gamma, rng, fused) for t in tree[1:])
        return compose(o, i), lambda x, mag: ro(*ri(x, mag))
    if tag == "in":
        _, alpha, beta, sub = tree
        op, r = _build(sub, n, gamma, rng, fused)
        c0, c1, out = alpha, beta, build_in_operator(alpha, beta, op)
    elif tag == "negate":
        op, r = _build(tree[1], n, gamma, rng, fused)
        c0, c1, out = 0.0, -1.0, negate(op)
    else:
        c, (op, r) = tree[1], _build(tree[2], n, gamma, rng, fused)
        c0, c1 = {"scale": (0.0, c), "relax": (1.0 - c, c), "shift": (c, 1.0)}[tag]
        out = {"scale": scale, "relax": relax, "shift": shift}[tag](c, op)

    def ref(x, mag):
        y, my = r(x, mag)
        return c0 * x + c1 * y, abs(c0) * mag + abs(c1) * my
    return out, ref


def _count_nodes(op, x, monkeypatch):
    calls = [0]
    original = Op.__call__

    def counting(self, v):
        calls[0] += 1
        return original(self, v)
    with monkeypatch.context() as m:
        m.setattr(Op, "__call__", counting)
        op(x)
    return calls[0]


@settings(max_examples=150, deadline=None)
@given(_tree, st.integers(1, 5), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_fused_trees_match_dense_reference(tree, n, gamma, seed):
    op, ref = _build(tree, n, gamma, np.random.default_rng(seed), fused=True)
    assert op.matrix is not None
    rng = np.random.default_rng(seed + 1)
    for x in (rng.standard_normal(n), rng.standard_normal((4, n))):
        got = op(x)
        want, mag = ref(x, np.abs(x))
        assert got.shape == x.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(mag))


@settings(max_examples=100, deadline=None)
@given(_tree, st.integers(1, 4), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_folding_keeps_certificates_and_values(tree, n, gamma, seed):
    fused, ref = _build(tree, n, gamma, np.random.default_rng(seed), fused=True)
    plain, _ = _build(tree, n, gamma, np.random.default_rng(seed), fused=False)
    assert plain.matrix is None and plain.offset is None
    assert type(fused.certificate) is type(plain.certificate)
    assert fused.certificate == plain.certificate
    x = np.random.default_rng(seed + 1).standard_normal((3, n))
    _, mag = ref(x, np.abs(x))
    assert np.all(np.abs(fused(x) - plain(x)) <= 1e-12 * np.max(mag))


@pytest.mark.parametrize("ka", KINDS)
@pytest.mark.parametrize("kb", KINDS)
def test_dr_and_fb_operators_are_one_node(ka, kb, monkeypatch):
    from opsplit.splitting import dr_operator, fb_operator

    rng = np.random.default_rng(7)
    a, b = _spec(ka, 4, rng), _spec(kb, 4, rng)
    x = rng.standard_normal(4)
    t = dr_operator(a, b, 0.7, 0.4)
    assert isinstance(t.matrix, np.ndarray) or ka == kb == "scaled_identity"
    assert _count_nodes(t, x, monkeypatch) == 1
    if ka != "subspace_normal":
        t = fb_operator(a, b, 0.3)
        assert t.matrix is not None
        assert _count_nodes(t, x, monkeypatch) == 1


def test_scalar_maps_stay_scalar():
    a, b = ScaledIdentity(1.5, dim=300), ScaledIdentity(0.2, dim=300)
    assert identity(300).matrix == 1.0
    j = a.resolvent(0.5)
    assert isinstance(j.matrix, float) and j.offset is None
    t = relax(0.3, compose(b.reflected_resolvent(0.5), a.reflected_resolvent(0.5)))
    assert isinstance(t.matrix, float)
    x = np.linspace(-1.0, 1.0, 300)
    assert np.allclose(t(x), t.matrix * x, rtol=0.0, atol=1e-15)


def test_custom_fn_composes_through_closures(monkeypatch):
    rot = build_rotation(0.4)
    clip = Op(lambda x: np.clip(x, -1.0, 1.0), 2, INParams(0.0, 1.0))
    t = relax(0.5, compose(rot, compose(clip, scale(2.0, rot))))
    assert t.matrix is None and t.offset is None
    x = np.array([0.3, -0.8])
    m = rotation_matrix(0.4)
    assert np.allclose(t(x), 0.5 * x + 0.5 * m @ np.clip(2.0 * m @ x, -1.0, 1.0))
    assert _count_nodes(t, x, monkeypatch) > 1


def test_difference_folds_and_falls_back():
    a = Affine(np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([1.0, -1.0]))
    ja, fa = a.resolvent(0.5), a.forward()
    x = np.array([[0.5, 2.0], [-1.0, 0.25]])
    d = difference(ja, fa)
    assert d.matrix is not None and d.certificate is None
    assert np.allclose(d(x), ja(x) - fa(x), rtol=0.0, atol=1e-14)
    plain = Op(fa.fn, 2)
    assert difference(ja, plain).matrix is None
    assert np.array_equal(difference(ja, plain)(x), ja(x) - fa(x))
    with pytest.raises(DomainError):
        difference(ja, identity(3))
