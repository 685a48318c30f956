"""Empirical certification of class membership and the named case suite.

Sampling refutes, never proves: a passing report means no violation above
1e-9 was found on the sampled pairs.  Violations are normalized by
``||x - y||^2`` so the tolerance is scale-free.

Every per-pair row reduction (``||x-y||^2``, ``||Tx-Ty||^2``,
``<x-y, Tx-Ty>`` and the like) is ``sampling._row_dot``.  For rows of
length ``n <= 7`` it adds the column products from left to right, the order
in which ``np.sum`` adds up such a row, so each reduction is bit-equal to
``np.sum`` (up to the sign of a zero); from ``n = 8`` it calls ``np.sum``.

Checks and fits of one ``(T, pairs, seed)`` share one reduction: the sample,
``T`` on it and its three per-pair moments are memoised for the last key, as
``sampling`` memoises the last draw with its ``x - y`` and ``||x - y||^2``,
so a membership check followed by the four fits evaluates ``T`` and reduces
once.  The cached moments are read-only.  Every check and fit raises
:class:`DomainError` where ``||Tx-Ty||^2`` is not finite (as where
``T(x) - T(y)`` is not) or a moment overflows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import operators as ops
from . import splitting
from .calculus import (
    ClassLabel,
    INParams,
    ScaledConic,
    compose_chain,
    compose_conic,
    compose_general,
    compose_scaled_averaged_cocoercive,
)
from .errors import DomainError, GuardError, _is_integer
from .operators import Op, build_in_operator, build_rotation, matrix_op
from .sampling import DEFAULT_SEED, _draw, _row_dot, pair_samples

__all__ = [
    "MembershipReport",
    "check_membership",
    "check_monotone",
    "check_composition_identity",
    "fit_tightest",
    "CaseReport",
    "NAMED_CASES",
    "run_named_case",
    "run_named_suite",
    "random_orthogonal",
    "random_certified_composition",
    "run_random_suite",
]


_TOL = 1e-9  # the largest normalized violation a passing check allows
_AVERAGED_PAIR_DRAWS = 20  # random factor pairs per averaged-averaged named case


@dataclass
class MembershipReport:
    """Result of a sampled inequality check; passes iff the worst normalized
    violation does not exceed 1e-9."""

    pairs_tested: int
    worst_violation: float
    passed: bool
    worst_pair: tuple


def _report(v: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> MembershipReport:
    i = int(np.argmax(v))
    worst = float(v[i])
    return MembershipReport(len(xs), worst, worst <= _TOL, (xs[i].copy(), ys[i].copy()))


@lru_cache(maxsize=1)
def _sample(T: Op, pairs: int, seed: int):
    # The sampled pairs and the row reductions ||x-y||^2, ||Tx-Ty||^2 and
    # <x-y, Tx-Ty>, which no class parameter enters; DomainError where
    # ||Tx-Ty||^2 is not finite or a moment overflows.  The cache holds T, so
    # no other Op can take its id while the entry lives.
    xs, ys = pair_samples(pairs, T.dim, seed=seed)
    _, _, dx, nd = _draw(pairs, T.dim, seed)  # the draw pair_samples just memoised
    tx, ty = T(xs), T(ys)
    try:
        # inf - inf only forms a nan, which the finiteness test below rejects
        with np.errstate(over="raise", invalid="ignore"):
            dt = tx - ty
            ndt, ip = _row_dot(dt, dt), _row_dot(dx, dt)
    except FloatingPointError:
        raise DomainError(f"the moments of T(x) - T(y) overflow at {pairs} sampled pairs") from None
    if not np.isfinite(ndt).all():
        raise DomainError(f"non-finite T(x) - T(y) at {pairs} sampled pairs")
    ndt.flags.writeable = ip.flags.writeable = False
    return xs, ys, (nd, ndt, ip)


def _in_violations(moments, p: INParams) -> np.ndarray:
    # ||Tx-Ty||^2 - 2a<x-y, Tx-Ty> - (b^2 - a^2)||x-y||^2, normalized; b^2 - a^2
    # is formed as (b - a)(b + a), which does not cancel when |a| ~ |b| is large.
    a, b = p.alpha, p.beta
    nd, ndt, ip = moments
    return (ndt - 2.0 * a * ip - (b - a) * (b + a) * nd) / nd


def check_membership(
    T: Op, descriptor, pairs: int = 10_000, seed: int = DEFAULT_SEED
) -> MembershipReport:
    """Sampled check that ``T`` belongs to the class of ``descriptor``.

    ``descriptor`` may be an :class:`INParams` or a :class:`ScaledConic`; one
    inequality checks both, on ``descriptor.to_in()``.  For a
    :class:`ScaledConic` the violation is divided by ``delta^2``, so it is
    that of ``T/delta`` against its conic class.  Where ``T(x) - T(y)`` is
    not finite, or ``delta^2`` or a moment overflows, no violation can be
    formed, and :class:`DomainError` is raised.
    """
    xs, ys, moments = _sample(T, pairs, seed)
    v = _in_violations(moments, descriptor.to_in())
    if isinstance(descriptor, ScaledConic):
        try:
            v /= descriptor.delta**2
        except OverflowError:
            raise DomainError(f"delta**2 overflows, delta = {descriptor.delta}") from None
    return _report(v, xs, ys)


def check_monotone(
    F: Op, rho: float, pairs: int = 10_000, seed: int = DEFAULT_SEED
) -> MembershipReport:
    """Sampled check of ``<x-y, Fx-Fy> >= rho*||x-y||^2``.

    The normalized violation is ``rho - <x-y, Fx-Fy>/||x-y||^2`` (positive
    when the inequality fails); its negation is the worst monotonicity slack.
    :class:`DomainError` where ``F(x) - F(y)`` is not finite or a moment
    overflows.
    """
    xs, ys, (nd, _, ip) = _sample(F, pairs, seed)
    return _report(rho - ip / nd, xs, ys)


def check_composition_identity(
    R1: Op,
    R2: Op,
    lam: float,
    pairs: int = 1000,
    seed: int = DEFAULT_SEED,
) -> float:
    """Worst scaled residual of the relaxed-composition inner-product identity.

    For ``R = (1-lam)*Id + lam*R2 R1`` the product
    ``<Rx-Ry, (Id-R)x-(Id-R)y>`` decomposes exactly into a ``(1-2*lam)``
    cross term plus ``lam^2`` times the two factors' sum/difference products;
    the identity holds pointwise for arbitrary operators.
    """
    if R1.dim != R2.dim:
        raise DomainError(f"dimension mismatch: {R1.dim} vs {R2.dim}")
    xs, ys = pair_samples(pairs, R1.dim, seed=seed)
    dx = _draw(pairs, R1.dim, seed)[2]
    r1x, r1y = R1(xs), R1(ys)
    d1 = r1x - r1y
    d21 = R2(r1x) - R2(r1y)
    drl = (1.0 - lam) * dx + lam * d21
    ddl = dx - drl
    lhs = _row_dot(drl, ddl)
    t1 = (1.0 - 2.0 * lam) * _row_dot(dx, ddl)
    t2 = lam * lam * _row_dot(dx + d1, dx - d1)
    t3 = lam * lam * _row_dot(d1 + d21, d1 - d21)
    rhs = t1 + t2 + t3
    scale = 1.0 + np.abs(lhs) + np.abs(t1) + np.abs(t2) + np.abs(t3)
    return float(np.max(np.abs(lhs - rhs) / scale))


# ---------------------------------------------------------------------------
# Tightest-class fitting


# The family parameter ``q`` as (the (alpha, beta) descriptor it fits, the
# label it is reported as).
_FAMILIES = {
    "lipschitz": (lambda q: INParams(0.0, q), ClassLabel.lipschitz),
    "averaged": (lambda q: INParams(1.0 - q, q), ClassLabel.averaged),
    "conic": (lambda q: INParams(1.0 - q, q), ClassLabel.conic),
    # q is the diameter, reported as the modulus 1/q
    "cocoercive": (lambda q: INParams(q / 2.0, q / 2.0),
                   lambda q: ClassLabel.cocoercive(1.0 / q)),
}


def fit_tightest(
    T: Op, family: str, pairs: int = 10_000, seed: int = DEFAULT_SEED
) -> ClassLabel:
    """The smallest family parameter passing membership on the sampled pairs.

    The result is a lower bound on the true class: sampling can refute but
    never prove membership.  Families: ``lipschitz``, ``averaged``, ``conic``,
    ``cocoercive`` (fitted on the diameter, reported as a modulus).

    With ``r = ||Tx-Ty||^2/||x-y||^2`` and ``c = <x-y, Tx-Ty>/||x-y||^2``, a
    pair's normalized violation is closed form in the parameter ``q``:
    ``r - q^2`` (lipschitz), ``r - 2c + 1 - 2q(1 - c)`` (averaged, conic) and
    ``r - q*c`` (cocoercive).  Pairs on which it falls as ``q`` grows bound
    ``q`` from below at the root where it meets the tolerance 1e-9; the others
    bound it from above, beyond the bracket's upper end once that end passes.
    So the fit is the largest lower root, clipped to the bracket, then stepped
    up by 1, 2, 4, ... ulps until membership accepts it.
    """
    if _is_integer(pairs) and pairs < 100:  # pair_samples rejects a non-integer
        raise DomainError(f"needs at least 100 pairs, got {pairs}")
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    descriptor, label = _FAMILIES[family]
    _, _, moments = _sample(T, pairs, seed)

    def passes(q: float) -> bool:
        return float(np.max(_in_violations(moments, descriptor(q)))) <= _TOL

    lo, hi = 1e-6, 1.0 - 1e-12 if family == "averaged" else 1e6
    if passes(lo):
        return label(lo)
    if not passes(hi):
        raise DomainError(f"not in family {family!r} at sampled pairs")
    nd, ndt, ip = moments
    r = ndt / nd
    c = ip / nd
    if family == "lipschitz":
        root = math.sqrt(max(float(np.max(r)) - _TOL, 0.0))
    else:
        num, den = (r - _TOL, c) if family == "cocoercive" else (r - 2 * c + 1 - _TOL, 2 * (1 - c))
        roots = np.divide(num, den, out=np.full_like(num, -np.inf), where=den > 0.0)
        root = float(np.max(roots))
    q, step = min(max(root, lo), hi), 1.0
    while not passes(q):
        q = min(q + math.ulp(q) * step, hi)
        step *= 2.0
    return label(q)


# ---------------------------------------------------------------------------
# Random certified compositions (rotation-family operators)


def random_orthogonal(rng: np.random.Generator) -> Op:
    """A random planar rotation or reflection; an exact isometry."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    m = ops.rotation_matrix(theta)
    if rng.random() < 0.5:
        m = m @ np.diag([1.0, -1.0])
    return matrix_op(m, certificate=INParams(0.0, 1.0))


def random_certified_composition(kind: str, rng: np.random.Generator):
    """Draw a composition with a certificate from one of the theorem families.

    Returns ``(op, descriptor, params)`` where ``descriptor`` is the certified
    class of ``op``.  Kinds: ``averaged-averaged``, ``conic-conic`` (parameter
    product below one), ``scaled-averaged-cocoercive``.
    """
    if kind == "averaged-averaged":
        a1 = rng.uniform(0.05, 0.95)
        a2 = rng.uniform(0.05, 0.95)
        r1 = build_in_operator(1.0 - a1, a1, random_orthogonal(rng))
        r2 = build_in_operator(1.0 - a2, a2, random_orthogonal(rng))
        cert = compose_general(INParams(1.0 - a1, a1), INParams(1.0 - a2, a2))
        return ops.compose(r2, r1), cert, {"a1": a1, "a2": a2}
    if kind == "conic-conic":
        a1 = rng.uniform(0.05, 1.8)
        a2 = rng.uniform(0.05, min(1.8, 0.98 / a1))
        d1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        d2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        r1 = ops.scale(d1, build_in_operator(1.0 - a1, a1, random_orthogonal(rng)))
        r2 = ops.scale(d2, build_in_operator(1.0 - a2, a2, random_orthogonal(rng)))
        cert = compose_conic(ScaledConic(d1, a1), ScaledConic(d2, a2))
        return ops.compose(r2, r1), cert, {"a1": a1, "a2": a2, "d1": d1, "d2": d2}
    if kind == "scaled-averaged-cocoercive":
        a = rng.uniform(0.05, 0.95)
        d = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        averaged = ops.scale(d, build_in_operator(1.0 - a, a, random_orthogonal(rng)))
        coco = ops.scale(b / 2.0, ops.shift(1.0, random_orthogonal(rng)))
        cert = compose_scaled_averaged_cocoercive(ScaledConic(d, a), b)
        if rng.random() < 0.5:
            return ops.compose(coco, averaged), cert, {"a": a, "d": d, "b": b}
        return ops.compose(averaged, coco), cert, {"a": a, "d": d, "b": b}
    raise DomainError(f"unknown composition kind {kind!r}")


COMPOSITION_KINDS = ("averaged-averaged", "conic-conic", "scaled-averaged-cocoercive")


def run_random_suite(count: int = 60, seed: int = DEFAULT_SEED) -> list[dict]:
    """Membership reports, on 2000 pairs, for ``count`` random certified compositions."""
    for name, value, least in (("count", count, 1), ("seed", seed, 0)):
        if not _is_integer(value) or value < least:
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = COMPOSITION_KINDS[i % len(COMPOSITION_KINDS)]
        op, cert, params = random_certified_composition(kind, rng)
        rep = check_membership(op, cert, pairs=2000)
        out.append(
            {
                "kind": kind,
                "params": params,
                "certificate": cert.to_json(),
                "worst_violation": rep.worst_violation,
                "passed": rep.passed,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Named cases


@dataclass
class CaseReport:
    """Outcome of one named case: the guard decision, the empirical outcome,
    and whether they agree."""

    name: str
    params: dict
    guard_rejected: bool | None
    guard_message: str
    empirical_failed: bool | None
    agree: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _guard(call, *args, errors=GuardError):
    # (result, rejected, message) of call(*args): a raised ``errors`` is the
    # guard rejecting the case.
    try:
        return call(*args), False, ""
    except errors as exc:
        return None, True, str(exc)


def _case_report(guard, empirical_failed, expected, params: dict, details: dict) -> CaseReport:
    # The one verdict: the guard rejects exactly when the case fails
    # empirically, and that is the failure the case expects; a rate case's
    # measured rate must also be within 1e-12 of its expected rate.
    # run_named_case sets the name.
    _, rejected, message = guard
    agree = rejected == empirical_failed == expected and details.get("rate_error", 0.0) <= 1e-12
    return CaseReport("", params, rejected, message, empirical_failed, agree, details)


def _displacement_check(r: Op) -> MembershipReport:
    # Sampled monotonicity of Id - R, which holds for every conically
    # nonexpansive R.
    return check_monotone(ops.shift(1.0, ops.negate(r)), 0.0, pairs=2000)


def _rate_case(params: dict, plan, t: Op, x0, expected: float, details: dict) -> CaseReport:
    # Iterate from x0 and compare the empirical rate with the expected one.
    report = splitting.rate_report(splitting.iterate(t, np.array(x0)), plan)
    details.update(empirical_rate=report.empirical_rate, certified_rate=report.certified_rate,
                   rate_error=abs(report.empirical_rate - expected))
    return _case_report((plan, False, ""), not report.satisfied, False, params, details)


def _rotation_counterexample(theta: float, alpha1: float, alpha2: float) -> CaseReport:
    """Two conic factors built on a rotation, second one sign-flipped."""
    kappa = (
        alpha1
        + alpha2
        - 2.0 * alpha1 * alpha2 * math.sin(theta) ** 2
        - (alpha1 - alpha2) * math.cos(theta)
    )
    guard = _guard(compose_conic, ScaledConic(1.0, alpha1), ScaledConic(1.0, alpha2))
    rot = build_rotation(theta)
    r1 = build_in_operator(1.0 - alpha1, alpha1, rot)
    r2 = build_in_operator(1.0 - alpha2, alpha2, ops.negate(rot))
    rep = _displacement_check(ops.compose(r2, r1))
    return _case_report(guard, not rep.passed, kappa < 0.0,
                        {"theta": theta, "alpha1": alpha1, "alpha2": alpha2},
                        {"kappa": kappa, "monotonicity_slack": -rep.worst_violation})


def _case_ex_cases_i(eps=1.0, delta=1.0, theta=math.pi / 2) -> CaseReport:
    s2 = math.sin(theta) ** 2
    rep = _rotation_counterexample(theta, (1.0 + eps) / s2, (1.0 + delta) / s2)
    rep.params.update({"eps": eps, "delta": delta})
    return rep


def _case_chain_reject(eps=1.0, delta=2.0, alpha1=0.25) -> CaseReport:
    alpha2 = alpha1 + delta + eps
    alpha3 = (1.0 + delta) / (2.0 * delta)
    guard = _guard(
        compose_chain,
        [ScaledConic(1.0, alpha1), ScaledConic(1.0, alpha2), ScaledConic(1.0, alpha3)],
        1,
    )
    s = build_rotation(math.pi / 2)
    r1 = build_in_operator(1.0 - alpha1, alpha1, ops.negate(s))
    r2 = build_in_operator(1.0 - alpha2, alpha2, s)
    r3 = ops.compose(s, ops.scale(-1.0 / delta, ops.identity(2)))
    rep = _displacement_check(ops.compose(r3, ops.compose(r2, r1)))
    return _case_report(guard, not rep.passed, True,
                        {"eps": eps, "delta": delta, "alpha1": alpha1},
                        {"alpha2": alpha2, "alpha3": alpha3,
                         "monotonicity_slack": -rep.worst_violation,
                         "expected_slack": -eps / delta})


def _case_dr_divergence(mu=2.0, omega=1.0, gamma=0.6) -> CaseReport:
    guard = _guard(splitting.plan_dr, mu, omega, gamma, errors=DomainError)
    a = ops.SubspaceNormalPlusScale(basis=np.array([[1.0, 0.0]]), mu=mu)
    b = ops.ScaledIdentity(-omega, dim=2)
    t = splitting.dr_operator(a, b, gamma)
    log = splitting.iterate(t, np.array([0.0, 1.0]), max_iter=500)
    factor = -gamma * omega / (1.0 - gamma * omega)
    # the plan's own decision is the expected one: rejected iff not converged
    return _case_report(guard, not log.converged, guard[1],
                        {"mu": mu, "omega": omega, "gamma": gamma},
                        {"orthogonal_factor": factor, "diverged": log.diverged,
                         "reason": log.reason, "iterations": log.n_iter})


def _case_averaged_pair(a1: float, a2: float) -> CaseReport:
    guard = _guard(compose_general, INParams(1.0 - a1, a1), INParams(1.0 - a2, a2))
    cert = guard[0]
    empirical_failed = None
    worst = -math.inf
    if cert is not None:
        rng = np.random.default_rng(DEFAULT_SEED)
        empirical_failed = False
        for _ in range(_AVERAGED_PAIR_DRAWS):
            r1 = build_in_operator(1.0 - a1, a1, random_orthogonal(rng))
            r2 = build_in_operator(1.0 - a2, a2, random_orthogonal(rng))
            rep = check_membership(ops.compose(r2, r1), cert, pairs=2000)
            worst = max(worst, rep.worst_violation)
            empirical_failed = empirical_failed or not rep.passed
    return _case_report(guard, empirical_failed, False, {"a1": a1, "a2": a2},
                        {"certified": cert.to_json() if cert is not None else None,
                         "worst_violation": worst})


def _case_fb_tight(case: str, gamma: float, expected: float) -> CaseReport:
    mu, omega, beta = 2.0, 1.0, 1.0
    plan = splitting.plan_fb(case, mu=mu, omega=omega, beta=beta, gamma=gamma)
    a = ops.ScaledIdentity(mu if case == "I" else mu + beta, dim=2)
    b = ops.ScaledIdentity(-omega, dim=2)
    params = {"case": case, "mu": mu, "omega": omega, "beta": beta, "gamma": gamma}
    t = splitting.build_fb(plan, a, b)
    return _rate_case(params, plan, t, [1.0, 0.0], expected, {"expected": expected})


def _case_dr_scalar_rate(mu=2.0, omega=1.0, gamma=0.1) -> CaseReport:
    plan = splitting.plan_dr(mu, omega, gamma)
    a = ops.ScaledIdentity(mu, dim=2)
    b = ops.ScaledIdentity(-omega, dim=2)
    t = splitting.build_dr(plan, a, b)
    factor = 0.5 * (
        1.0
        + (1.0 + gamma * omega) * (1.0 - gamma * mu)
        / ((1.0 - gamma * omega) * (1.0 + gamma * mu))
    )
    params = {"mu": mu, "omega": omega, "gamma": gamma}
    return _rate_case(params, plan, t, [1.0, 1.0], abs(factor), {"scalar_factor": factor})


NAMED_CASES = {
    "kappa-sign": partial(_rotation_counterexample, math.pi / 2, 2.0, 2.0),
    "ex-cases-i": _case_ex_cases_i,
    "chain-reject": _case_chain_reject,
    "dr-divergence": _case_dr_divergence,
    "averaged-averaged-0.5-0.5": partial(_case_averaged_pair, 0.5, 0.5),
    "averaged-averaged-0.7-0.6": partial(_case_averaged_pair, 0.7, 0.6),
    "fb-tight-contraction": partial(_case_fb_tight, "I", 0.2, 0.75),
    "fb-tight-negative": partial(_case_fb_tight, "Ib", 0.45, 7.0 / 11.0),
    "dr-scalar-rate": _case_dr_scalar_rate,
}


def run_named_case(name: str) -> CaseReport:
    """Reproduce one named case; raises on unrecognized names."""
    if name not in NAMED_CASES:
        raise DomainError(f"unknown case {name!r}; known: {sorted(NAMED_CASES)}")
    rep = NAMED_CASES[name]()
    rep.name = name
    return rep


def run_named_suite() -> list[CaseReport]:
    return [run_named_case(name) for name in NAMED_CASES]
