"""Douglas-Rachford and forward-backward operators with certified constants.

``plan_dr`` / ``plan_fb`` validate the step size against the certified
interval and derive the constants (averagedness, contraction factor, inner
conic parameter); ``build_dr`` / ``build_fb`` check the monotone
specifications against the moduli the plan requires, assemble the operator
and attach the plan's certificate.  ``iterate`` runs the fixed-point
iteration with shadow tracking and divergence heuristics, and ``rate_report``
compares the measured linear rate against the certified one; ``solve`` runs
all of these for the ``solve-*`` commands.

The raw constructors ``dr_operator`` / ``fb_operator`` skip plan validation;
they exist for divergence demonstrations outside the certified range.

The planners write their arithmetic literals as ints.  An int operand
converts to the same double, so on floats they return the same plans as with
float literals; called on ``Fraction`` inputs, the same code computes every
interval end and constant and takes every step-size decision exactly.
Stored constants (``GammaRange(0.0, ...)``, the DR plan's ``delta = 1.0``)
stay floats.  The exact path decides but never prints: an f-string of a
``Fraction`` prints ``13/33``, so messages and outputs come from float plans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import operators as ops
from .calculus import INParams, ScaledConic
from .errors import DomainError, NumericError, StepSizeError, _is_integer
from .operators import MonotoneSpec, Op

__all__ = [
    "GammaRange",
    "SplitPlan",
    "plan_dr",
    "plan_fb",
    "dr_operator",
    "fb_operator",
    "build_dr",
    "build_fb",
    "dr_shadow_ops",
    "IterLog",
    "iterate",
    "RateReport",
    "rate_report",
    "solve",
    "write_csv",
]

FB_CASES = ("I", "Ib", "II", "IIb", "III", "IIIb")
DR_ORDERS = ("A_strong", "B_strong")


@dataclass(frozen=True)
class GammaRange:
    """A step-size interval, open above; ``hi=None`` means unbounded above."""

    lo: float
    hi: float | None
    lo_closed: bool = False

    def contains(self, g: float) -> bool:
        above = g >= self.lo if self.lo_closed else g > self.lo
        return above and (self.hi is None or g < self.hi)

    def __str__(self):
        left = "[" if self.lo_closed else "]"
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{left}{self.lo!r}, {hi}["


@dataclass(frozen=True)
class SplitPlan:
    """A validated splitting configuration with its certified constants.

    ``nu`` is the inner conic/averaged parameter (for DR: of the composition
    of reflected resolvents); ``delta`` the certified Lipschitz factor
    (``1.0`` for merely averaged maps); ``averaged_alpha`` the averagedness
    of the full operator when certified.
    """

    method: str
    case: str
    mu: float
    omega: float
    gamma: float
    gamma_range: GammaRange
    nu: float
    delta: float
    averaged_alpha: float | None
    contraction: bool
    beta: float | None = None
    beta_bar: float | None = None
    lambda_relax: float | None = None
    order: str | None = None

    def to_json(self) -> dict:
        return {**asdict(self), "gamma_range": str(self.gamma_range)}


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def _required_moduli(kind: str, mu: float, omega: float, beta: float | None = None):
    """The moduli ``(rho_A, rho_B)`` that a DR order or an FB case requires.

    ``A_strong`` and FB cases I/Ib: ``(mu, -omega)``.  ``B_strong`` and the
    II/III family: ``(-p, mu)``, as ``A + p*Id`` is cocoercive, with the shift
    ``p = beta`` in cases III/IIIb (``A`` is ``beta``-Lipschitz), else ``omega``.
    """
    if kind in ("A_strong", "I", "Ib"):
        return mu, -omega
    return -(beta if kind.startswith("III") else omega), mu


def plan_dr(
    mu: float,
    omega: float,
    gamma: float,
    lambda_relax: float = 0.5,
    order: str = "A_strong",
) -> SplitPlan:
    """Plan for the relaxed reflect-reflect-average operator.

    Requires ``mu > omega >= 0`` and ``gamma`` in
    ``]0, (1-lambda)*(mu-omega)/(mu*omega)[`` (unbounded when ``omega = 0``);
    then the operator is ``lambda*(mu-omega)/(mu-omega-gamma*mu*omega)``-averaged.
    """
    _require(omega >= 0.0, f"requires omega >= 0, got {omega}")
    _require(mu > omega, f"requires mu > omega, got mu={mu}, omega={omega}")
    _require(0.0 < lambda_relax < 1.0, f"relaxation must lie in ]0,1[, got {lambda_relax}")
    _require(order in DR_ORDERS, f"unknown order {order!r}")
    _require(omega == 0.0 or mu * omega > 0.0, f"mu*omega rounds to 0, got mu={mu}, omega={omega}")
    hi = None if omega == 0.0 else (1 - lambda_relax) * (mu - omega) / (mu * omega)
    rng = GammaRange(0.0, hi)
    if not rng.contains(gamma):
        raise StepSizeError(
            f"step size {gamma} outside certified interval {rng}", interval=rng
        )
    # The interval keeps mu - omega - gamma*mu*omega and 1 - gamma*omega above
    # 0, but either can round to 0; where gamma*mu is finite, so are both.
    # A comparison, not math.isfinite: an int or Fraction product never
    # overflows, and has no float to convert to past the float range.
    _require(gamma * mu < math.inf, f"gamma*mu overflows at gamma={gamma}; "
                                    "no constants certified")
    den = mu - omega - gamma * mu * omega
    _require(den != 0.0, f"mu - omega - gamma*mu*omega rounds to 0 at gamma={gamma}; "
                         "no constants certified")
    _require(gamma * omega != 1.0, f"gamma*omega rounds to 1 at gamma={gamma}; "
                                   "no constants certified")
    nu = (mu - omega) / den
    alpha = lambda_relax * nu
    return SplitPlan(
        method="DR",
        case="",
        mu=mu,
        omega=omega,
        gamma=gamma,
        gamma_range=rng,
        nu=nu,
        delta=1.0,
        averaged_alpha=alpha,
        contraction=False,
        lambda_relax=lambda_relax,
        order=order,
    )


def plan_fb(
    case: str,
    mu: float,
    omega: float = 0.0,
    gamma: float = None,
    beta: float = None,
    beta_bar: float = None,
) -> SplitPlan:
    """Plan for the forward-backward operator ``J_{gB}(Id - g*A)``.

    Case I/Ib: forward side strongly monotone (``A`` mu-monotone with
    ``A - mu*Id`` ``1/beta``-cocoercive, ``B`` ``(-omega)``-monotone).
    Cases II/IIb and III/IIIb share one formula in the forward shift ``p``
    (``A + p*Id`` cocoercive, ``B`` mu-monotone, ``mu >= p``): ``p = omega``
    in case II (bound ``beta_bar > max(beta, mu+omega)``) and ``p = beta`` in
    case III, where ``A`` is merely ``beta``-Lipschitz.  Their step size lies
    in ``]0, 2/(beta_bar-2p)[``, with ``nu = g*beta_bar/(2(1+g*p))`` and
    ``delta = (1+g*p)/(1+g*mu)``.
    The b-variants take the step size in the adjacent half-open interval and
    certify a contraction with a negative scale factor in ``]-1, 0]``; case
    Ib also requires ``g*omega < 1``, where ``J_{gB}`` is single-valued.
    """
    _require(case in FB_CASES, f"unknown forward-backward case {case!r}")
    _require(gamma is not None, "gamma is required")
    _require(beta is not None and beta > 0.0, f"requires beta > 0, got {beta}")
    _require(omega >= 0.0, f"requires omega >= 0, got {omega}")

    family, b_case = case.rstrip("b"), case.endswith("b")
    p_name, p = ("beta", beta) if family == "III" else ("omega", omega)
    if family != "I":
        _require(beta_bar is not None, f"cases {family}/{family}b require beta_bar")
    if family == "II":
        _require(
            beta_bar > max(beta, mu + omega),
            f"requires beta_bar > max(beta, mu+omega) = {max(beta, mu + omega)}, got {beta_bar}",
        )
    _require(mu > p if b_case else mu >= p,
             f"case {case} requires mu {'>' if b_case else '>='} {p_name}, "
             f"got {mu} {'<=' if b_case else '<'} {p}")
    if family == "III":
        bound, text = (mu + beta, "mu+beta") if b_case else (2 * beta, "2*beta")
        _require(beta_bar > bound, f"requires beta_bar > {text}, got {beta_bar}")
    if family == "I":
        beta_fwd, lo = beta, 2 / (beta + 2 * mu)
    else:
        beta_fwd, lo = beta_bar, 2 / (beta_bar - 2 * p)
    if b_case:
        rng = GammaRange(lo, 2 / (beta + mu if family == "I" else beta_bar - mu - p),
                         lo_closed=True)
    else:
        rng = GammaRange(0.0, lo)

    if not rng.contains(gamma):
        raise StepSizeError(
            f"step size {gamma} outside case {case} interval {rng}", interval=rng
        )
    if family == "I":
        den = gamma * (mu + beta) - 1 if b_case else 1 - gamma * mu
        num, scale = (-den if b_case else den), 1 - gamma * omega
    else:
        den = gamma * beta_bar - gamma * p - 1 if b_case else 1 + gamma * p
        num, scale = (1 + gamma * p - gamma * beta_bar if b_case else den), 1 + gamma * mu
    if case == "Ib":
        _require(gamma * omega < 1.0,
                 f"case Ib requires gamma*omega < 1 (J_gB single-valued), got {gamma * omega}")
        # The interval keeps gamma*(mu+beta) - 1 above 0, but it can round to 0.
        _require(den != 0.0, f"case Ib: gamma*(mu+beta) - 1 rounds to 0 at gamma={gamma}; "
                             "no constants certified")
    nu, delta = gamma * beta_fwd / (2 * den), num / scale
    if b_case:
        # The gamma interval alone does not pin the factor into ]-1, 0] when
        # omega > 0; reject at the boundary rather than certify a non-contraction.
        if not (-1.0 < delta <= 0.0):
            raise DomainError(
                f"case {case} factor {delta} outside ]-1, 0]; "
                f"no contraction certified at gamma={gamma}"
            )
        _require(0.0 < nu <= 1.0, f"internal: nu = {nu} outside ]0,1]")
        averaged_alpha = None
    else:
        _require(0.0 < nu < 1.0, f"internal: nu = {nu} outside ]0,1[")
        _require(0.0 < delta <= 1.0, f"internal: delta = {delta} outside ]0,1]")
        averaged_alpha = 1 - delta * (1 - nu) / (2 - nu)
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


# ---------------------------------------------------------------------------
# Operator assembly


def dr_operator(
    A: MonotoneSpec, B: MonotoneSpec, gamma: float, lambda_relax: float = 0.5
) -> Op:
    """``(1-lambda)*Id + lambda*R_{gB} R_{gA}`` without plan validation."""
    ra = A.reflected_resolvent(gamma)
    rb = B.reflected_resolvent(gamma)
    return ops.relax(lambda_relax, ops.compose(rb, ra))


def fb_operator(A: MonotoneSpec, B: MonotoneSpec, gamma: float) -> Op:
    """``J_{gB}(Id - gamma*A)`` without plan validation."""
    step = ops.shift(1.0, ops.scale(-gamma, A.forward()))
    return ops.compose(B.resolvent(gamma), step)


def _check_modulus(plan: SplitPlan, A: MonotoneSpec, B: MonotoneSpec):
    """Reject specs below the plan's moduli by more than their ``rho_error``."""
    required = _required_moduli(plan.order or plan.case, plan.mu, plan.omega, plan.beta)
    for name, spec, rho in zip("AB", (A, B), required):
        if spec.rho < rho - spec.rho_error:
            raise DomainError(
                f"modulus mismatch: {name} must be {rho}-monotone, "
                f"spec certifies only {spec.rho}"
            )


def build_dr(plan: SplitPlan, A: MonotoneSpec, B: MonotoneSpec) -> Op:
    """Assemble the planned operator; fixed points map to zeros of ``A + B``
    through the resolvent of ``A``.

    Its certificate is ``INParams(1 - alpha, alpha)`` at the plan's
    ``averaged_alpha``: ``plan_dr``'s ``nu`` is the only source of the DR
    constants.  The conic-composition route to ``nu`` is an exact test, not a
    run-time check, so a DR solve raises ``NumericError`` (exit 3) only from a
    singular resolvent solve or a non-finite iterate.
    """
    _require(plan.method == "DR", "plan is not a DR plan")
    _check_modulus(plan, A, B)
    t = dr_operator(A, B, plan.gamma, plan.lambda_relax)
    t.certificate = INParams(1.0 - plan.averaged_alpha, plan.averaged_alpha)
    return t


def build_fb(plan: SplitPlan, A: MonotoneSpec, B: MonotoneSpec) -> Op:
    """Assemble the planned forward-backward operator; its fixed points are
    the zeros of ``A + B``."""
    _require(plan.method == "FB", "plan is not an FB plan")
    _check_modulus(plan, A, B)
    t = fb_operator(A, B, plan.gamma)
    t.certificate = ScaledConic(plan.delta, plan.nu)
    return t


def dr_shadow_ops(A: MonotoneSpec, B: MonotoneSpec, gamma: float) -> tuple[Op, Op]:
    """The two shadow maps ``x -> J_{gA} x`` and ``x -> J_{gB} R_{gA} x``."""
    return A.resolvent(gamma), ops.compose(B.resolvent(gamma), A.reflected_resolvent(gamma))


# ---------------------------------------------------------------------------
# Iteration driver


@dataclass
class IterLog:
    """Per-iteration record of a fixed-point run."""

    points: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    err_norms: list | None = None
    shadow_gaps: list | None = None
    converged: bool = False
    diverged: bool = False
    reason: str = ""
    n_iter: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


# Steps per block of ``iterate``: ``T`` runs this many times between two
# rounds of batched bookkeeping (set by timing solve-small and solve-large).
_BLOCK = 64

# ``iterate``'s fixed divergence policy, stated in its docstring.
_DIVERGENCE_FACTOR = 1e6
_GROWTH_WINDOW = 50


def _vector(name: str, value, dim: int) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    _require(v.shape == (dim,), f"{name} must have shape ({dim},), got {v.shape}")
    _require(np.isfinite(v).all(), f"{name} must be finite")
    return v


def iterate(
    T: Op,
    x0,
    max_iter: int = 10_000,
    tol_fix: float = 1e-10,
    x_star=None,
    track_shadow: bool = False,
    A: MonotoneSpec | None = None,
    B: MonotoneSpec | None = None,
    gamma: float | None = None,
) -> IterLog:
    """Run ``x_{k+1} = T x_k`` until the relative step drops below ``tol_fix``.

    Flags divergence when the iterate norm exceeds ``1e6*(1+||x0||)`` or the
    step norm grows for 50 consecutive iterations.  With ``track_shadow``
    (needs ``A``, ``B``, ``gamma``) records the gap between the two shadow
    points.  A non-finite ``x0`` or ``x_star``, a ``max_iter`` that is not an
    integer ``>= 0``, a ``tol_fix`` that is not a finite number ``>= 0`` and
    an ``x0`` whose norm overflows that cap (above about 1.8e302) raise
    :class:`DomainError` before any step.  Norms do not overflow short of the
    float range (see ``_row_norms``), and an iterate norm past it exceeds the
    finite cap, so it stops the run as diverged before any stop test reads it.

    The bookkeeping is blocked: the loop evaluates ``T`` alone for up to
    ``_BLOCK`` steps, then takes the block's norms, errors and shadow gaps in
    a few batched numpy calls and scans them for the first stopping step,
    where the log is cut.  So ``T`` may run up to ``_BLOCK - 1`` times past
    that step.  Blocks run under ``np.errstate(all="ignore")``, and an
    exception ``T`` raises after the stopping step is dropped.  The loop
    calls ``T.fn`` on the vectors it returns, so the shape of each block's
    iterates is checked once, when they are stacked.
    """
    x = _vector("x0", x0, T.dim)
    _require(_is_integer(max_iter), f"max_iter must be an integer, got {max_iter!r}")
    _require(max_iter >= 0, f"max_iter must be >= 0, got {max_iter}")
    _require(0.0 <= tol_fix < math.inf, f"tol_fix must be a finite number >= 0, got {tol_fix}")
    gap = None
    if track_shadow:
        if A is None or B is None or gamma is None:
            raise DomainError("shadow tracking requires A, B and gamma")
        gap = ops.difference(*dr_shadow_ops(A, B, gamma))

    target = None if x_star is None else _vector("x_star", x_star, T.dim)
    with np.errstate(all="ignore"):
        x_norm = _row_norms(x[None]).item()
        log = IterLog(points=[x],
                      err_norms=None if target is None else _row_norms((x - target)[None]).tolist(),
                      shadow_gaps=None if gap is None else _row_norms(gap(x)[None]).tolist())
    # Past this norm the cap overflows, and an infinite iterate norm would no
    # longer stop the run as diverged before it enters a stop test.
    norm_cap = _DIVERGENCE_FACTOR * (1.0 + x_norm)
    _require(norm_cap < math.inf,
             f"x0's norm {x_norm:g} is too large: the divergence cap 1e6*(1 + ||x0||) overflows")
    growth_window = _GROWTH_WINDOW
    growth = 0
    last_step = math.inf
    fn = T.fn
    k = 0
    while k < max_iter:
        pts = [x]
        failure = None
        with np.errstate(all="ignore"):
            try:
                for _ in range(min(_BLOCK, max_iter - k)):
                    x = fn(x)
                    pts.append(x)
            except Exception as exc:  # raised below unless an earlier step stops
                failure = exc
            # Row i of P is x_{k+i}; norms[i] is ||x_{k+i}|| and steps[i-1]
            # is ||x_{k+i} - x_{k+i-1}||.
            try:
                P = np.array(pts)
            except ValueError:  # iterates of different shapes
                P = None
            if P is None or P.shape != (len(pts), T.dim):
                raise DomainError(f"T must map ({T.dim},) vectors to ({T.dim},) vectors")
            norms = _row_norms(P).tolist()
            steps = _row_norms(P[1:] - P[:-1]).tolist()
            errs = None if target is None else _row_norms(P[1:] - target).tolist()
            gaps = None if gap is None else _row_norms(gap(P[1:])).tolist()

        n = 0
        for step in steps:
            n += 1
            new_norm = norms[n]
            # A finite norm implies finite entries; an infinite one of finite
            # entries lies past the float range, and so past the cap.
            if not math.isfinite(new_norm) and not np.all(np.isfinite(P[n])):
                raise NumericError(f"non-finite iterate at iteration {k + n}", iteration=k + n)
            if step <= tol_fix * (1.0 + norms[n - 1]):
                log.converged = True
                break
            growth = growth + 1 if step > last_step else 0
            last_step = step
            if new_norm > norm_cap:
                log.diverged = True
                log.reason = f"iterate norm exceeded {norm_cap:g} at iteration {k + n}"
                break
            if growth >= growth_window:
                log.diverged = True
                log.reason = f"step norm grew for {growth_window} consecutive iterations"
                break

        log.points.extend(pts[1 : n + 1])
        log.step_norms.extend(steps[:n])
        if errs is not None:
            log.err_norms.extend(errs[:n])
        if gaps is not None:
            log.shadow_gaps.extend(gaps[:n])
        k += n
        log.n_iter = k
        if log.converged or log.diverged:
            return log
        if failure is not None:
            raise failure
    log.reason = f"no convergence within {max_iter} iterations"
    return log


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, without overflow.

    The stacked ``(1, n) @ (n, 1)`` products are bit-equal to ``ndarray.dot``
    of each row (``einsum`` and ``(m*m).sum(1)`` sum in another order).  A row
    of finite entries whose sum of squares overflows is recomputed scaled by
    its largest ``|entry|``, so its norm is infinite only past the float
    range; every other norm keeps the bits of ``sqrt(row.dot(row))``.
    """
    norms = np.sqrt(np.matmul(m[:, None, :], m[:, :, None]).ravel())
    # The cheapest test that every norm is finite; its false alarms, rows of
    # norms whose squares sum past the float range, only take the rescue path.
    if not math.isfinite(norms.dot(norms)):
        big = np.isinf(norms) & np.isfinite(m).all(axis=1)
        scale = np.abs(m[big]).max(axis=1)
        u = m[big] / scale[:, None]
        norms[big] = scale * np.sqrt(np.matmul(u[:, None, :], u[:, :, None]).ravel())
    return norms


@dataclass(frozen=True)
class RateReport:
    empirical_rate: float
    certified_rate: float
    satisfied: bool
    reason: str = ""


def rate_report(log: IterLog, plan: SplitPlan) -> RateReport:
    """Geometric-mean step ratio over the tail half vs the certified rate."""
    certified = abs(plan.delta) if plan.contraction else 1.0
    if log.diverged:
        return RateReport(math.inf, certified, False, f"diverged: {log.reason}")
    if len(log.step_norms) < 10:
        raise DomainError(
            f"rate report needs at least 10 steps, got {len(log.step_norms)}"
        )
    if not log.converged and log.err_norms is None:
        raise DomainError("rate report needs a converged run or a known fixed point")
    s = [v for v in log.step_norms if v > 0.0]
    if len(s) < 2:
        return RateReport(0.0, certified, True, "exact fixed point reached")
    m = len(s) // 2
    empirical = (s[-1] / s[m]) ** (1.0 / (len(s) - 1 - m)) if len(s) - 1 > m else s[-1] / s[m - 1]
    return RateReport(empirical, certified, empirical <= certified + 1e-8, "")


def solve(A: MonotoneSpec, B: MonotoneSpec, config: dict, x0,
          x_star) -> tuple[dict, IterLog | None]:
    """Plan, build, iterate and rate one run; return ``(summary, log)``.

    ``config`` is the resolved configuration the summary embeds: ``method``,
    ``instance`` (with the plan's moduli), ``gamma``, ``max_iter``, ``tol``,
    ``force``, and ``lambda``/``order`` (DR) or ``case`` (FB).  A rejected plan
    returns ``({config, error[, valid_interval]}, None)``; under ``force`` the
    unplanned operator runs, and ``plan`` and ``rate`` are ``None``.  A bad
    ``x_star``, ``order`` or ``case`` raises :class:`DomainError` before any plan.
    """
    x_star = None if x_star is None else _vector("x_star", x_star, A.dim)
    inst, gamma = config["instance"], config["gamma"]
    if config["method"] == "DR":
        _require(config["order"] in DR_ORDERS, f"unknown order {config['order']!r}")
        planned = partial(plan_dr, inst["mu"], inst["omega"], gamma, config["lambda"],
                          config["order"])
        build, unplanned = build_dr, partial(dr_operator, A, B, gamma, config["lambda"])
        shadow = {"track_shadow": True, "A": A, "B": B, "gamma": gamma}
    else:
        _require(config["case"] in FB_CASES, f"unknown forward-backward case {config['case']!r}")
        planned = partial(plan_fb, config["case"], mu=inst["mu"], omega=inst.get("omega", 0.0),
                          beta=inst.get("beta"), beta_bar=inst.get("beta_bar"), gamma=gamma)
        build, unplanned, shadow = build_fb, partial(fb_operator, A, B, gamma), {}
    try:
        plan = planned()
        t = build(plan, A, B)
    except DomainError as exc:
        if not config["force"]:
            record = {"config": config, "error": str(exc)}
            if getattr(exc, "interval", None) is not None:
                record["valid_interval"] = str(exc.interval)
            return record, None
        plan, t = None, unplanned()
    log = iterate(t, x0, max_iter=config["max_iter"], tol_fix=config["tol"], x_star=x_star,
                  **shadow)
    rated = plan is not None and len(log.step_norms) >= 10 and (
        log.converged or log.diverged or x_star is not None)
    return {
        "config": config,
        "plan": None if plan is None else plan.to_json(),
        "result": {"iterations": log.n_iter, "converged": log.converged,
                   "diverged": log.diverged, "reason": log.reason,
                   "final": [float(v) for v in log.final]},
        "rate": asdict(rate_report(log, plan)) if rated else None,
    }, log


# Rows per write of ``write_csv``: one string for the whole log would add
# its size (~1.5 MiB at 8000 rows) to the peak memory of a solve.
_CSV_ROWS = 1024


def write_csv(log: IterLog, path) -> None:
    """Columns: k, step_norm, err_norm, shadow_gap (blank where unknown).

    The bytes are those of ``csv.writer`` (no field needs quoting, rows end
    in ``\\r\\n``), built column by column and written ``_CSV_ROWS`` rows at
    a time.
    """
    n = len(log.points)
    blank = [""] * n
    columns = (
        map(str, range(n)),
        itertools.chain([""], map(repr, log.step_norms)),
        blank if log.err_norms is None else map(repr, log.err_norms),
        blank if log.shadow_gaps is None else map(repr, log.shadow_gaps),
    )
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        fh.write("k,step_norm,err_norm,shadow_gap\r\n")
        while chunk := list(itertools.islice(rows, _CSV_ROWS)):
            fh.write("\r\n".join(chunk) + "\r\n")
