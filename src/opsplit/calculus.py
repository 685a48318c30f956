"""Closed-form arithmetic over operator-class descriptors.

An operator ``R`` on a real inner-product space *admits an (alpha, beta)
identity-nonexpansive decomposition* when ``R = alpha*Id + beta*N`` for some
nonexpansive ``N``.  The pair ``(alpha, beta)`` with ``beta >= 0`` is the
universal class descriptor used throughout this package: Lipschitz, averaged,
conically nonexpansive, cocoercive and contractive maps are all special
patterns of it.

This module is pure arithmetic: conversions between named classes and
descriptors, the two-operator coupling coefficients ``d1..d4``, and the
composition rules that certify a descriptor for a product ``R2 R1`` (inner
factor first).  Every rule checks its hypotheses and raises a typed error on
failure; :func:`certify` tries the two-operator rules in a fixed order, and
when none applies callers fall back to the naive Lipschitz product
``(|a1|+b1)(|a2|+b2)``.

Hypothesis inequalities are checked exactly as stated (strict where strict).

The rules from :func:`delta_bundle` to :func:`compose_chain`,
:func:`resolvent_class` and :meth:`ScaledConic.to_in` write their arithmetic
literals as ints.  An int operand converts to the same double, so on floats
they return the same results as with float literals; on ``Fraction`` inputs
the same code computes every rational constant and decides every hypothesis
exactly.  The exact path leaves the rationals only at the ``sqrt`` of
:func:`compose_general` and the ``m/(1 + m)`` of
:func:`compose_cocoercive_chain`.  Stored constants, such as the ``1.0`` of
:func:`compose_conic`'s ``max = 1`` branch, stay floats, and a descriptor
holds only values in the float range: an int or ``Fraction`` past it fails
the finiteness check, as its float would.  The exact path decides but never
prints: an f-string of a ``Fraction`` prints ``13/33``, so messages and
outputs come from float calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DomainError, GuardError, _is_integer

__all__ = [
    "INParams",
    "ScaledConic",
    "DeltaBundle",
    "Kind",
    "ClassLabel",
    "from_label",
    "classify",
    "resolvent_class",
    "ResolventClasses",
    "delta_bundle",
    "compose_general",
    "compose_kappa_theta",
    "compose_conic",
    "compose_scaled_averaged_cocoercive",
    "compose_chain",
    "compose_cocoercive_chain",
    "certify",
    "naive_lipschitz",
    "rescale_averaged",
    "averaged_refactor",
    "displacement_class",
    "lipschitz_shift",
]


# ---------------------------------------------------------------------------
# Descriptors


def _require_finite(a, b) -> None:
    try:
        finite = math.isfinite(a) and math.isfinite(b)
    except OverflowError:  # an int or Fraction past the float range
        finite = False
    if not finite:
        raise DomainError(f"descriptor must be finite, got ({a}, {b})")


@dataclass(frozen=True)
class INParams:
    """Descriptor of the decomposition ``R = alpha*Id + beta*N``, ``N`` nonexpansive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.beta >= 0.0:
            raise DomainError(f"beta must satisfy beta >= 0, got {self.beta}")
        _require_finite(self.alpha, self.beta)

    @property
    def lipschitz(self) -> float:
        """Coarse Lipschitz bound ``|alpha| + beta``."""
        return abs(self.alpha) + self.beta

    def to_in(self) -> INParams:
        """Itself: the ``(alpha, beta)`` form both descriptors share."""
        return self

    def to_json(self) -> dict:
        return {"type": "in", "alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class ScaledConic:
    """Descriptor meaning ``(1/delta) * R`` is ``alpha``-conically nonexpansive.

    Equivalently ``R = delta*((1-alpha)*Id + alpha*N)``.  ``delta`` may be
    negative (sign flips are part of the calculus); ``alpha`` must be positive.
    """

    delta: float
    alpha: float

    def __post_init__(self):
        if self.delta == 0.0:
            raise DomainError("delta must be nonzero")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must satisfy alpha > 0, got {self.alpha}")
        _require_finite(self.delta, self.alpha)

    def to_in(self) -> INParams:
        """The induced descriptor ``(delta*(1-alpha), |delta|*alpha)``."""
        return INParams(self.delta * (1 - self.alpha), abs(self.delta) * self.alpha)

    def to_json(self) -> dict:
        return {"type": "scaled-conic", "delta": self.delta, "alpha": self.alpha}


Descriptor = INParams | ScaledConic


@dataclass(frozen=True)
class DeltaBundle:
    """Coupling coefficients of a two-operator composition.

    ``d4 = d1*d2/(d1+d2)`` whenever ``d1+d2 != 0``; the ``degenerate`` flag
    marks the ``d1+d2 == 0`` case (``d4`` is then frozen at 0 and must not be
    consumed by the certified composition path).
    """

    d1: float
    d2: float
    d3: float
    d4: float
    degenerate: bool = False


class Kind(enum.Enum):
    LIPSCHITZ = "lipschitz"
    NONEXPANSIVE = "nonexpansive"
    AVERAGED = "averaged"
    CONIC = "conic"
    COCOERCIVE = "cocoercive"
    CONTRACTION = "contraction"
    SCALED_CONIC = "scaled-conic"
    NEG_CONIC = "neg-conic"


@dataclass(frozen=True)
class ClassLabel:
    """A named operator class with its defining parameter(s).

    ``value`` is the main parameter (Lipschitz/contraction constant, averaged
    or conic parameter, cocoercivity modulus); ``scale`` is only used by
    ``SCALED_CONIC``.  Constructors validate the defining ranges.
    """

    kind: Kind
    value: float | None = None
    scale: float | None = None

    def to_json(self) -> dict:
        """``kind`` by its name, then ``value`` and ``scale`` where set."""
        out = {"kind": self.kind.value}
        if self.value is not None:
            out["value"] = self.value
        if self.scale is not None:
            out["scale"] = self.scale
        return out

    @staticmethod
    def lipschitz(constant: float) -> "ClassLabel":
        if not constant >= 0.0:
            raise DomainError(f"Lipschitz constant must be >= 0, got {constant}")
        return ClassLabel(Kind.LIPSCHITZ, constant)

    @staticmethod
    def nonexpansive() -> "ClassLabel":
        return ClassLabel(Kind.NONEXPANSIVE)

    @staticmethod
    def averaged(alpha: float) -> "ClassLabel":
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"averaged parameter must lie in ]0,1[, got {alpha}")
        return ClassLabel(Kind.AVERAGED, alpha)

    @staticmethod
    def conic(alpha: float) -> "ClassLabel":
        if not alpha > 0.0:
            raise DomainError(f"conic parameter must be > 0, got {alpha}")
        return ClassLabel(Kind.CONIC, alpha)

    @staticmethod
    def cocoercive(modulus: float) -> "ClassLabel":
        """``modulus``-cocoercive: ``<Rx-Ry, x-y> >= modulus*||Rx-Ry||^2``."""
        if not modulus > 0.0:
            raise DomainError(f"cocoercivity modulus must be > 0, got {modulus}")
        return ClassLabel(Kind.COCOERCIVE, modulus)

    @staticmethod
    def contraction(constant: float) -> "ClassLabel":
        if not 0.0 <= constant < 1.0:
            raise DomainError(f"contraction constant must lie in [0,1[, got {constant}")
        return ClassLabel(Kind.CONTRACTION, constant)

    @staticmethod
    def scaled_conic(scale: float, alpha: float) -> "ClassLabel":
        if scale == 0.0:
            raise DomainError("scale must be nonzero")
        if not alpha > 0.0:
            raise DomainError(f"conic parameter must be > 0, got {alpha}")
        return ClassLabel(Kind.SCALED_CONIC, alpha, scale)

    @staticmethod
    def neg_conic(alpha: float) -> "ClassLabel":
        """``-R`` is ``alpha``-conically nonexpansive."""
        if not alpha > 0.0:
            raise DomainError(f"conic parameter must be > 0, got {alpha}")
        return ClassLabel(Kind.NEG_CONIC, alpha)


def from_label(label: ClassLabel) -> INParams:
    """Descriptor of a named class.

    Lipschitz(L) -> (0, L); Nonexpansive -> (0, 1); Averaged/Conic(a) ->
    (1-a, a); Cocoercive(c) -> (1/(2c), 1/(2c)); Contraction(L) -> (0, L);
    ScaledConic(d, a) -> (d*(1-a), |d|*a); NegConic(a) -> (-(1-a), a).
    """
    k, v = label.kind, label.value
    if k in (Kind.LIPSCHITZ, Kind.CONTRACTION):
        return INParams(0.0, v)
    if k is Kind.NONEXPANSIVE:
        return INParams(0.0, 1.0)
    if k in (Kind.AVERAGED, Kind.CONIC):
        return INParams(1.0 - v, v)
    if k is Kind.COCOERCIVE:
        half = 0.5 / v
        return INParams(half, half)
    if k is Kind.SCALED_CONIC:
        return ScaledConic(label.scale, v).to_in()
    if k is Kind.NEG_CONIC:
        return INParams(-(1.0 - v), v)
    raise DomainError(f"unknown label kind {k}")


def classify(p: INParams) -> set[ClassLabel]:
    """Every named class whose defining pattern ``p`` matches exactly.

    Always contains ``Lipschitz(|alpha|+beta)``.  Any ``p`` with
    ``alpha+beta > 0`` is ``(alpha+beta)``-scaled ``beta/(alpha+beta)``-conic;
    with ``beta-alpha > 0`` it also has the sign-flipped scaled-conic form
    (scale ``-(beta-alpha)``), which makes this the exact inverse of
    :func:`from_label` on every in-range label.
    """
    a, b = p.alpha, p.beta
    lip = abs(a) + b
    out = {ClassLabel.lipschitz(lip)}
    if lip <= 1.0:
        out.add(ClassLabel.nonexpansive())
    if lip < 1.0:
        out.add(ClassLabel.contraction(lip))
    if a + b == 1.0 and 0.0 < b < 1.0:
        out.add(ClassLabel.averaged(b))
    if a == b and b > 0.0:
        out.add(ClassLabel.cocoercive(0.5 / b))
    s = a + b
    if s > 0.0 and b > 0.0:
        out.add(ClassLabel.scaled_conic(s, b / s))
        if s == 1.0:
            out.add(ClassLabel.conic(b))
    d = b - a
    if d > 0.0 and b > 0.0:
        out.add(ClassLabel.scaled_conic(-d, b / d))
        if d == 1.0:
            out.add(ClassLabel.neg_conic(b))
    return out


class ResolventClasses(NamedTuple):
    resolvent: ClassLabel
    reflected: ClassLabel
    reflected_lipschitz: float | None


def resolvent_class(rho: float) -> ResolventClasses:
    """Certified classes of the resolvent of a ``rho``-monotone operator.

    For ``rho > -1`` the resolvent ``(Id + A)^{-1}`` is ``(1+rho)``-cocoercive,
    the negated reflection ``-(2J - Id)`` is ``1/(1+rho)``-conic, and for
    ``rho <= 0`` the reflection is Lipschitz with constant ``(1-rho)/(1+rho)``.
    """
    if not rho > -1.0:
        raise DomainError(
            f"resolvent not single-valued/full-domain: requires rho > -1, got {rho}"
        )
    res = ClassLabel.cocoercive(1 + rho)
    refl = ClassLabel.neg_conic(1 / (1 + rho))
    refl_lip = (1 - rho) / (1 + rho) if rho <= 0.0 else None
    return ResolventClasses(res, refl, refl_lip)


# ---------------------------------------------------------------------------
# Two-operator composition


def delta_bundle(p1: INParams, p2: INParams) -> DeltaBundle:
    """Coupling coefficients of the composition ``R2 R1``.

    With ``q_i = ((1-a_i)^2 - b_i^2)/(1-a_i)``::

        d1 = a1/(1-a1) * (1 - q2)
        d2 = a2/(1-a2)
        d3 = 1 - (q1*(1 - q2) + q2)
        d4 = d1*d2/(d1+d2)

    Requires ``a1 < 1``, ``a2 < 1`` and ``a2*(a2-1) <= b2^2``, and raises
    :class:`DomainError` where ``(1 - a)**2`` overflows.  That branch is
    float-only: on ``Fraction`` inputs every coefficient is exact.
    """
    a1, b1 = p1.alpha, p1.beta
    a2, b2 = p2.alpha, p2.beta
    if not a1 < 1.0:
        raise DomainError(f"requires p1.alpha < 1, got {a1}")
    if not a2 < 1.0:
        raise DomainError(f"requires p2.alpha < 1, got {a2}")
    if a2 * (a2 - 1) > b2 * b2:
        raise DomainError(
            f"requires p2.alpha*(p2.alpha-1) <= p2.beta^2, got {a2 * (a2 - 1)} > {b2 * b2}"
        )
    # Each of 1 - a1, 1 - a2 and 1 - q2 is formed once: a float minus an int
    # literal costs about twice a float minus a float.
    u1, u2 = 1 - a1, 1 - a2
    try:
        q1 = (u1 ** 2 - b1 * b1) / u1
        q2 = (u2 ** 2 - b2 * b2) / u2
    except OverflowError:
        # A float ** raises where * gives inf: the rule does not apply.
        raise DomainError(f"coupling coefficients overflow: 1 - alpha is {u1} "
                          f"and {u2}") from None
    v2 = 1 - q2
    d1 = a1 / u1 * v2
    d2 = a2 / u2
    d3 = 1 - (q1 * v2 + q2)
    s = d1 + d2
    if s == 0.0:
        return DeltaBundle(d1, d2, d3, 0.0, degenerate=True)
    return DeltaBundle(d1, d2, d3, d1 * d2 / s, degenerate=False)


def compose_general(p1: INParams, p2: INParams) -> INParams:
    """Certified descriptor of ``R2 R1`` from the coupling coefficients.

    Requires ``d1+d2 > 0``, ``d3 - d4 + d3*d4 >= 0`` and ``d4 > -1``; then::

        alpha = d4/(1+d4),   beta = sqrt(d3 - d4 + d3*d4)/(1+d4)

    Each failed hypothesis raises a distinct :class:`GuardError` so callers
    can fall back to :func:`naive_lipschitz`.  On ``Fraction`` inputs every
    guard and ``alpha`` are exact; ``beta`` leaves the rationals, as the float
    ``sqrt`` of the radicand rounded to a double.
    """
    b = delta_bundle(p1, p2)
    if b.degenerate or not b.d1 + b.d2 > 0.0:
        raise GuardError(
            f"composition not certified: d1+d2 = {b.d1 + b.d2} fails d1+d2 > 0",
            hypothesis="d1+d2 > 0",
        )
    rad = b.d3 - b.d4 + b.d3 * b.d4
    if not rad >= 0.0:
        raise GuardError(
            f"composition not certified: d3-d4+d3*d4 = {rad} fails >= 0",
            hypothesis="d3-d4+d3*d4 >= 0",
        )
    if not b.d4 > -1.0:
        raise GuardError(
            f"composition not certified: d4 = {b.d4} fails d4 > -1",
            hypothesis="d4 > -1",
        )
    denom = 1 + b.d4
    return INParams(b.d4 / denom, math.sqrt(max(rad, 0.0)) / denom)


def compose_kappa_theta(p1: INParams, p2: INParams) -> ScaledConic:
    """Scaled-conic descriptor of ``R2 R1`` for positive-``beta`` factors.

    With ``s_i = a_i + b_i > 0`` each factor is ``s_i``-scaled ``t_i``-conic,
    ``t_i = b_i/s_i``, so this is :func:`compose_conic` on those forms: the
    product is ``s1*s2``-scaled, with conic parameter
    ``(t1 + t2 - 2 t1 t2)/(1 - t1 t2)`` if ``t1*t2 < 1`` and 1 if
    ``max(t1, t2) = 1``.

    Requires ``b1 > 0``, ``b2 > 0``, ``s1 > 0``, ``s2 > 0`` and one of the two
    branch conditions; the guard failure is re-raised in ``t1, t2`` terms.
    """
    a1, b1 = p1.alpha, p1.beta
    a2, b2 = p2.alpha, p2.beta
    if not (b1 > 0.0 and b2 > 0.0):
        raise DomainError(f"requires beta1 > 0 and beta2 > 0, got {b1}, {b2}")
    s1, s2 = a1 + b1, a2 + b2
    if not (s1 > 0.0 and s2 > 0.0):
        raise DomainError(
            f"requires alpha+beta > 0 for both factors, got {s1}, {s2}"
        )
    t1, t2 = b1 / s1, b2 / s2
    try:
        return compose_conic(ScaledConic(s1, t1), ScaledConic(s2, t2))
    except GuardError:
        raise GuardError(
            "no kappa-theta form certified: requires b1*b2/((a1+b1)(a2+b2)) < 1 "
            f"or max ratio = 1, got product {t1 * t2} and max {max(t1, t2)}",
            hypothesis="t1*t2 < 1 or max(t1,t2) = 1",
        ) from None


def compose_conic(c1: ScaledConic, c2: ScaledConic) -> ScaledConic:
    """Composition of two scaled conically nonexpansive factors (inner first).

    Requires ``a1*a2 < 1`` or ``max(a1, a2) = 1``; the result has scale
    ``d1*d2`` and conic parameter ``(a1 + a2 - 2 a1 a2)/(1 - a1 a2)``, which
    is 1 on the ``max = 1`` branch (returned exactly, not as the rounded
    quotient).  The result parameter is below 1 exactly when both factor
    parameters are.
    """
    a1, a2 = c1.alpha, c2.alpha
    prod = a1 * a2
    if max(a1, a2) == 1.0:
        alpha = 1.0
    elif prod < 1.0:
        alpha = (a1 + a2 - 2 * prod) / (1 - prod)
    else:
        raise GuardError(
            f"composition not certified conic: alpha1*alpha2 = {prod} >= 1 "
            f"and max(alpha1, alpha2) = {max(a1, a2)} != 1",
            hypothesis="a1*a2 < 1 or max(a1,a2) = 1",
        )
    return ScaledConic(c1.delta * c2.delta, alpha)


def compose_scaled_averaged_cocoercive(averaged: ScaledConic, coco_beta: float) -> ScaledConic:
    """Composition of a scaled averaged factor with a ``1/coco_beta``-cocoercive one.

    The result is ``coco_beta*delta``-scaled ``1/(2-alpha)``-averaged in either
    composition order.
    """
    if not 0.0 < averaged.alpha < 1.0:
        raise DomainError(
            f"averaged parameter must lie in ]0,1[, got {averaged.alpha}"
        )
    if not coco_beta > 0.0:
        raise DomainError(f"cocoercive scale must be > 0, got {coco_beta}")
    return ScaledConic(coco_beta * averaged.delta, 1 / (2 - averaged.alpha))


def compose_chain(items: list[ScaledConic], r: int) -> ScaledConic:
    """Composition of ``m >= 2`` scaled conic factors, applied first-to-last.

    All factors except the one at index ``r`` must be scaled *averaged*
    (parameter in ]0,1[); the ``r``-th may be any positive conic parameter.
    With ``abar = S/(1+S)`` over the others' ``a/(1-a)`` terms, requires
    ``a_r * abar < 1``; the composed parameter sums the terms over all
    factors (and is 1 when ``a_r = 1``), the scale is the product of scales.
    """
    m = len(items)
    if m < 2:
        raise DomainError(f"chain needs at least two factors, got {m}")
    if not _is_integer(r):
        raise DomainError(f"index r must be an integer, got {r!r}")
    if not 0 <= r < m:
        raise DomainError(f"index r={r} out of range for chain of length {m}")
    for i, c in enumerate(items):
        if i != r and not 0.0 < c.alpha < 1.0:
            raise DomainError(
                f"factor {i} must have conic parameter in ]0,1[, got {c.alpha}"
            )
    a_r = items[r].alpha
    s_other = sum(c.alpha / (1 - c.alpha) for i, c in enumerate(items) if i != r)
    abar = s_other / (1 + s_other)
    if not a_r * abar < 1.0:
        raise GuardError(
            f"chain not certified: a_r*abar = {a_r * abar} fails < 1",
            hypothesis="a_r*abar < 1",
        )
    scale = math.prod(c.delta for c in items)
    if a_r == 1.0:
        return ScaledConic(scale, 1.0)
    s_all = s_other + a_r / (1 - a_r)
    return ScaledConic(scale, s_all / (1 + s_all))


def compose_cocoercive_chain(betas: Iterable[float]) -> ScaledConic:
    """Composition of ``1/beta_i``-cocoercive factors: ``prod(beta)``-scaled
    ``m/(1+m)``-averaged.

    On ``Fraction`` scales the product is exact, but ``m/(1 + m)`` is a
    float: the exact path leaves the rationals there.
    """
    bs = list(betas)
    if not bs:
        raise DomainError("cocoercive chain needs at least one factor")
    for b in bs:
        if not b > 0.0:
            raise DomainError(f"cocoercive scales must be > 0, got {b}")
    m = len(bs)
    return ScaledConic(math.prod(bs), m / (1.0 + m))


def certify(inner: Descriptor, outer: Descriptor) -> tuple[Descriptor, str]:
    """Certified descriptor of ``outer ∘ inner`` and the name of its theorem.

    Tries :func:`compose_conic` (``conic``) when both factors are
    :class:`ScaledConic`, then :func:`compose_general` (``two-factor-bound``),
    then :func:`compose_kappa_theta` (``scale-normalized-bound``).  When none
    applies the last rule's :class:`GuardError`/:class:`DomainError`
    propagates; the caller's fallback is :func:`naive_lipschitz`.
    """
    p1, p2 = inner.to_in(), outer.to_in()
    if isinstance(inner, ScaledConic) and isinstance(outer, ScaledConic):
        try:
            return compose_conic(inner, outer), "conic"
        except DomainError:
            pass
    try:
        return compose_general(p1, p2), "two-factor-bound"
    except DomainError:
        pass
    return compose_kappa_theta(p1, p2), "scale-normalized-bound"


def naive_lipschitz(*params: Descriptor) -> float:
    """Fallback Lipschitz constant of a composition: product of ``|a|+b``."""
    return math.prod(p.to_in().lipschitz for p in params)


# ---------------------------------------------------------------------------
# Single-operator algebra


def rescale_averaged(alpha: float, delta: float) -> list[ClassLabel]:
    """Classes of ``delta*T`` for ``alpha``-averaged ``T`` and ``delta`` in ]0,1].

    ``delta*T`` is ``(1 - delta*(1-alpha))``-averaged, and additionally a
    ``delta``-contraction when ``delta < 1``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"averaged parameter must lie in ]0,1[, got {alpha}")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"rescale factor must lie in ]0,1], got {delta}")
    out = [ClassLabel.averaged(1.0 - delta * (1.0 - alpha))]
    if delta < 1.0:
        out.append(ClassLabel.contraction(delta))
    return out


def averaged_refactor(alpha: float, beta: float) -> ScaledConic:
    """Refactor an ``alpha``-averaged ``T`` as ``(1-beta)*Id + beta*M``.

    Returns the scaled-conic description of the non-identity part ``beta*M``:
    ``M`` is ``alpha/beta``-conic, so the returned record has scale ``beta``
    and parameter ``alpha/beta``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"averaged parameter must lie in ]0,1[, got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"weight must be > 0, got {beta}")
    return ScaledConic(beta, alpha / beta)


def displacement_class(label: ClassLabel) -> ClassLabel:
    """Class of ``Id - T`` for conically nonexpansive ``T``.

    ``T`` ``alpha``-conic (or averaged) makes ``Id - T`` exactly
    ``1/(2*alpha)``-cocoercive.
    """
    if label.kind not in (Kind.CONIC, Kind.AVERAGED):
        raise DomainError(f"expected a conic or averaged label, got {label.kind}")
    return ClassLabel.cocoercive(0.5 / label.value)


class LipschitzShift(NamedTuple):
    shifted_cocoercive: ClassLabel
    monotonicity: float


def lipschitz_shift(beta: float) -> LipschitzShift:
    """Classes induced by shifting a ``beta``-Lipschitz ``A`` by ``beta*Id``.

    ``A + beta*Id`` is ``1/(2*beta)``-cocoercive and ``A`` itself is maximally
    ``(-beta)``-monotone.
    """
    if not beta > 0.0:
        raise DomainError(f"Lipschitz constant must be > 0, got {beta}")
    return LipschitzShift(ClassLabel.cocoercive(0.5 / beta), -beta)
