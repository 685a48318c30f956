"""Exact references: ``Fraction`` forms of the package's formulas.

Every argument is a float (or a ``Fraction``) and is read as the binary
rational it stores, so a reference value carries no rounding of its own: a
test can compare the package's float against it with a stated bound, or two
routes to one constant for equality.  The planners and rules also run on
``Fraction`` inputs themselves; these forms are written independently of
them, as the paper states each formula, so that a test can check that the
package's code says what the paper says.
"""

from fractions import Fraction


def dr_nu(mu: float, omega: float, gamma: float) -> Fraction:
    """``plan_dr``'s ``nu = (mu - omega)/(mu - omega - gamma*mu*omega)``."""
    mu, omega, gamma = Fraction(mu), Fraction(omega), Fraction(gamma)
    return (mu - omega) / (mu - omega - gamma * mu * omega)


def reflected_conic(gamma: float, rho: float) -> Fraction:
    """The conic parameter ``1/(1 + gamma*rho)`` of the negated reflected
    resolvent of a ``rho``-monotone operator (``resolvent_class``)."""
    return 1 / (1 + Fraction(gamma) * Fraction(rho))


def conic_alpha(a1, a2) -> Fraction:
    """``compose_conic``'s parameter: 1 where ``max(a1, a2) = 1``, else
    ``(a1 + a2 - 2 a1 a2)/(1 - a1 a2)``, which requires ``a1*a2 < 1``."""
    a1, a2 = Fraction(a1), Fraction(a2)
    if max(a1, a2) == 1:
        return Fraction(1)
    if not a1 * a2 < 1:
        raise ValueError(f"conic composition requires a1*a2 < 1, got {a1 * a2}")
    return (a1 + a2 - 2 * a1 * a2) / (1 - a1 * a2)


def relaxed_conic_disk(lam: float, alpha) -> tuple[Fraction, Fraction]:
    """The ``(alpha, beta)`` disk of ``(1 - lam)*Id + lam*T`` for ``T`` an
    ``alpha``-conic map, as ``ScaledConic.to_in`` and ``relax`` form it:
    centre ``(1 - lam) + lam*(1 - alpha)`` and radius ``lam*alpha``."""
    lam, alpha = Fraction(lam), Fraction(alpha)
    return (1 - lam) + lam * (1 - alpha), lam * alpha


def dr_gamma_end(mu: float, omega: float, lam: float) -> Fraction | None:
    """``plan_dr``'s open upper step-size end ``(1 - lam)(mu - omega)/(mu*omega)``;
    ``None`` (no end) where ``omega = 0``."""
    mu, omega, lam = Fraction(mu), Fraction(omega), Fraction(lam)
    if omega == 0:
        return None
    return (1 - lam) * (mu - omega) / (mu * omega)


# The forward-backward theorem case by case, as typeset: ``A`` is the forward
# operator and ``B`` the backward one, ``bb`` stands for beta-bar.  Each case
# is written out on its own, without the shared forward shift that
# ``plan_fb`` folds cases II and III into.


def fb_hypotheses(case: str, mu, omega, beta, bb) -> bool:
    """Whether the moduli meet case ``case``'s hypotheses (``bb`` is read
    only by cases II and III)."""
    mu, omega, beta = Fraction(mu), Fraction(omega), Fraction(beta)
    if not (beta > 0 and omega >= 0):
        return False
    if case == "I":
        return mu >= omega
    if case == "Ib":
        return mu > omega
    bb = Fraction(bb)
    if case == "II":
        return bb > max(beta, mu + omega) and mu >= omega
    if case == "IIb":
        return bb > max(beta, mu + omega) and mu > omega
    if case == "III":
        return mu >= beta and bb > 2 * beta
    if case == "IIIb":
        return mu > beta and bb > mu + beta
    raise ValueError(f"unknown case {case!r}")


def fb_interval(case: str, mu, omega, beta, bb) -> tuple[Fraction, Fraction, bool]:
    """Case ``case``'s step-size interval as ``(lo, hi, lo_closed)``; it is
    open above, and closed below in the b-cases."""
    mu, omega, beta = Fraction(mu), Fraction(omega), Fraction(beta)
    bb = None if bb is None else Fraction(bb)
    return {
        "I": lambda: (Fraction(0), 2 / (beta + 2 * mu), False),
        "Ib": lambda: (2 / (beta + 2 * mu), 2 / (beta + mu), True),
        "II": lambda: (Fraction(0), 2 / (bb - 2 * omega), False),
        "IIb": lambda: (2 / (bb - 2 * omega), 2 / (bb - mu - omega), True),
        "III": lambda: (Fraction(0), 2 / (bb - 2 * beta), False),
        "IIIb": lambda: (2 / (bb - 2 * beta), 2 / (bb - mu - beta), True),
    }[case]()


def fb_constants(case: str, mu, omega, beta, bb, gamma) -> tuple[Fraction, Fraction]:
    """Case ``case``'s ``(nu, delta)``: the operator is ``delta``-scaled
    ``nu``-conic (averaged in the plain cases)."""
    mu, omega, beta, g = Fraction(mu), Fraction(omega), Fraction(beta), Fraction(gamma)
    bb = None if bb is None else Fraction(bb)
    return {
        "I": lambda: (g * beta / (2 * (1 - g * mu)), (1 - g * mu) / (1 - g * omega)),
        "Ib": lambda: (g * beta / (2 * (g * (mu + beta) - 1)),
                       (1 - g * (mu + beta)) / (1 - g * omega)),
        "II": lambda: (g * bb / (2 * (1 + g * omega)), (1 + g * omega) / (1 + g * mu)),
        "IIb": lambda: (g * bb / (2 * (g * bb - g * omega - 1)),
                        (1 + g * omega - g * bb) / (1 + g * mu)),
        "III": lambda: (g * bb / (2 * (1 + g * beta)), (1 + g * beta) / (1 + g * mu)),
        "IIIb": lambda: (g * bb / (2 * (g * bb - g * beta - 1)),
                         (1 + g * beta - g * bb) / (1 + g * mu)),
    }[case]()


def coupling(a1, b1, a2, b2) -> tuple[Fraction, Fraction, Fraction, Fraction | None]:
    """``delta_bundle``'s ``(d1, d2, d3, d4)`` for ``R2 R1``, with
    ``q = (1 - a) - b**2/(1 - a)`` and ``d3 = 1 - (q1(1 - q2) + q2)`` in its
    factored form; ``d4`` is ``None`` where ``d1 + d2 = 0``."""
    a1, b1, a2, b2 = map(Fraction, (a1, b1, a2, b2))
    q1 = (1 - a1) - b1**2 / (1 - a1)
    q2 = (1 - a2) - b2**2 / (1 - a2)
    d1 = a1 * (1 - q2) / (1 - a1)
    d2 = a2 / (1 - a2)
    d3 = (1 - q1) * (1 - q2)
    return d1, d2, d3, None if d1 + d2 == 0 else d1 * d2 / (d1 + d2)
