"""Exact references: ``Fraction`` forms of the package's formulas.

Every argument is a float (or a ``Fraction``) and is read as the binary
rational it stores, so a reference value carries no rounding of its own: a
test can compare the package's float against it with a stated bound, or two
routes to one constant for equality.
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
