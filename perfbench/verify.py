"""Verification cases: named suite cases and seeded random certified
compositions, each checked with ``check_membership``; a fixed share also
fits the tightest class of every family."""

from __future__ import annotations

import numpy as np

FAMILIES = ("lipschitz", "averaged", "conic", "cocoercive")
PAIR_LEVELS = (1000, 1600, 2500, 4000, 6300, 10_000)
FIT_PAIRS = 10_000


def make_round(rng, named, kinds):
    """One round, in a fixed order: every named case, and one random case per
    (kind, pair level); the case at the largest level of each kind also runs
    the fits.  The seed draws each random case's rng seed."""
    for n in named:
        yield {"type": "named", "name": n}
    for kind in kinds:
        for pairs in PAIR_LEVELS:
            yield {"type": "random", "kind": kind, "pairs": pairs,
                   "seed": int(rng.integers(2**31)), "fit": pairs == PAIR_LEVELS[-1]}


def run_case(job):
    from opsplit import verifier
    from opsplit.errors import DomainError

    if job["type"] == "named":
        rep = verifier.run_named_case(job["name"])
        return {"agree": rep.agree}
    rng = np.random.default_rng(job["seed"])
    op, cert, _ = verifier.random_certified_composition(job["kind"], rng)
    rep = verifier.check_membership(op, cert, pairs=job["pairs"], seed=job["seed"])
    fits = {}
    if job["fit"]:
        for family in FAMILIES:
            try:
                fits[family] = verifier.fit_tightest(op, family, pairs=FIT_PAIRS,
                                                     seed=job["seed"]).value
            except DomainError:
                fits[family] = None
    return {"passed": rep.passed, "pairs": rep.pairs_tested, "cert": cert, "fits": fits,
            "op": op}


def lipschitz_bound(cert):
    """``|alpha| + beta`` of the certificate's (alpha, beta) descriptor."""
    if hasattr(cert, "delta"):
        d, a = cert.delta, cert.alpha
        return abs(d * (1.0 - a)) + abs(d) * a
    return abs(cert.alpha) + cert.beta


def check_case(job, out):
    """A named case must agree with its empirical outcome; a random case must
    pass its sampled check, and a fitted Lipschitz constant must not exceed
    the certified one (sampling gives a lower bound on the true constant)."""
    if job["type"] == "named":
        return bool(out["agree"])
    if not out["passed"] or out["pairs"] < job["pairs"]:
        return False
    lip = out["fits"].get("lipschitz")
    if job["fit"] and (lip is None or lip > lipschitz_bound(out["cert"]) * (1 + 1e-9) + 1e-9):
        return False
    return True
