"""Seeded splitting instances, the solve op, and its independent check.

Instances are JSON-style dicts that go through ``cli.spec_from_json``.  Every
operator is built on one random orthogonal basis ``U`` and acts on each
two-dimensional block of that basis as a complex scalar (``a + ib``), a real
scalar, or, for the normal cone of a subspace, as "infinite" outside the
subspace.  The maps are dense in the standard basis, but A and B commute, so
the linear rate of the DR/FB iteration has a closed form per block.  The
generator uses that rate to pick the step size inside the certified
``GammaRange`` that gives a target iteration count, which makes the latency
mix of a workload depend on its strata rather than on luck.  The zero of
``A + B`` used to check a solve is computed separately, with dense numpy
linear algebra and no use of the block structure.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TOL = 1e-10
MAX_ITER = 20_000
SOLUTION_RTOL = 1e-6


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _block_matrix(u, values, d):
    """``U blkdiag(values) U^T``; a complex value ``a+ib`` on a 2-block acts
    as the rotation-scaling ``[[a, -b], [b, a]]``."""
    blk = np.zeros((d, d))
    for k, z in enumerate(values):
        i = 2 * k
        if i + 1 < d:
            blk[i:i + 2, i:i + 2] = [[z.real, -z.imag], [z.imag, z.real]]
        else:
            blk[i, i] = z.real
    return u @ blk @ u.T


def _draw_values(rng, kind, nb, d, base, spread, forward_beta=None):
    """Per-block values of one operator with modulus exactly ``base``.

    Returns ``(values, inside)`` where ``inside`` marks the blocks inside the
    subspace of a ``subspace_normal`` operator (all True otherwise).  With
    ``forward_beta`` the values satisfy the FB case I hypothesis: each
    ``value - base`` lies in the disk of diameter ``[0, beta]``.
    """
    inside = np.ones(nb, bool)
    if kind == "scaled_identity":
        shift = 0.0 if forward_beta is None else rng.uniform(0.0, forward_beta)
        return np.full(nb, complex(base + shift)), inside
    if kind == "subspace_normal":
        inside = rng.random(nb) < 0.6
        inside[0], inside[-1] = True, nb == 1
        return np.full(nb, complex(base)), inside
    if forward_beta is not None:
        r = forward_beta / 2.0 * np.sqrt(rng.random(nb))
        th = rng.uniform(0.0, 2.0 * math.pi, nb)
        z = forward_beta / 2.0 + r * np.exp(1j * th)
    else:
        z = rng.uniform(0.0, spread, nb) + 1j * rng.uniform(-spread, spread, nb)
    if kind == "quadratic":
        z = np.abs(z.real) + 0j
    if d % 2:
        z[-1] = z[-1].real
    z[0] = 0.0
    return base + z, inside


def _spec_dict(rng, kind, values, inside, u, d, with_offset):
    if kind == "scaled_identity":
        return {"kind": kind, "c": float(values[0].real), "dim": d}
    if kind == "subspace_normal":
        cols = [c for k in np.flatnonzero(inside) for c in (2 * k, 2 * k + 1) if c < d]
        k = len(cols)
        mix = np.eye(k) + 0.3 / math.sqrt(k) * rng.standard_normal((k, k))
        return {"kind": kind, "basis": (mix @ u[:, cols].T).tolist(),
                "mu": float(values[0].real)}
    m = _block_matrix(u, values, d)
    if kind == "quadratic":
        m = 0.5 * (m + m.T)
    out = {"kind": kind, "matrix": m.tolist()}
    if with_offset:
        out["offset"] = rng.standard_normal(d).tolist()
    return out


def _reflect(z, gamma):
    return np.where(np.isinf(z.real), -1.0, (1.0 - gamma * z) / (1.0 + gamma * z))


def _rates(method, gammas, lam, a, b):
    """Linear rate of the iteration at each step size in ``gammas``."""
    g = np.asarray(gammas, float)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        if method == "DR":
            f = (1.0 - lam) + lam * _reflect(a, g) * _reflect(b, g)
        else:
            f = np.where(np.isinf(b.real), 0.0, (1.0 - g * a) / (1.0 + g * b))
    return np.max(np.abs(f), axis=1)


def predicted_iterations(rho):
    """Steps until a geometric step sequence with ratio ``rho`` drops below
    the stopping tolerance (relative to the first step)."""
    if rho >= 1.0:
        return math.inf
    if rho <= 0.0:
        return 1.0
    return math.log(TOL / (1.0 - rho)) / math.log(rho)


def _gamma_for_target(rng, method, lam, a, b, lo, hi, target):
    """A step in ]lo, hi[ whose predicted count is ``target``: near the upper
    end when reachable there (half of the time), else on the lower side."""
    t = np.linspace(0.0, 1.0, 515)[1:-1]
    us = 0.5 * (1.0 - np.cos(np.pi * t))

    def count(u):
        return [predicted_iterations(r) for r in _rates(method, lo + (hi - lo) * u, lam, a, b)]

    n = np.array(count(us))
    ok = n <= target
    if not ok.any():
        return None
    lows = np.flatnonzero(ok[1:] & ~ok[:-1])
    highs = np.flatnonzero(ok[:-1] & ~ok[1:])
    sides = []
    if len(lows):
        sides.append((us[lows[0]], us[lows[0] + 1], True))
    if len(highs):
        sides.append((us[highs[-1]], us[highs[-1] + 1], False))
    if not sides:
        return None
    u0, u1, rising = sides[-1] if len(sides) == 2 and rng.random() < 0.5 else sides[0]
    for _ in range(50):
        mid = 0.5 * (u0 + u1)
        fast = count(np.array([mid]))[0] <= target
        if fast == rising:
            u1 = mid
        else:
            u0 = mid
    u = float(u1 if rising else u0)
    return lo + (hi - lo) * u, u


def make_instance(rng, d, method, target, ka, kb):
    """One solve job: instance dict, step size and start point.

    ``ka``/``kb`` are the kinds of A and B (``affine``, ``scaled_identity``,
    ``subspace_normal``, ``quadratic``); FB's A must be single-valued and at
    most one of the two may be a normal cone.  ``target`` is the wanted
    iteration count; the job records the predicted count and where the step
    sits inside the certified interval.
    """
    nb = (d + 1) // 2
    for _ in range(100):
        u = _orthogonal(rng, d)
        mu = float(rng.uniform(0.5, 2.0))
        omega = float(mu * rng.uniform(0.1, 0.8))
        lam = float(rng.choice([0.3, 0.5, 0.7])) if method == "DR" else None
        order = "A_strong"
        if method == "DR":
            order = str(rng.choice(["A_strong", "B_strong"]))
            strong, weak = (ka, kb) if order == "A_strong" else (kb, ka)
            sv, sin = _draw_values(rng, strong, nb, d, mu, 2.0 * mu)
            wv, win = _draw_values(rng, weak, nb, d, -omega, mu)
            (av, ain), (bv, bin_) = ((sv, sin), (wv, win)) if order == "A_strong" else \
                ((wv, win), (sv, sin))
            lo, hi = 0.0, (1.0 - lam) * (mu - omega) / (mu * omega)
            beta = None
        else:
            beta = float(rng.uniform(0.5, 4.0))
            av, ain = _draw_values(rng, ka, nb, d, mu, 0.0, forward_beta=beta)
            bv, bin_ = _draw_values(rng, kb, nb, d, -omega, mu)
            lo, hi = 0.0, 2.0 / (beta + 2.0 * mu)
        a_eff = np.where(ain, av, np.inf)
        b_eff = np.where(bin_, bv, np.inf)
        found = _gamma_for_target(rng, method, lam, a_eff, b_eff, lo, hi, target)
        if found is None:
            continue
        gamma, upos = found
        inst = {
            "A": _spec_dict(rng, ka, av, ain, u, d, with_offset=True),
            "B": _spec_dict(rng, kb, bv, bin_, u, d, with_offset=True),
            "mu": mu,
            "omega": omega,
        }
        if method == "DR":
            inst.update({"lambda": lam, "order": order})
        else:
            inst.update({"beta": beta, "case": "I"})
        x0 = ",".join(repr(float(v)) for v in rng.standard_normal(d))
        rho = float(_rates(method, [gamma], lam, a_eff, b_eff)[0])
        job = {
            "type": "solve", "method": method, "instance": inst, "gamma": gamma,
            "x0": x0, "max_iter": MAX_ITER, "tol": TOL, "d": d,
            "gamma_position": upos, "predicted_iterations": predicted_iterations(rho),
        }
        job["input_sha256"] = _fingerprint(job)
        return job
    raise RuntimeError(f"no instance reaches {target} iterations at d={d}")


def _fingerprint(job):
    """sha256 of the job; the matrices enter as raw float64 bytes, which is
    far cheaper than their JSON text."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                h.update(k.encode())
                feed(obj[k])
        elif isinstance(obj, list):
            h.update(np.asarray(obj, float).tobytes())
        else:
            h.update(repr(obj).encode())
    feed(job)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The op: the public calls in the order `opsplit solve-* --log --summary` makes


def run_solve(job, paths, span):
    from opsplit import cli, splitting
    from opsplit.sampling import DEFAULT_SEED

    inst, method, gamma = job["instance"], job["method"], job["gamma"]
    with span("cli.parse"):
        a_spec = cli.spec_from_json(inst["A"])
        b_spec = cli.spec_from_json(inst["B"])
        x0 = np.asarray([float(t) for t in job["x0"].split(",")], dtype=float)
    config = {"instance": inst, "method": method, "gamma": gamma, "x0": job["x0"],
              "max_iter": job["max_iter"], "tol": job["tol"], "seed": DEFAULT_SEED,
              "force": False}
    if method == "DR":
        config.update({"lambda": inst["lambda"], "order": inst["order"]})
        plan = splitting.plan_dr(inst["mu"], inst["omega"], gamma, inst["lambda"], inst["order"])
        t = splitting.build_dr(plan, a_spec, b_spec)
    else:
        config["case"] = inst["case"]
        plan = splitting.plan_fb(inst["case"], mu=inst["mu"], omega=inst["omega"],
                                 beta=inst["beta"], beta_bar=None, gamma=gamma)
        t = splitting.build_fb(plan, a_spec, b_spec)
    dr = method == "DR"
    log = splitting.iterate(t, x0, max_iter=job["max_iter"], tol_fix=job["tol"],
                            track_shadow=dr, A=a_spec if dr else None,
                            B=b_spec if dr else None, gamma=gamma if dr else None)
    rate = None
    if len(log.step_norms) >= 10 and (log.converged or log.diverged):
        r = splitting.rate_report(log, plan)
        rate = {"empirical_rate": r.empirical_rate, "certified_rate": r.certified_rate,
                "satisfied": r.satisfied, "reason": r.reason}
    splitting.write_csv(log, paths["csv"])
    with span("cli.emit"):
        summary = {
            "config": config,
            "plan": plan.to_json(),
            "result": {"iterations": log.n_iter, "converged": log.converged,
                       "diverged": log.diverged, "reason": log.reason,
                       "final": [float(v) for v in log.final]},
            "rate": rate,
        }
        text = json.dumps(summary, indent=2, sort_keys=True)
        with open(paths["summary"], "w") as fh:
            fh.write(text + "\n")
    return {"final": np.asarray(log.final), "converged": log.converged,
            "diverged": log.diverged, "iterations": log.n_iter,
            "points": len(log.points), "T": t, "A": a_spec, "B": b_spec, "x0": x0}


# ---------------------------------------------------------------------------
# Independent check


def _dense(spec, d):
    """``(M, b, Q)``: the single-valued part ``x -> Mx + b`` and, for the
    normal cone of a subspace, an orthonormal basis ``Q`` of the subspace."""
    kind = spec["kind"]
    if kind == "scaled_identity":
        return spec["c"] * np.eye(d), np.zeros(d), None
    if kind == "subspace_normal":
        q, s, _ = np.linalg.svd(np.asarray(spec["basis"], float).T, full_matrices=False)
        return spec["mu"] * np.eye(d), np.zeros(d), q[:, s > 1e-10 * s[0]]
    m = np.asarray(spec["matrix"], float)
    b = np.asarray(spec.get("offset") or np.zeros(d), float)
    return m, b, None


def reference_zero(inst, d):
    """The zero of ``A + B``: ``x`` in the subspace ``V`` (the whole space
    when neither operator is a normal cone) with ``P_V (M x + b) = 0``."""
    ma, ba, qa = _dense(inst["A"], d)
    mb, bb, qb = _dense(inst["B"], d)
    q = qa if qa is not None else qb
    m, b = ma + mb, ba + bb
    if q is None:
        return np.linalg.solve(m, -b)
    return q @ np.linalg.solve(q.T @ m @ q, -(q.T @ b))


def _resolvent_a(inst, gamma, z, d):
    m, b, q = _dense(inst["A"], d)
    if q is not None:
        return q @ (q.T @ z) / (1.0 + gamma * inst["A"]["mu"])
    return np.linalg.solve(np.eye(d) + gamma * m, z - gamma * b)


def solution_error(job, final):
    """Distance of the run's solution point (``J_{gA} z`` for DR, the iterate
    for FB) from the reference zero, relative to ``1 + ||x*||``."""
    inst, d = job["instance"], job["d"]
    x_star = reference_zero(inst, d)
    x = _resolvent_a(inst, job["gamma"], final, d) if job["method"] == "DR" else final
    return float(np.linalg.norm(x - x_star) / (1.0 + np.linalg.norm(x_star)))


def check_solve(job, out):
    return (bool(out["converged"]) and not out["diverged"]
            and solution_error(job, out["final"]) <= SOLUTION_RTOL)
