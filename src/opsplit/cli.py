"""Command-line surface: compose classes, solve splitting problems, run the
verifier, emit figures.

Exit codes: 0 success, 1 usage/parse error, 2 certified-hypothesis rejection,
3 numeric failure.  Every output embeds the fully resolved configuration so a
run can be replayed byte-identically.  Only the random ``verify`` suite reads
``--seed``, which the environment variable ``OPSPLIT_SEED`` overrides.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import figures, splitting, verifier
from .calculus import (
    ClassLabel,
    INParams,
    ScaledConic,
    certify,
    classify,
    compose_chain,
    from_label,
    naive_lipschitz,
)
from .errors import DomainError, GuardError, NumericError, StepSizeError
from .operators import (
    Affine,
    MonotoneSpec,
    QuadraticGradient,
    ScaledIdentity,
    SubspaceNormalPlusScale,
)
from .sampling import DEFAULT_SEED

EXIT_OK, EXIT_USAGE, EXIT_GUARD, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_json(path):
    # ValueError: malformed text, bytes that are not UTF-8, or an integer
    # literal past the int/str conversion limit.
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DomainError(str(exc)) from None


def parse_class_spec(text: str) -> ClassLabel:
    """Parse specs like ``averaged:0.5``, ``conic:1.7``, ``cocoercive:1.4``
    (the value is the Lipschitz diameter), ``lipschitz:0.8``,
    ``scaled-conic:2:0.75``, ``neg-conic:2``, ``contraction:0.9``,
    ``nonexpansive``."""
    parts = text.split(":")
    kind = parts[0].strip().lower()
    try:
        vals = [float(p) for p in parts[1:]]
    except ValueError:
        raise DomainError(f"cannot parse class spec {text!r}") from None
    if kind == "nonexpansive":
        return ClassLabel.nonexpansive()
    if kind == "cocoercive" and len(vals) == 1 and not vals[0] > 0.0:
        raise DomainError(f"cocoercive diameter must be > 0, got {vals[0]}")
    if len(vals) == 1:
        one = {
            "averaged": ClassLabel.averaged,
            "conic": ClassLabel.conic,
            "lipschitz": ClassLabel.lipschitz,
            "contraction": ClassLabel.contraction,
            "neg-conic": ClassLabel.neg_conic,
            "cocoercive": lambda b: ClassLabel.cocoercive(1.0 / b),
        }
        if kind in one:
            return one[kind](vals[0])
    if kind == "scaled-conic" and len(vals) == 2:
        return ClassLabel.scaled_conic(vals[0], vals[1])
    raise DomainError(f"cannot parse class spec {text!r}")


def _resolved_seed(args) -> int:
    env = os.environ.get("OPSPLIT_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(f"OPSPLIT_SEED must be an integer, got {env!r}") from None
        if seed < 0:
            raise DomainError(f"OPSPLIT_SEED must be non-negative, got {env!r}")
        return seed
    if args.seed is None:
        return DEFAULT_SEED
    if args.seed < 0:
        raise DomainError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


# ---------------------------------------------------------------------------
# compose / classify


def cmd_compose(args) -> int:
    if args.chain:
        raw = _load_json(args.chain)
        if not (isinstance(raw, list) and all(isinstance(d, dict) for d in raw)):
            raise DomainError("--chain must hold a JSON list of {delta, alpha} objects")
        for i, d in enumerate(raw):
            _check_finite_real(f"chain[{i}].delta", d["delta"])
            _check_finite_real(f"chain[{i}].alpha", d["alpha"])
        items = [ScaledConic(d["delta"], d["alpha"]) for d in raw]
        config = {"chain": raw, "r": args.r}
        try:
            result = compose_chain(items, args.r)
        except GuardError as exc:
            print(_dump({"config": config, "error": str(exc),
                         "fallback_lipschitz": naive_lipschitz(*items)}))
            return EXIT_GUARD
        print(_dump({"config": config, "result": result.to_json(),
                     "theorem": "chain"}))
        return EXIT_OK

    if not (args.class1 and args.class2):
        raise DomainError("compose needs --class1 and --class2 (or --chain)")
    p1 = from_label(parse_class_spec(args.class1))
    p2 = from_label(parse_class_spec(args.class2))
    config = {"class1": args.class1, "class2": args.class2}
    try:
        result, theorem = certify(p1, p2)
    except DomainError as exc:
        print(_dump({"config": config, "error": str(exc),
                     "fallback_lipschitz": naive_lipschitz(p1, p2)}))
        return EXIT_GUARD
    p = result.to_in()
    print(_dump({"config": config, "result": result.to_json(),
                 "alpha": p.alpha, "beta": p.beta, "theorem": theorem}))
    return EXIT_OK


def cmd_classify(args) -> int:
    labels = classify(INParams(args.alpha, args.beta))
    ordered = sorted(
        (l.to_json() for l in labels),
        key=lambda d: (d["kind"], d.get("value", 0.0), d.get("scale", 0.0)),
    )
    print(_dump({"config": {"alpha": args.alpha, "beta": args.beta},
                 "labels": ordered}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def spec_from_json(d: dict) -> MonotoneSpec:
    if not isinstance(d, dict):
        raise DomainError(f"an operator spec must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "affine":
        return Affine(_array("matrix", d["matrix"]), _array("offset", d.get("offset")))
    if kind == "scaled_identity":
        return ScaledIdentity(_real("c", d["c"]), dim=d.get("dim", 2))
    if kind == "subspace_normal":
        return SubspaceNormalPlusScale(_array("basis", d["basis"]),
                                       mu=_real("mu", d.get("mu", 0.0)))
    if kind == "quadratic":
        return QuadraticGradient(_array("matrix", d["matrix"]), _array("offset", d.get("offset")))
    raise DomainError(f"unknown operator kind {kind!r}")


def _parse_x0(text: str, dim: int) -> np.ndarray:
    try:
        x = np.asarray([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise DomainError(f"--x0 must be comma-separated numbers, got {text!r}") from None
    if x.shape != (dim,):
        raise DomainError(f"--x0 must have {dim} components, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise DomainError(f"--x0 must be finite, got {text!r}")
    return x


def _real(name: str, value) -> float:
    # Instance files are JSON, so a value may arrive as a string, bool, list,
    # null or an int beyond the float range; bool is an int subclass and must
    # not pass as 0 or 1.  A nan or inf is left to the caller.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got {value}") from None


def _check_finite_real(name: str, value) -> None:
    if not math.isfinite(_real(name, value)):
        raise DomainError(f"{name} must be finite, got {value}")


def _array(name: str, value) -> np.ndarray | None:
    # A JSON array of numbers (null stays None); the spec it builds checks
    # its shape and finiteness.
    if value is None:
        return None
    try:
        return np.asarray(value, float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an array of real numbers") from None


def _run_solve(args, method: str) -> int:
    if not math.isfinite(args.tol):
        raise DomainError(f"--tol must be finite, got {args.tol}")
    if args.tol < 0.0:
        raise DomainError(f"--tol must be >= 0, got {args.tol}")
    if args.max_iter < 0:
        raise DomainError(f"--max-iter must be >= 0, got {args.max_iter}")
    inst = _load_json(args.instance)
    if not isinstance(inst, dict):
        raise DomainError("--instance must hold a JSON object")
    # A plan field in the file must be a number; a missing one is the
    # planner's to report.
    for name in ("mu", "omega", "beta", "beta_bar"):
        if name in inst:
            _check_finite_real(name, inst[name])
    a_spec = spec_from_json(inst["A"])
    b_spec = spec_from_json(inst["B"])
    if a_spec.dim != b_spec.dim:
        raise DomainError(f"dimension mismatch: A has dim {a_spec.dim}, B has dim {b_spec.dim}")
    gamma = args.gamma if args.gamma is not None else inst.get("gamma")
    if gamma is None:
        raise DomainError("gamma required (flag or instance file)")
    _check_finite_real("gamma", gamma)
    config = {
        "instance": inst,
        "method": method,
        "gamma": gamma,
        "x0": args.x0,
        "max_iter": args.max_iter,
        "tol": args.tol,
        "force": args.force,
    }
    if method == "DR":
        lam = args.lambda_relax if args.lambda_relax is not None else inst.get("lambda", 0.5)
        _check_finite_real("lambda", lam)
        config.update({"lambda": lam, "order": inst.get("order", "A_strong")})
    else:
        config["case"] = args.case or inst.get("case", "I")
    # A bad --x0 (or x_star, case or order, in solve) exits 1 before any plan.
    x0 = _parse_x0(args.x0, a_spec.dim)
    x_star = _array("x_star", inst.get("x_star"))
    summary, log = splitting.solve(a_spec, b_spec, config, x0, x_star)
    text = _dump(summary)
    if log is None:
        print(text)
        return EXIT_GUARD
    if args.log:
        splitting.write_csv(log, args.log)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / figure


def cmd_verify(args) -> int:
    if args.suite == "named":
        reports = verifier.run_named_suite()
        payload = {
            "config": {"suite": "named", "seed": DEFAULT_SEED},
            "cases": [r.to_json() for r in reports],
        }
        ok = all(r.agree for r in reports)
        for r in reports:
            print(f"{'PASS' if r.agree else 'FAIL'} {r.name}")
    else:
        if args.count < 1:
            raise DomainError(f"--count must be at least 1, got {args.count}")
        seed = _resolved_seed(args)
        results = verifier.run_random_suite(count=args.count, seed=seed)
        payload = {
            "config": {"suite": "random", "seed": seed, "count": args.count},
            "results": results,
        }
        ok = all(r["passed"] for r in results)
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'} {r['kind']} "
                  f"worst={r['worst_violation']:.3e}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(_dump(payload) + "\n")
    return EXIT_OK if ok else EXIT_GUARD


def cmd_figure(args) -> int:
    try:
        regions, markers = figures.preset_figure(args.preset, args.resolution)
        figures.emit_svg(regions, markers, args.out)
    except MemoryError:
        raise DomainError(f"--resolution {args.resolution} needs more memory than is "
                          f"available") from None
    print(_dump({"config": {"preset": args.preset, "resolution": args.resolution,
                            "out": args.out}}))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="opsplit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compose", help="compose two class descriptors or a chain")
    c.add_argument("--class1")
    c.add_argument("--class2")
    c.add_argument("--chain", help="JSON file with a list of {delta, alpha} factors")
    c.add_argument("--r", type=int, default=0, help="index of the unrestricted factor")
    c.set_defaults(fn=cmd_compose)

    cl = sub.add_parser("classify", help="list every class a descriptor matches")
    cl.add_argument("--alpha", type=float, required=True)
    cl.add_argument("--beta", type=float, required=True)
    cl.set_defaults(fn=cmd_classify)

    for name, method in (("solve-dr", "DR"), ("solve-fb", "FB")):
        s = sub.add_parser(name, help=f"run the {method} iteration on an instance file")
        s.add_argument("--instance", required=True)
        s.add_argument("--gamma", type=float)
        if method == "DR":
            s.add_argument("--lambda", dest="lambda_relax", type=float)
        else:
            s.add_argument("--case", choices=splitting.FB_CASES)
        s.add_argument("--x0", default="1,0")
        s.add_argument("--max-iter", type=int, default=10_000)
        s.add_argument("--tol", type=float, default=1e-10)
        s.add_argument("--log", help="CSV output path")
        s.add_argument("--summary", help="JSON summary output path")
        s.add_argument("--force", action="store_true",
                       help="run even when the plan is rejected")
        s.set_defaults(fn=lambda a, m=method: _run_solve(a, m))

    v = sub.add_parser("verify", help="run the named or random verification suite")
    v.add_argument("--suite", choices=("named", "random"), default="named")
    v.add_argument("--seed", type=int, help="random suite only (named: the default seed)")
    v.add_argument("--count", type=int, default=30, help="random suite only")
    v.add_argument("--json", help="write the machine-readable report here")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("figure", help="render a named region figure to SVG")
    f.add_argument("--preset", required=True, choices=figures.PRESET_NAMES)
    f.add_argument("--out", required=True)
    f.add_argument("--resolution", type=int, default=512)
    f.set_defaults(fn=cmd_figure)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except (GuardError, StepSizeError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        code = EXIT_GUARD
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    except (DomainError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
