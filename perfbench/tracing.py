"""Spans and counts at the boundaries of opsplit's layers.

``Tracer.install`` replaces the public functions of each layer, in every
opsplit module that refers to them, by wrappers that record a span (name,
start, end, parent span, op id) and counts; ``uninstall`` restores them.
Nothing in the package changes.  ``Op.__call__`` is not wrapped: a span per
evaluation would cost more than the evaluation, so operator evaluation is
timed directly on the workload's inputs (see ``probe_*``) and otherwise falls
in the self time of the layer that calls it.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "calculus", "operators", "splitting", "sampling", "verifier", "figures")
LADDER = ("compose_general", "compose_kappa_theta", "compose_conic",
          "compose_scaled_averaged_cocoercive", "compose_chain", "compose_cocoercive_chain")
CALCULUS = LADDER + ("naive_lipschitz", "from_label", "classify", "resolvent_class",
                     "delta_bundle", "rescale_averaged", "averaged_refactor",
                     "displacement_class", "lipschitz_shift")
SPEC_KINDS = ("Affine", "ScaledIdentity", "SubspaceNormalPlusScale", "QuadraticGradient")
SPLITTING = ("plan_dr", "plan_fb", "build_dr", "build_fb", "dr_operator", "fb_operator",
             "dr_shadow_ops", "iterate", "rate_report", "write_csv")
VERIFIER = ("check_membership", "check_monotone", "check_composition_identity",
            "fit_tightest", "run_named_case", "run_named_suite",
            "random_certified_composition", "run_random_suite")
FIGURES = ("preset_figure", "composition_region_exact", "region_membership",
           "class_region", "emit_svg")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.enabled = False
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _layer_of_top(self):
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else None

    def _wrap(self, name, fn, after=None):
        tracer = self
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            crossing = tracer._layer_of_top() != layer
            if crossing:
                tracer.counts[layer + ".calls"] += 1
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if crossing:
                    tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            if after is not None:
                after(result, crossing)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from opsplit import calculus, cli, figures, operators, sampling, splitting, verifier

        modules = (calculus, operators, splitting, verifier, figures, cli, sampling)
        counts = self.counts

        def patch_everywhere(name, original, wrapper):
            for mod in modules:
                if getattr(mod, name.split(".")[-1], None) is original:
                    self._patch(mod, name.split(".")[-1], wrapper)

        for fname in CALCULUS:
            original = getattr(calculus, fname, None)
            if original is None:
                continue

            def after(result, crossing, fname=fname):
                if crossing and fname in LADDER:
                    counts["calculus.certified"] += 1
            wrapper = self._wrap("calculus." + fname, original, after)
            patch_everywhere("calculus." + fname, original, wrapper)

        for kind in SPEC_KINDS:
            self._patch(cli, kind, self._wrap("operators.spec", getattr(operators, kind)))
            cls = getattr(operators, kind)
            if "resolvent" in vars(cls):
                self._patch(cls, "resolvent", self._wrap("operators.resolvent", cls.resolvent))
        self._patch(operators.MonotoneSpec, "reflected_resolvent",
                    self._wrap("operators.resolvent", operators.MonotoneSpec.reflected_resolvent))

        for fname in SPLITTING:
            original = getattr(splitting, fname)
            patch_everywhere("splitting." + fname, original, self._wrap("splitting." + fname, original))

        def drawn(result, crossing):
            counts["sampling.pairs_drawn"] += len(result[0])
        original = sampling.pair_samples
        patch_everywhere("sampling.pair_samples", original,
                         self._wrap("sampling.pair_samples", original, drawn))

        def checked(result, crossing):
            counts["verifier.pairs_checked"] += result.pairs_tested
        for fname in VERIFIER:
            original = getattr(verifier, fname)
            after = checked if fname == "check_membership" else None
            patch_everywhere("verifier." + fname, original,
                             self._wrap("verifier." + fname, original, after))

        violations = verifier._in_violations

        def counted_violations(*args, **kwargs):
            if self.enabled and self.stack and self.spans[self.stack[-1]][0] == "verifier.fit_tightest":
                counts["verifier.fit_passes"] += 1
            return violations(*args, **kwargs)
        self._patch(verifier, "_in_violations", counted_violations)

        def rastered(result, crossing):
            counts["figures.pixels"] += result.grid.size

        def emitted(text, crossing):
            counts["figures.svg_bytes"] += len(text.encode())
            counts["figures.svg_runs"] += text.count(" Z")
        for fname in FIGURES:
            original = getattr(figures, fname)
            after = {"composition_region_exact": rastered, "emit_svg": emitted}.get(fname)
            patch_everywhere("figures." + fname, original,
                             self._wrap("figures." + fname, original, after))
        self._patch(cli, "spec_from_json", self._wrap("cli.spec_from_json", cli.spec_from_json))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def durations(self):
        """Per span: (name, duration, self time, parent index)."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return [(s[0], dur[i], dur[i] - child[i], s[3]) for i, s in enumerate(self.spans)]

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for s in self.spans]


def probe_eval(t, x, repeats=5, number=20):
    """Median seconds per ``T(x)`` and the number of ``Op`` nodes one call
    evaluates."""
    from opsplit import operators

    calls = [0]
    original = operators.Op.__call__

    def counting(self, v):
        calls[0] += 1
        return original(self, v)
    operators.Op.__call__ = counting
    try:
        t(x)
    finally:
        operators.Op.__call__ = original
    return _median_time(lambda: t(x), repeats, number), calls[0]


def _median_time(fn, repeats, number):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return float(np.median(samples))


def probe_shadow(a, b, gamma, x):
    from opsplit import splitting

    s0, s1 = splitting.dr_shadow_ops(a, b, gamma)
    return _median_time(lambda: np.linalg.norm(s0(x) - s1(x)), 5, 20)


def probe_batch(op, pairs, seed):
    from opsplit import sampling

    xs, _ = sampling.pair_samples(pairs, op.dim, seed=seed)
    return _median_time(lambda: op(xs), 3, 3) / len(xs)


def layer_metrics(tracer, n_ops, probes, overhead_ratio):
    """The per-layer table: times are means per call (``_ms``/``_us``) or
    per op (``self_ms``); counts are totals over the traced ops."""
    rows = tracer.durations()
    c = tracer.counts
    by_name = {}
    self_by_layer = Counter()
    for name, dur, self_t, parent in rows:
        by_name.setdefault(name, []).append((dur, parent))
        self_by_layer[name.split(".")[0]] += self_t

    def outer(*names):
        """Durations of spans named in ``names`` with no such ancestor."""
        out = []
        for name in names:
            for dur, parent in by_name.get(name, ()):
                p = parent
                while p >= 0 and tracer.spans[p][0] not in names:
                    p = tracer.spans[p][3]
                if p < 0:
                    out.append(dur)
        return out

    def mean(values, scale):
        return scale * float(np.mean(values)) if values else 0.0

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    ladder = outer(*("calculus." + f for f in LADDER))
    attempts = c["calculus.certified"] + sum(
        v for k, v in c.items() if k.split(".raised.")[0] in {"calculus." + f for f in LADDER})
    membership = outer("verifier.check_membership")
    raster = outer("figures.composition_region_exact")
    iterate = outer("splitting.iterate")
    solve_ops = max(1, len(probes.get("eval", [])))
    m = {
        "cli.parse_ms": mean(outer("cli.parse"), 1e3),
        "cli.emit_ms": mean(outer("cli.emit"), 1e3),
        "calculus.calls": c["calculus.calls"],
        "calculus.busy_ms": 1e3 * self_by_layer["calculus"],
        "calculus.compose_us": mean(ladder, 1e6),
        "calculus.guard_rejects": sum(v for k, v in c.items()
                                      if k.startswith("calculus.") and k.endswith(".GuardError")),
        "calculus.certified_ratio": ratio(c["calculus.certified"], attempts),
        "operators.eval_us": mean([e for e, _ in probes.get("eval", [])], 1e6),
        "operators.nodes_per_T": mean([n for _, n in probes.get("eval", [])], 1.0),
        "operators.batch_eval_ns_per_row": mean(probes.get("batch", []), 1e9),
        "operators.spec_build_ms": 1e3 * sum(outer("operators.spec")) / solve_ops
        if probes.get("eval") else 0.0,
        "operators.resolvent_build_ms": 1e3 * sum(outer("operators.resolvent")) / solve_ops
        if probes.get("eval") else 0.0,
        "splitting.plan_us": mean(outer("splitting.plan_dr", "splitting.plan_fb"), 1e6),
        "splitting.build_ms": mean(outer("splitting.build_dr", "splitting.build_fb"), 1e3),
        "splitting.iterate_ms": mean(iterate, 1e3),
        "splitting.iters": c["splitting.iters"],
        "splitting.step_us": ratio(sum(iterate), c["splitting.iters"], 1e6),
        "splitting.rate_report_us": mean(outer("splitting.rate_report"), 1e6),
        "splitting.write_csv_ms": mean(outer("splitting.write_csv"), 1e3),
        "splitting.shadow_eval_us": mean(probes.get("shadow", []), 1e6),
        "splitting.log_bytes": c["splitting.log_bytes"],
        "sampling.pair_samples_ms": mean(outer("sampling.pair_samples"), 1e3),
        "sampling.pairs_drawn": c["sampling.pairs_drawn"],
        "verifier.cases": c["verifier.cases"],
        "verifier.membership_ms": mean(membership, 1e3),
        "verifier.pairs_checked": c["verifier.pairs_checked"],
        "verifier.ns_per_pair": ratio(sum(membership), c["verifier.pairs_checked"], 1e9),
        "verifier.named_ms": mean(outer("verifier.run_named_case"), 1e3),
        "verifier.fit_ms": mean(outer("verifier.fit_tightest"), 1e3),
        "verifier.fit_passes": c["verifier.fit_passes"],
        "figures.raster_ms": mean(raster, 1e3),
        "figures.pixels": c["figures.pixels"],
        "figures.ns_per_pixel": ratio(sum(raster), c["figures.pixels"], 1e9),
        "figures.svg_ms": mean(outer("figures.emit_svg"), 1e3),
        "figures.svg_runs": c["figures.svg_runs"],
        "figures.svg_bytes": c["figures.svg_bytes"],
    }
    for layer in LAYERS:
        if layer != "calculus":
            m[layer + ".self_ms"] = ratio(1e3 * self_by_layer[layer], n_ops)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
