"""The four workloads: how each draws its rounds of jobs from the seed, runs
one op, checks it, takes direct per-layer measurements, and summarises the
properties of what it ran."""

from __future__ import annotations

import contextlib
import os
from collections import Counter

import numpy as np

import figure
import solve
import tracing
import verify

NULL_SPAN = contextlib.nullcontext


def _quartiles(values):
    if not values:
        return None
    return [float(v) for v in np.quantile(values, [0.25, 0.5, 0.75])]


def _shares(values):
    n = len(values)
    return {str(k): round(v / n, 4) for k, v in sorted(Counter(values).items())} if n else {}


class Workload:
    name = ""
    why = ""
    # A timed run makes round(seconds / round_s) rounds (at least min_rounds):
    # the same work on every commit, about `seconds` long at the seed commit
    # on a 2-core Xeon (Sapphire Rapids class, KVM).
    round_s = 1.0
    min_rounds = 1
    traced_rounds = 1   # rounds in each phase of a traced run

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def make_round(self, rng):
        """The jobs of one round, drawn from ``rng`` one at a time."""
        raise NotImplementedError

    def warmup_job(self):
        raise NotImplementedError

    def run(self, job, span=NULL_SPAN):
        raise NotImplementedError

    def check(self, job, out):
        raise NotImplementedError

    def unchecked(self):
        """Ops whose check could not be completed (counted as failed)."""
        return 0

    def probe(self, job, out, probes, counts):
        """Direct per-layer measurements on this op's own inputs (traced run)."""

    def record(self, job, out):
        """The few fields of a job and its output that ``properties`` reads."""
        return {}

    def properties(self, records):
        return {}


class SolveWorkload(Workload):
    STRATA = ()  # (d, method, iteration target, kind of A, kind of B) per op of a round
    warmup = (8, "DR", 300.0, "affine", "quadratic")

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.paths = {"csv": os.path.join(out_dir, f"{self.name}.csv"),
                      "summary": os.path.join(out_dir, f"{self.name}.json")}

    def make_round(self, rng):
        return (solve.make_instance(rng, *stratum) for stratum in self.STRATA)

    def warmup_job(self):
        return solve.make_instance(np.random.default_rng(0), *self.warmup)

    def run(self, job, span=NULL_SPAN):
        return solve.run_solve(job, self.paths, span)

    def check(self, job, out):
        return solve.check_solve(job, out)

    def probe(self, job, out, probes, counts):
        probes.setdefault("eval", []).append(tracing.probe_eval(out["T"], out["x0"]))
        if job["method"] == "DR":
            probes.setdefault("shadow", []).append(
                tracing.probe_shadow(out["A"], out["B"], job["gamma"], out["x0"]))
        counts["splitting.iters"] += out["iterations"]
        counts["splitting.log_bytes"] += out["points"] * job["d"] * 8

    def record(self, job, out):
        return {"d": job["d"], "method": job["method"], "gamma_position": job["gamma_position"],
                "kinds": [job["instance"][s]["kind"] for s in "AB"],
                "iterations": out["iterations"] if out else None}

    def properties(self, records):
        dr = [r for r in records if r["method"] == "DR"]
        return {
            "d_histogram": _shares([r["d"] for r in records]),
            "method_mix": _shares([r["method"] for r in records]),
            "iterations_quartiles": _quartiles([r["iterations"] for r in records
                                                if r["iterations"] is not None]),
            "dr_shadow_tracking_share": 1.0 if dr else 0.0,
            "spec_kind_mix": _shares([k for r in records for k in r["kinds"]]),
            "gamma_position_quartiles": _quartiles([r["gamma_position"] for r in records]),
        }


def _small_strata():
    """17 strata: every kind on both sides, 8 iteration targets per method.
    DR repeats its top stratum so the slowest class has two ops per round and
    the tail percentile falls inside it."""
    targets = [float(t) for t in np.geomspace(100, 8000, 8)]
    dr_kinds = (("affine", "scaled_identity"), ("quadratic", "affine"),
                ("subspace_normal", "quadratic"), ("scaled_identity", "subspace_normal"),
                ("affine", "affine"), ("quadratic", "scaled_identity"),
                ("subspace_normal", "affine"), ("affine", "quadratic"))
    fb_kinds = (("affine", "subspace_normal"), ("quadratic", "scaled_identity"),
                ("scaled_identity", "affine"), ("affine", "quadratic"),
                ("quadratic", "subspace_normal"), ("scaled_identity", "quadratic"),
                ("affine", "affine"), ("quadratic", "affine"))
    rows = [("DR", t, k) for t, k in zip(targets, dr_kinds)]
    rows.append(rows[-1])
    rows += [("FB", t, k) for t, k in zip(targets, fb_kinds)]
    dims = [2 + (7 * i) % 15 for i in range(len(rows))]
    dims[len(targets)] = dims[len(targets) - 1]
    return tuple((d, m, t, a, b) for d, (m, t, (a, b)) in zip(dims, rows))


class SolveSmall(SolveWorkload):
    name = "solve-small"
    why = ("DR/FB at d 2-16 with 1e2-1e4 iterations: per-step Python dispatch through "
           "the Op closure tree, iterate bookkeeping and log writing dominate")
    round_s = 1.7
    traced_rounds = 2
    # Fixed strata keep the cost structure of a round the same for every seed;
    # the seed draws the spectra, bases, offsets, step and start point.
    STRATA = _small_strata()


class SolveLarge(SolveWorkload):
    name = "solve-large"
    why = ("DR/FB at d 256 and 512 with dense A: numpy kernels, O(d^3) spec and "
           "resolvent builds, d-sized logs and the instance-sized summary JSON")
    round_s = 6.0
    traced_rounds = 1
    warmup = (256, "DR", 100.0, "affine", "scaled_identity")
    # (d, method, target, kind of A, kind of B): fixed, so every round has the
    # same cost structure; B mixes O(d) and dense maps.  The counts put each
    # round's median on one stratum (512, DR, B = c*Id) with a wide cost gap
    # on either side, so noise does not swap it with a neighbour.
    STRATA = (
        (256, "FB", 100.0, "quadratic", "scaled_identity"),
        (256, "FB", 1000.0, "affine", "subspace_normal"),
        (256, "DR", 300.0, "quadratic", "affine"),
        (256, "DR", 1000.0, "affine", "quadratic"),
        (512, "DR", 300.0, "affine", "scaled_identity"),
        (512, "FB", 1000.0, "affine", "quadratic"),
        (512, "DR", 100.0, "quadratic", "subspace_normal"),
        (512, "DR", 100.0, "affine", "affine"),
        (512, "FB", 300.0, "quadratic", "affine"),
    )


class Verify(Workload):
    name = "verify"
    why = ("named suite plus random certified compositions checked on 1e3-1e4 sampled "
           "pairs, some with tightest-class fits: sampling, verifier, batched Op evaluation")
    round_s = 0.8
    traced_rounds = 3

    def __init__(self, out_dir):
        super().__init__(out_dir)
        from opsplit import verifier
        self.named = tuple(verifier.NAMED_CASES)
        self.kinds = tuple(verifier.COMPOSITION_KINDS)

    def make_round(self, rng):
        return verify.make_round(rng, self.named, self.kinds)

    def warmup_job(self):
        return {"type": "random", "kind": self.kinds[0], "pairs": 2500, "seed": 1, "fit": False}

    def run(self, job, span=NULL_SPAN):
        return verify.run_case(job)

    def check(self, job, out):
        return verify.check_case(job, out)

    def probe(self, job, out, probes, counts):
        counts["verifier.cases"] += 1
        if job["type"] == "random":
            probes.setdefault("batch", []).append(
                tracing.probe_batch(out["op"], job["pairs"], job["seed"]))

    def record(self, job, out):
        return dict(job)  # a few scalars

    def properties(self, records):
        rnd = [j for j in records if j["type"] == "random"]
        return {
            "case_mix": _shares([j["type"] for j in records]),
            "composition_kind_mix": _shares([j["kind"] for j in rnd]),
            "pairs_quartiles": _quartiles([j["pairs"] for j in rnd]),
            "fit_share": round(sum(j["fit"] for j in rnd) / len(rnd), 4) if rnd else 0.0,
        }


class Figure(Workload):
    name = "figure"
    why = ("every preset at resolution 512 (arrays of a few MiB) and 2048 (tens of MiB): "
           "numpy raster and the Python run-length loop of SVG emission; no other layer is busy")
    round_s = 5.0
    traced_rounds = 1
    min_rounds = 2  # every figure is emitted twice and compared byte for byte

    def __init__(self, out_dir):
        super().__init__(out_dir)
        from opsplit import figures
        self.presets = tuple(figures.PRESET_NAMES)
        self.path = os.path.join(out_dir, "figure.svg")
        self.checker = figure.FigureChecker()

    def make_round(self, rng):
        return figure.make_round(rng, self.presets)

    def warmup_job(self):
        return {"type": "figure", "preset": "averaged-averaged-0.5-0.5", "resolution": 512,
                "pixel_seed": 1}

    def run(self, job, span=NULL_SPAN):
        return figure.run_figure(job, self.path)

    def check(self, job, out):
        return self.checker(job, out)

    def unchecked(self):
        return self.checker.unpaired()

    def record(self, job, out):
        return {"resolution": job["resolution"], "preset": job["preset"]}

    def properties(self, records):
        return {"resolution_mix": _shares([r["resolution"] for r in records]),
                "preset_mix": _shares([r["preset"] for r in records])}


WORKLOADS = {w.name: w for w in (SolveSmall, SolveLarge, Verify, Figure)}
