#!/usr/bin/env python3
"""Benchmark of the opsplit package.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
    python3 perfbench/run.py selftest

A run measures one workload in its own process as a closed loop with one
client: ops run back to back, each op's check runs between ops and off the
clock, and the timed phase runs ``round(seconds / round_s)`` whole rounds of
jobs (the same work on every commit).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs a fixed number of rounds untraced and then traced and
prints the per-layer table.  The last line of standard output is one JSON
object; every run also saves its full record under ``perfbench/out/results``.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in child processes
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11

END_TO_END = {
    "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "cli.parse_ms": "ms", "cli.emit_ms": "ms",
    "calculus.calls": "count", "calculus.busy_ms": "ms", "calculus.compose_us": "us",
    "calculus.guard_rejects": "count", "calculus.certified_ratio": "1",
    "operators.eval_us": "us", "operators.nodes_per_T": "count",
    "operators.batch_eval_ns_per_row": "ns", "operators.spec_build_ms": "ms",
    "operators.resolvent_build_ms": "ms",
    "splitting.plan_us": "us", "splitting.build_ms": "ms", "splitting.iterate_ms": "ms",
    "splitting.iters": "count", "splitting.step_us": "us", "splitting.rate_report_us": "us",
    "splitting.write_csv_ms": "ms", "splitting.shadow_eval_us": "us",
    "splitting.log_bytes": "B",
    "sampling.pair_samples_ms": "ms", "sampling.pairs_drawn": "count",
    "verifier.cases": "count", "verifier.membership_ms": "ms",
    "verifier.pairs_checked": "count", "verifier.ns_per_pair": "ns",
    "verifier.named_ms": "ms", "verifier.fit_ms": "ms", "verifier.fit_passes": "count",
    "figures.raster_ms": "ms", "figures.pixels": "count", "figures.ns_per_pixel": "ns",
    "figures.svg_ms": "ms", "figures.svg_runs": "count", "figures.svg_bytes": "B",
    "cli.self_ms": "ms", "operators.self_ms": "ms", "splitting.self_ms": "ms",
    "sampling.self_ms": "ms", "verifier.self_ms": "ms", "figures.self_ms": "ms",
    "trace.overhead_ratio": "1",
}


def import_opsplit():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "opsplit" / "__init__.py").is_file():
        sys.exit(f"error: no opsplit sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import opsplit
    if Path(opsplit.__file__).resolve().parent != (src / "opsplit").resolve():
        sys.exit(f"error: imported opsplit from {opsplit.__file__}, not from {src}")
    return opsplit


# ---------------------------------------------------------------------------
# statistics


def tail(latencies):
    """``(value, percentile, beyond)``: the latency at the highest percentile
    with at least ten samples beyond it (the maximum when there are fewer)."""
    s = sorted(latencies)
    i = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


# ---------------------------------------------------------------------------
# running ops


class Loop:
    """Runs jobs one after another, timing each op and checking it off the
    clock; failures (raised or failed check) are counted, never retried.
    Of each op it keeps only the latency and the workload's small record of
    the op's properties, so that ``ru_maxrss`` measures one op at a time."""

    def __init__(self, workload, check=None):
        self.wl = workload
        self.check = check or workload.check
        self.latencies, self.records = [], []
        self.failed = 0
        self.errors = []
        self.digest = hashlib.sha256()

    def run(self, job, tracer=None):
        self.digest.update((job.get("input_sha256") or json.dumps(job, sort_keys=True)).encode())
        span = tracer.span if tracer else None
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.enabled = True
                with tracer.span("op"):
                    out = self.wl.run(job, span)
            else:
                out = self.wl.run(job)
        except Exception as exc:  # an op that raises counts as failed
            out = None
            self.errors.append(f"{type(exc).__name__}: {exc}"[:300])
        finally:
            if tracer:
                tracer.enabled = False
        dt = time.perf_counter() - t0
        ok = False
        if out is not None:
            try:
                ok = bool(self.check(job, out))
            except Exception as exc:
                self.errors.append(f"check {type(exc).__name__}: {exc}"[:300])
        if out is not None and not ok and len(self.errors) < 20:
            self.errors.append(f"check failed: {json.dumps(job, sort_keys=True)[:200]}")
        self.failed += not ok
        self.latencies.append(dt)
        self.records.append(self.wl.record(job, out))
        return out


def setup_probe(name, payload):
    """Seconds for a fresh interpreter to start, ``import opsplit`` and run
    one warm-up op.  The job is generated here and handed over on stdin."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__)), "probe", "--workload", name],
                          input=payload, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return time.perf_counter() - t0


def measure(wl, seed, seconds):
    import numpy as np

    job = wl.warmup_job()
    payload = json.dumps(job)
    warm = Loop(wl)
    warm.run(job)
    rng = np.random.default_rng(seed)
    loop = Loop(wl)
    rounds = max(wl.min_rounds, round(seconds / wl.round_s))
    # The set-up probes are spread evenly over the gaps before, between and
    # after the rounds, so that their median, like the op metrics, spans the
    # whole run rather than one stretch of it.
    probes_after = [(r + 1) * SETUP_PROBES // (rounds + 1) - r * SETUP_PROBES // (rounds + 1)
                    for r in range(rounds + 1)]
    setup = [setup_probe(wl.name, payload) for _ in range(probes_after[0])]
    per_round = []
    for r in range(rounds):
        start = len(loop.latencies)
        for job in wl.make_round(rng):  # drawn one at a time
            loop.run(job)
            del job  # free the instance before the next one is drawn
        per_round.append(loop.latencies[start:])
        setup += [setup_probe(wl.name, payload) for _ in range(probes_after[r + 1])]
    # Every round has the same mix, so the median over rounds of a per-round
    # statistic estimates it without letting a slow stretch of the machine
    # (seconds long on a shared host) move it.
    round_rates = [len(lat) / sum(lat) for lat in per_round]
    failed = loop.failed + warm.failed + wl.unchecked()
    value, pct, beyond = tail(loop.latencies)
    n = len(loop.latencies)
    metrics = {
        "ops_per_s": median(round_rates),
        "op_p50_ms": 1e3 * median([median(lat) for lat in per_round]),
        "op_tail_ms": 1e3 * value,
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "fail_ratio": failed / (n + 1),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "ops": n,
        "rounds": rounds,
        "round_rate_min_median_max": [min(round_rates), median(round_rates), max(round_rates)],
        "setup_probes": SETUP_PROBES,
    }
    return {"metrics": metrics, "extra": extra, "attempted": n + 1, "failed": failed,
            "errors": warm.errors + loop.errors, "input_digest": loop.digest.hexdigest(),
            "properties": wl.properties(loop.records)}


def measure_traced(wl, seed):
    import numpy as np

    import tracing

    warm = Loop(wl)
    warm.run(wl.warmup_job())
    rng = np.random.default_rng(seed)
    jobs = (job for _ in range(wl.traced_rounds) for job in wl.make_round(rng))
    plain, traced = Loop(wl), Loop(wl)
    tracer = tracing.Tracer()
    probes = {}
    tracer.install()
    try:
        # each job runs untraced and traced, alternating which goes first
        for i, job in enumerate(jobs):
            tracer.op = i
            if i % 2:
                plain.run(job)
            out = traced.run(job, tracer)
            if out is not None:
                wl.probe(job, out, probes, tracer.counts)
            out = None  # free it before the untraced run, as that run frees its own
            if not i % 2:
                plain.run(job)
            del job
    finally:
        tracer.uninstall()
    overhead = sum(traced.latencies) / sum(plain.latencies)
    n_ops = len(traced.latencies)
    metrics = tracing.layer_metrics(tracer, n_ops, probes, overhead)
    failed = warm.failed + plain.failed + traced.failed + wl.unchecked()
    spans_path = OUT / "traces" / f"{wl.name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "spans": tracer.dump(),
                   "counts": dict(tracer.counts)}, fh)
    layers = {}
    for name, _, self_t, _ in tracer.durations():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + self_t
    return {"metrics": metrics, "attempted": 2 * n_ops + 1, "failed": failed,
            "errors": warm.errors + plain.errors + traced.errors,
            "input_digest": plain.digest.hexdigest(),
            "extra": {"ops": n_ops, "spans": len(tracer.spans),
                      "spans_file": str(spans_path.relative_to(ROOT)),
                      "self_ms_by_layer": {k: 1e3 * v for k, v in sorted(layers.items())}},
            "properties": wl.properties(plain.records)}


# ---------------------------------------------------------------------------
# provenance and output


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(seed):
    import numpy as np

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(idx / 'level')} {_read(idx / 'type')} {_read(idx / 'size')}")
    return {"git_sha": sha, "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "blas_thread_cap": NPROC,
            "blas_env": {v: os.environ[v] for v in BLAS_VARS}, "nproc": NPROC,
            "cpu_model": cpu, "caches": caches, "seed": seed}


def save(record):
    d = OUT / "results"
    d.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{time.time_ns()}.json"
    with open(d / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return d / name


def print_table(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"(closed loop, 1 client, BLAS threads {NPROC})")
    print(f"  why: {record['why']}")
    units = END_TO_END if record["trace"] == 0 else PER_LAYER_UNITS
    for name, unit in units.items():
        v = record["metrics"][name]
        note = ""
        if name == "op_tail_ms":
            e = record["extra"]
            note = (f"  (p{e['tail_percentile']:.1f} of {e['ops']} ops, "
                    f"{e['tail_samples_beyond']} beyond)")
        print(f"  {name:34s} {v:14.6g} {unit}{note}")
    if record["trace"] == 0:
        print(f"  {'fail_ratio':34s} {record['extra']['fail_ratio']:14.6g} 1"
              f"  ({record['failed']} of {record['attempted']})")
    else:
        for layer, ms in record["extra"]["self_ms_by_layer"].items():
            print(f"  self time {layer:24s} {ms:14.6g} ms (total)")
    for key, value in record["properties"].items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    for err in record["errors"][:5]:
        print(f"  error: {err}")


def run_one(name, seed, seconds, trace):
    import workloads

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](str(OUT / "work"))
    res = measure_traced(wl, seed) if trace else measure(wl, seed, seconds)
    record = {"workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": provenance(seed), **res}
    path = save(record)
    print_table(record)
    print(f"  saved {path.relative_to(ROOT)}")
    units = PER_LAYER_UNITS if trace else END_TO_END
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed, seconds, trace):
    import workloads

    combined = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True,
                              cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in combined.values()),
                      "attempted": sum(r["attempted"] for r in combined.values()),
                      "failed": sum(r["failed"] for r in combined.values()),
                      "workloads": combined}))
    return 0


def run_probe(name):
    import workloads

    job = json.loads(sys.stdin.read())
    wl = workloads.WORKLOADS[name](str(OUT / "work"))
    wl.run(job)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import report
        return report.compare_main(argv[1:], ROOT)
    if argv and argv[0] == "selftest":
        if argv[1:]:
            sys.exit("usage: run.py selftest")
        import_opsplit()
        import selftest
        return selftest.main(Path(__file__), ROOT)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", nargs="?", choices=("probe",), help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_opsplit()
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}, all")
    if args.mode == "probe":
        return run_probe(args.workload)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
