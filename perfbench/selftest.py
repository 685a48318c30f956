"""Self-tests of the benchmark (not of opsplit).

    python3 perfbench/run.py selftest

1. BENCHMARK.json names exactly the metrics the code prints, with their units.
2. A doctored wrong result is counted as failed, for every workload (for
   figures: a wrong raster at resolution 512, an SVG that lacks its last run
   at 2048).
3. Two traced runs with one seed give the same input digest and every count
   in the per-layer table exactly; a second seed gives other inputs and no
   failures.
Takes a few minutes; prints one line per check and exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

COUNT_UNITS = ("count", "B")


def _check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    return ok


def check_manifest(root, end_to_end, per_layer):
    bench = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return (_check(e2e == end_to_end, "BENCHMARK.json end_to_end matches the printed metrics")
            & _check(layer == per_layer, "BENCHMARK.json per_layer matches the printed metrics")
            & _check(set(w["name"] for w in bench["workloads"]) == set(_workloads()),
                     "BENCHMARK.json workloads match the code"))


def _workloads():
    import workloads
    return workloads.WORKLOADS


def _doctor(job, out):
    """A wrong result of the same shape as a right one."""
    out = dict(out)
    if job["type"] == "solve":
        out["final"] = out["final"] + 1e-3 * (1.0 + np.abs(out["final"]).max())
    elif job["type"] == "named":
        out["agree"] = not out["agree"]
    elif job["type"] == "random":
        out["passed"] = False
    elif job["resolution"] == 512:
        raster = out["raster"]
        out["raster"] = type(raster)(~raster.grid, raster.extent, raster.resolution)
    else:
        text = out["svg"]
        end = text.index(' Z" ')
        out["svg"] = text[:text.rfind(" M ", 0, end)] + text[end + 2:]
    return out


def check_doctored(out_dir):
    import run

    ok = True
    for name, cls in _workloads().items():
        wl = cls(out_dir)
        jobs = list(wl.make_round(np.random.default_rng(5)))
        if name == "figure":  # doctored first emissions of figures with a raster
            jobs = [j for j in jobs if j["preset"] != "single-class"][:2]
        else:
            jobs = sorted(jobs, key=lambda j: j.get("predicted_iterations", 0))[:3]
        loop = run.Loop(wl, check=lambda job, out, wl=wl: wl.check(job, _doctor(job, out)))
        for job in jobs:
            loop.run(job)
        ok &= _check(loop.failed == len(jobs), f"{name}: {loop.failed}/{len(jobs)} doctored "
                                                f"results counted as failed")
        honest = run.Loop(cls(out_dir))
        for job in jobs:
            honest.run(job)
        ok &= _check(honest.failed == 0, f"{name}: the same results undoctored pass")
    return ok


def _traced(script, root, name, seed):
    proc = subprocess.run([sys.executable, str(script), "--workload", name, "--seed", str(seed),
                           "--trace", "1"], capture_output=True, text=True, cwd=root, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-1000:])
    saved = [ln.split("saved ", 1)[1] for ln in proc.stdout.splitlines() if "  saved " in ln]
    return json.loads((root / saved[-1]).read_text())


def check_repeat(script, root, names, per_layer):
    ok = True
    counts = [k for k, unit in per_layer.items() if unit in COUNT_UNITS]
    for name in names:
        a, b = _traced(script, root, name, 3), _traced(script, root, name, 3)
        other = _traced(script, root, name, 4)
        ok &= _check(a["input_digest"] == b["input_digest"], f"{name}: one seed, same inputs")
        diff = [k for k in counts if a["metrics"][k] != b["metrics"][k]]
        ok &= _check(not diff, f"{name}: counts repeat exactly for one seed "
                               f"({len(counts)} counts{', differ: ' + ', '.join(diff) if diff else ''})")
        ok &= _check(other["input_digest"] != a["input_digest"], f"{name}: a second seed changes the inputs")
        ok &= _check(a["failed"] == b["failed"] == other["failed"] == 0,
                     f"{name}: no failures with either seed")
    return ok


def main(script, root):
    import run

    out_dir = str(run.OUT / "work")
    ok = check_manifest(root, run.END_TO_END, run.PER_LAYER_UNITS)
    ok &= check_doctored(out_dir)
    ok &= check_repeat(script, root, list(_workloads()), run.PER_LAYER_UNITS)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1
