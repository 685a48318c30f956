"""Compare two sets of saved results (parent vs change).  Reports; never gates.

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

Each directory holds result files saved by untraced runs.  Runs are paired by
seed.  For each workload and end-to-end metric the report gives each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

- unresolved: either side's spread (quartile distance over median) exceeds
  the metric's bound in BENCHMARK.json, unless every change run beats (or
  loses to) every parent run;
- improved: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the bound;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["metrics"]
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent, change, better, bound):
    p1, pm, p3, ps = spread(parent)
    _, cm, _, cs = spread(change)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    rel = sign * (cm - pm) / pm if pm else 0.0
    if max(ps, cs) > bound and not (all_better or all_worse):
        v = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    elif rel < -bound:
        v = "worse"
    else:
        v = "unchanged"
    return {"verdict": v, "parent": [p1, pm, p3], "change": spread(change)[:3],
            "wins": wins, "losses": losses, "pairs": len(pairs), "relative": rel}


def compare(parent_dir, change_dir, bench):
    parent, change = load(parent_dir), load(change_dir)
    rows = {}
    for wl in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[wl]) & set(change[wl]))
        if not seeds:
            continue
        row = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [parent[wl][s][name] for s in seeds]
            c = [change[wl][s][name] for s in seeds]
            row[name] = verdict(p, c, m["better"], m["bound"])
        rows[wl] = row
    return rows


def compare_main(argv, root):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    bench = json.loads((Path(root) / "BENCHMARK.json").read_text())
    rows = compare(argv[0], argv[1], bench)
    for wl, row in rows.items():
        cells = []
        for name, r in row.items():
            cells.append(f"{name} {r['verdict']} ({100 * r['relative']:+.1f}%, "
                         f"won {r['wins']}/{r['pairs']})")
        print(f"{wl:12s} " + "; ".join(cells))
    print(json.dumps(rows, sort_keys=True))
    return 0
