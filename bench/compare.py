"""Compare benchmark records of two commits, metric by metric.

    python3 bench/compare.py --base .bench_out/A*.json --change B*.json

Each file is a record written by run.py (one run).  All records must be of
one workload and one trace mode, and must come from the same environment:
nproc, CPU model and the Python, numpy, scipy and mpmath versions.  If
any of these differ, the comparison is refused (exit 3).  The git commit,
source digest and load averages are recorded but may differ.

For every metric it prints each side's median and quartiles and the change
of the median, judged against the bound BENCHMARK.json fixes for the
metric (end-to-end metrics only; per-layer metrics have no bound).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_ENV = ("nproc", "cpu_model", "python", "numpy", "scipy", "mpmath")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True, type=Path)
    ap.add_argument("--change", nargs="+", required=True, type=Path)
    args = ap.parse_args()
    sides = {side: [json.loads(p.read_text()) for p in getattr(args, side)]
             for side in ("base", "change")}
    records = sides["base"] + sides["change"]

    kinds = {(r["workload"], r["trace"]) for r in records}
    if len(kinds) != 1:
        print(f"refused: records mix workloads or trace modes: {sorted(kinds)}")
        return 3
    envs = {tuple(r["environment"].get(k) for k in SAME_ENV) for r in records}
    if len(envs) != 1:
        print("refused: the records come from different environments:")
        for env in sorted(envs, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(SAME_ENV, env)))
        return 3

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    workload, trace = kinds.pop()
    print(f"workload {workload}  trace {trace}  runs base {len(sides['base'])}"
          f"  change {len(sides['change'])}")
    worse = 0
    for name in records[0]["metrics"]:
        vals = {side: [r["metrics"][name]["value"] for r in recs]
                for side, recs in sides.items()}
        (b1, b2, b3), (c1, c2, c3) = (quartiles(vals["base"]),
                                      quartiles(vals["change"]))
        change = (c2 - b2) / abs(b2) if b2 else float("nan")
        verdict = ""
        rule = rules.get(name)
        if rule:
            signed = change if rule["better"] == "lower" else -change
            if signed > rule["bound"]:
                verdict, worse = f"WORSE than bound {rule['bound']}", worse + 1
            else:
                verdict = f"within bound {rule['bound']}"
        print(f"  {name:40s} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  change "
              f"{c2:.6g} [{c1:.6g}, {c3:.6g}]  {change:+.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
