"""Summarise the recorded untraced runs of one workload.

    python3 perfbench/spread.py --workload render [--since 20261017T190000]

Reads the run records that run.py writes to .perfbench_work/results/ and
prints, for each end-to-end metric, the values, their median, and the
distance between the first and third quartiles as a share of the median --
the spread that the metric's bound in BENCHMARK.json must exceed.  Only
records of the current src/ tree are used.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--since", default="", help="only records stamped at or after this")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    recs = []
    for p in sorted((ROOT / ".perfbench_work" / "results").glob(f"{args.workload}-*-trace0-*.json")):
        stamp = p.stem.split("-")[3]
        if stamp >= args.since:
            recs.append(json.loads(p.read_text()))
    if not recs:
        print("no records")
        return 1
    sha = recs[-1]["machine"]["src_sha256"]
    recs = [r for r in recs if r["machine"]["src_sha256"] == sha]
    print(f"{args.workload}: {len(recs)} runs, seeds {[r['seed'] for r in recs]}, "
          f"failed {sum(r['failed'] for r in recs)}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in recs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med
        flag = "ok" if share < bound / 3 else ("within bound" if share <= bound else "OVER BOUND")
        print(f"  {name}: median {med:.4f}, spread {share:.4f} (bound {bound}) {flag}; "
              f"values {[round(v, 4) for v in values]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
