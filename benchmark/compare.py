#!/usr/bin/env python3
"""Compare two benchmark result files workload by workload.

    python3 benchmark/compare.py benchmark/baselines/seed.json .bench_out/results.json

Both files are run.py suite results. For every workload and end-to-end
metric, the medians of the two sets are compared in the metric's direction
against its bound from BENCHMARK.json:

  regressed   the new median is worse than the base median by more than the bound
  better      it is better by more than the bound
  unchanged   it is within the bound either way
  unresolved  the run-to-run spread (IQR / median) of either set exceeds the
              bound, so the medians cannot be told apart; unless every new run
              reads better than every base run, which reports "better"

Prints one row per workload, then each metric's medians and quartiles, and
exits 1 when any metric regressed or is unresolved.
"""

import argparse
import json
import pathlib
import sys

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (benchmark/metrics.py)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def classify(base, new, bound, better):
    """Status of one metric from its base and new run values.
    Returns (status, worse, spread): `worse` is the relative change of the
    median, positive when worse; `spread` the larger IQR/median of the two."""
    b, n = metrics.median(base), metrics.median(new)
    change = (n - b) / abs(b) if b else 0.0
    worse = change if better == "lower" else -change
    spread = max(metrics.spread(base), metrics.spread(new))
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if spread > bound:
        status = "better" if all_better else "unresolved"
    elif worse > bound:
        status = "regressed"
    elif worse < -bound:
        status = "better"
    else:
        status = "unchanged"
    return status, worse, spread


def run_values(results, workload, name):
    return [run["metrics"][name] for run in results["workloads"][workload]["runs"]
            if name in run["metrics"]]


def compare(base, new, spec):
    """{workload: [(metric, status, worse, spread, base values, new values)]}."""
    out = {}
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        rows = []
        for m in spec["end_to_end"]:
            b = run_values(base, workload, m["name"])
            n = run_values(new, workload, m["name"])
            if b and n:
                rows.append((m["name"], *classify(b, n, m["bound"], m["better"]), b, n))
        out[workload] = rows
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    result = compare(base, new, spec)

    names = [m["name"] for m in spec["end_to_end"]]
    width = max(len(w) for w in result) if result else 8
    print(f"{'workload':<{width}}  " + "  ".join(f"{n:>24}" for n in names))
    for workload, rows in result.items():
        cells = {r[0]: f"{r[2]:+.1%} {r[1]}" for r in rows}
        print(f"{workload:<{width}}  " + "  ".join(f"{cells.get(n, '-'):>24}" for n in names))
    print()
    bad = 0
    for workload, rows in result.items():
        for name, status, worse, spread, b, n in rows:
            bq1, bmid, bq3 = metrics.quartiles(b)
            nq1, nmid, nq3 = metrics.quartiles(n)
            m = bounds[name]
            print(f"{workload} {name}: {status} ({worse:+.1%} worse, bound {m['bound']:.0%}, "
                  f"spread {spread:.1%}) base {bmid:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(b)} -> "
                  f"new {nmid:.6g} [{nq1:.6g}, {nq3:.6g}] n={len(n)} {m['unit']}")
            bad += status in ("regressed", "unresolved")
    print(f"\n{bad} regressed or unresolved" if bad else "\nno regressions, nothing unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
