"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved stdout of `bench/run.py` runs, one file per
run (for example `trace-3.json` from `--workload trace --seed 3`).  Runs
are paired by workload and seed; produce them with the same --seconds on
both sides, alternating which side runs first:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      for side in parent change; do   # swap the order on every other seed
        (cd $side && python3 bench/run.py --workload trace --seed $s) \
          > out/$side/trace-$s.json
      done
    done

One row per workload x end-to-end metric: each side's median and
quartiles, the pairs the change wins (ties count for neither) and a
verdict, using the bounds and directions in BENCHMARK.json:

  improved     the change wins at least 9/10 of at least 10 pairs and the
               medians differ by more than the parent's quartile spread
  no worse     the change's median is within the bound of the parent's,
               and both sides' spreads are within the bound
  worse        the change's median is worse by more than the bound, with
               both spreads within the bound
  unresolved   a spread exceeds the bound (unless every change run beats
               every parent run), or the pairs are too few to claim a gain
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, seed): {metric: value}} from saved run outputs (timed runs)."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if len(lines) < 2:
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        if record.get("trace"):
            continue
        runs[(record["workload"], record["seed"])] = {
            k: m["value"] for k, m in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict and win count for one metric; parent/change are paired lists."""
    sign = 1.0 if better == "lower" else -1.0       # sign * (c - p) < 0: change better
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    n = len(parent)
    pq, cq = quartiles(parent), quartiles(change)
    spread_p = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else float("inf")
    spread_c = (cq[2] - cq[0]) / abs(cq[1]) if cq[1] else float("inf")
    worse_by = sign * (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
    if (n >= 10 and wins >= 0.9 * n and sign * (cq[1] - pq[1]) < 0
            and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        return "improved", wins
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(spread_p, spread_c) > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    return "no worse", wins


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no paired runs (same workload and seed) found", file=sys.stderr)
        return 2
    print(f"{'workload':8s} {'metric':12s} {'unit':5s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [k for k in keys if k[0] == workload]
        if not pairs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[k][name] for k in pairs]
            c = [change[k][name] for k in pairs]
            v, wins = verdict(p, c, m["better"], m["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:8s} {name:12s} {m['unit']:5s} "
                  f"{pq[1]:<10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(62)
                  + f" {cq[1]:<10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(35)
                  + f" {wins:>2d}/{len(pairs):<3d}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
