#!/usr/bin/env python3
"""Summarise and compare sets of perfbench runs.

Each set is a directory of files, one per run, holding that run's standard
output (the runner line, notes, and the final JSON result line). Runs are
paired across sets in file-name order, so name them in the order they ran.

    python3 perfbench/compare.py SET            # spread of one set
    python3 perfbench/compare.py PARENT CHANGE  # two sets, parent first

For every workload and end-to-end metric it prints each set's sample count,
median and quartiles (statistics.quantiles, n=4) and the spread: the
quartile distance as a share of the median. With two sets it adds:

  no_worse  the regression test: the change's median is no worse than the
            parent's by more than the metric's bound from BENCHMARK.json;
  agree     two-sided: the medians differ, either way, by no more than
            the bound (two sets of the same code must agree);
  claim     the pair rule for a claimed gain: the change is better in at
            least 9 of every 10 pairs (ties count for neither side) and the
            medians differ by more than the parent's quartile distance.

With one set, "in_bound" says whether the spread is within the metric's
bound and "steady" whether it is within a third of it, the target a
benchmark change must meet. Each set's host steal share (CPU time the
hypervisor gave other guests during the runs) and host factor (each run's
median host-speed kernel time over its nominal time, see README.md) are
printed per workload.
Exit status is 1 when a set holds a run that failed an op.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_set(path):
    """Returns {workload: [(name, result)]} in file-name order."""
    runs = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        workload, result, runner = None, None, {}
        with open(full) as f:
            for line in f:
                line = line.strip()
                if line.startswith('{"runner"'):
                    runner = json.loads(line)["runner"]
                    workload = runner["workload"]
                elif line.startswith('{"correct"'):
                    result = json.loads(line)
        if workload is None or result is None:
            continue
        result["steal"] = runner.get("host_steal_share")
        result["host_factor"] = runner.get("host_factor")
        runs.setdefault(workload, []).append((name, result))
    return runs


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(parent, change, better):
    """Fractional worsening of change against parent (negative = better)."""
    if better == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_bench()
    sets = [load_set(p) for p in argv[1:]]
    failed = False
    for s in sets:
        for runs in s.values():
            for name, res in runs:
                if not res["correct"] or res["failed"]:
                    print(f"run {name}: {res['failed']} of {res['attempted']} ops failed")
                    failed = True
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for i, s in enumerate(sets):
            steal = [r["steal"] for _, r in s.get(workload, []) if r.get("steal") is not None and r["steal"] >= 0]
            if steal:
                print(f"  set {i + 1}: host steal share per run min={min(steal):.1%} median={statistics.median(steal):.1%} max={max(steal):.1%}")
            factor = [r["host_factor"] for _, r in s.get(workload, []) if r.get("host_factor")]
            if factor:
                print(f"  set {i + 1}: host factor per run min={min(factor):.3f} median={statistics.median(factor):.3f} max={max(factor):.3f}")
        for mname, m in metrics.items():
            cols = []
            vals = []
            for s in sets:
                v = [r["metrics"][mname]["value"] for _, r in s.get(workload, []) if mname in r["metrics"]]
                vals.append(v)
                if len(v) < 2:
                    cols.append(f"n={len(v)}")
                    continue
                med, q1, q3, spread = summary(v)
                cols.append(f"n={len(v)} med={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.2%}")
            verdict = ""
            if len(sets) == 1 and len(vals[0]) >= 2:
                spread = summary(vals[0])[3]
                verdict = (f"bound={m['bound']:.0%} in_bound={'yes' if spread <= m['bound'] else 'NO'} "
                           f"steady={'yes' if spread <= m['bound'] / 3 else 'NO'}")
            elif len(sets) == 2 and min(len(vals[0]), len(vals[1])) >= 2:
                pm, pq1, pq3, _ = summary(vals[0])
                cm = summary(vals[1])[0]
                w = worse_by(pm, cm, m["better"])
                pairs = list(zip(vals[0], vals[1]))
                wins = sum(1 for a, b in pairs if worse_by(a, b, m["better"]) < 0)
                claim = wins >= 0.9 * len(pairs) and abs(cm - pm) > (pq3 - pq1)
                verdict = (f"better by {-w:+.2%} no_worse={'yes' if w <= m['bound'] else 'NO'} "
                           f"agree={'yes' if abs(w) <= m['bound'] else 'NO'} "
                           f"wins={wins}/{len(pairs)} claim={'yes' if claim else 'no'}")
            print(f"  {mname:18s} " + " | ".join(cols) + (f" | {verdict}" if verdict else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
