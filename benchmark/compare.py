#!/usr/bin/env python3
"""Compare two sets of fqbench result files, metric by metric.

    python3 benchmark/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are each a directory (every *.json below it) or a glob of
result files written by benchmark/run.sh (benchmark/out/results/*.json).
BASE is the parent commit, NEW the change. For every (metric, workload)
pair the report gives each side's median and quartiles, the share of
pairs NEW won (runs paired by seed, ties count for neither side), and a
verdict:

  improved    NEW wins at least 9/10 of the pairs and the medians differ
              by more than BASE's own spread (its interquartile distance);
  regressed   NEW's median is worse than BASE's by more than the metric's
              bound in BENCHMARK.json (end-to-end metrics only);
  unresolved  BASE's spread is wider than the bound, so "unchanged" cannot
              be claimed -- unless every NEW run beats every BASE run;
  unchanged   none of the above.

Exits 1 when any pair regressed. Standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def result_files(spec):
    if os.path.isdir(spec):
        return sorted(glob.glob(os.path.join(spec, "**", "*.json"),
                                recursive=True))
    return sorted(glob.glob(spec))


def load(spec):
    """{(workload, metric): {seed: value}} plus units, from result files."""
    values, units = {}, {}
    for path in result_files(spec):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "fqbench-result/1":
            continue
        for wl, res in doc["workloads"].items():
            for name, m in res["metrics"].items():
                if m["value"] is None:
                    continue
                key = (wl, name)
                runs = values.setdefault(key, {})
                seed = doc["seed"]
                while seed in runs:  # a repeated seed is another run
                    seed = f"{seed}'"
                runs[seed] = float(m["value"])
                units[key] = m["unit"]
    return values, units


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(base, new, better, bound):
    lower = better == "lower"
    b1, bmed, b3 = quartiles(list(base.values()))
    _, nmed, _ = quartiles(list(new.values()))
    seeds = [s for s in base if s in new]
    if seeds:
        pairs = [(base[s], new[s]) for s in seeds]
    else:  # no common seeds: pair in sorted order
        pairs = list(zip(sorted(base.values()), sorted(new.values())))
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    won = wins / len(pairs) if pairs else 0.0
    gain = (bmed - nmed) if lower else (nmed - bmed)
    all_better = all((b < a if lower else b > a)
                     for a in base.values() for b in new.values())
    if won >= 0.9 and gain > b3 - b1:
        return "improved", won
    if bound is not None and bmed != 0 and -gain / abs(bmed) > bound:
        return "regressed", won
    if (bound is not None and bmed != 0 and (b3 - b1) / abs(bmed) > bound
            and not all_better):
        return "unresolved", won
    return "unchanged", won


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    decl = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    order = {w["name"]: i for i, w in enumerate(bench["workloads"])}
    base, units = load(args.base)
    new, _ = load(args.new)
    keys = sorted((k for k in base if k in new and k[1] in decl),
                  key=lambda k: (order.get(k[0], 99), list(decl).index(k[1])))
    if not keys:
        print("no (workload, metric) pair is present on both sides")
        return 2

    print(f"{'workload':13} {'metric':26} {'unit':9} "
          f"{'base median [q1, q3]':>32} {'new median [q1, q3]':>32} "
          f"{'delta':>8} {'won':>5}  verdict")
    counts = {}
    for wl, name in keys:
        m = decl[name]
        v, won = verdict(base[(wl, name)], new[(wl, name)], m["better"],
                         m.get("bound"))
        counts[v] = counts.get(v, 0) + 1
        b1, bmed, b3 = quartiles(list(base[(wl, name)].values()))
        n1, nmed, n3 = quartiles(list(new[(wl, name)].values()))
        delta = (nmed / bmed - 1.0) * 100 if bmed else 0.0
        bs = f"{bmed:.5g} [{b1:.4g}, {b3:.4g}]"
        ns = f"{nmed:.5g} [{n1:.4g}, {n3:.4g}]"
        note = "" if "bound" in m else " (no bound)"
        print(f"{wl:13} {name:26} {units[(wl, name)]:9} {bs:>32} {ns:>32} "
              f"{delta:>+7.2f}% {won:>5.2f}  {v}{note}")
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
