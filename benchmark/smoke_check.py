#!/usr/bin/env python3
"""Check fqbench result files against the metrics BENCHMARK.json declares.

    python3 benchmark/smoke_check.py BENCHMARK.json RESULT.json...

Every declared workload must appear across the files; in each, an
untraced result must hold exactly the end-to-end metrics and a traced one
exactly the per-layer metrics, each with its declared unit, a valid name
and a finite value, and the workload must have been correct. A traced
result's spans file (<out>/<workload>.trace.json, beside results/) must
load as Chrome trace-event JSON. Exits 1 on any difference. Standard
library only.
"""
import json
import math
import os
import re
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_spans(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"{path}: not a Chrome trace: {e}"]
    bad = [e for e in events
           if e.get("ph") != "X" or not isinstance(e.get("dur"), (int, float))]
    if not events or bad:
        return [f"{path}: {len(events)} events, {len(bad)} malformed"]
    return []


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    problems, seen = [], set()
    for path in sys.argv[2:]:
        with open(path) as f:
            doc = json.load(f)
        declared = {m["name"]: m["unit"]
                    for m in bench["per_layer" if doc["trace"] else "end_to_end"]}
        for wl, res in doc["workloads"].items():
            seen.add(wl)
            where = f"{path}: {wl}"
            if not res["correct"]:
                problems.append(f"{where}: incorrect: {res['problems']}")
            got = res["metrics"]
            for name in sorted(set(declared) ^ set(got)):
                side = "missing" if name in declared else "undeclared"
                problems.append(f"{where}: {side} metric {name}")
            if doc["trace"]:
                problems += check_spans(os.path.join(
                    os.path.dirname(os.path.dirname(os.path.abspath(path))),
                    f"{wl}.trace.json"))
            for name, m in got.items():
                if not NAME.match(name):
                    problems.append(f"{where}: invalid metric name {name!r}")
                if name in declared and m.get("unit") != declared[name]:
                    problems.append(f"{where}: {name} unit {m.get('unit')!r}"
                                    f" != declared {declared[name]!r}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{where}: {name} value {v!r}")
    for w in bench["workloads"]:
        if w["name"] not in seen:
            problems.append(f"workload {w['name']} not in any result file")
    for p in problems:
        print("smoke:", p)
    print(f"smoke: {len(sys.argv) - 2} result files, "
          f"{'OK' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
