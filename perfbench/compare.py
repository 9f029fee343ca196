#!/usr/bin/env python3
"""Compares benchmark results of two builds, workload by workload.

    python3 perfbench/compare.py BASE_RESULT... --new NEW_RESULT...

Each argument is a result file written by perfbench/run.py (or a directory
of them). Untraced results are grouped by workload; for every end-to-end
metric the medians of the two sides are compared against the metric's bound
in BENCHMARK.json, in the metric's "better" direction. Results measured on
different hosts (CPU model, core count, compiler, flags or build type) are
not comparable: such a workload reports "no baseline" instead of a pass or
a fail. Exits 1 when any comparable metric regressed beyond its bound.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    results = []
    for path in paths:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
                 if os.path.isdir(path) else [path])
        for f in files:
            with open(f) as fh:
                doc = json.load(fh)
            if doc.get("trace") == 0:
                results.append(doc)
    return results


def by_workload(results):
    groups = {}
    for doc in results:
        groups.setdefault(doc["workload"], []).append(doc)
    return groups


def hosts(docs):
    return {json.dumps(d["provenance"]["host"], sort_keys=True) for d in docs}


def compare(base, new, contract):
    """Returns (lines, regressed)."""
    lines, regressed = [], False
    base_groups, new_groups = by_workload(base), by_workload(new)
    for workload in sorted(set(base_groups) | set(new_groups)):
        b, n = base_groups.get(workload, []), new_groups.get(workload, [])
        if not b or not n:
            lines.append(f"{workload}: no baseline (results on one side only)")
            continue
        if len(hosts(b) | hosts(n)) != 1:
            lines.append(f"{workload}: no baseline (measured on different hosts)")
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            bv = [d["end_to_end"][name]["value"] for d in b
                  if d["end_to_end"].get(name, {}).get("value") is not None]
            nv = [d["end_to_end"][name]["value"] for d in n
                  if d["end_to_end"].get(name, {}).get("value") is not None]
            if not bv or not nv:
                lines.append(f"{workload} {name}: no data")
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "FAIL" if worse > metric["bound"] else "pass"
            regressed |= verdict == "FAIL"
            lines.append(f"{workload} {name}: {bm:.6g} -> {nm:.6g} {metric['unit']} "
                         f"({change:+.1%}, bound {metric['bound']:.0%}) {verdict}")
    return lines, regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    lines, regressed = compare(load(args.base), load(args.new), contract)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
