#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/smoke_test.py

Builds perfbench, runs its C++ unit tests (arrival schedule, percentile
rule, capacity search), then a short untraced and traced run of every
workload in BENCHMARK.json, checking that each emits every metric the
contract names, with its unit, from correct outputs. Also checks that
compare.py says "no baseline" across hosts.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    if not ok:
        FAILURES.append(what)
        print(f"FAIL: {what}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    out = run.build()
    unit = subprocess.run([os.path.join(out, "bin", "perfbench_unit")])
    check(unit.returncode == 0, "C++ unit tests")

    with tempfile.TemporaryDirectory() as tmp:
        for w in contract["workloads"]:
            for trace, wanted in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
                path = os.path.join(tmp, f"{w['name']}-{trace}.json")
                p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                                    w["name"], "--seed", "3", "--seconds", "2", "--trace",
                                    str(trace), "--out", path],
                                   capture_output=True, text=True, cwd=ROOT)
                check(p.returncode == 0, f"{w['name']} trace={trace} exits 0: {p.stderr[-500:]}")
                if p.returncode != 0:
                    continue
                line = json.loads(p.stdout.strip().splitlines()[-1])
                check(sorted(line) == ["attempted", "correct", "failed", "metrics"],
                      f"{w['name']}: result line keys")
                check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                      f"{w['name']} trace={trace}: outputs correct")
                for m in wanted:
                    got = line["metrics"].get(m["name"])
                    check(got is not None and isinstance(got["value"], (int, float))
                          and got["unit"] == m["unit"],
                          f"{w['name']} trace={trace}: metric {m['name']} [{m['unit']}]")
                with open(path) as f:
                    doc = json.load(f)
                host = doc["provenance"]["host"]
                check(all(host.get(k) for k in ("cpu_model", "nproc", "compiler", "build_type")),
                      f"{w['name']}: provenance recorded")
                check(doc["provenance"]["seed"] == 3, f"{w['name']}: seed recorded")

        base = compare.load([os.path.join(tmp, "serve_tenants-0.json")])
        moved = json.loads(json.dumps(base))
        moved[0]["provenance"]["host"]["cpu_model"] = "another cpu"
        lines, regressed = compare.compare(base, moved, contract)
        check(lines == ["serve_tenants: no baseline (measured on different hosts)"] and not regressed,
              "compare reports no baseline across hosts")
        lines, regressed = compare.compare(base, base, contract)
        check(not regressed and all(line.endswith("pass") for line in lines),
              "compare passes a result against itself")

    print("smoke test: " + ("all passed" if not FAILURES else f"{len(FAILURES)} failed"))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
