#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout. Prints a table of every metric
with its unit, writes the full result with its provenance to
<build>/results/ (or --out), and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json when untraced, the per-layer ones when traced.
Exits nonzero when the sources are missing, the build fails, a metric is
missing or any output check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no SPI sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        os.makedirs(out, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "perfbench_unit", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def cmake_cache(out):
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """sha256 over every file under src/ and perfbench/ (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(out, seed):
    cache = cmake_cache(out)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
                                 "-Wall -Wextra") if x)
    return {
        "host": {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "compiler": version, "flags": flags, "build_type": build_type},
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fmt(value):
    return "null" if value is None else f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="result file (default: <build>/results/...)")
    args = parser.parse_args()

    try:
        contract = load_contract()
        out = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError, ValueError) as e:
        log(f"cannot build the benchmark: {e}")
        return 2
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}")
        return 2

    binary = os.path.join(out, "bin", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if run.returncode != 0:
        log(f"{args.workload} exited with {run.returncode}")
        return 1
    result = json.loads(run.stdout.strip().splitlines()[-1])

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    measured = result["layers"] if args.trace else result["e2e"]
    metrics, missing = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = result["failed"] == 0

    document = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                "provenance": provenance(out, args.seed), "correct": correct,
                "attempted": result["attempted"], "failed": result["failed"],
                "check_failures": result["check_failures"], "end_to_end": result["e2e"],
                "per_layer": result["layers"], "details": result["details"]}
    path = args.out or os.path.join(out, "results",
                                    f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(document, f, indent=1, sort_keys=True)

    for section in ("end_to_end", "per_layer", "details"):
        if not document[section]:
            continue
        print(f"[{args.workload} {section}]")
        for name, v in sorted(document[section].items()):
            print(f"  {name:48s} {fmt(v['value']):>14s} {v['unit']}")
    for failure in result["check_failures"]:
        print(f"  CHECK FAILED: {failure}")
    print(f"results: {path}")

    if missing:
        log(f"metrics missing or null: {', '.join(missing)}")
        return 1
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
