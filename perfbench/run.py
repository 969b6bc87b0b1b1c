#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from this checkout's
sources and runs one workload.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/; later
runs rebuild incrementally. The binary prints every metric with its unit;
this script passes that through, checks the values that must repeat exactly
across runs and seeds of the same sources, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("compile-cold", "explore-warm", "daemon-mix")
# Sources whose contents define "the same code" for the exact-repeat check.
FINGERPRINTED = ("src", "perfbench", "bench/kernels.hpp", "tests/corpus", "tests/golden")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT, 2)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        # Build output goes to stderr so stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def fingerprint():
    h = hashlib.sha256()
    for entry in FINGERPRINTED:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:24]


def check_exact(exact):
    """Compares this run's exact values with earlier runs of the same sources;
    returns the names of those that differ."""
    store_dir = os.path.join(BUILD, "exact")
    os.makedirs(store_dir, exist_ok=True)
    store = os.path.join(store_dir, fingerprint() + ".json")
    seen = {}
    if os.path.isfile(store):
        with open(store) as fh:
            seen = json.load(fh)
    values = {name: m["value"] for name, m in exact.items()}
    differing = [n for n, v in values.items() if n in seen and seen[n] != v]
    for name in differing:
        print("exact-repeat check: %s was %r in an earlier run, now %r"
              % (name, seen[name], values[name]))
    merged = dict(values, **seen)
    tmp = "%s.%d.tmp" % (store, os.getpid())
    with open(tmp, "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
    os.replace(tmp, store)
    return differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checker counts wrong outputs")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test", "--root", ROOT], cwd=ROOT).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
           # Relative, so the AF_UNIX path stays short wherever the checkout is.
           "--socket", os.path.join(".bench_build", "perfbench-%d.sock" % os.getpid())]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark binary did not finish within 170 s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("the benchmark binary exited with code %d" % proc.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    differing = check_exact(result["exact"])
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            # A per-layer metric whose layer is gone (a removed pass) reads 0.
            print("note: per-layer metric %s was not produced; reported as 0" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, declared in %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    failed = result["failed"] + len(differing)
    print(json.dumps({"correct": result["correct"] and not differing,
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
