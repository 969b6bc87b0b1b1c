#!/usr/bin/env python3
"""Per-input pass breakdown from a perfbench trace file.

    python3 perfbench/trace_summary.py .bench_build/traces/compile-cold-seed1.json dct@u1

A traced run (--trace 1) writes its spans to .bench_build/traces/. Every
traced compile is one "compile" span labelled with its input, with one span
per pass under it (same thread, same request id). For each label given (all
labels when none is), this prints the number of traced compiles, the mean
compile time, and each pass's mean time and share of it, emission first.
"""
import json
import sys
from collections import defaultdict


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e.get("ph") == "X"]
    wanted = set(sys.argv[2:])
    label_of = {}
    compile_ms = defaultdict(list)
    for e in events:
        label = e["args"].get("label")
        if e["name"] == "compile" and label and (not wanted or label in wanted):
            label_of[(e["tid"], e["args"]["req"])] = label
            compile_ms[label].append(e["dur"] / 1000.0)
    pass_ms = defaultdict(lambda: defaultdict(float))
    for e in events:
        label = label_of.get((e["tid"], e["args"]["req"]))
        if label and e["name"].startswith("pass."):
            pass_ms[label][e["name"][5:]] += e["dur"] / 1000.0
    for label in sorted(compile_ms):
        n = len(compile_ms[label])
        total = sum(compile_ms[label]) / n
        emit = sum(ms for name, ms in pass_ms[label].items() if name.startswith("emit-")) / n
        print("%s: %d traced compiles, %.3f ms each; emission %.3f ms (%.1f%%)"
              % (label, n, total, emit, 100 * emit / total))
        for name, ms in sorted(pass_ms[label].items(), key=lambda kv: -kv[1]):
            print("  %-22s %8.3f ms %5.1f%%" % (name, ms / n, 100 * ms / n / total))


if __name__ == "__main__":
    main()
